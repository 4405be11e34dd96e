#!/usr/bin/env bash
# Tier-1 verify: the full test suite, exactly as ROADMAP.md states it.
# Run from anywhere; it changes to the repository root first.
# Extra arguments are passed to pytest (e.g. `tools/tier1.sh -x`).
cd "$(dirname "$0")/.." || exit 1
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)" SPARK_LOCAL_DIRS=/tmp/spark-local; timeout -k 10 2670 python -m pytest tests/ -q --continue-on-collection-errors -p no:cacheprovider "$@"
