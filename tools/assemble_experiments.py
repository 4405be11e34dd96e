"""Inject benchmark_results/*.md tables into EXPERIMENTS.md placeholders.

Run after `pytest benchmarks/ --benchmark-only` (or `jobs/run_experiment.py`):
    PYTHONPATH=src python tools/assemble_experiments.py

Every artifact of ``repro.experiments.ARTIFACTS`` has the placeholder
``<NAME>_RESULTS`` for its result file.
"""
from __future__ import annotations

import os
import re

from repro.experiments import ARTIFACTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmark_results")
TARGET = os.path.join(ROOT, "EXPERIMENTS.md")

PLACEHOLDERS = {f"{name.upper()}_RESULTS": f"{a.result}.md" for name, a in ARTIFACTS.items()}


def main() -> None:
    text = open(TARGET).read()
    for key, fname in PLACEHOLDERS.items():
        path = os.path.join(RESULTS, fname)
        marker = f"<!-- {key} -->"
        if marker not in text:
            # already substituted on a previous run: replace the old block
            # between the BEGIN/END comments instead
            begin, end = f"<!-- BEGIN {key} -->", f"<!-- END {key} -->"
            if begin in text and os.path.exists(path):
                block = f"{begin}\n{open(path).read().strip()}\n{end}"
                text = re.sub(
                    re.escape(begin) + r".*?" + re.escape(end), block, text, flags=re.S
                )
            continue
        if not os.path.exists(path):
            print(f"[skip] {fname} not found for {key}")
            continue
        body = open(path).read().strip()
        block = f"<!-- BEGIN {key} -->\n{body}\n<!-- END {key} -->"
        text = text.replace(marker, block)
        print(f"[ok] {key} <- {fname}")
    open(TARGET, "w").write(text)


if __name__ == "__main__":
    main()
