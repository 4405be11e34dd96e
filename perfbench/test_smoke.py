"""Smoke test of the benchmark at a tiny scale.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

Runs every workload of ``BENCHMARK.json`` untraced and traced on seed 1 and
untraced on seed 2, in the test session's Spark, and checks that each run
passes its gates and emits exactly the metrics ``BENCHMARK.json`` names, and
that the generated query list depends on the seed and on nothing else.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import WORKLOADS, run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload(spark, tmp_path, workload):
    def once(seed: int, trace: bool) -> dict:
        r = run(spark, workload, seed, 1.0, trace=trace, tiny=True, tmp=str(tmp_path / f"{seed}{trace}"))
        assert r["correct"], r["info"]
        assert r["failed"] == 0 and r["attempted"] >= 1
        return r

    plain, traced, other = once(1, False), once(1, True), once(2, False)
    for r, kind in ((plain, "end_to_end"), (traced, "per_layer"), (other, "end_to_end")):
        got = {k: m["unit"] for k, m in r["metrics"].items()}
        assert got == _units(kind)
    for name, m in plain["metrics"].items():
        assert m["value"] > 0, name  # end-to-end metrics are never 0
    assert plain["info"]["queries_digest"] == traced["info"]["queries_digest"]
    assert plain["info"]["queries_digest"] != other["info"]["queries_digest"]


def test_fails_without_engine_sources(tmp_path):
    """Beside BENCHMARK.json alone, the command exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
