"""Fig 6 (+ the ε axis of Fig 7): relative error vs privacy budget ε.

Paper settings: m=100, n=4, sr = 5% Amazon / 10% Adult, ε ∈ [0.1, 1.3].
We use m=6/cell.
"""
from __future__ import annotations

from repro.experiments import run_artifact, save_artifact


def test_fig6_epsilon_analysis(benchmark, adult_fed_bench, amazon_fed_bench):
    feds = {"adult": adult_fed_bench, "amazon": amazon_fed_bench}

    def run():
        return run_artifact("fig6", lambda name, sf: feds[name])

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("fig6", tables)
    (rows,) = tables
    # the canonical DP trend on the big dataset: ε=0.1 worse than ε=1.3
    ama = [r for r in rows if r["dataset"] == "amazon-lite" and r["agg"] == "COUNT"]
    assert ama[0]["rel_err"] >= ama[-1]["rel_err"] - 0.02
