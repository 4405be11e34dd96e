"""Fig 4 (+ the dims axis of Fig 7): relative error / speed-up vs number of
query dimensions, COUNT and SUM, both datasets.

Paper settings: m=100 random queries, n∈[2,7] Adult / n∈[2,5] Amazon,
sr=20% Adult / 5% Amazon, ε=1, δ=1e-3. We use m=6 per cell (wall-clock
budget; documented in EXPERIMENTS.md).
"""
from __future__ import annotations

from repro.experiments import run_artifact, save_artifact


def test_fig4_dimension_analysis(benchmark, adult_fed_bench, amazon_fed_bench):
    feds = {"adult": adult_fed_bench, "amazon": amazon_fed_bench}

    def run():
        return run_artifact("fig4", lambda name, sf: feds[name])

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("fig4", tables)
    (rows,) = tables
    # the Fig 4 shape: fewer dims ⇒ lower error (check the extremes, COUNT)
    by = {(r["dataset"], r["n_dims"], r["agg"]): r["rel_err"] for r in rows}
    assert by[("amazon-lite", 2, "COUNT")] < 0.25
