"""Fig 5: relative error / speed-up vs sampling rate (n=4 dims).

Paper settings: m=100, n=4, sr ∈ {5, 10, 15, 20}%, ε=1. We use m=6/cell.
"""
from __future__ import annotations

from repro.experiments import run_artifact, save_artifact


def test_fig5_sampling_rate_analysis(benchmark, adult_fed_bench, amazon_fed_bench):
    feds = {"adult": adult_fed_bench, "amazon": amazon_fed_bench}

    def run():
        return run_artifact("fig5", lambda name, sf: feds[name])

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("fig5", tables)
    (rows,) = tables
    # trend check: higher sr must not increase error much on the big dataset
    count_rows = [
        r for r in rows if r["dataset"] == "amazon-lite" and r["agg"] == "COUNT"
    ]
    assert count_rows[-1]["rel_err"] < count_rows[0]["rel_err"] + 0.05
