"""Fig 1: runtime cost of data sharing in SMC — rows vs results.

The paper's motivating simulation: for random range queries over the
federated Adult table, sharing matching rows through SMC costs orders of
magnitude more than sharing only local results (≈0.04 s, constant). Our
SMC substrate reproduces the cost shape with real share arithmetic plus a
calibrated wire model (see DESIGN.md §4).
"""
from __future__ import annotations

from repro.experiments import run_artifact, save_artifact


def test_fig1_smc_sharing_cost(benchmark, adult_fed_bench):
    def run():
        return run_artifact("fig1", lambda name, sf: adult_fed_bench)

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("fig1", tables)
    (rows,) = tables

    # result sharing is constant and ~0.04 s; row-sharing cost grows with
    # the rows shared and reaches >100× on the larger queries
    assert all(0.005 < r["smc_results_s"] < 0.2 for r in rows)
    by_rows = sorted(rows, key=lambda r: r["rows_shared"])
    assert by_rows[-1]["ratio"] > by_rows[0]["ratio"]
    assert by_rows[-1]["ratio"] > 100
