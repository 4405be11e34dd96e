"""Fig 8: SMC vs per-provider DP for sharing final results.

Paper setting: Adult on 4 providers, 5 random two-dimensional COUNT
queries, each repeated 5 times with and without SMC; reports the range of
Laplace noise and the speed-up. SMC should (i) add no significant runtime
overhead and (ii) produce a narrower noise range (one max-sensitivity
noise instead of the sum of four).
"""
from __future__ import annotations

from statistics import mean

from repro.experiments import run_artifact, save_artifact


def test_fig8_smc_vs_dp(benchmark, adult_fed_bench):
    def run():
        return run_artifact("fig8", lambda name, sf: adult_fed_bench)

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("fig8", tables)
    (rows,) = tables

    smc = [r for r in rows if r["mode"] == "SMC"]
    dp = [r for r in rows if r["mode"] == "DP"]
    # SMC result-sharing must not produce significant overhead (Fig 8 / Fig 1)
    assert mean(r["speedup"] for r in smc) > 0.5 * mean(r["speedup"] for r in dp)
