"""Table 1: NBC learning-attack inference accuracy vs total budget ξ.

Paper setting: Adult across 4 providers, 3 QI dimensions, one SA dimension
with ||SA|| = 100 classes, ψ = 1e-6, ξ ∈ {1, 20, 50, 100}; six scenarios
(Sequential/Advanced/Coalition × COUNT/SUM). All cells report < 1%
accuracy — i.e. random guessing for 100 classes.

Two SA regimes are reported:

* **Primary (paper regime)** — SA = ``fnlwgt``: near-uniform marginal and
  independent of the QI dims, like the paper's binned Adult SA. Even the
  non-private ceiling is ≈ random here, and the private system must stay
  at ≈ 1% in every cell — the paper's Table 1 numbers.
* **Supplementary (correlated SA)** — SA = ``capgain`` (education-driven):
  the non-private ceiling is far above random, demonstrating that the
  attack machinery works; DP must collapse it at small per-query budgets.
  (At coalition/ξ=100 each query carries ε=100 — essentially exact
  answers — so accuracy approaches the ceiling; this shows the paper's
  blanket < 1% at large ξ leans on the weak intrinsic QI→SA signal of its
  dataset, a finding recorded in EXPERIMENTS.md.)

Every attack query goes through the full private protocol on a
pandas-evaluator federation (numerically identical to the Spark path —
asserted by tests/test_evaluation.py).
"""
from __future__ import annotations

from repro.experiments import SPEC_PAPER, XI, run_artifact, save_artifact


def test_table1_attack_resilience(benchmark, attack_fed_pandas):
    def run():
        return run_artifact("table1", lambda name, sf: attack_fed_pandas)

    tables = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("table1", tables)
    primary, supplementary = tables

    random_level = 1.0 / SPEC_PAPER.sa_domain
    private = [p for p in primary if p["mode"] in ("sequential", "advanced", "coalition")]
    for r in private:
        for x in XI:
            # paper: < 1% in every cell; allow 2.5x random for sampling noise
            assert r[f"xi={x:g}"] < 2.5 * random_level, r

    # the correlated regime must show a real ceiling and DP collapse at ξ=1
    ceiling = [r for r in supplementary if r["mode"].startswith("no-privacy")][0]
    seq = [r for r in supplementary if r["mode"] == "sequential"][0]
    assert ceiling["xi=1"] > 5 * random_level
    assert seq["xi=1"] < 0.5 * ceiling["xi=1"]
