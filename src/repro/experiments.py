"""Evaluation-section experiments (§6), shared by jobs/ and benchmarks/.

The driver functions reproduce one kind of paper artifact each and return
printable rows. ``DATASETS`` and ``ARTIFACTS`` hold the one copy of every
artifact's parameters: how each federation is built, which drivers run on
it with which arguments, and where and how the rows are saved.
``jobs/run_experiment.py`` and the ``benchmarks/`` harnesses both run an
artifact through :func:`run_artifact` and persist it with
:func:`save_artifact`. Metrics follow §6.1: Relative error =
|answer − estimation| / answer and Speed-up = time(normal computation) /
time(estimate computation).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.attack.nbc import AttackSpec, per_query_eps, train_nbc
from repro.baselines.exact import exact_federated
from repro.core.query import COUNT, SUM, RangeQuery
from repro.federation.builder import Federation, build_federation
from repro.reporting import format_table, save_results
from repro.smc.protocol import SMCEnvironment
from repro.synth_data import ADULT_DIMS, AMAZON_DIMS, adult_tensor, amazon_tensor
from repro.workloads import qualifying_workload

def _cell(
    fed: Federation,
    queries: list[RangeQuery],
    *,
    sr: float,
    eps: float,
    delta: float,
    seed: int,
    use_smc: bool = False,
) -> dict:
    """Mean relative error + speed-up of the private protocol over a
    workload, against the exact plain-text execution."""
    rng = np.random.default_rng(seed)
    rel_errs, speedups, noises = [], [], []
    for q in queries:
        ex = exact_federated(fed.aggregator, q)
        ans = fed.aggregator.answer(
            q, sampling_rate=sr, eps=eps, delta=delta, rng=rng, use_smc=use_smc
        )
        rel_errs.append(abs(ans.value - ex.value) / max(abs(ex.value), 1.0))
        speedups.append(ex.seconds / max(ans.seconds, 1e-9))
        noises.append(ans.noise)
    return {
        "rel_err": mean(rel_errs),
        "speedup": mean(speedups),
        "noise_lo": min(noises),
        "noise_hi": max(noises),
    }


def dimension_sweep(
    fed: Federation,
    dims: dict[str, int],
    *,
    n_dims_list: list[int],
    m: int,
    sr: float,
    eps: float = 1.0,
    delta: float = 1e-3,
    seed: int = 0,
    min_width_frac: float = 0.3,
) -> list[dict]:
    """Fig 4 (+ Fig 7 dims axis): error/speed-up vs #query dimensions.

    ``min_width_frac`` keeps random ranges wide enough that high-dimension
    answers stay above the noise floor — the regime the paper's reported
    error bands imply (its 4M/924M-row tables with ≤ 17% error at n=7
    require range products far above #clusters-scale noise).
    """
    rows = []
    for n in n_dims_list:
        for agg in (COUNT, SUM):
            ws = qualifying_workload(
                dims, fed.providers, m=m, n_dims=n, agg=agg, seed=seed + n,
                min_width_frac=min_width_frac,
            )
            cell = _cell(fed, ws, sr=sr, eps=eps, delta=delta, seed=seed + n)
            rows.append({"n_dims": n, "agg": agg, **cell})
    return rows


def sampling_rate_sweep(
    fed: Federation,
    dims: dict[str, int],
    *,
    rates: list[float],
    m: int,
    n_dims: int = 4,
    eps: float = 1.0,
    delta: float = 1e-3,
    seed: int = 0,
    min_width_frac: float = 0.3,
) -> list[dict]:
    """Fig 5: error/speed-up vs sampling rate (fixed n=4 dims)."""
    rows = []
    for agg in (COUNT, SUM):
        ws = qualifying_workload(
            dims, fed.providers, m=m, n_dims=n_dims, agg=agg, seed=seed,
            min_width_frac=min_width_frac,
        )
        for sr in rates:
            cell = _cell(fed, ws, sr=sr, eps=eps, delta=delta, seed=seed + int(sr * 100))
            rows.append({"sr": sr, "agg": agg, **cell})
    return rows


def epsilon_sweep(
    fed: Federation,
    dims: dict[str, int],
    *,
    eps_list: list[float],
    m: int,
    sr: float,
    n_dims: int = 4,
    delta: float = 1e-3,
    seed: int = 0,
    min_width_frac: float = 0.3,
) -> list[dict]:
    """Fig 6 (+ Fig 7 ε axis): error/speed-up vs privacy budget ε."""
    rows = []
    for agg in (COUNT, SUM):
        ws = qualifying_workload(
            dims, fed.providers, m=m, n_dims=n_dims, agg=agg, seed=seed,
            min_width_frac=min_width_frac,
        )
        for eps in eps_list:
            cell = _cell(fed, ws, sr=sr, eps=eps, delta=delta, seed=seed + int(eps * 10))
            rows.append({"eps": eps, "agg": agg, **cell})
    return rows


def smc_comparison(
    fed: Federation,
    dims: dict[str, int],
    *,
    n_queries: int = 5,
    reps: int = 5,
    sr: float = 0.1,
    eps: float = 1.0,
    delta: float = 1e-3,
    seed: int = 0,
) -> list[dict]:
    """Fig 8: per-query Laplace noise range and speed-up, with/without SMC
    result sharing (two-dimensional COUNT queries, as in the paper)."""
    ws = qualifying_workload(dims, fed.providers, m=n_queries, n_dims=2, agg=COUNT, seed=seed)
    rows = []
    for qi, q in enumerate(ws):
        for mode in ("DP", "SMC"):
            rng = np.random.default_rng(seed + qi)
            noises, speedups = [], []
            for _ in range(reps):
                ex = exact_federated(fed.aggregator, q)
                ans = fed.aggregator.answer(
                    q,
                    sampling_rate=sr,
                    eps=eps,
                    delta=delta,
                    rng=rng,
                    use_smc=(mode == "SMC"),
                )
                noises.append(ans.noise)
                # SMC wire time is simulated; add it to the measured time
                speedups.append(ex.seconds / max(ans.seconds + ans.smc_seconds, 1e-9))
            rows.append(
                {
                    "query": qi + 1,
                    "mode": mode,
                    "noise_lo": min(noises),
                    "noise_hi": max(noises),
                    "noise_spread": max(noises) - min(noises),
                    "speedup": mean(speedups),
                }
            )
    return rows


def smc_cost_simulation(
    fed: Federation,
    dims: dict[str, int],
    *,
    n_queries: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Fig 1: simulated SMC cost of sharing matching rows vs sharing only
    local results, per random range query."""
    ws = qualifying_workload(dims, fed.providers, m=n_queries, n_dims=2, agg=COUNT, seed=seed)
    n_cols = len(dims) + 1  # dims + measure
    rows = []
    for qi, q in enumerate(ws):
        matching_rows = int(sum(p.exact(q) for p in fed.providers))
        env = SMCEnvironment(n_parties=len(fed.providers), rng=np.random.default_rng(seed))
        t_rows = env.share_rows_cost(matching_rows, n_cols)
        t_results = env.share_results_cost()
        rows.append(
            {
                "query": qi + 1,
                "rows_shared": matching_rows,
                "smc_rows_s": t_rows,
                "smc_results_s": t_results,
                "ratio": t_rows / t_results,
            }
        )
    return rows


def attack_table(
    fed_pandas: Federation,
    spec: AttackSpec,
    *,
    xi_list: list[float],
    psi: float = 1e-6,
    sr: float = 0.1,
    modes: tuple[str, ...] = ("sequential", "advanced", "coalition"),
    aggs: tuple[str, ...] = (COUNT, SUM),
    seed: int = 0,
    include_no_privacy_ceiling: bool = True,
) -> list[dict]:
    """Table 1: NBC inference accuracy per composition mode / agg / ξ.

    Answers are issued through the full protocol (pandas-evaluator
    federation — numerically identical, feasible for ~10^4 queries/cell).
    Optionally appends the non-private ceiling row (exact answers) showing
    the attack does work without DP.
    """
    rows = []
    nq = spec.n_queries
    t0 = time.perf_counter()
    for mode in modes:
        for agg in aggs:
            accs = {}
            for xi in xi_list:
                eps, delta = per_query_eps(mode, xi, nq, psi)
                rng = np.random.default_rng(seed)

                def answer(q: RangeQuery) -> float:
                    return fed_pandas.aggregator.answer(
                        q, sampling_rate=sr, eps=eps, delta=delta, rng=rng
                    ).value

                nbc = train_nbc(spec, answer, agg=agg)
                accs[f"xi={xi:g}"] = nbc.accuracy(fed_pandas.tensor)
            rows.append({"mode": mode, "agg": agg, **accs})
    if include_no_privacy_ceiling:
        from repro.attack.nbc import exact_answer_fn

        nbc = train_nbc(spec, exact_answer_fn(fed_pandas.tensor), agg=COUNT)
        acc = nbc.accuracy(fed_pandas.tensor)
        rows.append(
            {"mode": "no-privacy (ceiling)", "agg": COUNT}
            | {f"xi={xi:g}": acc for xi in xi_list}
        )
    rows.append({"mode": f"(total {time.perf_counter() - t0:.0f}s)", "agg": ""})
    return rows


def metadata_space(fed: Federation) -> list[dict]:
    """§6.1 metadata space: the Algorithm 1 footprint over all providers."""
    total = sum(p.meta.size_bytes() for p in fed.providers)
    clusters = sum(p.meta.n_clusters for p in fed.providers)
    return [
        {
            "clusters": clusters,
            "S": fed.S,
            "metadata_mb": total / 2**20,
            "kb_per_cluster": total / 1024 / clusters,
        }
    ]


# --------------------------------------------------------------------------
# The artifact table
# --------------------------------------------------------------------------

N_PROVIDERS = 4
N_MIN = 10


@dataclass(frozen=True)
class Dataset:
    """How one evaluation federation is built."""

    label: str
    generator: Callable[..., pd.DataFrame]
    dims: dict[str, int]
    sf: float
    seed: int  # tensor seed
    cluster_frac: float  # S as a fraction of one provider's rows
    fed_seed: int
    store: bool  # cluster-partitioned parquet stores: pruned sampled reads
    pandas: bool = False  # driver-side evaluators, for ~10^4 queries per cell


# Accuracy at the paper's regime needs the paper's data scale: the smooth-
# sensitivity noise is roughly size-independent (~#clusters), so relative
# error is noise/answer. adult-lite at SF=1 (4M tensor rows ≈ the paper's
# scaled Adult) and amazon-lite at SF=0.5 (8M rows) put answers in the
# paper's answer-to-noise regime while staying laptop-feasible. S is 1% of a
# provider's rows for Adult and 0.5% for Amazon Review, as in the paper.
DATASETS: dict[str, Dataset] = {
    "adult": Dataset("adult-lite", adult_tensor, ADULT_DIMS, sf=1.0, seed=7,
                     cluster_frac=0.01, fed_seed=0, store=True),
    "amazon": Dataset("amazon-lite", amazon_tensor, AMAZON_DIMS, sf=0.5, seed=11,
                      cluster_frac=0.005, fed_seed=1, store=True),
    "attack": Dataset("adult-lite", adult_tensor, ADULT_DIMS, sf=0.01, seed=7,
                      cluster_frac=0.01, fed_seed=0, store=False, pandas=True),
}


def build(
    spark: SparkSession, name: str, *, sf: float | None = None, store_root: str | None = None
) -> Federation:
    """The federation of ``DATASETS[name]``, at its SF unless ``sf`` is given.
    A store-backed dataset writes its parquet stores under ``store_root``."""
    d = DATASETS[name]
    if d.store and store_root is None:
        raise ValueError(f"dataset {name!r} is store-backed: pass store_root")
    fed = build_federation(
        spark,
        d.generator(sf=d.sf if sf is None else sf, seed=d.seed),
        dims=list(d.dims),
        n_providers=N_PROVIDERS,
        cluster_frac=d.cluster_frac,
        n_min=N_MIN,
        store_root=store_root if d.store else None,
        seed=d.fed_seed,
    )
    return fed.with_pandas_evaluators() if d.pandas else fed


@dataclass(frozen=True)
class Sweep:
    """One driver call: ``fn(federation, **kwargs)``, its rows appended to
    table ``table`` of the artifact."""

    fn: Callable[..., list[dict]]
    dataset: str
    kwargs: dict = field(default_factory=dict)
    table: int = 0
    sf_scale: float = 1.0  # run at this multiple of the dataset's SF
    tag: dict = field(default_factory=dict)  # constant columns of each row


@dataclass(frozen=True)
class Artifact:
    result: str  # benchmark_results/<result>.md
    tables: tuple[tuple[str, tuple[str, ...]], ...]  # (heading, columns) per table
    sweeps: tuple[Sweep, ...]


QI = ("education", "workclass", "relationship")
XI = [1.0, 20.0, 50.0, 100.0]
_XI_COLS = ("mode", "agg", *(f"xi={x:g}" for x in XI))


def _attack_spec(sa: str) -> AttackSpec:
    return AttackSpec(sa_dim=sa, qi_dims=QI, domains={d: ADULT_DIMS[d] for d in (sa, *QI)})


# Table 1: SA = fnlwgt is near-uniform and independent of the QI dims, like
# the paper's binned Adult SA; SA = capgain (education-driven) shows that the
# attack works when the SA is correlated and that DP collapses it.
SPEC_PAPER = _attack_spec("fnlwgt")
SPEC_CORRELATED = _attack_spec("capgain")

_RATES = [0.05, 0.10, 0.15, 0.20]
_EPS = [0.1, 0.4, 0.7, 1.0, 1.3]
_FIG7_SCALE = 2.0  # × amazon-lite's SF 0.5: Fig 7 runs at SF 1 (16M tensor rows)

ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(
        "table1_attack",
        (
            ("Primary (paper regime, SA=fnlwgt):", _XI_COLS),
            ("Supplementary (correlated SA=capgain):", _XI_COLS),
        ),
        (
            Sweep(attack_table, "attack",
                  dict(spec=SPEC_PAPER, xi_list=XI, psi=1e-6, sr=0.1, seed=90)),
            Sweep(attack_table, "attack",
                  dict(spec=SPEC_CORRELATED, xi_list=XI, psi=1e-6, sr=0.1, seed=91,
                       modes=("sequential", "coalition"), aggs=(COUNT,)),
                  table=1),
        ),
    ),
    "fig1": Artifact(
        "fig1_smc_cost",
        (("", ("query", "rows_shared", "smc_rows_s", "smc_results_s", "ratio")),),
        (Sweep(smc_cost_simulation, "adult", dict(dims=ADULT_DIMS, n_queries=5, seed=10)),),
    ),
    # paper: m=100 queries per cell; m=6 (m=4 for Fig 7) keeps the wall clock
    # within budget (EXPERIMENTS.md)
    "fig4": Artifact(
        "fig4_dimensions",
        (("", ("dataset", "n_dims", "agg", "rel_err", "speedup")),),
        (
            Sweep(dimension_sweep, "adult",
                  dict(dims=ADULT_DIMS, n_dims_list=[2, 3, 4, 5, 6, 7], m=6, sr=0.20, seed=40)),
            Sweep(dimension_sweep, "amazon",
                  dict(dims=AMAZON_DIMS, n_dims_list=[2, 3, 4, 5], m=6, sr=0.05, seed=41)),
        ),
    ),
    "fig5": Artifact(
        "fig5_sampling_rate",
        (("", ("dataset", "sr", "agg", "rel_err", "speedup")),),
        (
            Sweep(sampling_rate_sweep, "adult",
                  dict(dims=ADULT_DIMS, rates=_RATES, m=6, n_dims=4, seed=50)),
            Sweep(sampling_rate_sweep, "amazon",
                  dict(dims=AMAZON_DIMS, rates=_RATES, m=6, n_dims=4, seed=51)),
        ),
    ),
    "fig6": Artifact(
        "fig6_epsilon",
        (("", ("dataset", "eps", "agg", "rel_err", "speedup")),),
        (
            Sweep(epsilon_sweep, "adult",
                  dict(dims=ADULT_DIMS, eps_list=_EPS, m=6, sr=0.10, seed=60)),
            Sweep(epsilon_sweep, "amazon",
                  dict(dims=AMAZON_DIMS, eps_list=_EPS, m=6, sr=0.05, seed=61)),
        ),
    ),
    # dims and ε axes at SF 1, plus a scale sweep (SF 0.1 / 0.5 / 1) showing
    # that the speed-up grows with dataset size, as the paper observes (§6.3)
    "fig7": Artifact(
        "fig7_speedup",
        (
            ("", ("axis", "n_dims", "agg", "rel_err", "speedup")),
            ("", ("axis", "eps", "agg", "rel_err", "speedup")),
            ("", ("sf", "tensor_rows", "agg", "rel_err", "speedup")),
        ),
        (
            Sweep(dimension_sweep, "amazon",
                  dict(dims=AMAZON_DIMS, n_dims_list=[2, 3, 4, 5], m=4, sr=0.05, seed=70),
                  sf_scale=_FIG7_SCALE, tag={"axis": "dims"}),
            Sweep(epsilon_sweep, "amazon",
                  dict(dims=AMAZON_DIMS, eps_list=[0.1, 0.7, 1.3], m=4, sr=0.05, n_dims=4,
                       seed=71),
                  table=1, sf_scale=_FIG7_SCALE, tag={"axis": "eps"}),
            *(
                Sweep(dimension_sweep, "amazon",
                      dict(dims=AMAZON_DIMS, n_dims_list=[4], m=4, sr=0.05, seed=72),
                      table=2, sf_scale=scale)
                for scale in (0.2, 1.0, _FIG7_SCALE)
            ),
        ),
    ),
    # paper: 5 random two-dimensional COUNT queries, each repeated 5 times
    "fig8": Artifact(
        "fig8_smc_vs_dp",
        (("", ("query", "mode", "noise_lo", "noise_hi", "noise_spread", "speedup")),),
        (Sweep(smc_comparison, "adult",
               dict(dims=ADULT_DIMS, n_queries=5, reps=5, sr=0.1, seed=80)),),
    ),
    "metadata": Artifact(
        "metadata_space",
        (("", ("dataset", "sf", "clusters", "S", "metadata_mb", "kb_per_cluster")),),
        (Sweep(metadata_space, "adult"), Sweep(metadata_space, "amazon")),
    ),
}


def run_artifact(
    name: str,
    fed: Callable[[str, float], Federation],
    sf: float | None = None,
) -> list[list[dict]]:
    """The rows of each table of ``ARTIFACTS[name]``.

    ``fed(dataset, sf)`` supplies the federation of a ``DATASETS`` entry at
    scale factor ``sf``. ``sf`` replaces every dataset's own SF; a sweep's
    ``sf_scale`` multiplies either."""
    art = ARTIFACTS[name]
    tables: list[list[dict]] = [[] for _ in art.tables]
    for sw in art.sweeps:
        d = DATASETS[sw.dataset]
        sweep_sf = (d.sf if sf is None else sf) * sw.sf_scale
        f = fed(sw.dataset, sweep_sf)
        base = {"dataset": d.label, "sf": sweep_sf, "tensor_rows": len(f.tensor), **sw.tag}
        tables[sw.table] += [base | r for r in sw.fn(f, **sw.kwargs)]
    return tables


def save_artifact(name: str, tables: list[list[dict]]) -> str:
    """Format the tables of ``ARTIFACTS[name]`` and save them to its result file."""
    art = ARTIFACTS[name]
    text = "\n\n".join(
        (f"{heading}\n" if heading else "") + format_table(rows, list(cols))
        for (heading, cols), rows in zip(art.tables, tables)
    )
    return save_results(art.result, text)
