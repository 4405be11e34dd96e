"""Workloads, set-up, closed-loop client, correctness gates and metrics.

One client issues one query at a time with no think time (closed loop).
Every workload builds adult-lite (fixed data seed) across 4 providers with
``cluster_frac=0.01``, ``n_min=10`` and δ=1e-3; the workload seed only
drives the generated queries and the protocol's noise.
"""
from __future__ import annotations

import hashlib
import math
import os
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.baselines.exact as exact_mod
from repro.attack.nbc import AttackSpec, per_query_eps, train_nbc
from repro.core.query import COUNT, SUM, RangeQuery
from repro.dp.accountant import PrivacyAccountant
from repro.federation.builder import Federation, build_federation
from repro.synth_data import ADULT_DIMS, adult_tensor
from repro.workloads import qualifying_workload, random_query

from perfbench.oracle import duckdb_answers, mismatches, query_key
from perfbench.tracing import Tracer, dir_bytes, instrument

TENSOR_SEED = 7
N_PROVIDERS = 4
CLUSTER_FRAC = 0.01
N_MIN = 10
DELTA = 1e-3
EPS = 1.0
SAMPLING_RATE = 0.1

#: Queries generated for the Spark workload: more than a run can time.
SPARK_QUERIES = 160
#: Range-4d queries behind accuracy.rel_err_p50 (traced runs only).
ACCURACY_QUERIES = 200
#: The pandas workload times the exact baseline on every 8th attack query.
ATTACK_EXACT_EVERY = 8

#: §6.6 NBC attack: SA=fnlwgt (100 classes), QI = education/workclass/
#: relationship, sequential composition of ξ=1, ψ=1e-6 over 3,201 queries.
ATTACK_QI = ("education", "workclass", "relationship")
ATTACK_SPEC = AttackSpec(
    sa_dim="fnlwgt",
    qi_dims=ATTACK_QI,
    domains={"fnlwgt": ADULT_DIMS["fnlwgt"], **{d: ADULT_DIMS[d] for d in ATTACK_QI}},
)
ATTACK_XI = 1.0
ATTACK_PSI = 1e-6
#: Table 1's pass mark: accuracy below 2.5x random guessing.
ATTACK_MAX_ACCURACY = 2.5 / ATTACK_SPEC.sa_domain


@dataclass(frozen=True)
class Workload:
    name: str
    sf: float  # adult-lite scale factor
    spark: bool  # Spark evaluators over a parquet ClusterStore per provider


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spark-mixed", sf=0.05, spark=True),
        Workload("pandas-attack", sf=0.01, spark=False),
    )
}
#: Scale factor of the smoke test (8k tensor rows, like the unit tests).
TINY_SF = 0.002


@dataclass(frozen=True)
class Task:
    """One generated query and its release mode."""

    query: RangeQuery
    use_smc: bool = False


def _sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# -- query generation ---------------------------------------------------------
def range_4d_queries(fed: Federation, seed: int, m: int, streams=(1, 2)) -> list[RangeQuery]:
    """Interleaved 4-dim COUNT and SUM queries that qualify on every
    provider (envelope test, §6.1), widths >= 30% of each domain."""
    half = [
        qualifying_workload(
            ADULT_DIMS, fed.providers, m=(m + 1) // 2, n_dims=4, agg=agg,
            seed=_sub_seed(seed, stream), min_width_frac=0.3,
        )
        for stream, agg in zip(streams, (COUNT, SUM))
    ]
    return [q for pair in zip(*half) for q in pair][:m]


def narrow_queries(seed: int, m: int) -> list[RangeQuery]:
    """3-dim COUNT queries with widths >= 2% of each domain and no
    qualifying filter, so many providers take the exact path."""
    rng = np.random.default_rng(_sub_seed(seed, 3))
    return [
        random_query(ADULT_DIMS, n_dims=3, agg=COUNT, rng=rng, min_width_frac=0.02)
        for _ in range(m)
    ]


def spark_tasks(fed: Federation, seed: int, m: int) -> list[Task]:
    """Range-4d queries released with per-provider DP (the Fig 4/5/7
    regime) alternating with narrow queries released through SMC."""
    tasks = []
    for wide, narrow in zip(range_4d_queries(fed, seed, m // 2), narrow_queries(seed, m // 2)):
        tasks += [Task(wide), Task(narrow, use_smc=True)]
    return tasks


def attack_queries(seed: int) -> tuple[list[RangeQuery], np.ndarray]:
    """The attack's queries in the order ``train_nbc`` asks for them, and
    the seed's issue order. The attack is non-adaptive, so the client may
    issue its queries in any order and hand the answers back afterwards."""
    recorded: list[RangeQuery] = []

    def record(q: RangeQuery) -> float:
        recorded.append(q)
        return 1.0

    train_nbc(ATTACK_SPEC, record)
    order = np.random.default_rng(_sub_seed(seed, 4)).permutation(len(recorded))
    return recorded, order


def digest(tasks: list[Task]) -> str:
    text = "\n".join(f"{t.query.agg} {t.query.where_sql()} smc={t.use_smc}" for t in tasks)
    return hashlib.sha256(text.encode()).hexdigest()


# -- closed-loop client -------------------------------------------------------
@dataclass
class Client:
    """Issues one query at a time; counts attempts/failures; in a traced
    run attaches Spark job and py4j round-trip counts to each root span."""

    tracer: Tracer
    traced: bool
    sc: object | None  # SparkContext when the workload runs Spark jobs
    attempted: int = 0
    failed: int = 0
    _qid: int = 0

    def call(self, kind: str, fn):
        self.attempted += 1
        self._qid += 1
        gid = None
        if self.traced and self.sc is not None:
            gid = f"perfbench-{self._qid}"
            self.sc.setJobGroup(gid, kind, False)
        self.tracer.query = self._qid
        calls0 = self.tracer.py4j_calls
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failed query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
            self.failed += 1
        dt = time.perf_counter() - t0
        self.tracer.query = None
        if self.traced and out is not None:
            root = self.tracer.last_root()
            root.counts["py4j.calls"] = self.tracer.py4j_calls - calls0
            if gid is not None:
                root.counts["spark.jobs"] = len(self.sc.statusTracker().getJobIdsForGroup(gid))
        return out, (dt if out is not None else math.inf)


@dataclass
class Gates:
    """Correctness checks of one run; every failure is kept with a reason."""

    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"[perfbench] GATE FAILED: {what}", file=sys.stderr)


def _exact_dp_results(answer) -> list[tuple[int, float]]:
    return [(i, lr.estimate) for i, lr in enumerate(answer.local_results) if lr.exact_path]


def _check_exact_dp(gates, truth, pairs: list[tuple[int, RangeQuery, float]], label: str) -> None:
    """Every exact-path local answer equals DuckDB over its provider's frame."""
    for i in sorted({i for i, _, _ in pairs}):
        bad = mismatches([(q, v) for j, q, v in pairs if j == i], truth, part=i)
        gates.check(bad == 0, f"{label}: {bad} exact_dp answers of provider {i} differ from DuckDB")


def _check_accountant(gates, acct: PrivacyAccountant, charges: int, eps: float, delta: float) -> None:
    gates.check(acct.queries == charges, f"accountant saw {acct.queries} charges, expected {charges}")
    gates.check(
        math.isclose(acct.spent_eps, charges * eps, rel_tol=1e-9)
        and math.isclose(acct.spent_delta, charges * delta, rel_tol=1e-9),
        f"accountant spent ({acct.spent_eps}, {acct.spent_delta}), expected Σ over {charges} queries",
    )


def _percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile; a failed query (inf) counts as
    missing every percentile it reaches."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    if math.isinf(v[hi]):
        return math.inf
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def _ms(values: list[float], p: float) -> float:
    return 1e3 * _percentile(values, p) if values else math.inf


def _rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / max(abs(exact), 1.0)


# -- workloads ----------------------------------------------------------------
@dataclass
class Outcome:
    approx_s: list[float]  # Aggregator.answer wall time per query (inf: failed)
    exact_s: list[float]  # exact_federated wall time per query (inf: failed)
    accuracy: list[float] = field(default_factory=list)  # behind accuracy.rel_err_p50
    info: dict = field(default_factory=dict)


def _answer_kwargs(task: Task) -> dict:
    return dict(sampling_rate=SAMPLING_RATE, eps=EPS, delta=DELTA, use_smc=task.use_smc)


def _spark_workload(fed, tasks, warm, seed, seconds, client, gates, trace) -> Outcome:
    rng = np.random.default_rng(_sub_seed(seed, 10))
    acct = PrivacyAccountant(xi=EPS * len(tasks), psi=DELTA * len(tasks))

    # warm-up (untimed, not gated): first plans, file listings, JIT
    for t in warm:
        fed.aggregator.answer(t.query, rng=np.random.default_rng(0), **_answer_kwargs(t))
        exact_mod.exact_federated(fed.aggregator, t.query)

    private: list[tuple[Task, dict, object]] = []  # (task, rng state, answer)
    exact: list[tuple[RangeQuery, object]] = []
    approx_s: list[float] = []
    exact_s: list[float] = []
    deadline = time.perf_counter() + seconds
    for i, t in enumerate(tasks):
        if time.perf_counter() >= deadline:
            break
        q = t.query
        for kind in ("answer", "exact") if i % 4 < 2 else ("exact", "answer"):
            if kind == "answer":
                state = rng.bit_generator.state
                ans, dt = client.call(
                    kind,
                    lambda: fed.aggregator.answer(q, rng=rng, accountant=acct, **_answer_kwargs(t)),
                )
                approx_s.append(dt)
                private.append((t, state, ans))
            else:
                ex, dt = client.call(kind, lambda: exact_mod.exact_federated(fed.aggregator, q))
                exact_s.append(dt)
                exact.append((q, ex))

    done = [(t.query, a) for t, _, a in private if a is not None]
    gates.check(len(done) > 0, "no private answer completed")
    gates.check(all(math.isfinite(a.value) for _, a in done), "a released value is not finite")
    _check_accountant(gates, acct, len(private), EPS, DELTA)
    truth = duckdb_answers(fed.local_frames, [t.query for t, _, _ in private] + [q for q, _ in exact])
    bad = mismatches([(q, e.value) for q, e in exact if e is not None], truth)
    gates.check(bad == 0, f"{bad} exact baseline answers differ from DuckDB")
    _check_exact_dp(
        gates, truth, [(i, q, v) for q, a in done for i, v in _exact_dp_results(a)], "Spark"
    )

    # The pandas mirror evaluates the same clusters with identical arithmetic:
    # replaying each Spark answer from its rng state must release the same value.
    mirror = fed.with_pandas_evaluators()
    replay_bad = 0
    for t, state, a in private:
        if a is None:
            continue
        r = np.random.Generator(np.random.PCG64())
        r.bit_generator.state = state
        v = mirror.aggregator.answer(t.query, rng=r, **_answer_kwargs(t)).value
        replay_bad += not math.isclose(v, a.value, rel_tol=1e-9, abs_tol=1e-9)
    gates.check(replay_bad == 0, f"{replay_bad} Spark answers differ from the pandas replay")

    rel_timed = [
        _rel_err(a.value, truth[query_key(t.query)].sum())
        for t, _, a in private
        if a is not None and not t.use_smc
    ]
    n_exact_path = sum(lr.exact_path for _, a in done for lr in a.local_results)
    info = {
        "timed_private": len(approx_s),
        "timed_exact": len(exact_s),
        "exact_path_share": n_exact_path / max(1, N_PROVIDERS * len(done)),
        "rel_err_p50_timed_range4d": float(np.median(rel_timed)) if rel_timed else None,
    }
    accuracy = _accuracy(mirror, fed, seed, gates) if trace else []
    return Outcome(approx_s, exact_s, accuracy, info)


def _accuracy(mirror, fed, seed, gates) -> list[float]:
    """§6.1 relative error of range-4d answers, over ACCURACY_QUERIES queries
    answered on the pandas mirror (released values identical to the Spark
    path, which the replay gate checks): a run can time only a few Spark
    queries, and the median of so heavy-tailed an error needs hundreds."""
    queries = range_4d_queries(fed, seed, ACCURACY_QUERIES, streams=(5, 6))
    truth = duckdb_answers(fed.local_frames, queries)
    rng = np.random.default_rng(_sub_seed(seed, 12))
    rel, pairs = [], []
    for q in queries:
        a = mirror.aggregator.answer(q, rng=rng, **_answer_kwargs(Task(q)))
        rel.append(_rel_err(a.value, truth[query_key(q)].sum()))
        pairs += [(i, q, v) for i, v in _exact_dp_results(a)]
    gates.check(all(math.isfinite(r) for r in rel), "an accuracy-pass value is not finite")
    _check_exact_dp(gates, truth, pairs, "accuracy pass")
    return rel


def _attack_workload(fed, recorded, order, seed, seconds, client, gates) -> Outcome:
    eps, delta = per_query_eps("sequential", ATTACK_XI, len(recorded), ATTACK_PSI)
    rng = np.random.default_rng(_sub_seed(seed, 10))
    approx_s: list[float] = []
    exact: list[tuple[RangeQuery, object]] = []
    exact_s: list[float] = []
    passes = []
    deadline = time.perf_counter() + seconds
    while True:  # whole attack passes; queries begun after the deadline are untimed
        acct = PrivacyAccountant(ATTACK_XI, ATTACK_PSI)
        answers: list[object] = [None] * len(recorded)
        for n, j in enumerate(order):
            q = recorded[j]
            timed = time.perf_counter() < deadline
            a, dt = client.call(
                "answer",
                lambda: fed.aggregator.answer(
                    q, sampling_rate=SAMPLING_RATE, eps=eps, delta=delta, rng=rng, accountant=acct
                ),
            )
            answers[j] = a
            if timed:
                approx_s.append(dt)
                if n % ATTACK_EXACT_EVERY == 0:  # baseline samples spread over the window
                    ex, dt = client.call("exact", lambda: exact_mod.exact_federated(fed.aggregator, q))
                    exact.append((q, ex))
                    exact_s.append(dt)
        passes.append((acct, answers))
        if time.perf_counter() >= deadline:
            break

    truth = duckdb_answers(fed.local_frames, recorded)
    bad = mismatches([(q, e.value) for q, e in exact if e is not None], truth)
    gates.check(bad == 0, f"{bad} exact baseline answers differ from DuckDB")
    accuracies = []
    for acct, answers in passes:
        complete = all(a is not None for a in answers)
        gates.check(complete, "an attack pass has failed queries")
        if not complete:
            continue
        gates.check(all(math.isfinite(a.value) for a in answers), "a released value is not finite")
        _check_accountant(gates, acct, len(recorded), eps, delta)
        gates.check(
            math.isclose(acct.spent_eps, ATTACK_XI, rel_tol=1e-9),
            f"attack spent ε={acct.spent_eps}, expected ξ={ATTACK_XI}",
        )
        values = iter(a.value for a in answers)  # train_nbc asks in recorded order
        nbc = train_nbc(ATTACK_SPEC, lambda q: next(values))
        accuracies.append(nbc.accuracy(fed.tensor))
        gates.check(
            accuracies[-1] < ATTACK_MAX_ACCURACY,
            f"attack accuracy {accuracies[-1]:.4f} >= {ATTACK_MAX_ACCURACY:.4f}",
        )
    _check_exact_dp(
        gates, truth,
        [
            (i, q, v)
            for _, answers in passes
            for q, a in zip(recorded, answers)
            if a is not None
            for i, v in _exact_dp_results(a)
        ],
        "attack",
    )
    first = passes[0][1]
    rel = [_rel_err(a.value, truth[query_key(q)].sum()) for q, a in zip(recorded, first) if a is not None]
    n_exact_path = sum(lr.exact_path for a in first if a is not None for lr in a.local_results)
    info = {
        "attack_passes": len(passes),
        "attack_accuracy": accuracies,
        "timed_private": len(approx_s),
        "timed_exact": len(exact_s),
        "exact_path_share": n_exact_path / max(1, N_PROVIDERS * len(recorded)),
    }
    return Outcome(approx_s, exact_s, rel, info)


# -- metrics ------------------------------------------------------------------
def _vm_hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _throughput(latencies: list[float]) -> float:
    """Answers completed per second of answering (one client, no think time)."""
    done = [s for s in latencies if math.isfinite(s)]
    return len(done) / sum(done) if done else 0.0


#: The end-to-end metrics of the result line (BENCHMARK.json's end_to_end).
#: The latency and throughput metrics are printed beside them but not gated:
#: the shared host's speed shifts by up to ~2x between runs, and over three
#: ten-run sets each of them spread beyond 0.25 of its median on some
#: workload, the largest bound a gated metric may have; see
#: perfbench/README.md.
GATED = ("setup_s", "peak_rss_mb")


def end_to_end(out: Outcome, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "approx_p50_ms": (_ms(out.approx_s, 50), "ms"),
        "approx_p90_ms": (_ms(out.approx_s, 90), "ms"),
        "exact_p50_ms": (_ms(out.exact_s, 50), "ms"),
        "exact_p90_ms": (_ms(out.exact_s, 90), "ms"),
        "throughput_qps": (_throughput(out.approx_s), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, out: Outcome, store_bytes: int) -> dict:
    """Query-path layers: mean self time and counts per private answer, so
    that the layer times add up to ``answer.ms``, the mean answer wall time;
    ``exact.eval_full_ms``: mean full-scan time per exact baseline. Build
    phases: self time summed over the set-up."""
    answers = tracer.per_root("answer")
    exacts = tracer.per_root("exact")

    def mean(key: str, rows=answers, scale: float = 1.0) -> float:
        return scale * float(np.mean([r.get(key, 0.0) for r in rows])) if rows else 0.0

    def total(key: str) -> float:
        return float(sum(r.get(key, 0.0) for r in answers))

    def build(name: str) -> float:
        return float(sum(s.self_s for s in tracer.spans if s.name == name))

    layer_ms = {
        f"{layer}.{'self_ms' if layer in ('answer', 'estimate') else 'ms'}": (
            mean(f"{layer}.self_s", scale=1e3), "ms"
        )
        for layer in (
            "answer", "prepare", "summarize", "allocate", "estimate", "em_sample",
            "eval.sampled", "sensitivity", "eval.full", "release", "smc",
        )
    }
    envelope = total("prepare.envelope_clusters")
    paths = total("path.exact") + total("path.approx")
    return {
        "answer.ms": (1e3 * float(np.mean([s.end - s.start for s in tracer.roots("answer")
                                            if s.query is not None])), "ms"),
        **layer_ms,
        "prepare.envelope_clusters": (mean("prepare.envelope_clusters"), "count"),
        "prepare.cq_clusters": (mean("prepare.cq_clusters"), "count"),
        "prepare.cq_share": (total("prepare.cq_clusters") / envelope if envelope else 0.0, "ratio"),
        "em_sample.draws": (mean("em_sample.draws"), "count"),
        "sensitivity.calls": (mean("sensitivity.calls"), "count"),
        "eval.sampled.clusters": (mean("eval.sampled.clusters"), "count"),
        "eval.sampled.bytes": (mean("eval.sampled.bytes"), "B"),
        "eval.full.bytes": (mean("eval.full.bytes"), "B"),
        "spark.jobs": (mean("spark.jobs"), "count"),
        "py4j.calls": (mean("py4j.calls"), "count"),
        "smc.simulated_s": (mean("smc.simulated_s"), "s"),
        "path.exact_share": (total("path.exact") / paths if paths else 0.0, "ratio"),
        "exact.eval_full_ms": (mean("eval.full.self_s", exacts, 1e3), "ms"),
        "exact.eval_full_bytes": (mean("eval.full.bytes", exacts), "B"),
        "accuracy.rel_err_p50": (float(np.median(out.accuracy)), "ratio"),
        "build.tensor_s": (build("build.tensor"), "s"),
        "build.partition_s": (build("build.partition"), "s"),
        "build.create_df_s": (build("build.create_df"), "s"),
        "build.store_write_s": (build("build.store_write"), "s"),
        "build.metadata_s": (build("build.metadata"), "s"),
        "build.store_bytes": (float(store_bytes), "B"),
        "build.metadata_bytes": (
            float(sum(s.counts.get("build.metadata_bytes", 0.0) for s in tracer.spans)), "B"
        ),
        "traced.approx_p50_ms": (_ms(out.approx_s, 50), "ms"),
        "traced.exact_p50_ms": (_ms(out.exact_s, 50), "ms"),
        "traced.throughput_qps": (_throughput(out.approx_s), "1/s"),
    }


# -- one run ------------------------------------------------------------------
def run(spark, name: str, seed: int, seconds: float, trace: bool, tiny: bool, tmp: str) -> dict:
    w = WORKLOADS[name]
    tracer = Tracer()
    gates = Gates()
    client = Client(tracer, trace, spark.sparkContext if w.spark else None)
    store_root = os.path.join(tmp, "store") if w.spark else None
    with instrument(tracer) if trace else nullcontext():
        t0 = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span("build.tensor"):
                tensor = adult_tensor(sf=TINY_SF if tiny else w.sf, seed=TENSOR_SEED)
            fed = build_federation(
                spark, tensor, dims=list(ADULT_DIMS), n_providers=N_PROVIDERS,
                cluster_frac=CLUSTER_FRAC, n_min=N_MIN, store_root=store_root, seed=0,
            )
            if w.spark:
                tasks = spark_tasks(fed, seed, SPARK_QUERIES + 2)
                tasks, warm = tasks[:-2], tasks[-2:]
            else:
                fed = fed.with_pandas_evaluators()
                recorded, order = attack_queries(seed)
                tasks = [Task(recorded[j]) for j in order]
        setup_s = time.perf_counter() - t0

        if w.spark:
            out = _spark_workload(fed, tasks, warm, seed, seconds, client, gates, trace)
        else:
            out = _attack_workload(fed, recorded, order, seed, seconds, client, gates)

    store_bytes = dir_bytes(store_root) if store_root else 0
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    rss_mb = (_vm_hwm_kb("self") + _vm_hwm_kb(jvm_pid)) / 1024.0
    shown = end_to_end(out, setup_s, rss_mb)
    metrics = per_layer(tracer, out, store_bytes) if trace else {k: shown[k] for k in GATED}
    exact_p50, approx_p50 = _ms(out.exact_s, 50), _ms(out.approx_s, 50)
    info = {
        "workload": name,
        "seed": seed,
        "tensor_rows": len(tensor),
        "S": fed.S,
        "clusters": sum(p.meta.n_clusters for p in fed.providers),
        "store_bytes": store_bytes,
        "queries": len(tasks),
        "queries_digest": digest(tasks),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "speedup": f"{exact_p50:.1f} ms / {approx_p50:.1f} ms = {exact_p50 / approx_p50:.3f}",
        **out.info,
    }
    return {
        "correct": not gates.failures and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end": shown,
        "info": info,
        "tracer": tracer,
    }
