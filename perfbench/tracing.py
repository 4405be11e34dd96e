"""Spans recorded around the engine's public functions, from outside.

:func:`instrument` replaces the engine's layer and build-phase functions
with wrappers for the lifetime of a traced run and
restores them afterwards; ``src/`` is never edited. Every wrapper opens a
span (name, start, end, parent, query id) and may attach counts to it. Spans
are kept in memory and written as JSON lines when the run ends.

A layer's *self time* is its span's duration minus the time its direct
child spans cover, so the self times of every span under one
``Aggregator.answer`` add up to that answer's wall time.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    query: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    child_s: float = 0.0  # time covered by direct children

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


class Tracer:
    """In-memory span recorder for one single-threaded client."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.query: int | None = None
        self.py4j_calls = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            sid=len(self.spans),
            parent=parent.sid if parent else None,
            name=name,
            query=self.query,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start

    def last_root(self) -> Span:
        return next(s for s in reversed(self.spans) if s.parent is None)

    def count(self, **counts: float) -> None:
        """Add counts to the innermost open span."""
        if self._stack:
            c = self._stack[-1].counts
            for k, v in counts.items():
                c[k] = c.get(k, 0.0) + float(v)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.sid,
                            "parent": sp.parent,
                            "name": sp.name,
                            "query": sp.query,
                            "start": sp.start,
                            "end": sp.end,
                            "self_s": sp.self_s,
                            "counts": sp.counts,
                        }
                    )
                    + "\n"
                )

    # -- aggregation ---------------------------------------------------------
    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def per_root(self, root_name: str) -> list[dict[str, float]]:
        """For each root span ``root_name`` issued by the client (it carries a
        query id): summed self seconds per layer (``<layer>.self_s``), span
        counts (``<layer>.n``) and summed counts, over the root's subtree."""
        by_root: dict[int, dict[str, float]] = {}
        root_of: dict[int, int] = {}
        for sp in self.spans:  # parents are recorded before their children
            if sp.parent is None:
                if sp.name != root_name or sp.query is None:
                    continue
                root_of[sp.sid] = sp.sid
                by_root[sp.sid] = defaultdict(float)
            elif sp.parent in root_of:
                root_of[sp.sid] = root_of[sp.parent]
            else:
                continue
            acc = by_root[root_of[sp.sid]]
            acc[f"{sp.name}.self_s"] += sp.self_s
            acc[f"{sp.name}.n"] += 1
            for k, v in sp.counts.items():
                acc[k] += v
        return [dict(v) for v in by_root.values()]


def dir_bytes(path: str) -> int:
    """Bytes of all files under ``path``."""
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


class _Sizes:
    """Bytes read per cluster: on-disk parquet bytes of each ``cluster_id=``
    directory of a store, or in-memory bytes of a pandas partition."""

    def __init__(self) -> None:
        self._store: dict[str, dict[int, int]] = {}
        self._frame: dict[int, dict[int, int]] = {}

    def store(self, path: str) -> dict[int, int]:
        if path not in self._store:
            sizes = {}
            for e in os.listdir(path):
                if e.startswith("cluster_id="):
                    sizes[int(e.split("=", 1)[1])] = dir_bytes(os.path.join(path, e))
            self._store[path] = sizes
        return self._store[path]

    def frame(self, pdf) -> dict[int, int]:
        key = id(pdf)
        if key not in self._frame:
            per_row = pdf.memory_usage(index=True, deep=True).sum() / max(1, len(pdf))
            self._frame[key] = {
                int(c): int(n * per_row) for c, n in pdf.groupby("cluster_id").size().items()
            }
        return self._frame[key]


def _evaluator_bytes(sizes: _Sizes, ev, cluster_ids) -> int:
    """Bytes behind the requested clusters (all clusters when None)."""
    store = getattr(ev, "store", None)
    if store is not None:
        per = sizes.store(store.path)
    elif hasattr(ev, "pdf"):
        per = sizes.frame(ev.pdf)
    else:  # Spark evaluator over an in-memory DataFrame: no byte count
        return 0
    if cluster_ids is None:
        return sum(per.values())
    return sum(per.get(int(c), 0) for c in np.unique(cluster_ids))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the engine's layer functions for the duration of the block."""
    import py4j.clientserver
    import py4j.java_gateway
    from pyspark.sql import SparkSession

    import repro.baselines.exact as exact_mod
    import repro.core.sensitivity as sens_mod
    import repro.federation.aggregator as agg_mod
    import repro.federation.builder as builder_mod
    import repro.federation.provider as prov_mod
    from repro.clusterstore.store import ClusterStore
    from repro.federation.evaluation import PandasEvaluator, SparkEvaluator
    from repro.smc.protocol import SMCEnvironment

    sizes = _Sizes()
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str | None, counts=None):
        """Replace ``owner.attr``: open span ``name`` (None: no span, counts
        go to the enclosing span) and attach ``counts(result, *args,
        **kwargs)``, whose first parameter must not clash with a keyword
        argument of the wrapped function."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                if counts:
                    tracer.count(**counts(result, *args, **kwargs))
                return result
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts:  # computed after the span closed: not timed
                for k, v in counts(result, *args, **kwargs).items():
                    sp.counts[k] = sp.counts.get(k, 0.0) + float(v)
            return result

        saved.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)

    def count_py4j(owner):
        raw = owner.send_command

        @functools.wraps(raw)
        def wrapper(self, *args, **kwargs):
            tracer.py4j_calls += 1
            return raw(self, *args, **kwargs)

        saved.append((owner, "send_command", raw))
        owner.send_command = wrapper

    try:
        # query path: steps 1-7 of the protocol
        patch(agg_mod.Aggregator, "answer", "answer",
              lambda res, *a, **k: {"smc.simulated_s": res.smc_seconds})
        patch(exact_mod, "exact_federated", "exact")
        patch(prov_mod.DataProvider, "prepare", "prepare",
              lambda res, *a, **k: {"prepare.cq_clusters": res.n_q})
        patch(prov_mod, "clusters_for_query", None,
              lambda res, *a, **k: {"prepare.envelope_clusters": len(res)})
        patch(prov_mod.DataProvider, "summarize", "summarize")
        patch(agg_mod, "solve_allocation", "allocate")
        patch(prov_mod.DataProvider, "approximate", "estimate",
              lambda res, *a, **k: {"path.approx": 1})
        patch(prov_mod.DataProvider, "exact_dp", "estimate",
              lambda res, *a, **k: {"path.exact": 1})
        patch(prov_mod, "exponential_mechanism_sample", "em_sample",
              lambda res, *a, **k: {"em_sample.draws": len(res)})
        patch(sens_mod, "smooth_local_sensitivity", "sensitivity",
              lambda res, *a, **k: {"sensitivity.calls": 1})
        for ev in (SparkEvaluator, PandasEvaluator):
            patch(ev, "per_cluster", "eval.sampled",
                  lambda res, ev, q, ids, **k: {
                      "eval.sampled.clusters": len(np.unique(ids)),
                      "eval.sampled.bytes": _evaluator_bytes(sizes, ev, ids),
                  })
            patch(ev, "total", "eval.full",
                  lambda res, ev, q, **k: {"eval.full.bytes": _evaluator_bytes(sizes, ev, None)})
        patch(prov_mod.DataProvider, "release", "release")
        patch(agg_mod, "laplace_noise", "release")  # the single SMC-mode noise draw
        patch(SMCEnvironment, "secure_sum", "smc")
        patch(SMCEnvironment, "secure_max", "smc")

        # offline build
        patch(builder_mod, "partition_providers", "build.partition")
        patch(builder_mod, "assign_clusters", "build.partition")
        patch(SparkSession, "createDataFrame", "build.create_df")
        patch(ClusterStore, "write", "build.store_write")
        patch(builder_mod, "build_metadata", "build.metadata",
              lambda res, *a, **k: {"build.metadata_bytes": res.size_bytes()})

        count_py4j(py4j.clientserver.ClientServerConnection)
        count_py4j(py4j.java_gateway.GatewayConnection)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
