"""A federation persisted to parquet cluster stores behaves like the
in-memory one: same Algorithm 1 metadata, same released answers."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.query import COUNT, SUM, RangeQuery
from repro.federation.builder import build_federation
from repro.synth_data import ADULT_DIMS, adult_tensor
from repro.workloads import qualifying_workload

BUILD = dict(dims=list(ADULT_DIMS), n_providers=4, cluster_frac=0.02, n_min=5, seed=3)


@pytest.fixture(scope="module")
def tensor() -> pd.DataFrame:
    return adult_tensor(sf=0.001, seed=5)


@pytest.fixture(scope="module")
def mem_fed(spark, tensor):
    return build_federation(spark, tensor, **BUILD)


@pytest.fixture(scope="module")
def store_fed(spark, tensor, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("federation_store"))
    return build_federation(spark, tensor, store_root=root, **BUILD)


def test_providers_are_store_backed(store_fed):
    assert all(p.evaluator.store is not None for p in store_fed.providers)


def test_store_metadata_equals_in_memory_metadata(mem_fed, store_fed):
    for mem, stored in zip(mem_fed.providers, store_fed.providers):
        a, b = mem.meta, stored.meta
        assert (a.S, a.dims, a.n_rows) == (b.S, b.dims, b.n_rows)
        assert a.rgeq.keys() == b.rgeq.keys()
        for key, (values, r) in a.rgeq.items():
            assert np.array_equal(b.rgeq[key][0], values), key
            assert np.array_equal(b.rgeq[key][1], r), key
        for d in a.dims:
            # cluster_id is read back as an int32 partition column
            assert b.minmax[d].index.dtype == np.int32
            assert a.minmax[d].index.dtype == np.int64
            pd.testing.assert_frame_equal(
                b.minmax[d], a.minmax[d], check_exact=True, check_index_type=False
            )


def test_fixed_seed_answers_identical(mem_fed, store_fed):
    queries = qualifying_workload(
        ADULT_DIMS, mem_fed.providers, m=2, n_dims=2, seed=4
    ) + [
        RangeQuery(SUM, {"age": (20, 40), "hours": (30, 60)}),
        RangeQuery(COUNT, {"age": (30, 31), "education": (3, 3), "hours": (40, 40)}),
    ]
    paths = set()
    for i, q in enumerate(queries):
        kw = dict(sampling_rate=0.2, eps=1.0, delta=1e-3)
        a = mem_fed.aggregator.answer(q, rng=np.random.default_rng(100 + i), **kw)
        b = store_fed.aggregator.answer(q, rng=np.random.default_rng(100 + i), **kw)
        assert b.value == a.value, q
        for la, lb in zip(a.local_results, b.local_results):
            assert lb.exact_path == la.exact_path
            assert lb.estimate == la.estimate
            assert np.array_equal(lb.sampled_clusters, la.sampled_clusters)
            paths.add(la.exact_path)
    assert paths == {True, False}, "both the sampled and the exact path must run"
