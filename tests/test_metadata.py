"""Tests for Algorithm 1 (offline cluster metadata) against brute force."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.metadata import ProviderMetadata, build_metadata
from repro.core.proportions import clusters_for_query, proportions
from repro.core.query import COUNT, RangeQuery
from repro.synth_data import adult_tensor, assign_clusters

DIMS = ["age", "education", "hours"]


@pytest.fixture(scope="module")
def pdf():
    return assign_clusters(
        adult_tensor(sf=0.001, seed=3), cluster_size=80, sort_dim="age", seed=0
    )


@pytest.fixture(scope="module")
def meta(pdf):
    return build_metadata(pdf, dims=DIMS, S=80)


class TestStructure:
    def test_all_clusters_present(self, pdf, meta):
        assert meta.n_clusters == pdf["cluster_id"].nunique()

    def test_n_rows_match(self, pdf, meta):
        sizes = pdf.groupby("cluster_id").size()
        for cid, n in sizes.items():
            assert meta.n_rows[int(cid)] == int(n)

    def test_dims_covered(self, meta):
        assert meta.dims == DIMS
        for d in DIMS:
            assert d in meta.minmax

    def test_rgeq_entries_for_every_cluster_dim(self, pdf, meta):
        for cid in pdf["cluster_id"].unique():
            for d in DIMS:
                assert (int(cid), d) in meta.rgeq

    def test_invalid_S_rejected(self, pdf):
        with pytest.raises(ValueError, match="S must be positive"):
            build_metadata(pdf, dims=DIMS, S=0)


class TestRgeqValues:
    @pytest.mark.parametrize("dim", DIMS)
    def test_stored_values_match_brute_force(self, pdf, meta, dim):
        """R^{d>=}(v) = |rows >= v| / S at every stored distinct value."""
        for cid in list(pdf["cluster_id"].unique())[:5]:
            cluster = pdf[pdf["cluster_id"] == cid]
            values, r = meta.rgeq[(int(cid), dim)]
            for v, got in zip(values, r):
                expect = (cluster[dim] >= v).sum() / 80.0
                assert got == pytest.approx(expect), (cid, dim, v)

    @pytest.mark.parametrize("dim", DIMS)
    def test_rgeq_monotone_decreasing(self, meta, dim):
        for (cid, d), (values, r) in meta.rgeq.items():
            if d != dim:
                continue
            assert (np.diff(values) > 0).all()
            assert (np.diff(r) < 0).all(), "R^{d>=} must strictly decrease in v"

    def test_lookup_between_stored_values(self, pdf, meta):
        """Step-function semantics for arbitrary x."""
        cid = int(pdf["cluster_id"].iloc[0])
        cluster = pdf[pdf["cluster_id"] == cid]
        for x in [-5, 0, 17.5, 33, 200]:
            expect = (cluster["age"] >= x).sum() / 80.0
            assert meta.r_geq(cid, "age", x) == pytest.approx(expect), x

    def test_lookup_beyond_max_is_zero(self, pdf, meta):
        cid = int(pdf["cluster_id"].iloc[0])
        assert meta.r_geq(cid, "age", 10_000) == 0.0

    def test_lookup_at_or_below_min_is_full(self, pdf, meta):
        cid = int(pdf["cluster_id"].iloc[0])
        n = meta.n_rows[cid]
        assert meta.r_geq(cid, "age", -(10**9)) == pytest.approx(n / 80.0)


class TestMinMax:
    @pytest.mark.parametrize("dim", DIMS)
    def test_minmax_match_brute_force(self, pdf, meta, dim):
        mm = meta.minmax[dim]
        brute = pdf.groupby("cluster_id")[dim].agg(["min", "max"])
        for cid in brute.index:
            assert mm.loc[cid, "vmin"] == brute.loc[cid, "min"]
            assert mm.loc[cid, "vmax"] == brute.loc[cid, "max"]


class TestFootprint:
    def test_size_bytes_positive_and_small(self, pdf, meta):
        """Metadata must be a tiny fraction of the table (paper: KB/cluster)."""
        table_bytes = pdf.memory_usage(index=False).sum()
        assert 0 < meta.size_bytes() < table_bytes

    def test_cluster_ids_sorted(self, meta):
        ids = meta.cluster_ids
        assert (np.diff(ids) > 0).all()


def reference_metadata(pdf: pd.DataFrame, dims: list[str], S: int) -> ProviderMetadata:
    """Algorithm 1 in plain pandas: the golden reference for every entry."""
    rgeq = {}
    minmax = {}
    for d in dims:
        counts = pdf.groupby(["cluster_id", d]).size()
        for cid, c in counts.groupby(level="cluster_id"):
            cnt_geq = c.to_numpy()[::-1].cumsum()[::-1]
            rgeq[(int(cid), d)] = (
                c.index.get_level_values(d).to_numpy(dtype="float64"),
                cnt_geq / float(S),
            )
        minmax[d] = (
            pdf.groupby("cluster_id")[d]
            .agg(["min", "max"])
            .rename(columns={"min": "vmin", "max": "vmax"})
        )
    n_rows = {int(c): int(n) for c, n in pdf.groupby("cluster_id").size().items()}
    return ProviderMetadata(S=S, dims=list(dims), minmax=minmax, rgeq=rgeq, n_rows=n_rows)


def assert_metadata_equal(got: ProviderMetadata, want: ProviderMetadata) -> None:
    assert got.S == want.S and got.dims == want.dims
    assert got.n_rows == want.n_rows
    assert got.rgeq.keys() == want.rgeq.keys()
    for key, (values, r) in want.rgeq.items():
        got_values, got_r = got.rgeq[key]
        assert got_values.dtype == got_r.dtype == np.float64, key
        # exact float equality: integer counts over the same float S
        assert np.array_equal(got_values, values), key
        assert np.array_equal(got_r, r), key
    for d in want.dims:
        pd.testing.assert_frame_equal(got.minmax[d], want.minmax[d], check_exact=True)
    assert got.size_bytes() == want.size_bytes()


class TestGolden:
    """Every (cluster, dim) of every provider against the pandas reference."""

    @pytest.mark.parametrize("fed_name", ["adult_fed", "amazon_fed"])
    def test_federation_metadata_matches_reference(self, request, fed_name):
        fed = request.getfixturevalue(fed_name)
        for provider, local in zip(fed.providers, fed.local_frames):
            assert_metadata_equal(provider.meta, reference_metadata(local, fed.dims, fed.S))
            assert provider.meta.minmax[fed.dims[0]].index.dtype == local["cluster_id"].dtype

    def test_mixed_dim_types_keep_their_dtypes(self):
        pdf = pd.DataFrame(
            {
                "cluster_id": np.repeat(np.arange(3, dtype="int64"), 4),
                "a": np.arange(12, dtype="int64") % 5,
                "b": np.linspace(0.0, 2.75, 12),
            }
        )
        meta = build_metadata(pdf, dims=["a", "b"], S=4)
        assert_metadata_equal(meta, reference_metadata(pdf, ["a", "b"], 4))
        assert meta.minmax["a"]["vmin"].dtype == np.int64
        assert meta.minmax["b"]["vmax"].dtype == np.float64


class TestDegenerateInputs:
    def test_no_dims_rejected(self, pdf):
        with pytest.raises(ValueError, match="at least one dimension"):
            build_metadata(pdf, dims=[], S=80)

    def test_no_cluster_id_rejected(self, pdf):
        with pytest.raises(ValueError, match="cluster_id"):
            build_metadata(pdf.drop(columns="cluster_id"), dims=DIMS, S=80)

    def test_empty_table_gives_empty_metadata(self, pdf):
        meta = build_metadata(pdf.iloc[:0], dims=DIMS, S=80)
        assert meta.n_clusters == 0
        assert meta.rgeq == {} and meta.n_rows == {}
        assert meta.cluster_ids.size == 0
        for d in DIMS:
            assert meta.minmax[d].empty
            assert list(meta.minmax[d].columns) == ["vmin", "vmax"]
            assert meta.minmax[d].index.dtype == np.int64
        assert meta.size_bytes() == 0

    @pytest.mark.parametrize(
        "ranges", [{"age": (10, 50), "hours": (0, 98)}, {}], ids=["ranges", "full"]
    )
    def test_empty_table_gives_empty_cq(self, pdf, ranges):
        meta = build_metadata(pdf.iloc[:0], dims=DIMS, S=80)
        cq = clusters_for_query(meta, RangeQuery(COUNT, ranges))
        assert cq.size == 0 and cq.dtype == np.int64
        ids, r = proportions(meta, RangeQuery(COUNT, ranges))
        assert ids.size == 0 and r.size == 0
