"""Offline cluster metadata construction (Algorithm 1) in numpy.

For each cluster ``C`` and dimension ``d`` the data-level metadata stores the
step function ``R^{d>=}(v) = |rows of C with d >= v| / S`` at every distinct
value ``v`` of ``d`` in ``C``; the global metadata stores per-cluster
``(v_min^d, v_max^d)`` for pruning (Eq 2). Algorithm 1 is an offline pass
each provider runs over its own clustered table, so it is built on the
driver from the provider's clustered pandas frame, with no Spark job: one
sort per dimension counts each distinct (cluster, value) pair, and a
segmented reverse cumulative sum per (cluster, dim) turns the counts into
cumulative counts. The paper stores the result as small per-cluster meta
files (~tens of KB per cluster), so driver-side pandas/numpy lookup is the
faithful analogue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass
class ProviderMetadata:
    """In-memory metadata for one data provider.

    Attributes:
        S: agreed maximum cluster size (denominator of every R^{d>=}).
        dims: dimensions covered by the metadata.
        minmax: dim -> DataFrame indexed by cluster_id with vmin/vmax cols.
        rgeq: (cluster_id, dim) -> (values ascending, r_geq aligned) arrays.
        n_rows: cluster_id -> actual row count of the cluster.
    """

    S: int
    dims: list[str]
    minmax: dict[str, pd.DataFrame]
    rgeq: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]]
    n_rows: dict[int, int]

    @property
    def cluster_ids(self) -> np.ndarray:
        return np.array(sorted(self.n_rows), dtype="int64")

    @property
    def n_clusters(self) -> int:
        return len(self.n_rows)

    def r_geq(self, cluster_id: int, dim: str, x: float) -> float:
        """R^{d>=}(x): proportion of the cluster's rows with dim value >= x.

        The stored step function has a point at each distinct value; for an
        arbitrary x, R^{d>=}(x) equals the stored value at the smallest
        distinct value >= x (0 beyond the maximum).
        """
        values, r = self.rgeq[(int(cluster_id), dim)]
        idx = int(np.searchsorted(values, x, side="left"))
        return 0.0 if idx >= len(values) else float(r[idx])

    def size_bytes(self) -> int:
        """Approximate serialized metadata footprint (paper §6.1 reports it)."""
        total = 0
        for values, r in self.rgeq.values():
            total += values.nbytes + r.nbytes
        for mm in self.minmax.values():
            total += mm.memory_usage(index=True).sum()
        return int(total)


def build_metadata(pdf: pd.DataFrame, *, dims: list[str], S: int) -> ProviderMetadata:
    """Run Algorithm 1 over a provider's clustered frame (must carry ``cluster_id``).

    For each dimension one sort by (cluster, value) counts the distinct
    values of every cluster. The counts of all dimensions are laid end to
    end, dimension by dimension; a reverse cumulative sum within each
    (cluster, dim) segment gives ``cnt_geq``, the segment's first and last
    values are the cluster's ``(vmin, vmax)``, and one dimension's counts
    sum to the cluster's row count.
    """
    if S <= 0:
        raise ValueError("cluster size S must be positive")
    if not dims:
        raise ValueError("metadata needs at least one dimension")
    if "cluster_id" not in pdf.columns:
        raise ValueError("metadata needs a cluster_id column")
    dims = list(dims)
    cluster_col = pdf["cluster_id"].to_numpy()
    counted = []  # per dim: (cluster, value, count) of each distinct pair
    for d in dims:
        v = pdf[d].to_numpy()
        order = np.lexsort((v, cluster_col))
        c, v = cluster_col[order], v[order]
        new = np.concatenate([[len(c) > 0], (c[1:] != c[:-1]) | (v[1:] != v[:-1])])
        first = np.flatnonzero(new)
        counted.append((c[first], v[first], np.diff(np.append(first, len(c)))))
    cid = np.concatenate([c for c, _, _ in counted])
    dim = np.repeat(np.arange(len(dims)), [len(c) for c, _, _ in counted])
    # Mixed dims widen to a common type here; their (vmin, vmax) are cast
    # back to each dim's own dtype below.
    value = np.concatenate([v for _, v, _ in counted])
    cnt = np.concatenate([n for _, _, n in counted])

    # Segment = one (cluster, dim); starts[k]:ends[k] are its rows. Built
    # from boundary masks so that an empty table gives no segments.
    boundary = (cid[1:] != cid[:-1]) | (dim[1:] != dim[:-1])
    starts = np.flatnonzero(np.concatenate([[len(cid) > 0], boundary]))
    ends = np.flatnonzero(np.concatenate([boundary, [len(cid) > 0]])) + 1
    csum = np.cumsum(cnt)
    cnt_geq = np.repeat(csum[ends - 1], ends - starts) - csum + cnt  # rows >= value
    r_geq = cnt_geq / float(S)
    value_f64 = value.astype("float64")

    seg_cid, seg_dim = cid[starts], dim[starts]
    rgeq: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {
        (int(c), dims[k]): (value_f64[a:b], r_geq[a:b])
        for c, k, a, b in zip(seg_cid.tolist(), seg_dim.tolist(), starts, ends)
    }

    # Every row carries every dim, so each dim has one segment per cluster,
    # in ascending cluster order.
    minmax: dict[str, pd.DataFrame] = {}
    for k, d in enumerate(dims):
        in_dim = seg_dim == k
        index = pd.Index(seg_cid[in_dim], name="cluster_id")
        dtype = pdf[d].dtype
        minmax[d] = pd.DataFrame(
            {
                "vmin": value[starts[in_dim]].astype(dtype),
                "vmax": value[ends[in_dim] - 1].astype(dtype),
            },
            index=index,
        )
    first = starts[seg_dim == 0]
    n_rows = {int(c): int(n) for c, n in zip(cid[first], cnt_geq[first])}
    return ProviderMetadata(S=int(S), dims=dims, minmax=minmax, rgeq=rgeq, n_rows=n_rows)
