"""Offline cluster metadata construction (Algorithm 1) as a Spark job.

For each cluster ``C`` and dimension ``d`` the data-level metadata stores the
step function ``R^{d>=}(v) = |rows of C with d >= v| / S`` at every distinct
value ``v`` of ``d`` in ``C``; the global metadata stores per-cluster
``(v_min^d, v_max^d)`` for pruning (Eq 2). Built from one Spark scan per
provider: the dimensions are stacked into ``(cluster_id, dim, value)`` rows
and one groupBy counts each distinct value, collected once through Arrow.
The driver turns the counts into cumulative counts with a segmented reverse
cumulative sum per (cluster, dim) in numpy — the paper stores this as small
per-cluster meta files (~tens of KB per cluster), so driver-side
pandas/numpy lookup is the faithful analogue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.pandas.types import to_arrow_schema


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


def build_metadata(df: DataFrame, *, dims: list[str], S: int) -> ProviderMetadata:
    """Run Algorithm 1 over a provider table (must carry ``cluster_id``).

    One Spark aggregation scans the table once: every dimension is stacked
    into ``(cluster_id, dim, value)`` rows and grouped into distinct-value
    counts, collected through Arrow. The driver sorts the counts by
    (cluster, dim, value); a reverse cumulative sum within each
    (cluster, dim) segment gives ``cnt_geq``, the segment's first and last
    values are the cluster's ``(vmin, vmax)``, and one dimension's counts sum
    to the cluster's row count.
    """
    if S <= 0:
        raise ValueError("cluster size S must be positive")
    if not dims:
        raise ValueError("metadata needs at least one dimension")
    dims = list(dims)
    schema = to_arrow_schema(df.select("cluster_id", *dims).schema)
    # stack() needs one type for every stacked column; mixed dims widen to
    # double and their (vmin, vmax) are cast back to each dim's own type.
    same_type = len({schema.field(d).type for d in dims}) == 1
    stacked_cols = ", ".join(
        f"{i}, `{d}`" if same_type else f"{i}, CAST(`{d}` AS DOUBLE)"
        for i, d in enumerate(dims)
    )
    counts = (
        df.selectExpr("cluster_id", f"stack({len(dims)}, {stacked_cols}) AS (dim, value)")
        .groupBy("cluster_id", "dim", "value")
        .count()
        .toArrow()
    )
    cid = counts.column("cluster_id").to_numpy()
    dim = counts.column("dim").to_numpy()
    value = counts.column("value").to_numpy()
    cnt = counts.column("count").to_numpy()
    order = np.lexsort((value, dim, cid))
    cid, dim, value, cnt = cid[order], dim[order], value[order], cnt[order]

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
        dtype = schema.field(d).type.to_pandas_dtype()
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
