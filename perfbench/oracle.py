"""DuckDB ground truth for many range queries over the provider frames.

Every query is evaluated with its own ``where_sql()`` (the predicate the
repository's DuckDB oracle uses) and the aggregate of ``duckdb_sql()``,
grouped by provider, so one statement answers a batch of queries for every
provider at once; the federated answer is the sum over providers.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.core.query import COUNT, RangeQuery

_BATCH = 400

Key = tuple[str, str]


def query_key(q: RangeQuery) -> Key:
    return q.agg, q.where_sql()


def _aggregate(q: RangeQuery) -> str:
    if q.agg == COUNT:
        return "CAST(COUNT(*) AS DOUBLE)"
    return "CAST(COALESCE(SUM(measure), 0) AS DOUBLE)"


def duckdb_answers(frames: list[pd.DataFrame], queries: list[RangeQuery]) -> dict[Key, np.ndarray]:
    """Exact answer of every distinct query on each frame, keyed by
    :func:`query_key`; entry ``i`` of the array is frame ``i``'s answer."""
    distinct = list({query_key(q): q for q in queries}.values())
    out = {query_key(q): np.zeros(len(frames)) for q in distinct}
    table = pd.concat([f.assign(_part=i) for i, f in enumerate(frames)], ignore_index=True)
    con = duckdb.connect()
    try:
        con.register("t", table)
        for i in range(0, len(distinct), _BATCH):
            chunk = distinct[i : i + _BATCH]
            sql = " UNION ALL ".join(
                f"SELECT {j} AS k, _part, {_aggregate(q)} AS v FROM t "
                f"WHERE {q.where_sql()} GROUP BY _part"
                for j, q in enumerate(chunk)
            )
            for k, part, v in con.execute(sql).fetchall():
                out[query_key(chunk[k])][part] = v
    finally:
        con.close()
    return out


def mismatches(got: list[tuple[RangeQuery, float]], truth: dict[Key, np.ndarray], part: int | None = None) -> int:
    """Number of (query, value) pairs that differ from ``truth`` on frame
    ``part``, or from the sum over all frames when ``part`` is None."""
    bad = 0
    for q, v in got:
        t = truth[query_key(q)]
        expected = t.sum() if part is None else t[part]
        bad += not np.isclose(v, expected, rtol=1e-12, atol=1e-9)
    return bad
