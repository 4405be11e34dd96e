"""Federation construction helpers: pandas tensor -> providers + aggregator.

Encapsulates the experiment setup used throughout the evaluation: partition
a count tensor horizontally across ``n_providers``, assign value-local
clusters of the agreed size S per provider, and run the offline metadata
build (Algorithm 1) on each provider's clustered pandas frame. Each
provider's table is then either persisted to a cluster-pruned parquet
store, which Spark opens, or copied into a cached Spark DataFrame; opening
a store is the only Spark work the build does.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.clusterstore.store import ClusterStore
from repro.core.metadata import build_metadata
from repro.federation.aggregator import Aggregator
from repro.federation.evaluation import PandasEvaluator, SparkEvaluator
from repro.federation.provider import DataProvider
from repro.synth_data import assign_clusters, partition_providers


@dataclass
class Federation:
    """A ready-to-query federated environment."""

    aggregator: Aggregator
    providers: list[DataProvider]
    tensor: pd.DataFrame  # the full (union) tensor, for oracle checks
    local_frames: list[pd.DataFrame]  # per-provider clustered pandas frames
    dims: list[str]
    S: int

    def with_pandas_evaluators(self) -> "Federation":
        """Clone with driver-side evaluators (identical math, no Spark jobs
        per query) — used by bulk harnesses like the Table-1 attack."""
        providers = [
            DataProvider(
                p.name,
                dims=p.dims,
                S=p.S,
                n_min=p.n_min,
                metadata=p.meta,
                evaluator=PandasEvaluator(pdf),
            )
            for p, pdf in zip(self.providers, self.local_frames)
        ]
        return Federation(
            aggregator=Aggregator(providers),
            providers=providers,
            tensor=self.tensor,
            local_frames=self.local_frames,
            dims=self.dims,
            S=self.S,
        )


def build_federation(
    spark: SparkSession,
    tensor: pd.DataFrame,
    *,
    dims: list[str],
    n_providers: int = 4,
    cluster_frac: float = 0.01,
    n_min: int = 10,
    sort_dim: str | None = None,
    partition_mode: str = "contiguous",
    store_root: str | None = None,
    seed: int = 0,
) -> Federation:
    """Build a federation from a count tensor.

    ``cluster_frac`` sets the agreed cluster size S as a fraction of one
    provider's rows (the paper uses 1% for Adult, 0.5% for Amazon Review).
    With ``store_root`` set, each provider is persisted as a partitioned
    parquet :class:`ClusterStore` so approximate queries do pruned I/O.
    """
    sort_dim = sort_dim or dims[0]
    parts = partition_providers(
        tensor,
        n_providers=n_providers,
        mode=partition_mode,
        seed=seed,
        sort_dim=sort_dim if partition_mode == "contiguous" else None,
    )
    S = max(2, int(round(cluster_frac * len(parts[0]))))
    providers: list[DataProvider] = []
    local_frames: list[pd.DataFrame] = []
    for i, part in enumerate(parts):
        local = assign_clusters(part, cluster_size=S, sort_dim=sort_dim, seed=seed + i)
        local_frames.append(local)
        if store_root is None:
            store = None
            df = spark.createDataFrame(local).cache()
        else:
            store = ClusterStore.write(local, os.path.join(store_root, f"provider_{i}"))
            df = store.read_all(spark)
        meta = build_metadata(local, dims=dims, S=S)
        providers.append(
            DataProvider(
                f"provider_{i}",
                dims=dims,
                S=S,
                n_min=n_min,
                metadata=meta,
                evaluator=SparkEvaluator(df, store),
            )
        )
    return Federation(
        aggregator=Aggregator(providers),
        providers=providers,
        tensor=tensor,
        local_frames=local_frames,
        dims=dims,
        S=S,
    )
