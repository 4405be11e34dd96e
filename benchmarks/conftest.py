"""Benchmark-scale fixtures, built once per session from
``repro.experiments.DATASETS``: adult-lite at SF=1 (4M tensor rows),
amazon-lite at SF=0.5 (8M rows) and the Table 1 attack federation at
SF=0.01 (40k rows, pandas evaluators).

adult-lite and amazon-lite are backed by cluster-partitioned parquet stores
so that approximate queries do genuinely pruned I/O and the exact baseline
pays a full scan — the regime the paper's speed-ups are measured in.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import build
from repro.federation.builder import Federation


@pytest.fixture(scope="session")
def adult_fed_bench(spark, tmp_path_factory) -> Federation:
    return build(spark, "adult", store_root=str(tmp_path_factory.mktemp("adult_store")))


@pytest.fixture(scope="session")
def amazon_fed_bench(spark, tmp_path_factory) -> Federation:
    return build(spark, "amazon", store_root=str(tmp_path_factory.mktemp("amazon_store")))


@pytest.fixture(scope="session")
def attack_fed_pandas(spark) -> Federation:
    return build(spark, "attack")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
