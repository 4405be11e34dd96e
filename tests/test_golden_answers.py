"""Golden answers: fixed-seed outputs of the protocol, pinned bit for bit.

A refactor of the query path must leave every released value, every
baseline estimate and every deterministic sweep column identical for a
fixed seed. The expected values were recorded from the implementation
before the sampling core was shared between ``DataProvider.approximate``
and the baselines; floats are compared with ``==``, not a tolerance.
Sweep speed-ups are timings and are left out.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.local_sampling import (
    global_sampling_estimate,
    local_sampling_estimate,
)
from repro.core.query import COUNT, SUM, RangeQuery
from repro.experiments import dimension_sweep, epsilon_sweep
from repro.synth_data import ADULT_DIMS

#: name -> (query, use_smc, per-provider exact_path, (value, noise, allocations))
ANSWERS = {
    "approximate": (
        RangeQuery(COUNT, {"age": (10, 50), "education": (2, 12)}),
        False,
        [False, False, False, False],
        (3706.600172634221, -212.37503805313645, [57, 2, 2, 2]),
    ),
    "exact": (
        RangeQuery(COUNT, {"age": (70, 71)}),
        False,
        [True, True, True, True],
        (11.68654991685531, -0.3134500831446907, [2, 2, 1, 1]),
    ),
    "smc": (
        RangeQuery(SUM, {"age": (65, 66)}),
        True,
        [True, True, False, False],
        (425.389207858942, 62.38920785894198, [2, 2, 1, 1]),
    ),
}

BASELINE_QUERY = RangeQuery(COUNT, {"age": (0, 12), "hours": (20, 60)})
BASELINES = {
    "local": (
        local_sampling_estimate,
        [325.4222119794837, 334.0697528953102, 339.3759532818976],
    ),
    "global": (
        global_sampling_estimate,
        [334.1767150247414, 335.0715866649691, 323.14626966039833],
    ),
}

SWEEP_COLS = ("rel_err", "noise_lo", "noise_hi")
DIMENSION_SWEEP = [
    (5.961948362452163, -7684.620573310266, -1991.6466767087275),
    (0.6300108750718753, -7684.620573310267, -1660.7347275077166),
    (0.0400763379828145, 2.2205587873089883, 4.529139518478701),
    (0.004223443128057358, 2.2205587873090735, 4.529139518478701),
]
EPSILON_SWEEP = [
    (13.75044081422536, 7305.082552103893, 47190.99838236457),
    (0.46264760005348365, -1367.3919225391123, -864.2088042626206),
    (1.3286073439953283, 7305.082552103886, 47190.998382364574),
    (0.044732200955047374, -1367.3919225391146, -864.2088042626201),
]


def answer_fields(fed, name):
    query, use_smc, _, _ = ANSWERS[name]
    ans = fed.aggregator.answer(
        query, sampling_rate=0.2, eps=1.0, delta=1e-3,
        rng=np.random.default_rng(7), use_smc=use_smc,
    )
    paths = [lr.exact_path for lr in ans.local_results]
    return paths, (ans.value, ans.noise, ans.allocations.tolist())


def baseline_estimates(fed, name):
    fn, _ = BASELINES[name]
    rng = np.random.default_rng(3)
    return [
        fn(fed.providers, BASELINE_QUERY, sampling_rate=0.3, rng=rng)
        for _ in range(3)
    ]


def sweep_columns(rows):
    return [tuple(r[c] for c in SWEEP_COLS) for r in rows]


def dimension_rows(fed):
    return sweep_columns(
        dimension_sweep(fed, ADULT_DIMS, n_dims_list=[2, 3], m=3, sr=0.2, seed=1)
    )


def epsilon_rows(fed):
    return sweep_columns(
        epsilon_sweep(fed, ADULT_DIMS, eps_list=[0.5, 2.0], m=2, sr=0.2, n_dims=2, seed=4)
    )


@pytest.mark.parametrize("name", list(ANSWERS))
def test_answer(adult_fed_pandas, name):
    _, _, want_paths, want = ANSWERS[name]
    paths, got = answer_fields(adult_fed_pandas, name)
    assert paths == want_paths
    assert got == want


@pytest.mark.parametrize("name", list(BASELINES))
def test_baseline_estimate(adult_fed_pandas, name):
    assert baseline_estimates(adult_fed_pandas, name) == BASELINES[name][1]


def test_dimension_sweep(adult_fed_pandas):
    assert dimension_rows(adult_fed_pandas) == DIMENSION_SWEEP


def test_epsilon_sweep(adult_fed_pandas):
    assert epsilon_rows(adult_fed_pandas) == EPSILON_SWEEP
