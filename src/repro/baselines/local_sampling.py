"""Local-sampling baseline (§4): no collaboration, uniform allocation.

Each provider receives the same per-provider sampling rate (the global
sample size is split uniformly, ignoring the cross-provider data
distribution) and performs PPS cluster sampling + Hansen–Hurwitz estimation
locally. This is the strawman the paper's allocation phase (Eq 6)
improves upon: on skewed horizontal partitions it wastes sample budget on
providers holding little query-relevant data.

Kept non-private (no DP noise) so comparisons isolate the *allocation*
effect from noise effects.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import RangeQuery
from repro.federation.provider import DataProvider, QueryContext


def _pps_estimate(
    provider: DataProvider, ctx: QueryContext, s: int, rng: np.random.Generator
) -> float:
    """Hansen–Hurwitz estimate from s plain PPS draws (Eq 1), no DP."""
    idx = rng.choice(ctx.n_q, size=s, replace=True, p=ctx.p)
    return provider.sample(ctx, idx).estimate


def local_sampling_estimate(
    providers: list[DataProvider],
    query: RangeQuery,
    *,
    sampling_rate: float,
    rng: np.random.Generator,
) -> float:
    """Federated estimate with uniform (non-collaborative) allocation."""
    if not (0.0 < sampling_rate < 1.0):
        raise ValueError("sampling rate must be in (0, 1)")
    total = 0.0
    for p in providers:
        ctx = p.prepare(query)
        if ctx.n_q == 0:
            continue
        total += _pps_estimate(p, ctx, max(1, int(round(sampling_rate * ctx.n_q))), rng)
    return float(total)


def global_sampling_estimate(
    providers: list[DataProvider],
    query: RangeQuery,
    *,
    sampling_rate: float,
    rng: np.random.Generator,
) -> float:
    """Noise-free distribution-aware estimate: the paper's allocation (by
    true Avg(R̂), no DP) + PPS sampling + HH. Isolates the benefit of
    distribution-aware allocation for baseline comparisons."""
    from repro.federation.allocation import solve_allocation

    contexts = [p.prepare(query) for p in providers]
    alloc = solve_allocation(
        np.array([c.avg_r for c in contexts]),
        np.array([float(c.n_q) for c in contexts]),
        sampling_rate,
    )
    total = 0.0
    for p, ctx, s in zip(providers, contexts, alloc):
        if ctx.n_q == 0:
            continue
        total += _pps_estimate(p, ctx, int(np.clip(s, 1, ctx.n_q)), rng)
    return float(total)
