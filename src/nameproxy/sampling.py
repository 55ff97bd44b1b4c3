"""Stratified sampling with largest-remainder quota rounding."""

from __future__ import annotations

import numpy as np

from .core import RaceSet
from .errors import InsufficientClassError


def largest_remainder_quotas(n: int, shares) -> np.ndarray:
    """Integer per-class quotas that sum exactly to ``n``.

    Shares are renormalized to sum to 1, floors are assigned, and the
    leftover units go to the largest fractional remainders (ties broken
    toward the lowest index).  Each quota differs from ``n * share`` by
    less than 1.

    Raises:
        ValueError: ``n`` is negative, or the shares are not a non-empty
            vector of finite, non-negative numbers with positive mass.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 1 or shares.size == 0:
        raise ValueError("shares must be a non-empty 1-d vector")
    if (shares < 0).any() or not np.isfinite(shares).all():
        raise ValueError("shares must be finite and non-negative")
    total = shares.sum()
    if total <= 0:
        raise ValueError("shares must have positive mass")
    exact = n * shares / total
    quotas = np.floor(exact).astype(np.int64)
    remainder = int(n - quotas.sum())
    if remainder > 0:
        order = np.argsort(-(exact - quotas), kind="stable")
        quotas[order[:remainder]] += 1
    return quotas


def representative_sample_indices(
    race,
    n: int,
    shares,
    seed: int,
    races: RaceSet | None = None,
) -> np.ndarray:
    """Indices of a stratified sample of ``n`` records matching ``shares``.

    ``race[i]`` is record ``i``'s index in ``races`` (-1 for none, never
    drawn).  Within each race the draw is uniform without replacement; the
    returned indices are ascending, so the sample preserves input order and
    a fixed seed reproduces it byte for byte.

    Raises:
        InsufficientClassError: a race has fewer records than its quota.
    """
    races = races or RaceSet()
    if len(np.asarray(shares)) != len(races):
        raise ValueError("shares must align with the race set")
    quotas = largest_remainder_quotas(n, shares)
    race = np.asarray(race)
    rng = np.random.default_rng(seed)
    chosen = []
    for k, (label, quota) in enumerate(zip(races, quotas)):
        pool = np.flatnonzero(race == k)
        if quota > pool.size:
            raise InsufficientClassError(
                f"race {label!r} has {pool.size} records, quota is {int(quota)}"
            )
        if quota > 0:
            chosen.append(pool[rng.choice(pool.size, size=int(quota), replace=False)])
    return np.sort(np.concatenate(chosen)) if chosen else np.zeros(0, dtype=np.intp)


def max_feasible_sample_size(available: np.ndarray, shares) -> int:
    """Largest ``n`` whose quotas fit within per-class availability."""
    shares = np.asarray(shares, dtype=np.float64)
    available = np.asarray(available, dtype=np.int64)
    norm = shares / shares.sum()
    # a fit requires floor(n * t_i) <= a_i for every class, so n < (a_i + 1) / t_i
    caps = np.where(norm > 0, (available + 1) / np.where(norm > 0, norm, 1.0), np.inf)
    n = int(np.floor(caps.min()))
    while n > 0:
        quotas = largest_remainder_quotas(n, shares)
        if (quotas <= available).all():
            return n
        n -= 1
    return 0
