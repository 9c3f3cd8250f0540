"""Deterministic event-train generators used by tests and the analysis
harness (alternating trains, the max-max-sum counterexample family,
seeded random trains)."""

from __future__ import annotations

import numpy as np

from ._util import check_integer, check_positive
from .events import EventSequence, from_pairs


def alternating_train(n: int, T: float = 1.0, start: int = 1) -> EventSequence:
    """n unit events of strictly alternating sign at k*T/(n+1)."""
    n = check_integer(n, "n", 0)
    sign = 1.0 if start > 0 else -1.0
    pairs = [((k + 1) * T / (n + 1), sign * (-1.0) ** k) for k in range(n)]
    return from_pairs(T, pairs)


def positive_train(n: int, T: float = 1.0) -> EventSequence:
    """n unit up events at k*T/(n+1)."""
    n = check_integer(n, "n", 0)
    return from_pairs(T, [((k + 1) * T / (n + 1), 1.0) for k in range(n)])


def mmsn_train(n: int, T: float = 1.0) -> EventSequence:
    """ceil(n/2) up events then n - ceil(n/2) down events at k*T/n.

    Max-max-sum norm 1 for every n while the discrepancy norm is ceil(n/2):
    the family separating the two norms.
    """
    n = check_integer(n, "n", 1)
    half = (n + 1) // 2
    pairs = [(k * T / n, 1.0 if k <= half else -1.0) for k in range(1, n + 1)]
    return from_pairs(T, pairs)


def equidistant_alternating(n: int, delta: float, T: float | None = None,
                            start: int = 1) -> EventSequence:
    """Alternating unit train at (k+1)*delta, k = 0..n-1."""
    n = check_integer(n, "n", 1)
    delta = check_positive(delta, "delta")
    T = check_positive(n * delta if T is None else T, "horizon")
    sign = 1.0 if start > 0 else -1.0
    pairs = [((k + 1) * delta, sign * (-1.0) ** k) for k in range(n)]
    if pairs[-1][0] > T:
        raise ValueError("train exceeds the horizon")
    return from_pairs(T, pairs)


def _random_times(rng, n: int, T: float):
    """n distinct sorted uniform times in [0, T]: a draw that repeats a time
    is drawn once more, and a horizon with too few floats for a second
    draw to be distinct raises a ValueError."""
    times = np.sort(rng.uniform(0.0, T, n))
    if len(np.unique(times)) != n:
        times = np.sort(rng.uniform(0.0, T, n))
        if len(np.unique(times)) != n:
            raise ValueError(f"could not draw n = {n} distinct times in [0, T = {T!r}]")
    return [float(t) for t in times]


def random_unit_train(seed: int, n: int, T: float = 1.0) -> EventSequence:
    """n events with +-1 amplitudes at sorted uniform times."""
    seed = check_integer(seed, "seed", 0)
    n = check_integer(n, "n", 0)
    T = check_positive(T, "horizon")
    rng = np.random.default_rng(seed)
    times = _random_times(rng, n, T)
    signs = rng.integers(0, 2, n) * 2 - 1
    return from_pairs(T, list(zip(times, (float(s) for s in signs))))
