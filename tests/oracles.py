"""Reference oracles and fixtures shared by the tests.

Nothing in the library calls these.  They are the slow or redundant forms
that the library's paths are checked against (the O(n^2) discrepancy, the
O(n*|t|) smoothed train, the sorted-key signal JSON, the scanning MMD
search and chain, the row-by-row Victor-Purpura program), seeded train
generators, and curated adversarial signals.
"""

from __future__ import annotations

import numpy as np

from sodlab.events import EventSequence, from_pairs
from sodlab.norms import _amplitudes
from sodlab.signals import Segment, Signal, _segment_extrema
from sodlab.trains import _random_times

# --- oracles --------------------------------------------------------------


def discrepancy_bruteforce(eta, max_events: int = 10_000) -> float:
    """Direct evaluation of the interval supremum: every interval sum is
    accumulated from scratch, O(n^2).  Refuses inputs above `max_events`."""
    values = _amplitudes(eta)
    n = len(values)
    if n > max_events:
        raise ValueError(f"brute force refuses n={n} > {max_events}")
    best = 0.0
    for i in range(n):
        acc = 0.0
        for j in range(i, n):
            acc += values[j]
            if abs(acc) > best:
                best = abs(acc)
    return best


def is_alternating(eta: EventSequence) -> bool:
    """True iff consecutive amplitudes strictly alternate in sign."""
    vals = eta.values
    return all(vals[i] * vals[i + 1] < 0.0 for i in range(len(vals) - 1))


def mmd_index_intervals_scan(values):
    """(r, [(i, j)], [D_m]) by direct scans of the prefix walk: from each
    base, scan right to the first nonzero index whose window reaches range
    r, then left from it to the latest nonzero start keeping r."""
    n = len(values)
    prefix = [0.0] * (n + 1)
    for k, v in enumerate(values):
        prefix[k + 1] = prefix[k] + v
    r = max(prefix) - min(prefix)
    if r == 0.0:
        return 0.0, [], []
    intervals = []
    sums = []
    base = 0
    while base < n:
        hi = lo = prefix[base]
        end = None
        for j in range(base, n):
            p = prefix[j + 1]
            if p > hi:
                hi = p
            elif p < lo:
                lo = p
            if values[j] != 0.0 and hi - lo == r:
                end = j
                break
        if end is None:
            break
        hi = lo = prefix[end + 1]
        start = None
        for i in range(end, base - 1, -1):
            p = prefix[i]
            if p > hi:
                hi = p
            elif p < lo:
                lo = p
            if values[i] != 0.0 and hi - lo == r:
                start = i
                break
        intervals.append((start, end))
        sums.append(prefix[end + 1] - prefix[start])
        base = end + 1
    return r, intervals, sums


def chain_stages_scan(values) -> list[tuple[float, ...]]:
    """Dense chain stages eta_0 = 0, ..., eta_r = eta of a unit sequence:
    each pass zeroes the first event of every scanned MMD interval."""
    vals = list(values)
    r, _, _ = mmd_index_intervals_scan(vals)
    stages = [tuple(vals)]
    for _ in range(int(r)):
        _, idx, _ = mmd_index_intervals_scan(vals)
        for i, _j in idx:
            vals[i] = 0.0
        stages.append(tuple(vals))
    return stages[::-1]


def vp_dp_rowwise(ta, tb, s: float) -> float:
    """Victor-Purpura edit distance by the classic row-by-row O(nm)
    program: insert/delete cost 1, shift cost s*|dt|."""
    n, m = len(ta), len(tb)
    prev = [float(j) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [float(i)] + [0.0] * m
        ti = ta[i - 1]
        for j in range(1, m + 1):
            shift = prev[j - 1] + s * abs(ti - tb[j - 1])
            cur[j] = min(prev[j] + 1.0, cur[j - 1] + 1.0, shift)
        prev = cur
    return prev[m]


def exp_response(eta: EventSequence, alpha: float, t) -> np.ndarray:
    """Smoothed train R_eta at times t: sum of v_k e^{-alpha (t - t_k)} over
    t_k <= t (alpha = 0 gives the running-sum step function)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    for tk, vk in zip(eta.times, eta.values):
        mask = t >= tk
        if alpha == 0.0:
            out[mask] += vk
        else:
            out[mask] += vk * np.exp(-alpha * (t[mask] - tk))
    return out


def signal_to_dict(f: Signal) -> dict:
    return {
        "T": f.T,
        "segments": [
            {"t": s.t0, "c0": s.c0, "c1": s.c1, "c2": s.c2} for s in f.segments
        ],
    }


def differentiate(f: Signal) -> Signal:
    """Per-segment derivative (degree drops by one).

    The result must still satisfy the continuity invariant, so this is mainly
    useful on outputs of `integrate`.
    """
    return Signal(
        f.T,
        tuple(Segment(s.t0, s.c1, 2.0 * s.c2, 0.0) for s in f.segments),
    )


def sup_norm(f: Signal) -> float:
    """max |f| over [0, T], from exact per-segment extrema."""
    ends = [s.t0 for s in f.segments[1:]] + [f.T]
    return max(max(map(abs, _segment_extrema(seg, hi)))
               for seg, hi in zip(f.segments, ends))


# --- seeded trains ----------------------------------------------------------


def random_signed_train(seed: int, n: int, T: float = 1.0,
                        amplitudes=(-2.0, -1.0, 1.0, 2.0)) -> EventSequence:
    """n events with amplitudes drawn from a small integer-valued alphabet
    (keeps all norm arithmetic exact in floats)."""
    rng = np.random.default_rng(seed)
    times = _random_times(rng, n, T)
    amps = rng.choice(np.asarray(amplitudes, dtype=float), n)
    return from_pairs(T, list(zip(times, (float(a) for a in amps))))


def random_pure_train(seed: int, n: int, theta: float, T: float = 1.0) -> EventSequence:
    """theta-pure train: random signs, all magnitudes exactly theta."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    rng = np.random.default_rng(seed)
    times = _random_times(rng, n, T)
    signs = rng.integers(0, 2, n) * 2 - 1
    return from_pairs(T, [(t, float(s) * theta) for t, s in zip(times, signs)])


def random_nonnegative_train(seed: int, n: int, T: float = 1.0) -> EventSequence:
    """n unit up events at sorted uniform times."""
    rng = np.random.default_rng(seed)
    return from_pairs(T, [(t, 1.0) for t in _random_times(rng, n, T)])


# --- curated adversarial signals --------------------------------------------


def local_max_signal(theta: float = 0.25, T: float = 2.0) -> Signal:
    """Rise to 3*theta on [0, T/2], fall back to 0: the local maximum touches
    a threshold level exactly, the canonical right-discontinuous situation."""
    peak = 3.0 * theta
    half = T / 2.0
    return Signal(T, (
        Segment(0.0, 0.0, peak / half),
        Segment(half, peak, -peak / half),
    ))


def comb_signal(n_peaks: int = 3, theta: float = 0.25) -> Signal:
    """Zigzag between 0 and 2*theta with every peak and valley critical."""
    if n_peaks < 1:
        raise ValueError("n_peaks must be >= 1")
    top = 2.0 * theta
    segs = []
    for i in range(n_peaks):
        segs.append(Segment(2.0 * i, 0.0, top))
        segs.append(Segment(2.0 * i + 1.0, top, -top))
    return Signal(2.0 * n_peaks, tuple(segs))
