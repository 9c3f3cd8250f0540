"""Reference oracles and fixtures shared by the tests.

Nothing in the library calls these.  They are the slow or redundant forms
that the library's paths are checked against (the O(n^2) discrepancy, the
O(n*|t|) smoothed train, the sorted-key signal JSON and its reader by
json.load alone, the scanning MMD search and chain, transcription on the
dense grid, its sign-list sweep and the sparse transcription passes, the
row-by-row Victor-Purpura program and its split/merge form on signed
trains, the Gaussian Gram's row blocks on one thread, the signal
operations piece by piece on `Segment`s, the f-string event CSV and its
line-by-line reader, the event difference and the
quasi-isometry fit one trial at a time, the qi corpus built as one list,
send-on-delta and its right limit in the threshold in exact rational
arithmetic, the coarse sample of a nested threshold read from the fine
one), seeded train generators, curated adversarial signals, and the
Schreiber conflation witness.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from operator import attrgetter

import numpy as np

from sodlab._util import CHUNK, JSON_NUMBERS, check_integer, check_positive
from sodlab.analysis import _eta_payload
from sodlab.events import (EventSequence, _read_sidecar, difference, from_pairs,
                           scale_events, split_signs)
from sodlab.norms import _amplitudes, discrepancy_norm, norm_by_kind
from sodlab.signals import STRUCT_TOL, Segment, Signal, random_walk, signal_from_dict
from sodlab.spike_metrics import (
    _GAUSS_ROWS,
    SchreiberParams,
    VictorPurpuraParams,
    _vp_dp,
    schreiber_distance,
    schreiber_similarity,
)
from sodlab.structure import DenseEvents, _require_unit
from sodlab.trains import _random_times, alternating_train, mmsn_train

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


def _nonnegative_spike_times(eta: EventSequence) -> list[float]:
    """Each time of a nonnegative train repeated round(v) times, with v
    allowed 1e-9 off that integer."""
    out = []
    for t, v in zip(eta.times, eta.values):
        m = round(v)
        if m < 1 or abs(v - m) > 1e-9:
            raise ValueError(
                f"Victor-Purpura needs unit (integer-multiplicity) events, got {v!r}")
        out.extend([t] * m)
    return out


def victor_purpura_split_merge(eta1: EventSequence, eta2: EventSequence,
                               params: VictorPurpuraParams) -> float:
    """Victor-Purpura on signed trains through event sequences: each train
    splits into its positive and negated negative parts, and the combined
    mode merges them crosswise as eta1+ - (-eta2-) and eta1- - (-eta2+) on
    the merged grid before expanding unit spikes."""
    p1, m1 = split_signs(eta1)
    p2, m2 = split_signs(eta2)
    spikes = _nonnegative_spike_times
    if params.mode == "separate":
        return (_vp_dp(spikes(p1), spikes(p2), params.s)
                + _vp_dp(spikes(m1), spikes(m2), params.s))
    a = difference(p1, scale_events(m2, -1.0))
    b = difference(m1, scale_events(p2, -1.0))
    return _vp_dp(spikes(a), spikes(b), params.s)


def difference_stepwise(eta1: EventSequence, eta2: EventSequence) -> EventSequence:
    """eta1 - eta2 on the merged grid, one event per step, with the test for
    an exhausted side inside the loop; exact cancellations are dropped."""
    if eta1.T != eta2.T:
        raise ValueError(f"horizon mismatch: {eta1.T!r} vs {eta2.T!r}")
    t1, v1 = eta1.times, eta1.values
    t2, v2 = eta2.times, eta2.values
    i = j = 0
    times, values = [], []
    while i < len(t1) or j < len(t2):
        if j >= len(t2) or (i < len(t1) and t1[i] < t2[j]):
            t, v = t1[i], v1[i]
            i += 1
        elif i >= len(t1) or t2[j] < t1[i]:
            t, v = t2[j], -v2[j]
            j += 1
        else:  # exact time collision
            t, v = t1[i], v1[i] - v2[j]
            i += 1
            j += 1
        if v != 0.0:
            times.append(t)
            values.append(v)
    return EventSequence(eta1.T, tuple(times), tuple(values))


def qi_fit_loop(dxs, dys, theta: float) -> tuple[float, float, float]:
    """(A, B(A), B(1)) of the quasi-isometry fit, with each B(a) a loop over
    the trials and the tie to the minimum within 1e-12 (max dx + theta)."""
    def b_of(a):
        worst = 0.0
        for dx, dy in zip(dxs, dys):
            worst = max(worst, dy - a * dx, dx / a - dy)
        return worst

    grid = [1.0 + 0.01 * k for k in range(101)]
    bs = [(b_of(a), a) for a in grid]
    b_min = min(b for b, _ in bs)
    fitted_a = min(a for b, a in bs if b <= b_min + 1e-12 * (max(dxs) + theta))
    return fitted_a, b_of(fitted_a), b_of(1.0)


def qi_corpus_eager(n_pairs: int, seed: int, T: float = 1.0,
                    n_breaks: int = 12, amplitude: float = 0.4):
    """Seed-deterministic list of random piecewise-linear signal pairs."""
    n_pairs = check_integer(n_pairs, "trial count n_pairs", 1)
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    child = rng.integers(0, 2 ** 62, size=(n_pairs, 2))
    return [
        (random_walk(T, int(a), n_breaks, amplitude),
         random_walk(T, int(b), n_breaks, amplitude))
        for a, b in child
    ]


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


def gauss_gram_serial(eta1: EventSequence, eta2: EventSequence, sigma: float) -> float:
    """The Gaussian Gram's row blocks on one thread, each block's kernel
    allocated afresh: the bits `_gauss_gram` must give on any CPU count."""
    t1, v1 = np.asarray(eta1.times), np.asarray(eta1.values)
    t2, v2 = np.asarray(eta2.times), np.asarray(eta2.values)
    total = 0.0
    for lo in range(0, len(t1), _GAUSS_ROWS):
        kern = t1[lo:lo + _GAUSS_ROWS, None] - t2[None, :]
        kern *= kern
        kern /= -4.0 * sigma * sigma
        total += float(v1[lo:lo + _GAUSS_ROWS] @ (np.exp(kern, out=kern) @ v2))
    return total


def signal_of(T: float, *segments: Segment) -> Signal:
    """The signal whose pieces are `segments`, in order."""
    return Signal(T, *(tuple(map(attrgetter(name), segments))
                       for name in ("t0", "c0", "c1", "c2")))


# --- the signal operations piece by piece ----------------------------------
# The forms that built one `Segment` per piece, kept as the reference the
# columnar operations of sodlab.signals must match bit for bit.

def validate_segmentwise(T: float, segs) -> None:
    """Raise the ValueError the piece-by-piece validator raises for pieces
    `segs` on [0, T] (T already a positive float), or return None."""
    if not segs:
        raise ValueError("signal needs at least one segment")
    if segs[0].t0 != 0.0:
        raise ValueError(f"first segment must start at 0, got {segs[0].t0!r}")
    isfinite = math.isfinite
    prev = None
    for seg in segs:
        if not (isfinite(seg.c0) and isfinite(seg.c1) and isfinite(seg.c2)):
            raise ValueError(f"non-finite coefficient in the segment at t={seg.t0!r}")
        if prev is None:
            prev = seg
            continue
        if not seg.t0 > prev.t0:
            raise ValueError("segment start times must be strictly increasing")
        if not seg.t0 < T:
            raise ValueError("segment start times must lie in [0, T)")
        u = seg.t0 - prev.t0
        left = prev.value(seg.t0)
        size = max(abs(left), abs(seg.c0), abs(prev.c0), abs(prev.c1 * u),
                   abs(prev.c2 * u * u))
        floor = min(STRUCT_TOL * 2.0 ** -1022 * (1.0 + u) * (1.0 + u), 2.0 ** -1022)
        if not abs(left - seg.c0) <= max(STRUCT_TOL * size, floor) < math.inf:
            raise ValueError(f"discontinuity at t={seg.t0!r}: {left!r} vs {seg.c0!r}")
        prev = seg


def evaluate_segmentwise(f: Signal, t: float) -> float:
    if not 0.0 <= t <= f.T:
        raise ValueError(f"t={t!r} outside [0, {f.T!r}]")
    segs = tuple(f.segments)
    idx = bisect_right(segs, t, key=attrgetter("t0")) - 1
    return segs[idx].value(t)


def scale_segmentwise(f: Signal, lam: float) -> Signal:
    return signal_of(f.T, *(Segment(s.t0, lam * s.c0, lam * s.c1, lam * s.c2)
                            for s in f.segments))


def _rebased(seg: Segment, t0: float) -> tuple[float, float, float]:
    """Coefficients of `seg` rewritten relative to a new origin t0 >= seg.t0."""
    d = t0 - seg.t0
    return (
        seg.c0 + d * (seg.c1 + d * seg.c2),
        seg.c1 + 2.0 * seg.c2 * d,
        seg.c2,
    )


def add_segmentwise(f: Signal, g: Signal) -> Signal:
    if f.T != g.T:
        raise ValueError(f"horizon mismatch: {f.T!r} vs {g.T!r}")
    fsegs, gsegs = tuple(f.segments), tuple(g.segments)
    starts = sorted({s.t0 for s in fsegs} | {s.t0 for s in gsegs})
    fi = gi = 0
    out = []
    for s in starts:
        while fi + 1 < len(fsegs) and fsegs[fi + 1].t0 <= s:
            fi += 1
        while gi + 1 < len(gsegs) and gsegs[gi + 1].t0 <= s:
            gi += 1
        a0, a1, a2 = _rebased(fsegs[fi], s)
        b0, b1, b2 = _rebased(gsegs[gi], s)
        out.append(Segment(s, a0 + b0, a1 + b1, a2 + b2))
    return signal_of(f.T, *out)


def segment_extrema(seg: Segment, hi: float) -> tuple[float, float]:
    """(min, max) of the piece over [seg.t0, hi], via endpoints and vertex."""
    lo_v = seg.c0
    hi_v = seg.value(hi)
    mn, mx = (lo_v, hi_v) if lo_v <= hi_v else (hi_v, lo_v)
    if seg.c2 != 0.0:
        u = -seg.c1 / (2.0 * seg.c2)
        if 0.0 < u < hi - seg.t0:
            v = seg.c0 + u * (seg.c1 + u * seg.c2)
            mn = min(mn, v)
            mx = max(mx, v)
    return mn, mx


def diameter_norm_segmentwise(f: Signal) -> float:
    mn = math.inf
    mx = -math.inf
    segs = tuple(f.segments)
    for i, seg in enumerate(segs):
        hi = segs[i + 1].t0 if i + 1 < len(segs) else f.T
        a, b = segment_extrema(seg, hi)
        mn = min(mn, a)
        mx = max(mx, b)
    return mx - mn


def integrate_segmentwise(f: Signal) -> Signal:
    if not f.is_linear():
        raise ValueError("integrate supports degree <= 1 signals only "
                         "(the antiderivative would exceed degree 2)")
    acc = 0.0
    out = []
    segs = tuple(f.segments)
    for i, seg in enumerate(segs):
        out.append(Segment(seg.t0, acc, seg.c0, 0.5 * seg.c1))
        hi = segs[i + 1].t0 if i + 1 < len(segs) else f.T
        d = hi - seg.t0
        acc += d * (seg.c0 + 0.5 * seg.c1 * d)
    return signal_of(f.T, *out)


def pwl_from_points_segmentwise(T: float, times, values) -> Signal:
    times = [float(t) for t in times]
    values = [float(v) for v in values]
    if len(times) != len(values) or len(times) < 1:
        raise ValueError("need equally many times and values (at least one)")
    if times[0] != 0.0:
        raise ValueError("first knot must be at t=0")
    segs = []
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        if dt <= 0.0:
            raise ValueError("knot times must be strictly increasing")
        segs.append(Segment(times[i], values[i], (values[i + 1] - values[i]) / dt))
    if times[-1] < T:
        segs.append(Segment(times[-1], values[-1]))
    elif times[-1] > T:
        raise ValueError("knots exceed the horizon")
    if not segs:  # single knot at t=0
        segs.append(Segment(0.0, values[0]))
    return signal_of(T, *segs)


def events_csv_text(eta: EventSequence) -> str:
    """The event CSV as an f-string per row writes it."""
    lines = ["t,v"]
    lines.extend(f"{t!r},{v!r}" for t, v in zip(eta.times, eta.values))
    return "\n".join(lines) + "\n"


def _bad_row(path) -> ValueError:
    """The error for the first malformed data row of the CSV at `path`,
    numbered by its physical line: each cell is read by the rule of
    `read_events_csv`, so this finds a row whenever that refuses one."""
    import orjson

    with open(path) as handle:
        rows = [(n, ln.strip()) for n, ln in enumerate(handle, start=1) if ln.strip()]
    for lineno, row in rows[1:]:  # after the header
        cells = row.split(",")
        if len(cells) != 2:
            return ValueError(f"{path}:{lineno}: expected two columns, got {row!r}")
        for cell in cells:
            try:
                number = type(orjson.loads(cell)) in JSON_NUMBERS
            except orjson.JSONDecodeError:
                number = False
            if not number:
                return ValueError(
                    f"{path}:{lineno}: could not convert {cell!r}: expected a JSON number")
    raise AssertionError("no malformed row")


def read_events_csv_lines(path, horizon: float | None = None) -> EventSequence:
    """`events.read_events_csv` as it read a file before it read one block
    at a time: the stripped nonblank lines of the whole file as strings, one
    orjson call per `CHUNK` rows, and `_bad_row`, which opens the file again,
    for the first bad line.  So it reads only a file that can be reopened."""
    import orjson

    if horizon is not None:
        horizon = check_positive(horizon, "horizon")
    with open(path) as handle:
        rows = list(filter(None, map(str.strip, handle)))
    if not rows or rows[0] != "t,v":
        raise ValueError(f"{path}: expected header 't,v'")
    del rows[0]
    times, values = [], []
    try:
        if set(map(str.count, rows, repeat(","))) - {1}:
            raise ValueError("a row without exactly two columns")
        for i in range(0, len(rows), CHUNK):
            chunk = rows[i:i + CHUNK]
            cells = orjson.loads("[" + ",".join(chunk) + "]")
            if len(cells) != 2 * len(chunk) or not set(map(type, cells)) <= JSON_NUMBERS:
                raise ValueError("a cell that is not a JSON number")
            times += cells[0::2]
            values += cells[1::2]
        del rows
    except ValueError as exc:
        raise _bad_row(path) from exc
    if horizon is None:
        horizon = _read_sidecar(path)
    try:
        return EventSequence(horizon, times, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def signal_to_dict(f: Signal) -> dict:
    return {
        "T": f.T,
        "segments": [
            {"t": s.t0, "c0": s.c0, "c1": s.c1, "c2": s.c2} for s in f.segments
        ],
    }


def json_load_signal(path) -> Signal:
    """`signals.load_signal` as json.load alone reads a file: the whole text,
    then one dict per piece, then `signal_from_dict`."""
    with open(path) as handle:
        try:
            return signal_from_dict(json.load(handle))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def differentiate(f: Signal) -> Signal:
    """Per-segment derivative (degree drops by one).

    The result must still satisfy the continuity invariant, so this is mainly
    useful on outputs of `integrate`.
    """
    return signal_of(f.T, *(Segment(s.t0, s.c1, 2.0 * s.c2, 0.0) for s in f.segments))


def sup_norm(f: Signal) -> float:
    """max |f| over [0, T], from exact per-segment extrema."""
    ends = [s.t0 for s in f.segments[1:]] + [f.T]
    return max(max(map(abs, segment_extrema(seg, hi)))
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


# --- exact sampling -----------------------------------------------------------
# Phi_theta and its right limit in rational arithmetic, for piecewise-linear
# signals: the operator whose crossings the float sampler's root tolerances
# approximate.


def exact_knots(f: Signal) -> list[tuple[Fraction, Fraction]]:
    """The knots of a piecewise-linear f as exact rationals: (t0[i], c0[i])
    and (T, f(T)), with f(T) the float that the sampler computes for the
    last piece's end.  The signal they define is their linear interpolant."""
    if any(f.c2):
        raise ValueError("the exact sampler takes piecewise-linear signals only")
    u = f.T - f.t0[-1]
    end = f.c0[-1] + u * (f.c1[-1] + u * f.c2[-1])
    return [(Fraction(t), Fraction(v)) for t, v in zip((*f.t0, f.T), (*f.c0, end))]


def _exact_first_time(knots, i, t_cur, level, s, strict):
    """(t, j): the first time after t_cur, on piece j >= i, at which f
    reaches `level` from below (s = 1) or from above (s = -1); with
    `strict`, the first time after which f lies strictly past it.  (None,
    None) when there is none.  f(t_cur) must lie short of the level."""
    for j in range(i, len(knots) - 1):
        (ta, va), (tb, vb) = knots[j], knots[j + 1]
        if (vb > level if s > 0 else vb < level) or (vb == level and not strict):
            if ta < t_cur:
                va += (vb - va) * (t_cur - ta) / (tb - ta)
                ta = t_cur
            return ta + (level - va) / (vb - va) * (tb - ta), j
    return None, None


def exact_sample(f: Signal, theta: float, right: bool = False,
                 eps: Fraction = Fraction(0)) -> list[tuple[Fraction, int]]:
    """Phi_theta f as (time, sign) pairs, in exact arithmetic on the
    interpolant of `exact_knots(f)`.

    Level m is the sampler's float product m * theta, read exactly, plus
    m * eps: the oracle checks the search, not the rounding of the levels,
    and eps > 0 gives Phi at theta + eps on that lattice.  After events of
    net count k the next event is the first time f reaches level k + 1 from
    below or level k - 1 from above, up first on a tie.  With `right`, an
    outward level, up with k + 1 > 0 or down with k - 1 < 0, fires instead
    at the first time after which f lies strictly past it: the pass rule,
    which `exact_right_limit_check` confirms is the limit eps -> 0+."""
    knots = exact_knots(f)
    k, t_cur, i, events = 0, Fraction(0), 0, []
    while True:
        hit = None
        for s in (1, -1):
            m = k + s
            level = Fraction(m * theta) + m * eps
            t, j = _exact_first_time(knots, i, t_cur, level, s, right and m * s > 0)
            if t is not None and (hit is None or t < hit[0]):
                hit = (t, j, s)
        if hit is None:
            return events
        t_cur, i, s = hit
        k += s
        events.append((t_cur, s))


def exact_right_limit_check(f: Signal, theta: float) -> None:
    """Check the pass rule against Phi at theta + eps, for a rational eps
    so small that no level m * theta + m * eps crosses a knot value it
    misses at eps = 0: the same signs and, on a piece of slope at least
    sigma, times within max |m| * eps / sigma, the most that a level
    shifted by m * eps moves its crossing."""
    knots = exact_knots(f)
    nearest = [round(v / Fraction(theta)) for _, v in knots]
    top = max(map(abs, nearest)) + 2
    margins = [abs(v - Fraction(n * theta))
               for (_, v), m in zip(knots, nearest) for n in (m - 1, m, m + 1)]
    bound = min([Fraction(theta), *filter(None, margins)]) / (4 * top)
    # the power of two at or below the bound keeps every level dyadic
    eps = Fraction(2) ** (bound.numerator.bit_length() - bound.denominator.bit_length() - 1)
    slopes = [abs((vb - va) / (tb - ta)) for (ta, va), (tb, vb) in zip(knots, knots[1:])]
    sigma = min(filter(None, slopes), default=1)
    limit, shifted = exact_sample(f, theta, right=True), exact_sample(f, theta, eps=eps)
    assert [s for _, s in limit] == [s for _, s in shifted]
    assert all(abs(a - b) <= top * eps / sigma for (a, _), (b, _) in zip(limit, shifted))


def knot_in_slack_band(f: Signal, theta: float) -> bool:
    """True when a knot value of the piecewise-linear f misses a level
    m * theta by a nonzero amount of at most 2e-12 of an adjacent piece's
    rise: the float sampler's root for that level then lies within its
    slack band, 1e-12 of the piece's length, past the joint, and is clamped
    onto it.  So the float sampler fires at the joint where f turns back
    short of the level, or where it passes the level a little later.  On
    other inputs it agrees with `exact_sample`."""
    knots = exact_knots(f)
    rises = [abs(vb - va) for (_, va), (_, vb) in zip(knots, knots[1:])]
    for j, (_, v) in enumerate(knots):
        band = Fraction(2, 10 ** 12) * max(rises[max(j - 1, 0):j + 1])
        m = round(v / Fraction(theta))
        if any(0 < abs(v - Fraction(n * theta)) <= band for n in (m - 1, m, m + 1)):
            return True
    return False


def coarse_events(eta: EventSequence, m: int) -> EventSequence:
    """C_m: the sample at threshold m * theta of the signal whose sample at
    theta is the theta-pure `eta`, read from `eta` alone.  It keeps the
    events at which the net count k of `eta` first reaches m(K + 1) or
    m(K - 1) from the coarse reference level mK (K = `k_coarse`), each with
    amplitude +-(m * theta), and steps K.  Between two events of `eta` the signal
    stays strictly within theta of the level k * theta, so every first hit
    of a coarse level is an event of `eta`."""
    if not eta.values:
        return eta
    theta = abs(eta.values[0])
    rise, fall = m * theta, -(m * theta)
    k = k_coarse = 0
    times, values = [], []
    for t, v in zip(eta.times, eta.values):
        k += 1 if v > 0.0 else -1
        if k == m * (k_coarse + 1) or k == m * (k_coarse - 1):
            up = k > m * k_coarse
            k_coarse += 1 if up else -1
            times.append(t)
            values.append(rise if up else fall)
    return EventSequence(eta.T, tuple(times), tuple(values))


# --- curated adversarial signals --------------------------------------------


def local_max_signal(theta: float = 0.25, T: float = 2.0) -> Signal:
    """Rise to 3*theta on [0, T/2], fall back to 0: the local maximum touches
    a threshold level exactly, the canonical right-discontinuous situation."""
    peak = 3.0 * theta
    half = T / 2.0
    return signal_of(T, Segment(0.0, 0.0, peak / half), Segment(half, peak, -peak / half))


def comb_signal(n_peaks: int = 3, theta: float = 0.25) -> Signal:
    """Zigzag between 0 and 2*theta with every peak and valley critical."""
    if n_peaks < 1:
        raise ValueError("n_peaks must be >= 1")
    top = 2.0 * theta
    segs = []
    for i in range(n_peaks):
        segs.append(Segment(2.0 * i, 0.0, top))
        segs.append(Segment(2.0 * i + 1.0, top, -top))
    return signal_of(2.0 * n_peaks, *segs)


# --- transcription on the dense grid ----------------------------------------
# The grid-keeping forms that `structure` replaced with one sparse pass.

def _require_unit_or_zero(values) -> None:
    for v in values:
        if v not in (-1.0, 0.0, 1.0):
            raise ValueError(f"needs unit amplitudes (zeros allowed), got {v!r}")


def sweep_once_dense(values, first, second):
    """One left-to-right transcription pass: zero every disjoint occurrence of
    (first, 0...0, second); the scan continues after each zeroed pair, so
    freshly exposed patterns wait for the next application."""
    out = list(values)
    nz = [k for k, v in enumerate(out) if v != 0.0]
    changed = False
    k = 0
    while k + 1 < len(nz):
        i, j = nz[k], nz[k + 1]
        if out[i] == first and out[j] == second:
            out[i] = 0.0
            out[j] = 0.0
            changed = True
            k += 2
        else:
            k += 1
    return out, changed


_DENSE_PATTERNS = {"plus_minus": (1.0, -1.0), "minus_plus": (-1.0, 1.0)}


def transcribe_dense(dense: DenseEvents, pattern: str, n: int) -> DenseEvents:
    """n transcription applications; idempotent once no pattern remains."""
    if pattern not in _DENSE_PATTERNS:
        raise ValueError(f"pattern must be 'plus_minus' or 'minus_plus', got {pattern!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_unit_or_zero(dense.values)
    first, second = _DENSE_PATTERNS[pattern]
    vals = list(dense.values)
    for _ in range(n):
        vals, changed = sweep_once_dense(vals, first, second)
        if not changed:
            break
    return DenseEvents(dense.T, dense.grid, tuple(vals))


def pi_map_dense(eta: EventSequence) -> DenseEvents:
    """The first MMD window (scanned), transcribed r times by each pattern
    on the dense grid."""
    r, idx, _ = mmd_index_intervals_scan(eta.values)
    i, j = idx[0]
    dense = DenseEvents(eta.T, eta.times[i:j + 1], eta.values[i:j + 1])
    dense = transcribe_dense(dense, "plus_minus", int(r))
    return transcribe_dense(dense, "minus_plus", int(r))


def _compact_chain(signs, first, second):
    """All stages of repeated transcription on a zero-free sign list, the
    input itself first, stopping at the fixpoint."""
    chain = [signs]
    cur = signs
    while True:
        out = []
        k = 0
        changed = False
        while k < len(cur):
            if k + 1 < len(cur) and cur[k] == first and cur[k + 1] == second:
                k += 2
                changed = True
            else:
                out.append(cur[k])
                k += 1
        if not changed:
            return chain
        chain.append(out)
        cur = out


def transcription_sweep_compact(eta: EventSequence, kind: str) -> float:
    """max of ||T^n_(-+)(T^m_(+-)(eta|_I))|| over all contiguous index
    intervals I and all application depths up to the per-interval fixpoints,
    by sign-list chains."""
    normf = norm_by_kind(kind)
    vals = list(eta.values)
    n = len(vals)
    best = 0.0
    for i in range(n):
        for j in range(i, n):
            window = vals[i:j + 1]
            for mid in _compact_chain(window, 1.0, -1.0):
                for final in _compact_chain(mid, -1.0, 1.0):
                    v = normf(final)
                    if v > best:
                        best = v
    return best


# --- transcription on the sparse sequence ----------------------------------

_PATTERNS = {"plus_minus": 1.0, "minus_plus": -1.0}


def _transcribe_pass(cur, first):
    """One left-to-right transcription pass over a zero-free list: drop each
    disjoint adjacent pair whose first entry has the sign of `first` and
    whose second has the opposite sign.  Only signs are read.  The scan
    resumes after a dropped pair, so a pair that the drop brings together
    waits for the next pass."""
    out = []
    k, last = 0, len(cur) - 1
    while k < last:
        if cur[k] * first > 0.0 > cur[k + 1] * first:
            k += 2
        else:
            out.append(cur[k])
            k += 1
    if k == last:
        out.append(cur[k])
    return out


def _survivors(values, firsts, n):
    """Positions of the events of a unit list that survive n passes for each
    sign in `firsts`, in turn (fewer once a pass drops nothing).  The passes
    run on the signed position codes +-(k + 1)."""
    codes = [k if v > 0.0 else -k for k, v in enumerate(values, start=1)]
    for first in firsts:
        for _ in range(n):
            nxt = _transcribe_pass(codes, first)
            if len(nxt) == len(codes):
                break
            codes = nxt
    return [abs(c) - 1 for c in codes]


def transcribe(eta: EventSequence, pattern: str, n: int) -> EventSequence:
    """n transcription applications to a unit sequence: each cancels every
    disjoint adjacent (+1, -1) pair ("plus_minus") or (-1, +1) pair
    ("minus_plus") and drops both events.  Idempotent once no pattern
    remains."""
    if pattern not in _PATTERNS:
        raise ValueError(f"pattern must be 'plus_minus' or 'minus_plus', got {pattern!r}")
    n = check_integer(n, "n", 0)
    _require_unit(eta.values)
    kept = _survivors(eta.values, (_PATTERNS[pattern],), n)
    return EventSequence(eta.T, tuple(eta.times[k] for k in kept),
                         tuple(eta.values[k] for k in kept))


# --- Schreiber conflation witness ---------------------------------------------

def schreiber_conflation_witness(n: int = 8, T: float = 1.0,
                                 params: SchreiberParams | None = None) -> dict:
    """The four-train construction: a half-up/half-down train against its
    negation and an alternating train against its negation both have
    similarity -1, hence equal Schreiber distance, although the discrepancy
    norms of the pair differences are n vs 2."""
    if params is None:
        params = SchreiberParams()
    eta1 = mmsn_train(n, T)
    eta2 = scale_events(eta1, -1.0)
    eta3 = alternating_train(n, T, start=-1)
    eta4 = scale_events(eta3, -1.0)
    s12 = schreiber_similarity(eta1, eta2, params)
    s34 = schreiber_similarity(eta3, eta4, params)
    return {
        "similarity_12": s12,
        "similarity_34": s34,
        "distance_12": schreiber_distance(eta1, eta2, params),
        "distance_34": schreiber_distance(eta3, eta4, params),
        "discrepancy_12": discrepancy_norm(difference(eta1, eta2)),
        "discrepancy_34": discrepancy_norm(difference(eta3, eta4)),
        "trains": [_eta_payload(e) for e in (eta1, eta2, eta3, eta4)],
    }
