"""Piecewise-polynomial signals on [0, T] with exact arithmetic.

The canonical signal class is piecewise polynomial of degree <= 2: it is
closed under integration of piecewise-linear inputs and keeps every
threshold crossing solvable in closed form (linear or quadratic formula),
so the sampler never needs an iterative root finder.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from ._util import (BLOCK, CHUNK, JSON_NUMBERS, check_integer, check_positive, float_columns,
                    float_reprs, write_text_atomic)

# Joint tolerance, relative to the joint's largest term (with a floor only
# below 2^-1022, where floats round absolutely): f and 2^j * f get one verdict.
STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """One polynomial piece c0 + c1*(t - t0) + c2*(t - t0)^2, valid from t0:
    the element type of `Signal.segments`."""

    t0: float
    c0: float
    c1: float = 0.0
    c2: float = 0.0

    def value(self, t: float) -> float:
        u = t - self.t0
        return self.c0 + u * (self.c1 + u * self.c2)


class _SegmentView(Sequence):
    """A signal's pieces as `Segment`s, each built when indexed or iterated;
    ``len()`` builds none.  A slice is a tuple of `Segment`s."""

    __slots__ = ("_f",)

    def __init__(self, f: Signal):
        self._f = f

    def __len__(self) -> int:
        return len(self._f.t0)

    def __getitem__(self, i):
        f = self._f
        cols = (f.t0[i], f.c0[i], f.c1[i], f.c2[i])
        return tuple(map(Segment, *cols)) if isinstance(i, slice) else Segment(*cols)

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, _SegmentView) else other)


@dataclass(frozen=True)
class Signal:
    """A continuous piecewise-polynomial function on [0, T].

    Piece i is c0[i] + c1[i]*(t - t0[i]) + c2[i]*(t - t0[i])^2 from t0[i]
    up to the next start (or T).  The four columns are float tuples of one
    length, at least 1.  Starts increase strictly from t0[0] = 0 and stay
    below T, every coefficient is finite, and consecutive pieces agree at
    the joints (within ``STRUCT_TOL`` times the largest of the joint values
    and the terms c0, c1*u, c2*u^2 that evaluate the left piece there; a
    miss below 2^-1022 may be subnormal rounding).  The horizon is stored
    as a float.  Signals are immutable and safe to share.
    """

    T: float
    t0: tuple[float, ...]
    c0: tuple[float, ...]
    c1: tuple[float, ...]
    c2: tuple[float, ...]

    def __post_init__(self):
        # Every check reads the stored floats (an integer is judged as the float
        # it becomes), and each names the first piece that fails it; an entry
        # that is no real number (a string, None) is refused: see `float_columns`.
        T = check_positive(self.T, "horizon")
        if not len(self.t0):
            raise ValueError("signal needs at least one segment")
        if not len(self.c0) == len(self.c1) == len(self.c2) == len(self.t0):
            raise ValueError("signal columns must have equal lengths")
        finite, (t0, c0, c1, c2) = float_columns(self.t0, self.c0, self.c1, self.c2)
        if not finite:
            _check_finite(t0, c0, c1, c2)
        if t0[0] != 0.0:
            raise ValueError(f"first segment must start at 0, got {t0[0]!r}")
        if not (all(map(operator.lt, t0, t0[1:])) and t0[-1] < T):
            for prev, t in zip(t0, t0[1:]):  # the first piece at fault
                if not t > prev:
                    raise ValueError("segment start times must be strictly increasing")
                if not t < T:
                    raise ValueError("segment start times must lie in [0, T)")
        _check_joints(t0, c0, c1, c2)
        self.__dict__.update(T=T, t0=t0, c0=c0, c1=c1, c2=c2)

    @classmethod
    def _from_columns(cls, T: float, t0: tuple, c0: tuple, c1: tuple, c2: tuple) -> Signal:
        """The signal with these fields, stored as given: none of the checks
        of `__post_init__` runs.  For library code only, on float tuples
        that pass those checks by how they were built; each caller names
        the checks it skips and why they cannot fail, and runs the ones that
        can."""
        f = object.__new__(cls)
        f.__dict__.update(T=T, t0=t0, c0=c0, c1=c1, c2=c2)
        return f

    @property
    def segments(self) -> _SegmentView:
        """The pieces as a read-only sequence of `Segment`s."""
        return _SegmentView(self)

    def __call__(self, t: float) -> float:
        return evaluate(self, t)

    def is_linear(self) -> bool:
        return not any(self.c2)


def _check_finite(t0, c0, c1, c2) -> None:
    """Raise for the first piece of these float columns with a non-finite
    coefficient (a non-finite start is left to the start checks)."""
    isfinite = math.isfinite
    if not all(map(isfinite, chain(t0, c0, c1, c2))):
        for t, *abc in zip(t0, c0, c1, c2):
            if not all(map(isfinite, abc)):
                raise ValueError(f"non-finite coefficient in the segment at t={t!r}")


def _check_joints(t0, c0, c1, c2) -> None:
    """Raise for the first joint where the left piece's end misses the
    right piece's start by more than the tolerance of `Signal`."""
    for lo, a, b, c, t, v in zip(t0, c0, c1, c2, t0[1:], c0[1:]):
        u = t - lo
        left = a + u * (b + u * c)  # the float operations of Segment.value
        if not abs(left - v) <= STRUCT_TOL * abs(v):  # a filter: size >= |v|
            size = max(abs(left), abs(v), abs(a), abs(b * u), abs(c * u * u))
            # below 2^-1022 floats round absolutely: c0, c1, c2 rounded there move
            # the joint by 1, u, u^2 units, which excuse misses of subnormal size only
            floor = min(STRUCT_TOL * 2.0 ** -1022 * (1.0 + u) * (1.0 + u), 2.0 ** -1022)
            # an overflowed term or end (an infinite bound, or a nan) refuses
            if not abs(left - v) <= max(STRUCT_TOL * size, floor) < math.inf:
                raise ValueError(f"discontinuity at t={t!r}: {left!r} vs {v!r}")


def zero(T: float) -> Signal:
    return Signal(T, (0.0,), (0.0,), (0.0,), (0.0,))


def evaluate(f: Signal, t: float) -> float:
    """Value of f at t; raises for t outside [0, T]."""
    if not 0.0 <= t <= f.T:
        raise ValueError(f"t={t!r} outside [0, {f.T!r}]")
    # the last piece starting at or before t (t = T falls in the last one)
    i = bisect_right(f.t0, t) - 1
    u = t - f.t0[i]
    return f.c0[i] + u * (f.c1[i] + u * f.c2[i])


def scale(f: Signal, lam: float) -> Signal:
    """Pointwise lam * f."""
    return Signal(f.T, f.t0, [lam * c for c in f.c0], [lam * c for c in f.c1],
                  [lam * c for c in f.c2])


def add(f: Signal, g: Signal) -> Signal:
    """Pointwise f + g on the merged grid of starts (equal horizons required):
    per merged piece, the sum of the coefficients of the pieces of f and g
    it lies in, each rewritten relative to its start."""
    return _merged_sum(f, g, g.c0, g.c1, g.c2)


def subtract(f: Signal, g: Signal) -> Signal:
    """Pointwise f - g: ``add(f, scale(g, -1.0))``, the same float operations
    (g's coefficients as the products ``-1.0 * c``, so signed zeros match),
    without building the negated signal."""
    return _merged_sum(f, g, [-1.0 * c for c in g.c0], [-1.0 * c for c in g.c1],
                       [-1.0 * c for c in g.c2])


def _merged_sum(f: Signal, g: Signal, gc0, gc1, gc2) -> Signal:
    """`add` of f and the signal with g's starts and the coefficient
    columns `gc0`, `gc1`, `gc2`.

    The sum runs the checks of `Signal` that the arithmetic can fail, with
    their messages: finite coefficients (a sum can overflow) and the joints
    (a sum can cancel the terms that a joint's tolerance is relative to).
    Such a sum is refused, not closed: every sum returned passes `Signal`.
    It skips the start checks and the float conversion: the starts are the
    sorted set of two valid start columns on one horizon T, so the first
    is 0 (or -0.0, as given), they increase strictly and stay below T, and
    every column is built of floats.
    """
    if f.T != g.T:
        raise ValueError(f"horizon mismatch: {f.T!r} vs {g.T!r}")
    starts = sorted(set(f.t0) | set(g.t0))
    ft, fc0, fc1, fc2 = f.t0, f.c0, f.c1, f.c2
    gt = g.t0
    c0, c1, c2 = [], [], []
    for s in starts:
        i = bisect_right(ft, s) - 1
        j = bisect_right(gt, s) - 1
        d, e = s - ft[i], s - gt[j]
        a2, b2 = fc2[i], gc2[j]
        c0.append(fc0[i] + d * (fc1[i] + d * a2) + (gc0[j] + e * (gc1[j] + e * b2)))
        c1.append(fc1[i] + 2.0 * a2 * d + (gc1[j] + 2.0 * b2 * e))
        c2.append(a2 + b2)
    _check_finite(starts, c0, c1, c2)
    _check_joints(starts, c0, c1, c2)
    return Signal._from_columns(f.T, tuple(starts), tuple(c0), tuple(c1), tuple(c2))


def diameter_norm(f: Signal) -> float:
    """sup f - inf f over [0, T], from exact per-piece extrema: the two
    ends and, on a quadratic piece, an interior vertex."""
    mn = math.inf
    mx = -math.inf
    for lo, hi, a, b, c in zip(f.t0, f.t0[1:] + (f.T,), f.c0, f.c1, f.c2):
        w = hi - lo
        end = a + w * (b + w * c)
        lo_v, hi_v = (a, end) if a <= end else (end, a)
        if c != 0.0:
            u = -b / (2.0 * c)
            if 0.0 < u < w:
                v = a + u * (b + u * c)
                lo_v = min(lo_v, v)
                hi_v = max(hi_v, v)
        mn = min(mn, lo_v)
        mx = max(mx, hi_v)
    return mx - mn


def integrate(f: Signal) -> Signal:
    """Exact antiderivative with g(0) = 0; input must be piecewise linear."""
    if not f.is_linear():
        raise ValueError("integrate supports degree <= 1 signals only "
                         "(the antiderivative would exceed degree 2)")
    acc = 0.0
    c0 = []
    for lo, hi, a, b in zip(f.t0, f.t0[1:] + (f.T,), f.c0, f.c1):
        c0.append(acc)
        d = hi - lo
        acc += d * (a + 0.5 * b * d)
    return Signal(f.T, f.t0, c0, f.c0, [0.5 * b for b in f.c1])


def pwl_from_points(T: float, times, values) -> Signal:
    """Piecewise-linear interpolant through (times[i], values[i]).

    times must be strictly increasing, start at 0, and end at or before the
    float horizon T; the signal continues at the last value up to T.  The
    checks read the floats of `float_columns` (iterables of real numbers).
    """
    T = check_positive(T, "horizon")
    _, (times, values) = float_columns(times, values)
    if len(times) != len(values) or len(times) < 1:
        raise ValueError("need equally many times and values (at least one)")
    if times[0] != 0.0:
        raise ValueError("first knot must be at t=0")
    if not all(map(operator.lt, times, times[1:])):
        raise ValueError("knot times must be strictly increasing")
    if times[-1] > T:
        raise ValueError("knots exceed the horizon")
    return Signal(T, *_pwl_columns(T, times, values))


def _pwl_columns(T: float, times: list, values: list):
    """The columns (t0, c0, c1, c2), as float tuples, of the interpolant
    through the knots (times[i], values[i]): float tuples, the times
    strictly increasing from 0 to at most T.  The last value is held up to
    T; a last knot at T starts no piece and is left out.  Coefficients that
    overflow are returned as they are, for the caller to check."""
    slopes = [(v1 - v0) / (t1 - t0)
              for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:])]
    if times[-1] < T:
        slopes.append(0.0)  # the last value, held up to T
    else:
        times, values = times[:-1], values[:-1]
    return times, values, tuple(slopes), (0.0,) * len(slopes)


def ramp_plateau(T: float) -> Signal:
    """min{1/2, t} on [0, T]."""
    if T <= 0.5:
        return Signal(T, (0.0,), (0.0,), (1.0,), (0.0,))
    return Signal(T, (0.0, 0.5), (0.0, 0.5), (1.0, 0.0), (0.0, 0.0))


def sine_pwl(T: float, resolution: int) -> Signal:
    """sin(t)/4 materialized as a PWL interpolant.

    `resolution` is the knot count per 2*pi period (>= 2).  The PWL
    approximation is the signal of record; interpolation error is bounded by
    h^2 * max|f''| / 8 = h^2/32 with h = 2*pi/resolution.
    """
    resolution = check_integer(resolution, "resolution (knots per period)", 2)
    h = 2.0 * math.pi / resolution
    times = [0.0]
    while times[-1] + h < T:
        times.append(times[-1] + h)
    if times[-1] < T:
        times.append(T)
    values = [math.sin(t) / 4.0 for t in times]
    values[0] = 0.0
    return pwl_from_points(T, times, values)


def _check_walk(T: float, n_breaks: int, amplitude: float) -> tuple[float, int, float]:
    """(T, n_breaks, amplitude) converted, if `random_walk` takes them;
    anything else raises a ValueError naming the quantity."""
    n_breaks = check_integer(n_breaks, "n_breaks", 1)
    amplitude = check_positive(amplitude, "amplitude")
    T = check_positive(T, "horizon")
    # steps reach `amplitude` over pieces of length T / n_breaks, and the
    # walk reaches n_breaks * amplitude; both, with a factor 2 of slack for
    # rounding, must stay finite
    if not math.isfinite(2.0 * amplitude * n_breaks * max(1.0, 1.0 / T)):
        raise ValueError(f"random_walk: amplitude {amplitude!r} over n_breaks={n_breaks} "
                         f"pieces of horizon T={T!r} gives slopes or values past the "
                         "float range")
    return T, n_breaks, amplitude


def random_walk(T: float, seed: int, n_breaks: int, amplitude: float) -> Signal:
    """Seed-deterministic PWL walk: equally spaced knots, uniform steps."""
    seed = check_integer(seed, "seed", 0)
    T, n_breaks, amplitude = _check_walk(T, n_breaks, amplitude)
    steps = np.random.default_rng(seed).uniform(-amplitude, amplitude, n_breaks)
    times = [i * T / n_breaks for i in range(n_breaks + 1)]
    times[-1] = T
    return pwl_from_points(T, times, accumulate(steps.tolist(), initial=0.0))


def generate(kind: str, T: float, **params) -> Signal:
    """Dispatch to the named generator (deterministic given parameters)."""
    if kind == "ramp_plateau":
        return ramp_plateau(T)
    if kind == "sine_pwl":
        return sine_pwl(T, params["resolution"])
    if kind == "random_walk":
        return random_walk(T, params["seed"], params["n_breaks"], params["amplitude"])
    raise ValueError(f"unknown generator kind {kind!r} "
                     "(from_events lives in sampler.reconstruct)")


# --- JSON interface -------------------------------------------------------
# {"T": number, "segments": [{"t": .., "c0": .., "c1": .., "c2": ..}, ...]}
# Round-trips bit-faithfully: json emits shortest round-tripping decimals.

_KEYS = ("t", "c0", "c1", "c2")
# The text `_signal_json` writes around its values: before T, between T and
# the first piece, at the end of each piece, between two pieces, and at the
# end of the last piece and the file.
_HEAD = '{\n  "T": '
_FIRST = ',\n  "segments": [\n'
_END = "\n    }"
_NEXT = _END + ",\n"
_TAIL = _END + "\n  ]\n}\n"


def signal_from_dict(d: dict) -> Signal:
    """The signal of a parsed signal JSON.  The numbers go to `Signal` as
    loaded; a value that is not a JSON number (a bool, a string, null)
    raises a ValueError that names its field."""
    try:
        T, segs = d["T"], d["segments"]
        cols = [[s[key] for s in segs] for key in _KEYS]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed signal JSON: {exc}") from exc
    for key, col in zip(("T", *_KEYS), ((T,), *cols)):
        if not JSON_NUMBERS.issuperset(map(type, col)):
            bad = next(v for v in col if type(v) not in JSON_NUMBERS)
            raise ValueError(f'signal JSON field "{key}" must be a number, got {json.dumps(bad)}')
    try:
        return Signal(T, *cols)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"malformed signal JSON: {exc}") from exc


def _signal_json(f: Signal):
    """The JSON layout above in chunks of `CHUNK` pieces, byte for byte as
    ``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` writes it, but
    built directly, since with an indent json falls back to its pure-Python
    encoder.  The columns are finite floats, which json writes by
    float.__repr__."""
    yield f"{_HEAD}{f.T!r}{_FIRST}"
    sep = ""
    for i in range(0, len(f.t0), CHUNK):
        cols = (float_reprs(col[i:i + CHUNK]) for col in (f.t0, f.c0, f.c1, f.c2))
        yield sep + _NEXT.join(
            f'    {{\n      "c0": {c0},\n      "c1": {c1},\n'
            f'      "c2": {c2},\n      "t": {t}'
            for t, c0, c1, c2 in zip(*cols)
        )
        sep = _NEXT
    yield _TAIL


def save_signal(path, f: Signal) -> None:
    write_text_atomic(path, _signal_json(f))


def load_signal(path) -> Signal:
    """Read a signal JSON file; a malformed file raises a ValueError that
    names `path`.

    A file in the layout that `save_signal` writes, with floats only, is
    read by `_chunked_columns`, in memory near the signal's own size, and
    its columns go straight to `Signal`.  Any other JSON, and a file that
    reader leaves, is read again by json.load and `signal_from_dict`.  Both
    parsers read a float literal to the same float, and `Signal` judges an
    integer as the float it stores, so a number spelled either way reads to
    the same bits, or fails with the same message, by either reader."""
    with open(path) as handle:
        cols = None
        if handle.seekable():  # the fallback reads the file from its start
            try:
                cols = _chunked_columns(handle)
            except (KeyError, TypeError, ValueError):  # orjson's errors are ValueErrors
                pass
            handle.seek(0)
        try:
            return signal_from_dict(json.load(handle)) if cols is None else Signal(*cols)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _chunked_columns(handle):
    """T, t, c0, c1, c2 of the signal JSON in `handle`, for a file laid out
    as `_signal_json` writes it (with the piece keys in any order) and
    holding floats only, as it writes them.  None, or a KeyError, TypeError
    or ValueError, where the text departs from that layout or holds a value
    that orjson reads as anything but a float, such as an integer literal,
    which json.load then reads as an int.  (orjson reads an integer literal
    beyond 64 bits as a float, and this takes it as one.)

    The text is read `BLOCK` characters at a time, and the whole pieces in
    the buffer are parsed by one orjson call into a list of dicts, which is
    dropped once its numbers are appended to the columns.  Only the text
    around T and between pieces is matched; every run of pieces between two
    matches parses as a nonempty JSON list, so the file is valid JSON and
    json.load finds the same pieces in it, each with exactly the four keys.
    """
    if handle.read(len(_HEAD)) != _HEAD:
        return None
    import orjson  # here, not at import: only reading a file pays for it

    head, found, buf = handle.read(BLOCK).partition(_FIRST)
    if not found:
        return None
    T = orjson.loads(head)
    if type(T) is not float:
        return None
    cols = ([], [], [], [])
    while True:
        more = handle.read(BLOCK)
        if more:  # the whole pieces read so far; the text after them waits
            text, found, buf = buf.rpartition(_NEXT)
            buf += more
            if not found:
                if len(buf) > 2 * BLOCK:  # no piece ends within a block: not this layout
                    return None
                continue
        elif buf.endswith(_TAIL):
            text = buf[:-len(_TAIL)]
        else:
            return None
        pieces = orjson.loads(f"[{text}{_END}]")
        part = [list(map(operator.itemgetter(key), pieces)) for key in _KEYS]
        # every key has two quotes: a fifth key, or a string, adds more
        if text.count('"') != 8 * len(pieces) or not {float}.issuperset(map(type, chain(*part))):
            return None
        for col, values in zip(cols, part):
            col += values
        if not more:
            return T, *cols
