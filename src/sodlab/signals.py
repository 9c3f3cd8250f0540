"""Piecewise-polynomial signals on [0, T] with exact arithmetic.

The canonical signal class is piecewise polynomial of degree <= 2: it is
closed under integration of piecewise-linear inputs and keeps every
threshold crossing solvable in closed form (linear or quadratic formula),
so the sampler never needs an iterative root finder.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ._util import check_positive, write_text_atomic

# Tolerance for structural checks (continuity at segment joints), relative
# to the size of the joint's terms once that exceeds 1: sampling is
# homogeneous, so a signal scaled by 1e6 must pass as the unscaled one does.
STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """One polynomial piece c0 + c1*(t - t0) + c2*(t - t0)^2, valid from t0."""

    t0: float
    c0: float
    c1: float = 0.0
    c2: float = 0.0

    def value(self, t: float) -> float:
        u = t - self.t0
        return self.c0 + u * (self.c1 + u * self.c2)


@dataclass(frozen=True)
class Signal:
    """A continuous piecewise-polynomial function on [0, T].

    Segments are ordered by strictly increasing start time, the first
    starts at 0, every coefficient is finite, and consecutive pieces agree
    at the joints (within ``STRUCT_TOL`` times the largest of 1, the joint
    values and the terms c0, c1*u, c2*u^2 that evaluate the left piece
    there).  The horizon is stored as a float.  Signals are
    immutable and safe to share.
    """

    T: float
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "T", check_positive(self.T, "horizon"))
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
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
            if not seg.t0 < self.T:
                raise ValueError("segment start times must lie in [0, T)")
            if abs(prev.value(seg.t0) - seg.c0) > STRUCT_TOL:
                # above magnitude 1 the bound is relative to the largest
                # term of the sum that evaluates the joint
                u = seg.t0 - prev.t0
                left = prev.value(seg.t0)
                size = max(abs(left), abs(seg.c0), abs(prev.c0),
                           abs(prev.c1 * u), abs(prev.c2 * u * u))
                if abs(left - seg.c0) > STRUCT_TOL * size:
                    raise ValueError(
                        f"discontinuity at t={seg.t0!r}: {left!r} vs {seg.c0!r}"
                    )
            prev = seg

    def __call__(self, t: float) -> float:
        return evaluate(self, t)

    def is_linear(self) -> bool:
        return all(seg.c2 == 0.0 for seg in self.segments)


def zero(T: float) -> Signal:
    return Signal(T, (Segment(0.0, 0.0),))


def evaluate(f: Signal, t: float) -> float:
    """Value of f at t; raises for t outside [0, T]."""
    if not 0.0 <= t <= f.T:
        raise ValueError(f"t={t!r} outside [0, {f.T!r}]")
    # the last segment starting at or before t (t = T falls in the last one)
    idx = bisect_right(f.segments, t, key=attrgetter("t0")) - 1
    return f.segments[idx].value(t)


def scale(f: Signal, lam: float) -> Signal:
    """Pointwise lam * f."""
    return Signal(
        f.T,
        tuple(Segment(s.t0, lam * s.c0, lam * s.c1, lam * s.c2) for s in f.segments),
    )


def _rebased(seg: Segment, t0: float) -> tuple[float, float, float]:
    """Coefficients of `seg` rewritten relative to a new origin t0 >= seg.t0."""
    d = t0 - seg.t0
    return (
        seg.c0 + d * (seg.c1 + d * seg.c2),
        seg.c1 + 2.0 * seg.c2 * d,
        seg.c2,
    )


def add(f: Signal, g: Signal) -> Signal:
    """Pointwise f + g on the merged segment grid (equal horizons required)."""
    if f.T != g.T:
        raise ValueError(f"horizon mismatch: {f.T!r} vs {g.T!r}")
    starts = sorted({s.t0 for s in f.segments} | {s.t0 for s in g.segments})
    fi = gi = 0
    fsegs, gsegs = f.segments, g.segments
    out = []
    for s in starts:
        while fi + 1 < len(fsegs) and fsegs[fi + 1].t0 <= s:
            fi += 1
        while gi + 1 < len(gsegs) and gsegs[gi + 1].t0 <= s:
            gi += 1
        a0, a1, a2 = _rebased(fsegs[fi], s)
        b0, b1, b2 = _rebased(gsegs[gi], s)
        out.append(Segment(s, a0 + b0, a1 + b1, a2 + b2))
    return Signal(f.T, tuple(out))


def subtract(f: Signal, g: Signal) -> Signal:
    return add(f, scale(g, -1.0))


def _segment_extrema(seg: Segment, hi: float) -> tuple[float, float]:
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


def diameter_norm(f: Signal) -> float:
    """sup f - inf f over [0, T], from exact per-segment extrema."""
    mn = math.inf
    mx = -math.inf
    segs = f.segments
    for i, seg in enumerate(segs):
        hi = segs[i + 1].t0 if i + 1 < len(segs) else f.T
        a, b = _segment_extrema(seg, hi)
        mn = min(mn, a)
        mx = max(mx, b)
    return mx - mn


def integrate(f: Signal) -> Signal:
    """Exact antiderivative with g(0) = 0; input must be piecewise linear."""
    if not f.is_linear():
        raise ValueError("integrate supports degree <= 1 signals only "
                         "(the antiderivative would exceed degree 2)")
    acc = 0.0
    out = []
    segs = f.segments
    for i, seg in enumerate(segs):
        out.append(Segment(seg.t0, acc, seg.c0, 0.5 * seg.c1))
        hi = segs[i + 1].t0 if i + 1 < len(segs) else f.T
        d = hi - seg.t0
        acc += d * (seg.c0 + 0.5 * seg.c1 * d)
    return Signal(f.T, tuple(out))


def pwl_from_points(T: float, times, values) -> Signal:
    """Piecewise-linear interpolant through (times[i], values[i]).

    times must be strictly increasing, start at 0, and end at or before T;
    the signal continues at the last value up to T.
    """
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
    return Signal(T, tuple(segs))


def ramp_plateau(T: float) -> Signal:
    """min{1/2, t} on [0, T]."""
    if T <= 0.5:
        return Signal(T, (Segment(0.0, 0.0, 1.0),))
    return Signal(T, (Segment(0.0, 0.0, 1.0), Segment(0.5, 0.5)))


def sine_pwl(T: float, resolution: int) -> Signal:
    """sin(t)/4 materialized as a PWL interpolant.

    `resolution` is the knot count per 2*pi period (>= 2).  The PWL
    approximation is the signal of record; interpolation error is bounded by
    h^2 * max|f''| / 8 = h^2/32 with h = 2*pi/resolution.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 knots per period")
    h = 2.0 * math.pi / resolution
    times = [0.0]
    while times[-1] + h < T:
        times.append(times[-1] + h)
    if times[-1] < T:
        times.append(T)
    values = [math.sin(t) / 4.0 for t in times]
    values[0] = 0.0
    return pwl_from_points(T, times, values)


def random_walk(T: float, seed: int, n_breaks: int, amplitude: float) -> Signal:
    """Seed-deterministic PWL walk: equally spaced knots, uniform steps."""
    if n_breaks < 1:
        raise ValueError("n_breaks must be >= 1")
    if not amplitude > 0.0:
        raise ValueError("amplitude must be positive")
    T = check_positive(T, "horizon")
    # steps reach `amplitude` over pieces of length T / n_breaks, and the
    # walk reaches n_breaks * amplitude; both, with a factor 2 of slack for
    # rounding, must stay finite
    if not math.isfinite(2.0 * amplitude * n_breaks * max(1.0, 1.0 / T)):
        raise ValueError(f"random_walk: amplitude {amplitude!r} over n_breaks={n_breaks} "
                         f"pieces of horizon T={T!r} gives slopes or values past the "
                         "float range")
    rng = np.random.default_rng(seed)
    steps = rng.uniform(-amplitude, amplitude, n_breaks)
    values = [0.0]
    for s in steps:
        values.append(values[-1] + float(s))
    times = [i * T / n_breaks for i in range(n_breaks + 1)]
    times[-1] = T
    return pwl_from_points(T, times, values)


def generate(kind: str, T: float, **params) -> Signal:
    """Dispatch to the named generator (deterministic given parameters)."""
    if kind == "ramp_plateau":
        return ramp_plateau(T)
    if kind == "sine_pwl":
        return sine_pwl(T, int(params["resolution"]))
    if kind == "random_walk":
        return random_walk(
            T,
            int(params["seed"]),
            int(params["n_breaks"]),
            float(params["amplitude"]),
        )
    raise ValueError(f"unknown generator kind {kind!r} "
                     "(from_events lives in sampler.reconstruct)")


# --- JSON interface -------------------------------------------------------
# {"T": number, "segments": [{"t": .., "c0": .., "c1": .., "c2": ..}, ...]}
# Round-trips bit-faithfully: json emits shortest round-tripping decimals.

def signal_from_dict(d: dict) -> Signal:
    try:
        segs = tuple(
            Segment(float(s["t"]), float(s["c0"]), float(s["c1"]), float(s["c2"]))
            for s in d["segments"]
        )
        return Signal(float(d["T"]), segs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed signal JSON: {exc}") from exc


def _signal_layout(f: Signal, num) -> str:
    body = ",\n".join(
        f'    {{\n      "c0": {num(s.c0)},\n      "c1": {num(s.c1)},\n'
        f'      "c2": {num(s.c2)},\n      "t": {num(s.t0)}\n    }}'
        for s in f.segments
    )
    return f'{{\n  "T": {num(f.T)},\n  "segments": [\n{body}\n  ]\n}}\n'


def _signal_json(f: Signal) -> str:
    """The JSON layout above, byte for byte as ``json.dumps(...,
    indent=2, sort_keys=True) + "\\n"`` writes it, but built directly,
    since with an indent json falls back to its pure-Python encoder.
    Numbers are written as json writes them: floats (numpy's included) by
    float.__repr__, anything else by json itself.  A Signal's coefficients
    are finite, so no non-standard token can arise."""
    try:
        return _signal_layout(f, float.__repr__)
    except TypeError:  # a coefficient that is not a float, such as an int
        return _signal_layout(f, json.dumps)


def save_signal(path, f: Signal) -> None:
    write_text_atomic(path, _signal_json(f))


def load_signal(path) -> Signal:
    """Read a signal JSON file; a malformed file raises a ValueError that
    names `path`."""
    with open(path) as handle:
        try:
            return signal_from_dict(json.load(handle))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
