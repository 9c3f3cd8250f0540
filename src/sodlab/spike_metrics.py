"""van Rossum, Schreiber, and Victor-Purpura distances with signed-event
extensions for up/down trains."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from ._util import real_float
from .events import EventSequence, difference

# Valid Params names, in the order the CLI lists them.
VP_MODES = ("combined", "separate")
# Schreiber kernels, each with the one width parameter it reads.
KERNELS = {"causal_exponential": "alpha", "gaussian": "sigma"}
H_SHAPES = ("one_minus_s", "arccos")


@dataclass(frozen=True)
class VanRossumParams:
    """Causal-exponential decay rate alpha >= 0; alpha = 0 selects the unit
    step kernel limit."""

    alpha: float = 1.0

    def __post_init__(self):
        alpha = real_float(self.alpha)
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class VictorPurpuraParams:
    """Shift cost rate s >= 0 per unit time.

    mode "combined" runs one edit distance between the crosswise nonnegative
    trains a = eta1+ + eta2- and b = eta1- + eta2+; mode "separate" sums two
    edit distances over the positive and negative parts (the reading under
    which s = 0 reduces to the counting formula on signed trains as well).
    """

    s: float = 1.0
    mode: str = "combined"

    def __post_init__(self):
        s = real_float(self.s)
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"s must be finite and >= 0, got {self.s!r}")
        object.__setattr__(self, "s", s)
        if self.mode not in VP_MODES:
            raise ValueError(f"mode must be 'combined' or 'separate', got {self.mode!r}")


@dataclass(frozen=True)
class SchreiberParams:
    """Smoothing kernel and distance shape for the Schreiber similarity.

    kernel: "causal_exponential" (rate alpha, integrated over [0, T]) or
    "gaussian" (width sigma, integrated over the whole line).  Each kernel
    takes only its own width (`KERNELS`), 1.0 when not given; the other
    stays None.  h maps the similarity in [-1, 1] to a distance:
    "one_minus_s" or "arccos".
    """

    kernel: str = "causal_exponential"
    alpha: float | None = None
    sigma: float | None = None
    h: str = "one_minus_s"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.h not in H_SHAPES:
            raise ValueError(f"unknown distance shape {self.h!r}")
        width = KERNELS[self.kernel]
        for name in KERNELS.values():
            if name != width and getattr(self, name) is not None:
                raise ValueError(f"the {self.kernel} kernel takes no {name}")
        value = getattr(self, width)
        real = 1.0 if value is None else real_float(value)
        if not (math.isfinite(real) and real > 0.0):
            raise ValueError(f"{self.kernel} needs {width} > 0 and finite, got {value!r}")
        object.__setattr__(self, width, real)


def _exp_gram(eta1: EventSequence, eta2: EventSequence, alpha: float) -> float:
    """Inner product over [0, T] of the causal-exponential smoothings.

    The pair weight (e^{-a|ti-tj|} - e^{-a(2T-ti-tj)}) / (2a) equals
    e^{-a|ti-tj|} (1 - e^{-2a(T - max(ti,tj))}) / (2a), so one sweep over the
    merged times pairs each event with the other train's decayed running
    sum and weights it at its own time: no large terms cancel as aT -> 0,
    the factor e^{-a dt} <= 1 cannot overflow, and equal times pair with
    e^0 = 1.  O(n + m) time and memory (Houghton & Kreuz, Network 23, 2012).
    """
    acc = [0.0, 0.0]
    total = t_prev = 0.0
    for t, side, v in sorted(chain(zip(eta1.times, repeat(0), eta1.values),
                                   zip(eta2.times, repeat(1), eta2.values))):
        decay = math.exp(-alpha * (t - t_prev))
        acc[0] *= decay
        acc[1] *= decay
        t_prev = t
        total -= v * acc[1 - side] * math.expm1(-2.0 * alpha * (eta1.T - t))
        acc[side] += v
    return total / (2.0 * alpha)


# Kernel rows evaluated at once: peak memory is _GAUSS_ROWS x m floats.
_GAUSS_ROWS = 256


def _gauss_gram(eta1: EventSequence, eta2: EventSequence, sigma: float) -> float:
    """Whole-line Gaussian-smoothing inner product (peak-normalized; the
    constant sigma*sqrt(pi) factor cancels in the similarity)."""
    t1, v1 = np.asarray(eta1.times), np.asarray(eta1.values)
    t2, v2 = np.asarray(eta2.times), np.asarray(eta2.values)
    total = 0.0
    for lo in range(0, len(t1), _GAUSS_ROWS):
        kern = t1[lo:lo + _GAUSS_ROWS, None] - t2[None, :]
        kern *= kern
        kern /= -4.0 * sigma * sigma
        total += float(v1[lo:lo + _GAUSS_ROWS] @ (np.exp(kern, out=kern) @ v2))
    return total


def _step_l2(eta: EventSequence) -> float:
    """L2 norm over [0, T] of the running-sum step function of eta."""
    acc = energy = prev_t = 0.0
    for t, v in zip(eta.times, eta.values):
        energy += acc * acc * (t - prev_t)
        acc += v
        prev_t = t
    return math.sqrt(energy + acc * acc * (eta.T - prev_t))


def van_rossum(eta1: EventSequence, eta2: EventSequence,
               params: VanRossumParams) -> float:
    """L2 distance on [0, T] between the causal-exponential smoothings.

    For alpha > 0 the squared distance is the exponential Gram form of the
    merged signed difference train (kernel tails truncated at T).  For
    alpha = 0 the kernel is the unit step and the distance is the L2 norm of
    the difference of running-sum step functions.
    """
    diff = difference(eta1, eta2)
    if params.alpha == 0.0:
        return _step_l2(diff)
    return math.sqrt(max(_exp_gram(diff, diff, params.alpha), 0.0))


def schreiber_similarity(eta1: EventSequence, eta2: EventSequence,
                         params: SchreiberParams) -> float:
    """Normalized inner product of kernel-smoothed trains, in [-1, 1]."""
    if eta1.T != eta2.T:
        raise ValueError(f"horizon mismatch: {eta1.T!r} vs {eta2.T!r}")
    gram = (partial(_exp_gram, alpha=params.alpha)
            if params.kernel == "causal_exponential"
            else partial(_gauss_gram, sigma=params.sigma))
    g11, g22 = gram(eta1, eta1), gram(eta2, eta2)
    if not (g11 > 0.0 and g22 > 0.0):
        raise ValueError("Schreiber similarity is undefined when a smoothing vanishes")
    return gram(eta1, eta2) / (math.sqrt(g11) * math.sqrt(g22))


def schreiber_distance(eta1: EventSequence, eta2: EventSequence,
                       params: SchreiberParams) -> float:
    s = schreiber_similarity(eta1, eta2, params)
    if params.h == "one_minus_s":
        return 1.0 - s
    return math.acos(min(max(s, -1.0), 1.0))


def _spike_times(eta: EventSequence, sign: float) -> list[float]:
    """The unit spikes of eta's events of one sign: each time t repeated
    sign*v times, which must be an exact integer."""
    out = []
    for t, v in zip(eta.times, eta.values):
        if sign * v > 0.0:
            if not v.is_integer():
                raise ValueError(
                    f"Victor-Purpura needs unit (integer-multiplicity) events, got {v!r}")
            out += [t] * int(sign * v)
    return out


def _vp_dp(ta: list[float], tb: list[float], s: float) -> float:
    """Edit distance with insert/delete cost 1 and shift cost s*|dt|.

    Cell (i, j) is min(D[i-1, j] + 1, D[i, j-1] + 1, D[i-1, j-1] +
    s*|ta[i-1] - tb[j-1]|), swept one anti-diagonal i + j = d at a time:
    a cell needs only the two previous anti-diagonals, so each sweep is a
    few numpy operations over at most min(n, m) cells.  O(nm) time and
    O(n + m) memory.  Every cell takes the min of the same float sums as the
    row-by-row recurrence (min(a, b) + 1 == min(a + 1, b + 1), since
    rounding is monotone), so the result is bit-identical to it.
    """
    n, m = len(ta), len(tb)
    if n == 0 or m == 0:
        return float(n + m)
    ta = np.asarray(ta, dtype=float)
    tb_rev = np.asarray(tb, dtype=float)[::-1].copy()
    # anti-diagonals d-2, d-1 and d, indexed by i
    older, prev, cur = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1)
    prev[:2] = 1.0
    shift = np.empty(min(n, m))
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        k = hi - lo + 1
        # shift[i - lo] = D[i-1, j-1] + s*|ta[i-1] - tb[j-1]| with j = d - i
        sh = np.subtract(ta[lo - 1:hi], tb_rev[m - d + lo:m - d + hi + 1], out=shift[:k])
        np.abs(sh, out=sh)
        np.multiply(sh, s, out=sh)
        np.add(sh, older[lo - 1:hi], out=sh)
        row = cur[lo:hi + 1]
        np.minimum(prev[lo - 1:hi], prev[lo:hi + 1], out=row)
        np.add(row, 1.0, out=row)
        np.minimum(row, sh, out=row)
        if d <= m:
            cur[0] = d
        if d <= n:
            cur[d] = d
        older, prev, cur = prev, cur, older
    return float(prev[n])


def victor_purpura(eta1: EventSequence, eta2: EventSequence,
                   params: VictorPurpuraParams) -> float:
    """Victor-Purpura editing distance extended to signed trains.

    Each train expands into unit spikes of each sign; the default combines
    them crosswise into a = eta1+ + eta2- and b = eta1- + eta2+ and runs one
    edit distance between a and b.  mode "separate" instead sums the edit
    distances of the positive spikes and of the negative spikes.
    """
    if eta1.T != eta2.T:
        raise ValueError(f"horizon mismatch: {eta1.T!r} vs {eta2.T!r}")
    up1, down1 = _spike_times(eta1, 1.0), _spike_times(eta1, -1.0)
    up2, down2 = _spike_times(eta2, 1.0), _spike_times(eta2, -1.0)
    if params.mode == "separate":
        return _vp_dp(up1, up2, params.s) + _vp_dp(down1, down2, params.s)
    return _vp_dp(sorted(up1 + down2), sorted(down1 + up2), params.s)
