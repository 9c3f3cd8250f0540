"""Send-on-delta sampling, level-crossing with hysteresis, integrate-and-fire,
and the canonical right inverse (reconstruction).

SOD and LC are one first-crossing recursion: for an anchored f (f(0) = 0),
SOD's reference f(t_k) is the level k*theta the last event hit, k the net
signed event count, so the next event fires at the first hit of LC's
lattice levels (k +- 1)*theta.  Crossings are computed closed-form per
polynomial piece and the earliest root wins; root tolerances are relative
to the piece length, so the output commutes exactly with power-of-two
rescaling of time.  Exact endpoint hits are recognized by comparing stored
joint values, which makes ``sample(reconstruct(eta)) == eta`` bit-exact for
both schemes: the reconstruction's knots are the same products k*theta.
"""

from __future__ import annotations

import math

from ._util import check_positive
from .events import EventSequence
from .signals import Signal, _check_finite, _pwl_columns, integrate, scale, zero


def _check_anchored(f: Signal) -> None:
    if f.c0[0] != 0.0:
        raise ValueError("sampling requires f(0) = 0")


def _quadratic_roots(a: float, b: float, c: float):
    """Real roots of a*u^2 + b*u + c = 0 with a != 0, numerically stable."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    if disc == 0.0:
        return (-b / (2.0 * a),)
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    r1 = q / a
    r2 = c / q if q != 0.0 else r1
    return (r1, r2)


def _passing_root(roots, a: float, b: float, sign: float):
    """Of ``roots = _quadratic_roots(a, b, c)``, the root after which the
    polynomial a*u^2 + b*u + c takes the sign of `sign`, as a tuple of at
    most one.  Of two roots the slope is -sqrt(disc) at the first and
    +sqrt(disc) at the second when b >= 0, and the reverse when b < 0, so
    the choice needs no arithmetic near a tangency.  A double root is kept
    when the parabola opens to `sign`'s side, where it leaves the zero."""
    if len(roots) == 2:
        return roots[1:] if (b >= 0.0) == (sign > 0.0) else roots[:1]
    return roots if sign * a > 0.0 else ()


def _sample(f: Signal, theta: float, right: bool = False) -> EventSequence:
    """The first-crossing recursion: after events of net signed count `k`, 0
    at the start, the next event is the first hit of one of the levels
    ``(up, down) = ((k + 1) * theta, (k - 1) * theta)``, carrying +-theta;
    each level is one product, so no rounding accumulates over the events.

    The pieces are walked once, in time order.  While a piece ends after the
    last event (``hi > t_cur``) it is searched for the earlier of its first
    up and down hits after that event, an exact tie going to up; with
    neither level hit, the walk moves on with the same levels, and the next
    piece starts on the end value that hit neither, so no start joint is
    tested.  This is the per-event search inlined, which restarts at the
    piece of the last event and skips every piece that ends at or before
    it.  The right endpoint's value is the next piece's stored c0 (exact by
    the continuity invariant), or f(T) for the last piece.

    Each level is searched by one rule, on linear and quadratic pieces
    alike.  The best time starts as hi when the stored end value is the
    level bit for bit (hi is after the last event, by the loop's guard),
    else as ``inf`` for no hit.  Each root u = t - lo, the one ``(level -
    c0) / c1`` of a linear piece or those of `_quadratic_roots` in order,
    is kept inside the slack band, clamped into the piece, and replaces the
    best when it lies after the last event and more than `snap` before it.
    So a root within a rounding error of the end joint, or of an earlier
    root, folds into it.  The tests' per-event oracle folds each root
    against every kept one and takes the minimum, which is the same: a root
    kept after the best never blocks one that lowers it, since rounding is
    monotone.

    A root's offset u from ``lo`` is clamped into the piece: below 0 to lo,
    and at or past ``seg_len = hi - lo`` to hi itself, never to ``lo +
    seg_len``, which can round one ulp past hi.  No other root can: for a
    float u < seg_len, ``lo + u <= hi``, since ``hi - lo`` is exact when
    lo >= hi/2, and otherwise rounds up by at most half the gap from
    seg_len to the float below it.  So every time lies in its piece, at no
    cost per piece or per event.

    After an event on a linear piece rising (falling) with the event's sign,
    the next up (down) levels on that piece are run on in place, each as the
    root ``lo + clamp((level - c0) / c1)`` that the piece's search would
    return: the opposite level's root cannot lie after the last event, and
    no stored joint value is hit while the level stays short of the piece's
    end value.  The run hands back to the piece's search once the level
    reaches the end value, the root leaves the slack band, or the root is
    not after the last event.  The last stop also covers the walk leaving a
    piece whose end the last event reached, since no root lies past hi.

    With ``right=True`` the result is the right limit in the threshold,
    lim Phi_{theta + eps} f as eps -> 0+: every nonzero level m * theta
    moves away from 0 as theta grows, so an outward level, the up level
    above 0 or the down level below 0, fires only where f passes it, not
    where f touches it and turns back.  The outward up (down) level's gate
    `up_gate` (`down_gate`) is the level itself, else -inf (inf), so a
    comparison with a gate is true for every other level and in the
    normal mode.  A gated level never takes the stored end-joint hit; a
    linear root counts only when the piece ends past the level, and a
    quadratic one only when it is the root where f rises (falls) past the
    level, and when it lies at the piece's end only if the piece ends past
    the level.  A level that f reaches at a joint and passes after it is
    then hit at the start of the piece that passes it.  Inward levels,
    level 0 and the run-on keep the normal rule: the run-on stops short of
    a level equal to the end value.

    The events are stored without the checks of `EventSequence` that hold
    by construction: T is f's horizon; each time is appended only when it
    lies after the last one (``t > t_cur``, or the guard ``hi > t_cur``
    for a stored end joint), from ``t_cur = 0``, so the times are floats
    that increase strictly from above 0 and, each in its piece, end at or
    before T; each amplitude is the finite, nonzero float +-theta, one of
    two float objects made once per call.
    """
    _check_anchored(f)
    T, t0, c0s, c1s, c2s = f.T, f.t0, f.c0, f.c1, f.c2
    u = T - t0[-1]
    his = t0[1:] + (T,)
    ends = c0s[1:] + (c0s[-1] + u * (c1s[-1] + u * c2s[-1]),)
    inf = math.inf
    up_gate, down_gate = (theta, -theta) if right else (-inf, inf)
    # the two amplitudes, the bits of sign * theta, shared by every event
    rise, fall = 1.0 * theta, -1.0 * theta
    k = 0.0  # the net count: a float is exact below 2**53 and multiplies faster
    t_cur = 0.0
    times, values = [], []
    up, down = theta, -theta
    for lo, c0, c1, c2, hi, end_value in zip(t0, c0s, c1s, c2s, his, ends):
        seg_len = hi - lo
        slack = 1e-12 * seg_len
        snap = 1e-9 * seg_len
        u_max = seg_len + slack
        linear = c2 == 0.0
        while hi > t_cur:
            t_up = hi if end_value == up > up_gate else inf
            t_down = hi if end_value == down < down_gate else inf
            if not linear:
                roots = _quadratic_roots(c2, c1, c0 - up)
                if up == up_gate:
                    roots = _passing_root(roots, c2, c1, 1.0)
                for u in roots:
                    if -slack <= u <= u_max:
                        t = lo if u < 0.0 else hi if u >= seg_len else lo + u
                        if t > t_cur and t_up - t > snap and (
                                u < seg_len or end_value > up_gate):
                            t_up = t
                roots = _quadratic_roots(c2, c1, c0 - down)
                if down == down_gate:
                    roots = _passing_root(roots, c2, c1, -1.0)
                for u in roots:
                    if -slack <= u <= u_max:
                        t = lo if u < 0.0 else hi if u >= seg_len else lo + u
                        if t > t_cur and t_down - t > snap and (
                                u < seg_len or end_value < down_gate):
                            t_down = t
            elif c1 != 0.0:
                u = (up - c0) / c1
                if -slack <= u <= u_max:
                    t = lo if u < 0.0 else hi if u >= seg_len else lo + u
                    if t > t_cur and t_up - t > snap and end_value > up_gate:
                        t_up = t
                u = (down - c0) / c1
                if -slack <= u <= u_max:
                    t = lo if u < 0.0 else hi if u >= seg_len else lo + u
                    if t > t_cur and t_down - t > snap and end_value < down_gate:
                        t_down = t
            if t_up <= t_down:
                if t_up == inf:
                    break
                t_cur, sign, amp = t_up, 1.0, rise
            else:
                t_cur, sign, amp = t_down, -1.0, fall
            times.append(t_cur)
            values.append(amp)
            k += sign
            if linear and sign * c1 > 0.0:
                while True:
                    level = (k + sign) * theta
                    if (level >= end_value) if sign > 0.0 else (level <= end_value):
                        break
                    u = (level - c0) / c1
                    if not -slack <= u <= u_max:
                        break
                    t = lo if u < 0.0 else hi if u >= seg_len else lo + u
                    if not t > t_cur:
                        break
                    t_cur = t
                    times.append(t)
                    values.append(amp)
                    k += sign
            up, down = (k + 1.0) * theta, (k - 1.0) * theta
            if right:
                up_gate = up if k >= 0.0 else -inf
                down_gate = down if k <= 0.0 else inf
    return EventSequence._from_columns(T, tuple(times), tuple(values))


def sod_sample(f: Signal, theta: float) -> EventSequence:
    """Send-on-delta: events at t_{k+1} = inf{t > t_k : |f(t) - f(t_k)| >= theta}.

    Returns a theta-pure sequence; amplitudes are exactly +-theta.  A
    crossing at t = T counts as an event.  An event-free signal yields the
    empty sequence.  f(t_k) is the level k*theta the last event hit, so the
    output equals `lc_sample`'s.
    """
    theta = check_positive(theta, "threshold")
    return _sample(f, theta)


def lc_sample(f: Signal, theta: float) -> EventSequence:
    """Level-crossing with hysteresis on the lattice {k*theta}.

    From level index k0 at the last event the next event fires at the first
    time f reaches (k0 +- 1)*theta.  The initial index is 0 since f(0) = 0
    lies on the lattice.  This is the recursion of `sod_sample`, kept a
    function of its own so that a profile or trace tells the schemes apart.
    """
    theta = check_positive(theta, "threshold")
    return _sample(f, theta)


def if_sample(f: Signal, theta: float) -> EventSequence:
    """Integrate-and-fire with infinite leak time: SOD applied to the exact
    antiderivative of a piecewise-linear input."""
    return sod_sample(integrate(f), check_positive(theta, "threshold"))


def reconstruct(eta: EventSequence) -> Signal:
    """Piecewise-linear interpolant through (0, 0) and (t_k, n_k * theta),
    constant after the last event: theta = |v_1| and n_k is the net signed
    count of the events up to t_k, so the knots are the sampler's levels.

    Requires a theta-pure input (all |v_k| equal).  Guarantee:
    ``sod_sample(reconstruct(eta), theta) == eta`` and the same for
    `lc_sample`, exactly, times and amplitudes.

    The columns are those of `pwl_from_points`, built by the same code but
    stored without the checks of `Signal` that hold by construction: the
    knot times are 0 and eta's times, floats that increase strictly from
    above 0 to at most T, so the starts increase from 0 and stay below T;
    the columns are float tuples of one length.  The joint check is
    skipped too: a joint evaluates to ``level + d * ((next - level) / d)``,
    which misses ``next`` by a few roundings of the terms that the
    tolerance, 1e-12 of the largest of them, is relative to.  The
    finiteness of the coefficients is checked, with the validator's
    message: a level n * theta or a slope can overflow.
    """
    if not eta.is_pure():
        raise ValueError("reconstruct needs a theta-pure sequence (equal |v_k|)")
    if not eta.times:
        return zero(eta.T)
    if eta.times[0] == 0.0:
        raise ValueError("cannot interpolate through an event at t = 0")
    theta = abs(eta.values[0])
    n = 0.0  # the net count: each v / theta is +-1.0 exactly
    levels = [(n := n + v / theta) * theta for v in eta.values]
    cols = _pwl_columns(eta.T, (0.0, *eta.times), (0.0, *levels))
    _check_finite(*cols)
    return Signal._from_columns(eta.T, *cols)


def homogeneity_check(f: Signal, theta: float, theta_tilde: float) -> bool:
    """True iff sampling f at theta_tilde equals sampling (theta/theta_tilde)*f
    at theta, with identical event times and sign-matched amplitudes.

    The comparison is exact.  Exactness is guaranteed in floating point when
    theta_tilde / theta is a power of two (scaling by 2^k is lossless); for
    arbitrary ratios the crossing arithmetic may differ in the last ulp.
    """
    theta = check_positive(theta, "threshold")
    theta_tilde = check_positive(theta_tilde, "threshold")
    lhs = sod_sample(f, theta_tilde)
    rhs = sod_sample(scale(f, theta / theta_tilde), theta)
    if lhs.times != rhs.times:
        return False
    return all((a > 0.0) == (b > 0.0) for a, b in zip(lhs.values, rhs.values))
