import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sodlab import sampler
from sodlab.analysis import emdm_sweep, qi_verify
from sodlab.events import EventSequence, from_pairs
from sodlab.sampler import (
    _check_anchored,
    _quadratic_roots,
    homogeneity_check,
    if_sample,
    lc_sample,
    reconstruct,
    sod_sample,
)
from sodlab.signals import (
    Segment,
    Signal,
    evaluate,
    integrate,
    pwl_from_points,
    ramp_plateau,
    random_walk,
    scale,
    zero,
)

from oracles import (
    comb_signal,
    exact_right_limit_check,
    exact_sample,
    knot_in_slack_band,
    local_max_signal,
    random_pure_train,
    signal_of,
)


def ramp(T=1.0, slope=1.0):
    return signal_of(T, Segment(0.0, 0.0, slope))


class TestSod:
    def test_below_threshold_is_empty(self):
        assert len(sod_sample(ramp_plateau(1.0), 1.0)) == 0

    def test_sum_with_itself_crosses(self):
        f = ramp_plateau(1.0)
        eta = sod_sample(scale(f, 2.0), 1.0)
        assert eta.pairs() == [(0.5, 1.0)]

    def test_linear_crossings(self):
        eta = sod_sample(ramp(), 0.3)
        assert eta.values == (0.3, 0.3, 0.3)
        assert eta.times == pytest.approx((0.3, 0.6, 0.9), abs=1e-12)

    def test_zero_signal(self):
        assert len(sod_sample(zero(1.0), 0.1)) == 0

    def test_output_is_pure_and_increasing(self):
        for seed in range(20):
            f = random_walk(1.0, seed, 10, 0.5)
            eta = sod_sample(f, 0.07)
            assert eta.is_pure()
            assert all(a < b for a, b in zip(eta.times, eta.times[1:]))

    def test_crossing_residual_below_1e10(self):
        # |f(t_k) - f(t_{k-1})| equals theta up to the crossing-equation residual
        for seed in range(20):
            f = random_walk(1.0, seed + 50, 12, 0.5)
            eta = sod_sample(f, 0.11)
            prev = 0.0
            for t in eta.times:
                cur = evaluate(f, t)
                assert abs(abs(cur - prev) - 0.11) <= 1e-10
                prev = cur

    def test_tangency_at_peak_counts(self):
        # peak exactly theta above the last reference: event at the vertex
        f = pwl_from_points(2.0, [0.0, 1.0, 2.0], [0.0, 0.5, 0.0])
        eta = sod_sample(f, 0.25)
        assert (1.0, 0.25) in eta.pairs()

    def test_boundary_event_at_horizon(self):
        eta = sod_sample(ramp(), 0.25)
        assert eta.times[-1] == 1.0

    def test_requires_anchored_signal(self):
        f = signal_of(1.0, Segment(0.0, 1.0))
        with pytest.raises(ValueError):
            sod_sample(f, 0.5)

    def test_quadratic_crossings_exact(self):
        # integral of the unit ramp: g(t) = t^2/2, crossings at sqrt(2 k theta)
        g = integrate(ramp(1.0))
        eta = sod_sample(g, 0.125)
        expected = [math.sqrt(2 * k * 0.125) for k in (1, 2, 3, 4)]
        assert eta.times == pytest.approx(expected, abs=1e-12)
        assert eta.values == (0.125,) * 4


@pytest.mark.parametrize("sample", [sod_sample, lc_sample, if_sample])
@pytest.mark.parametrize("theta, plain", [(np.int64(1), 1.0), (np.float32(0.25), 0.25)])
def test_numpy_scalar_threshold(sample, theta, plain):
    f = random_walk(1.0, 4, 20, 1.5)
    eta, ref = sample(f, theta), sample(f, plain)
    assert len(ref) > 0
    assert eta.times == ref.times and eta.values == ref.values
    assert all(type(v) is float for v in eta.values)


@pytest.mark.parametrize("sample", [sod_sample, lc_sample, if_sample])
@pytest.mark.parametrize("theta", [math.nan, -1, "0.25"])
def test_invalid_threshold_refused(sample, theta):
    with pytest.raises(ValueError, match="threshold must be a positive finite number"):
        sample(ramp(), theta)


@pytest.mark.parametrize("build", [
    lambda: sod_sample(random_walk(1.0, 4, 20, 1.5), True),
    lambda: random_walk(True, 4, 20, 1.5),
    lambda: EventSequence(True, (), ()),
])
def test_bool_is_not_a_positive_number(build):
    with pytest.raises(ValueError, match="must be a positive finite number, got True"):
        build()


class TestLc:
    def test_monotone_ramp_matches_sod_exactly_dyadic(self):
        a = sod_sample(ramp(), 0.25)
        b = lc_sample(ramp(), 0.25)
        assert a.pairs() == b.pairs()

    def test_monotone_ramp_matches_sod(self):
        a = sod_sample(ramp(), 0.3)
        b = lc_sample(ramp(), 0.3)
        assert b.times == a.times
        assert b.values == a.values

    def test_zero_signal(self):
        assert len(lc_sample(zero(1.0), 0.2)) == 0

    def test_triangle_hysteresis(self):
        # up to 0.35 then down: one up event at 0.3, one down at the exact
        # recrossing of the 0.0 + theta hysteresis band
        f = pwl_from_points(2.0, [0.0, 1.0, 2.0], [0.0, 0.35, -0.05])
        eta = lc_sample(f, 0.3)
        assert eta.values == (0.3, -0.3)
        assert eta.times == pytest.approx((6.0 / 7.0, 1.875), abs=1e-12)

    def test_matches_sod_on_anchored_random_walks(self):
        for seed in range(20):
            f = random_walk(1.0, seed + 10, 10, 0.5)
            a = sod_sample(f, 0.13)
            b = lc_sample(f, 0.13)
            assert a.values == b.values
            assert b.times == a.times

    def test_matches_sod_on_a_long_walk(self):
        # 5000 pieces at a non-dyadic theta: a quarter of a million events,
        # each level one product, so no drift separates the two schemes
        f = random_walk(1.0, 3, 5000, 1.0)
        a, b = sod_sample(f, 0.01), lc_sample(f, 0.01)
        assert len(a) > 200_000
        assert a == b


class TestIf:
    def test_constant_one(self):
        f = signal_of(2.0, Segment(0.0, 1.0))
        eta = if_sample(f, 0.5)
        assert eta.pairs() == [(0.5, 0.5), (1.0, 0.5), (1.5, 0.5), (2.0, 0.5)]

    def test_zero(self):
        assert len(if_sample(zero(1.0), 0.5)) == 0

    def test_equals_sod_of_antiderivative(self):
        f = random_walk(1.0, 77, 8, 1.5)
        a = if_sample(f, 0.05)
        b = sod_sample(integrate(f), 0.05)
        assert a.pairs() == b.pairs()

    def test_rejects_quadratic_input(self):
        g = signal_of(1.0, Segment(0.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            if_sample(g, 0.5)


class TestReconstruct:
    def test_empty_gives_zero_signal(self):
        f = reconstruct(from_pairs(2.0, []))
        assert all(s.c0 == s.c1 == s.c2 == 0.0 for s in f.segments)
        assert f.T == 2.0

    def test_single_event(self):
        eta = from_pairs(1.0, [(0.5, 1.0)])
        f = reconstruct(eta)
        assert f(0.5) == 1.0 and f(1.0) == 1.0 and f(0.25) == 0.5
        for sample in (sod_sample, lc_sample):
            assert sample(f, 1.0).pairs() == eta.pairs()

    def test_roundtrip_campaign_exact(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            theta = float(rng.uniform(0.05, 2.0))
            n = int(rng.integers(1, 25))
            eta = random_pure_train(trial, n, theta)
            f = reconstruct(eta)
            for sample in (sod_sample, lc_sample):
                back = sample(f, theta)
                assert back.times == eta.times
                assert back.values == eta.values

    def test_knots_are_lattice_levels(self):
        # the knot after n net events is n * theta, one product, where a
        # running sum of 0.1s drifts off the lattice by the eighth event
        eta = from_pairs(1.0, [(0.1 * (i + 1), 0.1) for i in range(9)])
        f = reconstruct(eta)
        assert list(f.c0[1:]) == [n * 0.1 for n in range(1, 10)]
        assert f.c0[8] != sum([0.1] * 8)

    def test_mixed_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(from_pairs(1.0, [(0.2, 1.0), (0.4, 0.5)]))

    def test_event_at_zero_rejected(self):
        with pytest.raises(ValueError):
            reconstruct(from_pairs(1.0, [(0.0, 1.0)]))

    # the checks that stay where the columns are stored unvalidated: a
    # level n * theta or a slope past the float range raises the message
    # of the Signal validator, which names the first piece at fault
    @pytest.mark.parametrize("eta, t", [
        # the second slope, 1e300 over one ulp of 1.0, overflows
        (EventSequence(1e300, (1.0, 1.0 + 2.2e-16), (1e300, 1e300)), 1.0),
        # the second level, 2 * 1e308, overflows, and so does the first slope
        (EventSequence(1.0, (0.25, 0.5), (1e308, 1e308)), 0.0),
    ])
    def test_a_coefficient_past_the_float_range_is_refused(self, eta, t):
        with pytest.raises(ValueError,
                           match=re.escape(f"non-finite coefficient in the segment at t={t!r}")):
            reconstruct(eta)


# lo + (T - lo), each rounded, lies one ulp past T
_LO, _T = 3 * 2.0 ** -53, 1.0 + 3 * 2.0 ** -52


@pytest.mark.parametrize("f, theta, end", [
    # the last piece: the root clamped to its end is T itself
    (Signal(_T, (0.0, _LO), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)),
     math.nextafter(_T - _LO, 2.0), _T),
    # an inner piece: the event lies at the piece's end, not on the next piece
    (Signal(2.0, (0.0, _LO, _T), (0.0, 0.0, _T - _LO), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
     math.nextafter(_T - _LO, 2.0), _T),
    # a quadratic last piece: its larger root is clamped the same way
    (Signal(_T, (0.0, _LO), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0)),
     math.nextafter((_T - _LO) ** 2, 2.0), _T),
], ids=["last_piece", "inner_piece", "quadratic_last_piece"])
def test_a_root_clamped_to_a_piece_end_lies_at_that_end(f, theta, end):
    assert _LO + (_T - _LO) > _T
    eta = sod_sample(f, theta)
    assert eta.times == (end,) and eta.values == (theta,)
    assert EventSequence(eta.T, eta.times, eta.values) == eta


def sod_bruteforce(f, theta, n_grid=50_000):
    """Grid scan + bisection oracle for the first-crossing recursion."""
    ts = np.linspace(0.0, f.T, n_grid + 1)
    vals = np.array([evaluate(f, float(t)) for t in ts])
    out = []
    ref = 0.0
    i = 0
    while i <= n_grid:
        hits = np.nonzero(np.abs(vals[i:] - ref) >= theta)[0]
        if len(hits) == 0:
            break
        j = i + hits[0]
        lo, hi = (ts[j - 1], ts[j]) if j > 0 else (0.0, ts[j])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(evaluate(f, mid) - ref) >= theta:
                hi = mid
            else:
                lo = mid
        v = theta if evaluate(f, hi) > ref else -theta
        out.append((hi, v))
        ref += v
        i = j
    return out


def check_against_oracle(T, seed):
    f = random_walk(T, seed, 10, 0.6)
    # divided by T, the antiderivative keeps the amplitudes of the T = 1 one
    for g in (f, scale(integrate(f), 1.0 / T)):
        for theta in (0.05, 0.13):
            fast = sod_sample(g, theta).pairs()
            slow = sod_bruteforce(g, theta)
            assert len(fast) == len(slow)
            for (tf, vf), (tb, vb) in zip(fast, slow):
                assert tf == pytest.approx(tb, abs=1e-8 * T)
                assert vf * vb > 0


@pytest.mark.parametrize("seed", range(8))
def test_sod_against_grid_bisection_oracle(seed):
    check_against_oracle(1.0, seed)


@pytest.mark.parametrize("seed", range(4))
def test_sod_against_grid_bisection_oracle_short_horizon(seed):
    check_against_oracle(2.0 ** -30, seed)


@pytest.mark.parametrize("k", [-40, -30, -20, -4, 20])
def test_exact_time_scale_equivariance(k):
    # random_walk(2^k, ...) is the unit walk with time scaled by 2^k, exactly;
    # so is its antiderivative divided by 2^k.  Sampling must commute with it,
    # at every amplitude, with theta scaled by the amplitude's factor.
    T = 2.0 ** k
    for amplitude in (0.6, 1e-9, 1e9):
        for seed in range(10):
            f1 = random_walk(1.0, seed, 200, amplitude)
            fk = random_walk(T, seed, 200, amplitude)
            pairs = [(f1, fk), (integrate(f1), scale(integrate(fk), 1.0 / T))]
            for g1, gk in pairs:
                for theta in (0.05, 0.13):
                    theta *= amplitude / 0.6
                    for sample in (sod_sample, lc_sample):
                        unit, scaled = sample(g1, theta), sample(gk, theta)
                        assert scaled.times == tuple(T * t for t in unit.times)
                        assert scaled.values == unit.values


class TestHomogeneity:
    def test_equal_thresholds(self):
        f = random_walk(1.0, 5, 10, 0.5)
        assert homogeneity_check(f, 0.2, 0.2)

    def test_ramp_doubling(self):
        assert homogeneity_check(ramp(), 1.0, 2.0)

    def test_campaign_power_of_two_ratios(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            f = random_walk(1.0, int(rng.integers(0, 2**31)), 10, 0.5)
            theta = float(rng.uniform(0.03, 0.5))
            j = int(rng.integers(-3, 4))
            assert homogeneity_check(f, theta, theta * 2.0 ** j)


# --- scalar oracle for the run-on crossings ------------------------------------
# The first-crossing recursion without run-on crossings, kept verbatim as the
# reference that `sod_sample` and `lc_sample` must match bit for bit.  It
# takes the level rule as a parameter: `scalar_sod` is the one the samplers
# use, and `scalar_sod_accumulated` the running sum ``ref +- theta`` of
# SOD's reference level, which agrees with it where k * theta is exact.

def _segment_arrays(f: Signal):
    """Flatten segments into parallel lists plus exact joint values.

    The value at each segment's right endpoint is taken from the next
    segment's stored c0 (exact by the continuity invariant); the last
    endpoint is evaluated at T.
    """
    segs = f.segments
    starts = [s.t0 for s in segs]
    ends = [segs[i + 1].t0 for i in range(len(segs) - 1)] + [f.T]
    end_values = [segs[i + 1].c0 for i in range(len(segs) - 1)] + [segs[-1].value(f.T)]
    return segs, starts, ends, end_values


def _segment_first_hit(seg: Segment, lo_t: float, hi_t: float, end_value: float,
                       level: float, t_from: float):
    """Earliest t in (t_from, hi_t] with seg(t) == level, or None.

    Exact joint hits (stored start/end values equal to the level bit-for-bit)
    are reported at the stored joint times; closed-form roots landing within a
    rounding error of such a joint, or of an earlier root, are folded into it.
    """
    if seg.c0 == level and lo_t > t_from:
        return lo_t
    hits = [hi_t] if end_value == level and hi_t > t_from else []
    seg_len = hi_t - lo_t
    slack = 1e-12 * seg_len
    snap = 1e-9 * seg_len
    if seg.c2 == 0.0:
        roots = ((level - seg.c0) / seg.c1,) if seg.c1 != 0.0 else ()
    else:
        roots = _quadratic_roots(seg.c2, seg.c1, seg.c0 - level)
    for u in roots:
        if -slack <= u <= seg_len + slack:
            # clamped into the piece: at or past its length to hi_t itself,
            # and never past hi_t
            t = hi_t if u >= seg_len else min(lo_t + max(u, 0.0), hi_t)
            if t > t_from and all(abs(t - h) > snap for h in hits):
                hits.append(t)
    return min(hits) if hits else None


def _first_crossing(arrays, seg_idx: int, t_from: float,
                    level_up: float, level_down: float):
    """Earliest (t, sign, segment index) with f(t) hitting level_up (sign +1)
    or level_down (sign -1) after t_from; an exact tie goes to level_up."""
    segs, starts, ends, end_values = arrays
    for i in range(seg_idx, len(segs)):
        if ends[i] <= t_from:
            continue
        seg, lo_t, hi_t, end_value = segs[i], starts[i], ends[i], end_values[i]
        t_up = _segment_first_hit(seg, lo_t, hi_t, end_value, level_up, t_from)
        t_down = _segment_first_hit(seg, lo_t, hi_t, end_value, level_down, t_from)
        if t_up is not None and (t_down is None or t_up <= t_down):
            return t_up, 1, i
        if t_down is not None:
            return t_down, -1, i
    return None


def _sample(f: Signal, theta: float, levels) -> EventSequence:
    """The first-crossing recursion: after an event at reference level `ref`
    (the level it hit) and net index `k`, both 0 at the start, the next event
    is the first hit of ``(up, down) = levels(ref, k)``, carrying +-theta."""
    _check_anchored(f)
    arrays = _segment_arrays(f)
    ref, k = 0.0, 0
    t_cur = 0.0
    seg_idx = 0
    times, values = [], []
    while True:
        up, down = levels(ref, k)
        hit = _first_crossing(arrays, seg_idx, t_cur, up, down)
        if hit is None:
            break
        t_cur, sign, seg_idx = hit
        times.append(t_cur)
        values.append(sign * theta)
        ref = up if sign > 0 else down
        k += sign
    return EventSequence(f.T, tuple(times), tuple(values))


def scalar_sod(f, theta):
    """SOD and LC: the levels (k +- 1) * theta of the net event count k."""
    return _sample(f, theta, lambda ref, k: ((k + 1) * theta, (k - 1) * theta))


def scalar_sod_accumulated(f, theta):
    """SOD with the reference level accumulated, one addition per event."""
    return _sample(f, theta, lambda ref, k: (ref + theta, ref - theta))


@st.composite
def run_on_inputs(draw, dyadic=None):
    """(signal, theta) over horizons 2^-30..2^20 and amplitudes 1e-9..1e9,
    with theta a power of two or not (`dyadic` fixes which).  Four signal
    kinds: random walks, their antiderivatives (quadratic pieces), the
    reconstructions of their SOD samples at theta (one event per piece, each
    on a stored joint: the resample round trip), and lattice walks whose
    knot values are integer multiples of theta, so that pieces end exactly
    on a level, repeat a value (constant pieces) or, when two knots are a
    few ulps apart, are steep enough that several levels round to one
    time."""
    T = 2.0 ** draw(st.integers(-30, 20))
    amplitude = 10.0 ** draw(st.floats(-9.0, 9.0))
    if draw(st.booleans()) if dyadic is None else dyadic:
        theta = 2.0 ** (math.floor(math.log2(amplitude)) - draw(st.integers(0, 6)))
    else:
        theta = amplitude * draw(st.floats(1.0 / 64.0, 1.0))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("walk", "integral", "lattice", "roundtrip")))
    if kind != "lattice":
        f = random_walk(T, draw(st.integers(0, 2**32 - 1)), n, amplitude)
        if kind == "integral":
            f = scale(integrate(f), 1.0 / T)
        elif kind == "roundtrip":
            f = reconstruct(sod_sample(f, theta))
        return f, theta
    fracs = draw(st.lists(st.floats(1e-9, 1.0, exclude_max=True),
                          min_size=n, max_size=n, unique=True))
    times = [0.0] + sorted(T * x for x in fracs)
    for i in draw(st.lists(st.integers(2, max(n, 2)), max_size=3)):  # steep pieces
        nudged = times[i - 1]
        for _ in range(draw(st.integers(1, 4))):
            nudged = math.nextafter(nudged, math.inf)
        if i <= n and nudged < (times[i + 1] if i < n else T):
            times[i] = nudged
    values = [0.0] + [k * theta for k in draw(st.lists(st.integers(-12, 12),
                                                        min_size=n, max_size=n))]
    return pwl_from_points(T, times, values), theta


def _steep(theta):
    # a plateau, then a rise of 40 levels within two ulps of t = 0.5: the
    # first crossing lands at 0.5 and the next ones round to it as well
    t2 = math.nextafter(math.nextafter(0.5, 1.0), 1.0)
    return pwl_from_points(1.0, [0.0, 0.25, 0.5, t2, 1.0],
                           [0.0, theta, theta, 41 * theta, 40 * theta])


@given(run_on_inputs())
@settings(max_examples=300, deadline=None)
@example((_steep(0.25), 0.25))
@example((_steep(0.1), 0.1))
# a constant piece, then a rise ending exactly on the third level: its root
# rounds short of the joint, where the stored end value puts the event
@example((pwl_from_points(1.0, [0.0, 0.2, 0.9], [0.0, 0.0, 3.0]), 1.0))
@example((pwl_from_points(2.0, [0.0, 0.3, 1.1, 2.0], [0.0, 0.7, 0.7, 0.0]), 0.1))
# the stored joint value 1e-13 above the piece's end, a level between them:
# the root lies past the slack band, so the crossing is not sampled
@example((signal_of(2.0, Segment(0.0, 0.0, 1e-3), Segment(1.0, 1e-3 + 1e-13)),
          (1e-3 + 5e-14) / 2))
# a 1e9 fall ending at 0: the joint evaluates to one ulp of 1e9
@example((pwl_from_points(1.0, [0.0, 0.472, 0.525], [0.0, 1e9, 0.0]), 1e8))
# the second piece starts on the up level: the event is the first piece's
# stored end joint, so no piece is entered on a level it still has to hit
@example((pwl_from_points(1.0, [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]), 0.25))
# a constant piece on the level of the last event, between a rise and a fall
@example((pwl_from_points(1.0, [0.0, 0.25, 0.75, 1.0], [0.0, 0.5, 0.5, -0.25]), 0.25))
def test_run_on_crossings_match_scalar_oracle(case):
    f, theta = case
    ref = scalar_sod(f, theta)
    for fast in (sod_sample, lc_sample):
        eta = fast(f, theta)
        assert eta.times == ref.times
        assert eta.values == ref.values


@given(run_on_inputs(dyadic=True))
@settings(max_examples=200, deadline=None)
def test_accumulated_reference_is_the_lattice_at_dyadic_thresholds(case):
    # at theta = 2^m every sum of +-theta is an exact multiple k * theta
    f, theta = case
    lattice, accumulated = scalar_sod(f, theta), scalar_sod_accumulated(f, theta)
    assert lattice.times == accumulated.times
    assert lattice.values == accumulated.values


def test_a_quadratic_root_one_ulp_before_its_end_joint_folds_into_it():
    # c2 * t^2 reaches the level v = c2 * a^2 at its stored end joint a; the
    # closed-form root sqrt(v / c2) rounds one ulp short of a, within the
    # snap distance, so the event is the joint itself
    a, c2 = 0.35712729806931665, 2.4650564490845754
    v = c2 * a * a
    f = Signal(a + 1.0, (0.0, a), (0.0, v), (0.0, 2 * c2 * a), (c2, 0.0))
    assert max(_quadratic_roots(c2, 0.0, -v)) == math.nextafter(a, 0.0)
    ref = scalar_sod(f, v)
    assert ref.times[0] == a
    for sample in (sod_sample, lc_sample):
        eta = sample(f, v)
        assert eta.times == ref.times
        assert eta.values == ref.values


def test_lc_lattice_levels_match_the_scalar_oracle_where_sod_levels_drift():
    # the eighth level 8 * 0.1 is the knot value 0.8, hit at its joint by
    # both samplers; the accumulated reference 0.1 + ... + 0.1 =
    # 0.7999999999999999 would be hit before it
    f = pwl_from_points(2.0, [0.0, 1.0, 2.0], [0.0, 0.8, 0.0])
    ref = scalar_sod(f, 0.1)
    assert ref.times[7] == 1.0 > scalar_sod_accumulated(f, 0.1).times[7]
    for sample in (sod_sample, lc_sample):
        eta = sample(f, 0.1)
        assert eta.times[7] == 1.0
        assert eta.times == ref.times
        assert eta.values == ref.values


@st.composite
def cross_scale_inputs(draw):
    """(f, g, theta) over horizons 1e-6..1e9 and amplitudes 1e-9..1e9, with
    theta = amplitude * [1/64, 1]; f and g are random walks of 1..30 pieces
    or their antiderivatives divided by T."""
    T = 10.0 ** draw(st.floats(-6.0, 9.0))
    amplitude = 10.0 ** draw(st.floats(-9.0, 9.0))
    theta = amplitude * draw(st.floats(1.0 / 64.0, 1.0))

    def signal():
        f = random_walk(T, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 30)),
                        amplitude)
        return scale(integrate(f), 1.0 / T) if draw(st.booleans()) else f

    return signal(), signal(), theta


@given(cross_scale_inputs())
@settings(max_examples=300, deadline=None)
def test_sampling_invariants_hold_across_scales(case):
    f, g, theta = case
    for h in (f, g):
        for sample in (sod_sample, lc_sample):
            assert all(v in (theta, -theta) for v in sample(h, theta).values)
        for j in range(-3, 4):
            assert homogeneity_check(h, theta, theta * 2.0 ** j)
    for kind in ("D", "A"):
        rep = qi_verify([(f, g)], theta, kind)
        assert rep.violations == 0
        assert rep.reconstruction_failures == 0


# --- the exact operator and its right limit in theta -------------------------

@st.composite
def exact_inputs(draw):
    """(f, theta) with f piecewise linear: a random walk over horizons
    2^-30..2^20 and amplitudes 1e-9..1e9, with theta a power of two or not;
    the reconstruction of its sample at theta, where every joint lies on a
    level, so every extremum touches one; or a curated critical signal at
    its critical threshold or a power-of-two fraction of it."""
    if draw(st.integers(0, 4)) == 0:
        theta = draw(st.sampled_from((0.25, 0.1, 0.3)))
        f = local_max_signal(theta) if draw(st.booleans()) else comb_signal(3, theta)
        return f, theta / 2.0 ** draw(st.integers(0, 2))
    T = 2.0 ** draw(st.integers(-30, 20))
    amplitude = 10.0 ** draw(st.floats(-9.0, 9.0))
    if draw(st.booleans()):
        theta = 2.0 ** (math.floor(math.log2(amplitude)) - draw(st.integers(0, 6)))
    else:
        theta = amplitude * draw(st.floats(1.0 / 64.0, 1.0))
    f = random_walk(T, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)), amplitude)
    return (reconstruct(sod_sample(f, theta)) if draw(st.booleans()) else f), theta


@given(exact_inputs())
@settings(max_examples=100, deadline=None)
def test_the_pass_rule_is_the_limit_of_exact_samples_above_theta(case):
    exact_right_limit_check(*case)


@given(exact_inputs())
@settings(max_examples=200, deadline=None)
@example((local_max_signal(0.25), 0.25))
@example((reconstruct(sod_sample(random_walk(1.0, 6, 12, 0.4), 0.1)), 0.1))
def test_sampler_matches_the_exact_operator_in_both_modes(case):
    # outside the slack band the float sampler has the exact operator's
    # events, at times within one ulp of T (0.64 at most on 4,409 inputs)
    f, theta = case
    assume(not knot_in_slack_band(f, theta))
    for right in (False, True):
        eta, exact = sampler._sample(f, theta, right), exact_sample(f, theta, right)
        assert eta.values == tuple(s * theta for _, s in exact)
        ulp = Fraction(math.ulp(f.T))
        assert all(abs(t - e) <= ulp for t, (e, _) in zip(eta.times, exact))


@given(exact_inputs())
@settings(max_examples=100, deadline=None)
def test_the_right_limit_is_at_most_two_discrepancy_units_away(case):
    # each touch of an outward level leaves in Phi - Phi+ an adjacent pair
    # of opposite signs, (+, -) for an up level and (-, +) for a down one,
    # or one event at T; so the normalized gap under D is 0, 1 or 2
    f, theta = case
    assert emdm_sweep(f, "D", [theta]).lambda_estimate in (0.0, 1.0, 2.0)


@pytest.mark.parametrize("miss, in_band, at_theta", [(1e-13, True, 6), (1e-11, False, 4)])
def test_a_near_touch_in_the_slack_band_fires_only_at_theta(miss, in_band, at_theta):
    # a peak `miss` short of 3 * 0.25: within 1e-12 of the rise the root is
    # clamped onto the joint and fires at theta, though exact Phi has 4
    # events; the right limit needs a pass, so it has 4 either way
    f = pwl_from_points(2.0, [0.0, 1.0, 2.0], [0.0, 0.75 - miss, 0.0])
    assert knot_in_slack_band(f, 0.25) == in_band
    assert len(sampler._sample(f, 0.25)) == at_theta
    assert len(exact_sample(f, 0.25)) == len(sampler._sample(f, 0.25, right=True)) == 4


def test_right_limit_keeps_a_quadratic_pass_at_a_joint_with_zero_slope():
    # integrate-and-fire of |1 - t| is t - t^2 / 2, then 1/2 + (t - 1)^2 / 2:
    # it reaches 0.5 at the joint t = 1 with zero slope and rises past it,
    # while it ends on 1.0 = 2 * 0.5 and stops there
    f = integrate(pwl_from_points(2.0, [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]))
    assert sampler._sample(f, 0.5).pairs() == [(1.0, 0.5), (2.0, 0.5)]
    assert sampler._sample(f, 0.5, right=True).pairs() == [(1.0, 0.5)]


@given(cross_scale_inputs())
@settings(max_examples=100, deadline=None)
def test_right_limit_has_the_signs_of_a_slightly_larger_threshold(case):
    # walks and their antiderivatives: no level is touched at random, so the
    # right limit is theta's output, and a threshold 2^-30 above it has the
    # same event signs
    f, _, theta = case
    limit = sampler._sample(f, theta, right=True)
    above = sod_sample(f, theta * (1.0 + 2.0 ** -30))
    assert [v > 0.0 for v in limit.values] == [v > 0.0 for v in above.values]
