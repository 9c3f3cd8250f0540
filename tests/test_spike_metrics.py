import math
import re
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodlab import spike_metrics
from sodlab.events import difference, empty, from_pairs, scale_events, split_signs
from sodlab.spike_metrics import (
    VP_MODES,
    SchreiberParams,
    VanRossumParams,
    VictorPurpuraParams,
    _exp_gram,
    _gauss_gram,
    _vp_dp,
    schreiber_distance,
    schreiber_similarity,
    van_rossum,
    victor_purpura,
)
from sodlab.trains import (
    alternating_train,
    equidistant_alternating,
    mmsn_train,
    random_unit_train,
)

from oracles import (
    exp_response,
    random_nonnegative_train,
    random_signed_train,
    victor_purpura_split_merge,
    vp_dp_rowwise,
)


def vr_quadrature(eta1, eta2, alpha, n_sub=2000):
    """Piecewise trapezoid oracle for the smoothed-train L2 distance."""
    diff = difference(eta1, eta2)
    knots = [0.0] + [t for t in diff.times if t > 0.0] + [diff.T]
    events = diff.pairs()
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        ts = np.linspace(a, b, n_sub)
        vals = np.zeros_like(ts)
        for tk, vk in events:
            if tk <= a:
                if alpha > 0.0:
                    vals += vk * np.exp(-alpha * (ts - tk))
                else:
                    vals += vk
        total += np.trapezoid(vals * vals, ts)
    return math.sqrt(total)


def exp_gram_matrix(times1, values1, times2, values2, alpha, T):
    """n x m oracle for the causal-exponential Gram form over [0, T].

    Pairwise term: int_max(ti,tj)^T e^{-a(t-ti)} e^{-a(t-tj)} dt
                 = (e^{-a|ti-tj|} - e^{-a(2T-ti-tj)}) / (2a).
    """
    if not times1 or not times2:
        return 0.0
    t1 = np.asarray(times1)
    v1 = np.asarray(values1)
    t2 = np.asarray(times2)
    v2 = np.asarray(values2)
    dt = np.abs(t1[:, None] - t2[None, :])
    tail = 2.0 * T - t1[:, None] - t2[None, :]
    kern = (np.exp(-alpha * dt) - np.exp(-alpha * tail)) / (2.0 * alpha)
    return float(v1 @ kern @ v2)


def gauss_gram_matrix(times1, values1, times2, values2, sigma):
    """n x m oracle for the whole-line Gaussian Gram form."""
    if not times1 or not times2:
        return 0.0
    t1 = np.asarray(times1)
    v1 = np.asarray(values1)
    t2 = np.asarray(times2)
    v2 = np.asarray(values2)
    d = t1[:, None] - t2[None, :]
    kern = np.exp(-(d * d) / (4.0 * sigma * sigma))
    return float(v1 @ kern @ v2)


EPS = np.finfo(float).eps


def exp_tol(a, b, alpha):
    """Allowed gap between _exp_gram and the matrix oracle, in units of the
    largest possible Gram value sum|v1| sum|v2| / (2 alpha).  n + m covers
    the summation order; alpha * T covers the oracle's tail exponent
    alpha (2T - ti - tj), which rounds at the scale of T."""
    scale = sum(map(abs, a.values)) * sum(map(abs, b.values)) / (2.0 * alpha)
    return 4.0 * EPS * (len(a) + len(b) + alpha * a.T) * scale


def gauss_tol(a, b):
    """The kernel entries are bit-identical; only the summation order of the
    row blocks differs."""
    return 4.0 * EPS * (len(a) + len(b)) * sum(map(abs, a.values)) * sum(map(abs, b.values))


def check_similarity(similarity, grams, tols):
    """similarity() must lie within the first-order propagation of the Gram
    tolerances through g12 / sqrt(g11 g22).  A self-Gram within twice its
    tolerance of 0 is ill-conditioned (and may be refused), so only the Gram
    checks cover it."""
    (g12, g11, g22), (e12, e11, e22) = grams, tols
    if g11 <= 2.0 * e11 or g22 <= 2.0 * e22:
        return
    s = g12 / (math.sqrt(g11) * math.sqrt(g22))
    r1, r2 = e11 / g11, e22 / g22
    bound = (e12 / math.sqrt((g11 - e11) * (g22 - e22))
             + abs(s) * (1.0 / math.sqrt((1.0 - r1) * (1.0 - r2)) - 1.0)
             + 8.0 * EPS * max(abs(s), 1.0))
    assert abs(similarity() - s) <= bound


@st.composite
def shared_time_pairs(draw):
    """Two trains of at most 60 events on one horizon whose times come from
    one pool, so that many times coincide across the trains."""
    T = 10.0 ** draw(st.floats(-6.0, 6.0))
    units = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=90))
    pool = sorted({T * u for u in units})

    def train():
        times = sorted(draw(st.sets(st.sampled_from(pool), min_size=1,
                                    max_size=min(60, len(pool)))))
        values = [draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3.0, 3.0))
                  for _ in times]
        return from_pairs(T, list(zip(times, values)))

    return train(), train()


@given(shared_time_pairs(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_grams_match_matrix_oracles(pair, log_alpha, log_sigma):
    a, b = pair
    alpha = 10.0 ** log_alpha
    sigma = a.T * 10.0 ** log_sigma
    diff = difference(a, b)
    oracle = exp_gram_matrix(diff.times, diff.values, diff.times, diff.values, alpha, a.T)
    got = van_rossum(a, b, VanRossumParams(alpha))
    assert abs(got * got - max(oracle, 0.0)) <= exp_tol(diff, diff, alpha) + 2.0 * EPS * got * got
    pairs = ((a, b), (a, a), (b, b))
    for kernel, width, gram, oracle_of, tol_of in (
        ("causal_exponential", {"alpha": alpha}, lambda x, y: _exp_gram(x, y, alpha),
         lambda x, y: exp_gram_matrix(x.times, x.values, y.times, y.values, alpha, a.T),
         lambda x, y: exp_tol(x, y, alpha)),
        ("gaussian", {"sigma": sigma}, lambda x, y: _gauss_gram(x, y, sigma),
         lambda x, y: gauss_gram_matrix(x.times, x.values, y.times, y.values, sigma),
         gauss_tol),
    ):
        oracles = [oracle_of(x, y) for x, y in pairs]
        tols = [tol_of(x, y) for x, y in pairs]
        for (x, y), o, e in zip(pairs, oracles, tols):
            assert abs(gram(x, y) - o) <= e
        params = SchreiberParams(kernel=kernel, **width)
        check_similarity(lambda: schreiber_similarity(a, b, params), oracles, tols)


def test_gauss_gram_row_blocks_match_oracle():
    # 700 rows span three row blocks, the last one partial
    a = random_signed_train(3, 700, T=4.0)
    b = random_signed_train(4, 300, T=4.0)
    for x, y in ((a, b), (b, a), (a, a)):
        oracle = gauss_gram_matrix(x.times, x.values, y.times, y.values, 0.3)
        assert abs(_gauss_gram(x, y, 0.3) - oracle) <= gauss_tol(x, y)


@pytest.mark.parametrize("metric", [
    lambda a, b: van_rossum(a, b, VanRossumParams(1.0)),
    lambda a, b: schreiber_similarity(a, b, SchreiberParams()),
    lambda a, b: schreiber_similarity(a, b, SchreiberParams(kernel="gaussian")),
], ids=["van_rossum", "schreiber_exp", "schreiber_gauss"])
def test_memory_bounded_at_2000_events(metric):
    a = random_signed_train(21, 2000)
    b = random_signed_train(22, 2000)
    tracemalloc.start()
    try:
        metric(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


class TestVanRossum:
    def test_identical_trains(self):
        eta = random_unit_train(4, 9)
        assert van_rossum(eta, eta, VanRossumParams(1.0)) == 0.0

    def test_single_event_closed_form(self):
        T, alpha, t1 = 2.0, 1.3, 0.4
        eta = from_pairs(T, [(t1, 1.0)])
        got = van_rossum(eta, empty(T), VanRossumParams(alpha))
        expect = math.sqrt((1.0 - math.exp(-2.0 * alpha * (T - t1))) / (2.0 * alpha))
        assert got == pytest.approx(expect, abs=1e-14)
        assert got == pytest.approx(vr_quadrature(eta, empty(T), alpha, 20001), abs=1e-8)

    def test_closed_form_matches_quadrature(self):
        for seed, alpha in ((1, 0.5), (2, 1.0), (3, 3.0)):
            a = random_unit_train(seed, 8, T=4.0)
            b = random_unit_train(seed + 100, 6, T=4.0)
            got = van_rossum(a, b, VanRossumParams(alpha))
            assert got == pytest.approx(vr_quadrature(a, b, alpha), rel=1e-6)

    def test_step_kernel_matches_quadrature(self):
        a = random_unit_train(9, 7, T=4.0)
        b = random_unit_train(19, 5, T=4.0)
        got = van_rossum(a, b, VanRossumParams(0.0))
        assert got == pytest.approx(vr_quadrature(a, b, 0.0), rel=1e-9)

    def test_small_alpha_tends_to_step_kernel(self):
        # the distance moves by O(alpha T) towards the alpha = 0 limit; no
        # digits may be lost to cancellation on the way
        a = random_signed_train(1, 50)
        b = random_signed_train(2, 50)
        step = van_rossum(a, b, VanRossumParams(0.0))
        for alpha in (1e-8, 1e-12, 1e-200):
            got = van_rossum(a, b, VanRossumParams(alpha))
            assert got == pytest.approx(step, rel=2.0 * alpha + 1e-14)

    def test_symmetry(self):
        a = random_signed_train(5, 10)
        b = random_signed_train(6, 12)
        p = VanRossumParams(2.0)
        assert van_rossum(a, b, p) == van_rossum(b, a, p)

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            van_rossum(empty(1.0), empty(2.0), VanRossumParams(1.0))

    def test_alternating_floor(self):
        # |R| just before each event is at least e^{-a d}(1 - e^{-a d})
        T, n = 10.0, 40
        delta = T / n
        eta = equidistant_alternating(n, delta, T)
        for alpha in (0.5, 1.0, 2.0):
            floor = math.exp(-alpha * delta) * (1.0 - math.exp(-alpha * delta))
            probe = np.asarray(eta.times[1:]) - 1e-9
            vals = np.abs(exp_response(eta, alpha, probe))
            assert vals.min() >= floor - 1e-9

    def test_step_kernel_alternating_energy(self):
        # alpha = 0: |R| is 1 on every second gap, so the squared distance to
        # the zero train is about T/2 (the 1/2 constant of the step kernel)
        T, n = 10.0, 100
        eta = equidistant_alternating(n, T / n, T)
        d = van_rossum(eta, empty(T), VanRossumParams(0.0))
        assert d * d == pytest.approx(T / 2.0, abs=T / n)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            VanRossumParams(-1.0)


@pytest.mark.parametrize("cls, kwargs, field, message, zero_ok", [
    (VanRossumParams, {}, "alpha", "alpha must be finite and >= 0", True),
    (VictorPurpuraParams, {}, "s", "s must be finite and >= 0", True),
    (SchreiberParams, {}, "alpha", "causal_exponential needs alpha > 0 and finite", False),
    (SchreiberParams, {"kernel": "gaussian"}, "sigma", "gaussian needs sigma > 0 and finite",
     False),
], ids=["vr_alpha", "vp_s", "schreiber_alpha", "schreiber_sigma"])
def test_a_metric_parameter_is_a_real_number_stored_as_a_float(cls, kwargs, field, message,
                                                                zero_ok):
    # a bool is no number, and a string is refused by the same message
    for bad in (True, False, "1", b"1", 1j, 10**400, math.nan):
        with pytest.raises(ValueError, match=f"^{message}, got {re.escape(repr(bad))}$"):
            cls(**kwargs, **{field: bad})
    goods = (2, np.int64(3), np.float32(0.5), Fraction(3, 2), 0.25) + ((0,) if zero_ok else ())
    for good in goods:
        got = getattr(cls(**kwargs, **{field: good}), field)
        assert type(got) is float and got == float(good)


class TestSchreiber:
    def test_each_kernel_takes_only_its_own_width(self):
        assert (SchreiberParams().alpha, SchreiberParams().sigma) == (1.0, None)
        gauss = SchreiberParams(kernel="gaussian")
        assert (gauss.alpha, gauss.sigma) == (None, 1.0)
        with pytest.raises(ValueError, match="causal_exponential kernel takes no sigma"):
            SchreiberParams(sigma=2.0)
        with pytest.raises(ValueError, match="gaussian kernel takes no alpha"):
            SchreiberParams(kernel="gaussian", alpha=2.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="needs alpha > 0"):
                SchreiberParams(alpha=bad)
            with pytest.raises(ValueError, match="needs sigma > 0"):
                SchreiberParams(kernel="gaussian", sigma=bad)

    def test_self_similarity_is_one(self):
        eta = random_unit_train(8, 11)
        s = schreiber_similarity(eta, eta, SchreiberParams(alpha=2.0))
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_negation_gives_minus_one(self):
        for params in (SchreiberParams(alpha=1.5),
                       SchreiberParams(kernel="gaussian", sigma=0.2)):
            eta = mmsn_train(8)
            s = schreiber_similarity(eta, scale_events(eta, -1.0), params)
            assert s == pytest.approx(-1.0, abs=1e-12)

    def test_amplitude_scale_invariance(self):
        a = random_unit_train(3, 7)
        b = random_unit_train(4, 9)
        p = SchreiberParams(alpha=1.0)
        s = schreiber_similarity(a, b, p)
        assert schreiber_similarity(scale_events(a, 3.0), scale_events(b, 0.5), p) \
            == pytest.approx(s, abs=1e-12)
        assert schreiber_similarity(scale_events(a, -2.0), b, p) \
            == pytest.approx(-s, abs=1e-12)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            schreiber_similarity(empty(1.0), random_unit_train(1, 3), SchreiberParams())

    def test_vanishing_smoothing_rejected(self):
        # the causal smoothing of an event at T is zero on [0, T]
        at_T = from_pairs(1.0, [(1.0, -1.0)])
        with pytest.raises(ValueError, match="vanishes"):
            schreiber_similarity(at_T, random_unit_train(1, 3), SchreiberParams())

    def test_distance_shapes(self):
        a = random_unit_train(5, 6)
        b = random_unit_train(6, 6)
        s = schreiber_similarity(a, b, SchreiberParams())
        assert schreiber_distance(a, b, SchreiberParams()) == pytest.approx(1.0 - s)
        assert schreiber_distance(a, b, SchreiberParams(h="arccos")) \
            == pytest.approx(math.acos(max(min(s, 1.0), -1.0)))


class TestVictorPurpura:
    def test_identical_trains(self):
        eta = random_signed_train(2, 12)
        assert victor_purpura(eta, eta, VictorPurpuraParams(1.0)) == 0.0

    def test_counting_at_zero_cost(self):
        three = from_pairs(1.0, [(0.1, 1.0), (0.4, 1.0), (0.8, 1.0)])
        one = from_pairs(1.0, [(0.5, 1.0)])
        assert victor_purpura(three, one, VictorPurpuraParams(0.0)) == 2.0

    def test_offset_pair_hand_dp(self):
        dt = 0.7
        a = from_pairs(2.0, [(0.3, 1.0)])
        b = from_pairs(2.0, [(0.3 + dt, 1.0)])
        for s in (0.5, 1.0, 4.0):
            got = victor_purpura(a, b, VictorPurpuraParams(s))
            assert abs(got - min(2.0, s * dt)) <= 1e-12

    def test_symmetry(self):
        p = VictorPurpuraParams(1.3)
        for seed in range(20):
            a = random_signed_train(seed, 8)
            b = random_signed_train(seed + 1000, 7)
            assert victor_purpura(a, b, p) == victor_purpura(b, a, p)

    def test_triangle_on_nonnegative_trains(self):
        p = VictorPurpuraParams(2.0)
        for seed in range(20):
            a = random_nonnegative_train(seed, 5)
            b = random_nonnegative_train(seed + 50, 7)
            c = random_nonnegative_train(seed + 100, 6)
            dab = victor_purpura(a, b, p)
            dbc = victor_purpura(b, c, p)
            dac = victor_purpura(a, c, p)
            assert dac <= dab + dbc + 1e-12

    def test_large_shift_cost_counts_non_coincident(self):
        a = from_pairs(1.0, [(0.1, 1.0), (0.3, 1.0), (0.6, 1.0)])
        b = from_pairs(1.0, [(0.3, 1.0), (0.6, 1.0), (0.9, 1.0), (0.95, 1.0)])
        got = victor_purpura(a, b, VictorPurpuraParams(1e9))
        assert got == 3.0 + 4.0 - 2.0 * 2.0

    def test_multiplicity_expansion(self):
        a = from_pairs(1.0, [(0.5, 2.0)])
        b = from_pairs(1.0, [(0.5, 1.0)])
        assert victor_purpura(a, b, VictorPurpuraParams(0.0)) == 1.0

    def test_separate_mode_matches_combined_on_nonnegative(self):
        p_c = VictorPurpuraParams(1.0)
        p_s = VictorPurpuraParams(1.0, "separate")
        for seed in range(20):
            a = random_nonnegative_train(seed, 6)
            b = random_nonnegative_train(seed + 7, 8)
            assert victor_purpura(a, b, p_c) == victor_purpura(a, b, p_s)

    def test_separate_mode_counting_on_signed(self):
        p = VictorPurpuraParams(0.0, "separate")
        for seed in range(50):
            a = random_unit_train(seed, 9)
            b = random_unit_train(seed + 3000, 6)
            pa, ma = split_signs(a)
            pb, mb = split_signs(b)
            expect = abs(len(pa) - len(pb)) + abs(len(ma) - len(mb))
            assert victor_purpura(a, b, p) == expect

    def test_fractional_amplitude_rejected(self):
        a = from_pairs(1.0, [(0.5, 0.3)])
        with pytest.raises(ValueError):
            victor_purpura(a, empty(1.0), VictorPurpuraParams(1.0))

    @pytest.mark.parametrize("v", [0.9999999999999999, 1.0 + 2.0 ** -40, -1.0 - 2.0 ** -40])
    @pytest.mark.parametrize("mode", VP_MODES)
    def test_near_integer_amplitude_rejected(self, v, mode):
        # a multiplicity is an exact integer: no tolerance counts v as one spike
        a = from_pairs(1.0, [(0.5, v)])
        b = from_pairs(1.0, [(0.5, math.copysign(1.0, v))])
        with pytest.raises(ValueError, match=f"got {v!r}"):
            victor_purpura(a, b, VictorPurpuraParams(1.0, mode))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            VictorPurpuraParams(-0.5)
        with pytest.raises(ValueError):
            VictorPurpuraParams(1.0, "both")


def test_alternating_train_response_bounded():
    # alternating signs keep the smoothed train inside [-1, 1]
    eta = alternating_train(60, T=6.0)
    ts = np.linspace(0.0, 6.0, 4001)
    vals = exp_response(eta, 1.0, ts)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


# --- the anti-diagonal Victor-Purpura program against the row-by-row one -----

VP_COSTS = (0.0, 1e-3, 1.0, 10.0, 1000.0)


@st.composite
def spike_lists(draw):
    """Two sorted spike-time lists, either possibly empty, drawn from one
    small pool so that times repeat within and across the lists."""
    pool = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    return tuple(sorted(draw(st.lists(st.sampled_from(pool), max_size=40)))
                 for _ in range(2))


@given(spike_lists(), st.sampled_from(VP_COSTS))
@settings(max_examples=300, deadline=None)
def test_vp_program_equals_the_rowwise_oracle(lists, s):
    ta, tb = lists
    assert _vp_dp(ta, tb, s) == vp_dp_rowwise(ta, tb, s)


@st.composite
def integer_train_pairs(draw):
    """Two trains with amplitudes in {-2, -1, 1, 2}, either possibly empty,
    on one horizon with times from one pool."""
    pool = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))))

    def train():
        times = sorted(draw(st.sets(st.sampled_from(pool), max_size=len(pool))))
        return from_pairs(1.0, [(t, draw(st.sampled_from((-2.0, -1.0, 1.0, 2.0))))
                                for t in times])

    return train(), train()


@given(integer_train_pairs(), st.sampled_from(VP_COSTS), st.sampled_from(VP_MODES))
@settings(max_examples=200, deadline=None)
def test_victor_purpura_equals_the_rowwise_oracle_in_both_modes(pair, s, mode):
    a, b = pair
    params = VictorPurpuraParams(s, mode)
    got = victor_purpura(a, b, params)
    with patch.object(spike_metrics, "_vp_dp", vp_dp_rowwise):
        expected = victor_purpura(a, b, params)
    assert got == expected


@st.composite
def signed_multiplicity_pairs(draw):
    """Two signed trains with multiplicities 1..3, either possibly empty, on
    one horizon with times from one pool, so that times are shared within a
    sign and collide across signs and trains; either train may hold time 0
    as 0.0 or as -0.0."""
    T = draw(st.sampled_from((1.0, 2.0 ** -20, 1e6)))
    pool = draw(st.lists(st.floats(0.0, 1.0).map(lambda u: T * u), min_size=1, max_size=12))
    pool += draw(st.sampled_from(([], [0.0, -0.0])))

    def train():
        times = draw(st.lists(st.sampled_from(pool), max_size=15))
        events = {t: draw(st.sampled_from((-3.0, -2.0, -1.0, 1.0, 2.0, 3.0))) for t in times}
        return from_pairs(T, sorted(events.items()))

    return train(), train()


@given(signed_multiplicity_pairs(), st.sampled_from((0.5, 7.0, *VP_COSTS)),
       st.sampled_from(VP_MODES))
@settings(max_examples=400, deadline=None)
def test_victor_purpura_equals_the_split_merge_form_by_repr(pair, s, mode):
    a, b = pair
    params = VictorPurpuraParams(s, mode)
    assert repr(victor_purpura(a, b, params)) == repr(victor_purpura_split_merge(a, b, params))


def test_victor_purpura_at_2000_events_equals_the_oracle():
    a = random_unit_train(31, 2000)
    b = random_unit_train(32, 2000)
    params = VictorPurpuraParams(1.0)
    got = victor_purpura(a, b, params)
    with patch.object(spike_metrics, "_vp_dp", vp_dp_rowwise):
        assert got == victor_purpura(a, b, params)


def test_victor_purpura_memory_is_linear_at_10k_events():
    # an n x m float table would take 800 MB here
    n = 10_000
    a = random_unit_train(33, n)
    b = random_unit_train(34, n)
    tracemalloc.start()
    try:
        victor_purpura(a, b, VictorPurpuraParams(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * n
