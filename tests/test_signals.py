import json
import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sodlab.analysis import emdm_sweep, left_continuity_probe, make_qi_corpus, qi_verify
from sodlab.events import EventSequence, from_pairs
from sodlab.sampler import homogeneity_check, if_sample, lc_sample, reconstruct, sod_sample
from sodlab.signals import (
    STRUCT_TOL,
    Segment,
    Signal,
    add,
    diameter_norm,
    evaluate,
    generate,
    integrate,
    load_signal,
    pwl_from_points,
    ramp_plateau,
    random_walk,
    save_signal,
    scale,
    signal_from_dict,
    sine_pwl,
    subtract,
    zero,
)
from sodlab.structure import DenseEvents

from oracles import (
    add_segmentwise,
    diameter_norm_segmentwise,
    differentiate,
    evaluate_segmentwise,
    integrate_segmentwise,
    pwl_from_points_segmentwise,
    scale_segmentwise,
    signal_of,
    signal_to_dict,
    sup_norm,
    validate_segmentwise,
)
from test_sampler import cross_scale_inputs


def test_ramp_plateau_evaluate():
    f = ramp_plateau(1.0)
    assert f(0.25) == 0.25
    assert f(0.75) == 0.5
    assert f(0.0) == 0.0


def test_generated_signals_start_at_zero():
    for f in (ramp_plateau(1.0), sine_pwl(10.0, 32), random_walk(1.0, 3, 8, 0.5)):
        assert evaluate(f, 0.0) == 0.0


def test_evaluate_domain_error():
    f = ramp_plateau(1.0)
    with pytest.raises(ValueError):
        evaluate(f, -0.1)
    with pytest.raises(ValueError):
        evaluate(f, 1.1)


def test_sine_pwl_near_analytic_peak():
    # value of the PWL approximation at pi/2 vs (sin(pi/2)+1)/4 - 1/4 = 0.25
    res = 256
    f = sine_pwl(10.0, res)
    h = 2.0 * math.pi / res
    assert abs(f(math.pi / 2.0) - 0.25) <= h * h / 32.0 + 1e-12


def test_sine_pwl_interpolation_error_bound():
    res = 64
    f = sine_pwl(8.0, res)
    h = 2.0 * math.pi / res
    grid = np.linspace(0.0, 8.0, 20001)
    worst = max(abs(f(float(t)) - math.sin(float(t)) / 4.0) for t in grid)
    assert worst <= h * h / 32.0 + 1e-12


def test_scale_doubles_ramp():
    f = ramp_plateau(1.0)
    g = scale(f, 2.0)
    assert g(0.5) == 1.0


def test_scale_identity_is_segmentwise_identical():
    f = random_walk(1.0, 11, 6, 0.3)
    assert scale(f, 1.0).segments == f.segments


def test_add_cancellation_gives_zero_signal():
    f = random_walk(1.0, 5, 9, 0.4)
    g = add(f, scale(f, -1.0))
    for t in np.linspace(0.0, 1.0, 101):
        assert abs(g(float(t))) <= 1e-12


def test_add_horizon_mismatch():
    with pytest.raises(ValueError):
        add(ramp_plateau(1.0), ramp_plateau(2.0))


# a sum runs the validator's checks that its arithmetic can fail
_STEEP = Signal(1.0, (0.0,), (0.0,), (1e308,), (0.0,))


@pytest.mark.parametrize("f, g, message", [
    # slopes of 1e308 add up past the float range
    (_STEEP, _STEEP, "non-finite coefficient in the segment at t=0.0"),
    # f's jump of 1e-7 at 0.5 is inside its tolerance, 1e-12 of 5e5; the
    # sum cancels the ramp, and the jump is no longer inside the sum's
    (Signal(1.0, (0.0, 0.5), (0.0, 5e5 + 1e-7), (1e6, 0.0), (0.0, 0.0)),
     Signal(1.0, (0.0, 0.5), (0.0, -5e5), (-1e6, 0.0), (0.0, 0.0)),
     "discontinuity at t=0.5: 0.0 vs 1.00000761449337e-07"),
])
def test_add_refuses_a_sum_the_validator_refuses(f, g, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        add(f, g)


def test_a_difference_that_cancels_below_its_operands_rounding_is_refused():
    # f - 0.99999 f cancels terms of 3e4 to terms below 1, and the
    # operands' own joint rounding, 3.6e-12, is 1.3e-11 of those: the sum
    # is refused, as the constructor refuses its pieces, and not closed
    f = Signal(1.0, (0.0, 0.3333333333333333, 0.6666666666666666),
               (0.0, 27392.33746429086, -18650.319782935076),
               (82177.01239287258, -138127.97174167781, -275415.88563828316), (0.0, 0.0, 0.0))
    message = "discontinuity at t=0.3333333333333333: 0.2739233746397076 vs 0.2739233746433456"
    with pytest.raises(ValueError, match=re.escape(message)):
        subtract(f, scale(f, 0.99999))
    with pytest.raises(ValueError, match=re.escape(message)):
        add_segmentwise(f, scale_segmentwise(f, -0.99999))


def test_add_merges_grids_pointwise():
    f = random_walk(1.0, 1, 5, 0.5)
    g = random_walk(1.0, 2, 7, 0.5)
    s = add(f, g)
    for t in np.linspace(0.0, 1.0, 333):
        t = float(t)
        assert s(t) == pytest.approx(f(t) + g(t), abs=1e-12)


def test_diameter_ramp_plateau():
    assert diameter_norm(ramp_plateau(1.0)) == 0.5


def test_diameter_zero_signal():
    assert diameter_norm(zero(1.0)) == 0.0


def test_diameter_against_dense_grid_oracle():
    for seed in range(10):
        f = random_walk(1.0, seed, 14, 0.6)
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        vals = [f(float(t)) for t in grid]
        brute = max(vals) - min(vals)
        slope = max(abs(s.c1) for s in f.segments)
        assert abs(diameter_norm(f) - brute) <= slope * 1e-4


def test_diameter_quadratic_vertex():
    # vertex of t - t^2 at t=1/2 is an interior extremum
    f = signal_of(1.0, Segment(0.0, 0.0, 1.0, -1.0))
    assert diameter_norm(f) == 0.25


def test_diameter_absolute_homogeneity():
    f = random_walk(1.0, 21, 10, 0.7)
    d = diameter_norm(f)
    for lam in (-3.0, -0.5, 0.25, 2.0):
        assert diameter_norm(scale(f, lam)) == pytest.approx(abs(lam) * d, rel=1e-12)


def test_diameter_at_most_twice_sup():
    for seed in range(10):
        f = random_walk(1.0, seed + 100, 12, 0.5)
        assert diameter_norm(f) <= 2.0 * sup_norm(f) + 1e-12


def test_integrate_linear_ramp():
    f = signal_of(1.0, Segment(0.0, 0.0, 1.0))
    g = integrate(f)
    assert g(1.0) == 0.5
    assert g(0.5) == 0.125


def test_integrate_zero():
    g = integrate(zero(1.0))
    assert all(s.c0 == s.c1 == s.c2 == 0.0 for s in g.segments)


def test_integrate_matches_trapezoid_at_breakpoints():
    f = random_walk(1.0, 33, 16, 0.5)
    g = integrate(f)
    knots = [s.t0 for s in f.segments] + [1.0]
    acc = 0.0
    for a, b in zip(knots, knots[1:]):
        assert g(a) == pytest.approx(acc, abs=1e-12)
        acc += 0.5 * (f(a) + f(b)) * (b - a)
    assert g(1.0) == pytest.approx(acc, abs=1e-12)


def test_integrate_rejects_quadratic():
    f = signal_of(1.0, Segment(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        integrate(f)


def test_integrate_differentiate_roundtrip_exact():
    f = random_walk(1.0, 8, 9, 0.4)
    back = differentiate(integrate(f))
    assert all(
        a.t0 == b.t0 and a.c0 == b.c0 and a.c1 == b.c1 and a.c2 == b.c2
        for a, b in zip(back.segments, f.segments)
    )


def test_random_walk_deterministic():
    a = random_walk(1.0, 7, 12, 0.4)
    b = random_walk(1.0, 7, 12, 0.4)
    assert a.segments == b.segments


def test_generate_dispatch_and_errors():
    assert generate("ramp_plateau", 1.0).segments == ramp_plateau(1.0).segments
    with pytest.raises(ValueError):
        generate("nope", 1.0)
    with pytest.raises(ValueError):
        generate("sine_pwl", 1.0, resolution=1)
    with pytest.raises(ValueError):
        generate("random_walk", 1.0, seed=1, n_breaks=0, amplitude=0.5)


@pytest.mark.parametrize("kind, params, message", [
    ("random_walk", {"seed": 2.9, "n_breaks": 3, "amplitude": 0.4},
     "seed must be an integer >= 0, got 2.9"),
    ("random_walk", {"seed": 2, "n_breaks": 3.7, "amplitude": 0.4},
     "n_breaks must be an integer >= 1, got 3.7"),
    ("sine_pwl", {"resolution": 64.5},
     "resolution (knots per period) must be an integer >= 2, got 64.5"),
])
def test_generate_refuses_a_count_that_is_no_integer(kind, params, message):
    # refused by the generator, not truncated to the next integer down
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(kind, 1.0, **params)


@pytest.mark.parametrize("seed", [-3, True, 2.5, "3"])
def test_random_walk_refuses_a_bad_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        random_walk(1.0, seed, 4, 0.5)


@pytest.mark.parametrize("amplitude", [-3, 0, 0.0, True, "0.4", math.inf, math.nan, 10**400],
                         ids=["-3", "0", "0.0", "True", "'0.4'", "inf", "nan", "10**400"])
def test_random_walk_refuses_a_bad_amplitude(amplitude):
    message = f"^amplitude must be a positive finite number, got {re.escape(repr(amplitude))}$"
    with pytest.raises(ValueError, match=message):
        random_walk(1.0, 0, 3, amplitude)
    with pytest.raises(ValueError, match=message):
        generate("random_walk", 1.0, seed=0, n_breaks=3, amplitude=amplitude)
    with pytest.raises(ValueError, match=message):
        make_qi_corpus(3, 0, amplitude=amplitude)


def test_segment_joint_continuity():
    for seed in range(5):
        f = random_walk(1.0, seed + 40, 10, 0.5)
        for prev, cur in zip(f.segments, f.segments[1:]):
            assert abs(prev.value(cur.t0) - cur.c0) <= 1e-12


def test_signal_validation():
    with pytest.raises(ValueError):
        signal_of(1.0, Segment(0.5, 0.0, 1.0))  # first segment not at 0
    with pytest.raises(ValueError):
        signal_of(1.0, Segment(0.0, 0.0, 1.0), Segment(0.5, 99.0))  # jump
    with pytest.raises(ValueError):
        signal_of(-1.0, Segment(0.0, 0.0))


@pytest.mark.parametrize("T", [0, 0.0, -1, -1.0, math.inf, math.nan, "1", "1.0", 10**400])
def test_horizon_refused(T):
    with pytest.raises(ValueError, match="horizon"):
        signal_of(T, Segment(0.0, 0.0))


@pytest.mark.parametrize("T", [1, 3, 0.4, np.float64(2.5), np.int64(2), np.float32(0.5)])
def test_horizon_any_positive_real_stored_as_float(T):
    f = signal_of(T, Segment(0.0, 0.0, 1.0))
    assert type(f.T) is float and f.T == float(T)
    assert type(zero(T).T) is float


def test_int_horizon_generators():
    f = random_walk(1, 3, 40, 0.4)
    assert f == random_walk(1.0, 3, 40, 0.4)
    assert type(f.T) is float


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("coef", ["c0", "c1", "c2"])
@pytest.mark.parametrize("where", [0, 2])
def test_non_finite_coefficients_refused(bad, coef, where):
    segs = [Segment(0.0, 0.0, 1.0), Segment(0.5, 0.5), Segment(0.75, 0.5, -1.0)]
    segs[where] = Segment(**{**vars(segs[where]), coef: bad})
    with pytest.raises(ValueError, match="non-finite"):
        signal_of(1.0, *segs)


def test_evaluate_matches_linear_scan():
    for f in (random_walk(1.0, 6, 50, 0.5), integrate(random_walk(3.0, 7, 20, 0.5))):
        ends = [s.t0 for s in f.segments[1:]] + [f.T]
        for i, seg in enumerate(f.segments):
            mid = 0.5 * (seg.t0 + ends[i])
            for t in (seg.t0, mid):
                # the last segment whose start is at or before t
                scan = [s for s in f.segments if s.t0 <= t][-1]
                assert evaluate(f, t) == scan.value(t)
        assert evaluate(f, f.T) == f.segments[-1].value(f.T)


def test_continuity_tolerance_scales_with_magnitude():
    # one ulp of joint drift at magnitude 1e6 used to fail an absolute 1e-12
    f = random_walk(1.0, 3, 50, 1e6)
    g = scale(random_walk(1.0, 3, 50, 1.0), 1e6)
    for h in (f, g):
        eta = sod_sample(h, 2.0 ** 17)
        assert len(eta) > 0
        assert sod_sample(reconstruct(eta), 2.0 ** 17) == eta
        assert lc_sample(reconstruct(eta), 2.0 ** 17) == eta
    with pytest.raises(ValueError):
        signal_of(1.0, Segment(0.0, 1e6, 1e6), Segment(0.5, 1.5e6 + 1.0))


def test_continuity_tolerance_scales_with_the_piece():
    # a 1e9 fall ending at 0 evaluates the joint to one ulp of 1e9, not 0
    f = pwl_from_points(1.0, [0.0, 0.472, 0.525], [0.0, 1e9, 0.0])
    assert f.segments[-1].c0 == 0.0
    eta = sod_sample(f, 2.5e8)
    assert sod_sample(reconstruct(eta), 2.5e8) == eta
    assert lc_sample(reconstruct(eta), 2.5e8) == eta
    # a joint that misses by 1e-11 of the piece's size is still a jump
    rise, fall = f.segments[:2]
    for miss in (1e-11, -1e-11):
        with pytest.raises(ValueError, match="discontinuity at t=0.525"):
            signal_of(1.0, rise, fall, Segment(0.525, fall.value(0.525) + miss * 1e9))


def test_pwl_from_points_validation():
    with pytest.raises(ValueError):
        pwl_from_points(1.0, [0.1, 0.5], [0.0, 1.0])
    with pytest.raises(ValueError):
        pwl_from_points(1.0, [0.0, 0.5, 0.5], [0.0, 1.0, 2.0])


def test_pwl_from_points_compares_its_knots_with_the_float_horizon():
    # float(10**20 + 1) is 1e20: the last knot is at the stored horizon
    f = pwl_from_points(10**20 + 1, [0.0, 1e20], [0.0, 2.0])
    assert _packed(f) == _packed(pwl_from_points(1e20, [0.0, 1e20], [0.0, 2.0]))


def _packed(f):
    """T and the four columns as their doubles' bytes."""
    return struct.pack(f"<{1 + 4 * len(f.t0)}d", f.T, *f.t0, *f.c0, *f.c1, *f.c2)


def test_json_roundtrip_bit_faithful(tmp_path):
    # == takes -0.0 for 0.0: the second signal's bits tell them apart
    for f in (random_walk(1.0, 99, 11, 0.37),
              signal_of(1.0, Segment(0.0, -0.0, 4e-320, -0.0), Segment(0.5, 2e-320, -5e-324))):
        path = tmp_path / "sig.json"
        save_signal(path, f)
        g = load_signal(path)
        assert g.T == f.T and g.segments == f.segments
        assert _packed(g) == _packed(f)
        # a second dump is byte-identical
        text = json.dumps(signal_to_dict(g), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == text


def _assert_saved_as_json_dumps(tmp_path, f):
    path = tmp_path / "sig.json"
    save_signal(path, f)
    text = path.read_bytes().decode()
    assert text == json.dumps(signal_to_dict(f), indent=2, sort_keys=True) + "\n"
    for token in ("inf", "nan", "Infinity", "NaN"):
        assert token not in text


@st.composite
def signals_to_save(draw):
    T = 2.0 ** draw(st.integers(-30, 20)) * draw(st.floats(0.5, 1.0))
    try:
        f = random_walk(T, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 30)),
                        10.0 ** draw(st.floats(-300.0, 300.0)))
    except ValueError as exc:
        # a huge amplitude over a tiny horizon overflows a slope, and the
        # walk is refused: that draw is no signal to save
        if "past the float range" not in str(exc):
            raise
        reject()
    return integrate(f) if draw(st.booleans()) and diameter_norm(f) < 1e300 else f


@pytest.mark.parametrize("T, n_breaks, amplitude", [
    (1.5e-8, 3, 1e300),      # the slopes overflow
    (1e10, 100, 1e307),      # the walk's values overflow
])
def test_random_walk_refuses_an_amplitude_past_the_float_range(T, n_breaks, amplitude):
    with pytest.raises(ValueError) as err:
        random_walk(T, 0, n_breaks, amplitude)
    msg = str(err.value)
    assert f"amplitude {amplitude!r}" in msg
    assert f"n_breaks={n_breaks}" in msg
    assert f"horizon T={T!r}" in msg


def test_random_walk_keeps_a_large_amplitude_inside_the_float_range():
    f = random_walk(1.5e-8, 0, 3, 1e290)
    assert all(math.isfinite(s.c1) for s in f.segments)


@given(signals_to_save())
@settings(max_examples=100, deadline=None)
def test_save_signal_writes_json_dumps_bytes(tmp_path_factory, f):
    _assert_saved_as_json_dumps(tmp_path_factory.mktemp("save"), f)


@pytest.mark.parametrize("f", [
    zero(1.0),
    signal_of(2.0, Segment(0.0, 0.0, 1.0, 0.5)),
    integrate(random_walk(1.0, 8, 6, 0.5)),
    signal_of(1.0, Segment(0.0, -0.0, -0.0, -0.0)),
    signal_of(1.0, Segment(0.0, 0.0, 4e-320), Segment(0.5, 2e-320, -5e-324)),
    signal_of(1.0, Segment(0.0, 1e300, -1e300, 1e300)),
    scale(random_walk(1.0, 9, 5, 0.5), np.float64(1.5)),
    signal_of(3, Segment(0, 0, 1), Segment(1, 1, 0, -1)),
    # both zeros in one column: equal as dict keys, written apart
    signal_of(1.0, Segment(0.0, 0.0, 1.0, -0.0), Segment(0.5, 0.5, -0.0, 0.0)),
])
def test_save_signal_edge_cases(tmp_path, f):
    _assert_saved_as_json_dumps(tmp_path, f)


@pytest.mark.parametrize("text", ['{"T": 1.0, "segments": [{"t": 0.0}]}',
                                  '{"T": 1.0, ', '{"T": -1.0, "segments": []}'])
def test_load_signal_malformed_names_the_path(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_signal(path)


def test_signal_from_dict_malformed():
    with pytest.raises(ValueError):
        signal_from_dict({"T": 1.0, "segments": [{"t": 0.0}]})
    seg = {"t": 0, "c0": 10**400, "c1": 0, "c2": 0}
    with pytest.raises(ValueError, match="too large"):
        signal_from_dict({"T": 1, "segments": [seg]})
    with pytest.raises(ValueError, match='field "c2" must be a number, got null'):
        signal_from_dict({"T": 1, "segments": [{**seg, "c0": 0, "c2": None}]})


def test_signal_from_dict_takes_json_ints_as_floats():
    f = signal_from_dict({"T": 2, "segments": [{"t": 0, "c0": 1, "c1": -1, "c2": 0}]})
    assert f == signal_of(2.0, Segment(0.0, 1.0, -1.0, 0.0))
    assert all(type(x) is float for x in (f.T, *f.t0, *f.c0, *f.c1, *f.c2))


def test_subtract_pointwise():
    f = random_walk(1.0, 3, 6, 0.5)
    g = random_walk(1.0, 4, 8, 0.5)
    d = subtract(f, g)
    for t in np.linspace(0.0, 1.0, 101):
        t = float(t)
        assert d(t) == pytest.approx(f(t) - g(t), abs=1e-12)


# --- the columns against the piece-by-piece oracles -------------------------

def _bits(f: Signal):
    """T and the four columns as float.hex strings, so that -0.0 and 0.0
    differ."""
    return (f.T.hex(), *(tuple(map(float.hex, col)) for col in (f.t0, f.c0, f.c1, f.c2)))


@st.composite
def column_signals(draw, T):
    """A signal on [0, T] with amplitude 1e-9..1e9: a random walk of 1..12
    pieces, its antiderivative divided by T (quadratic pieces), or either
    scaled by a signed zero."""
    amplitude = 10.0 ** draw(st.floats(-9.0, 9.0))
    f = random_walk(T, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)), amplitude)
    if draw(st.booleans()):
        f = scale_segmentwise(integrate_segmentwise(f), 1.0 / T)
    if draw(st.integers(0, 3)) == 0:
        f = scale_segmentwise(f, draw(st.sampled_from((0.0, -0.0))))
    return f


@st.composite
def column_cases(draw):
    """(f, g, lam): two signals on one horizon 2^-31..2^20 and a factor."""
    T = 2.0 ** draw(st.integers(-30, 20)) * draw(st.floats(0.5, 1.0))
    lam = draw(st.sampled_from((-0.0, 0.0, -1.0, 0.5, 3.0)) | st.floats(-1e3, 1e3))
    return draw(column_signals(T)), draw(column_signals(T)), lam


def _bits_or_refusal(make):
    """The bits of the signal `make()` returns, or the type and message of
    the ValueError it raises."""
    try:
        return _bits(make())
    except ValueError as exc:
        return type(exc), str(exc)


@given(column_cases())
@settings(max_examples=300, deadline=None)
def test_columns_match_the_segmentwise_oracles_bit_for_bit(case):
    f, g, lam = case
    for h in (f, g):
        validate_segmentwise(h.T, tuple(h.segments))
    assert _bits(scale(f, lam)) == _bits(scale_segmentwise(f, lam))
    # a sum that cancels a joint below its operands' rounding is refused, by
    # the oracle and the library alike (near-equal walks in subtract)
    total = _bits_or_refusal(lambda: add(f, g))
    assert total == _bits_or_refusal(lambda: add_segmentwise(f, g))
    assert _bits_or_refusal(lambda: subtract(f, g)) == _bits_or_refusal(
        lambda: add_segmentwise(f, scale_segmentwise(g, -1.0)))
    for h in (f,) if isinstance(total[0], type) else (f, add(f, g)):  # refused: (type, message)
        assert diameter_norm(h).hex() == diameter_norm_segmentwise(h).hex()
    for h in (f, g):
        if h.is_linear():
            assert _bits(integrate(h)) == _bits(integrate_segmentwise(h))
    ends = f.t0[1:] + (f.T,)
    for t in (*f.t0, *(0.5 * (a + b) for a, b in zip(f.t0, ends)), f.T):
        assert evaluate(f, t).hex() == evaluate_segmentwise(f, t).hex()


@st.composite
def knot_cases(draw):
    """(T, times, values): 1..12 knots from a signed zero, the last at or
    before T, with values of magnitude up to 1e-9..1e9 and signed zeros."""
    T = 2.0 ** draw(st.integers(-30, 20))
    n = draw(st.integers(1, 12))
    fracs = sorted(draw(st.lists(st.floats(1e-9, 1.0), min_size=n - 1, max_size=n - 1,
                                 unique=True)))
    times = [draw(st.sampled_from((0.0, -0.0))), *(T * x for x in fracs)]
    amplitude = 10.0 ** draw(st.floats(-9.0, 9.0))
    values = draw(st.lists(st.floats(-amplitude, amplitude) | st.sampled_from((0.0, -0.0)),
                           min_size=n, max_size=n))
    return T, times, values


@given(knot_cases())
@settings(max_examples=300, deadline=None)
def test_pwl_from_points_matches_the_segmentwise_oracle_bit_for_bit(case):
    T, times, values = case
    if len(set(times)) < len(times):  # two knots rounded onto one time
        reject()
    assert _bits(pwl_from_points(T, times, values)) == _bits(
        pwl_from_points_segmentwise(T, times, values))


@st.composite
def single_faults(draw):
    """(T, t0, c0, c1, c2): a valid signal of 2..12 pieces with exactly one
    fault put in: a non-finite coefficient, a start not above the one
    before it (or a first start off 0), a start at or past T (T lowered
    below the last starts, or one start moved there), or a joint value
    moved off the left piece's end."""
    T = 2.0 ** draw(st.integers(-30, 20))
    amplitude = 10.0 ** draw(st.floats(-9.0, 9.0))
    f = random_walk(T, draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 12)), amplitude)
    if draw(st.booleans()):
        f = integrate(f)
    t0, c0, c1, c2 = (list(col) for col in (f.t0, f.c0, f.c1, f.c2))
    n = len(t0)
    fault = draw(st.sampled_from(("non_finite", "start", "horizon", "joint")))
    if fault == "non_finite":
        col = draw(st.sampled_from((c0, c1, c2)))
        col[draw(st.integers(0, n - 1))] = draw(st.sampled_from((math.inf, -math.inf,
                                                                 math.nan)))
    elif fault == "start":
        i = draw(st.integers(0, n - 1))
        t0[i] = (t0[i - 1] * draw(st.floats(0.0, 1.0)) if i
                 else T * draw(st.floats(1e-9, 1.0)))
    elif fault == "horizon" and draw(st.booleans()):
        T = t0[-1] * draw(st.floats(2.0 ** -10, 1.0))
    elif fault == "horizon":
        t0[draw(st.integers(1, n - 1))] = T * draw(st.floats(1.0, 2.0) | st.just(math.inf))
    else:
        i = draw(st.integers(1, n - 1))
        u = t0[i] - t0[i - 1]
        size = max(1.0, abs(c0[i - 1]), abs(c1[i - 1] * u), abs(c2[i - 1] * u * u),
                   abs(c0[i]))
        c0[i] += draw(st.sampled_from((1.0, -1.0))) * size * 2.0 ** -draw(st.integers(2, 30))
    return T, t0, c0, c1, c2


@given(single_faults())
@settings(max_examples=300, deadline=None)
def test_single_faults_raise_the_segmentwise_message(case):
    T, *cols = case
    with pytest.raises(ValueError) as ref:
        validate_segmentwise(T, tuple(map(Segment, *cols)))
    with pytest.raises(ValueError) as got:
        Signal(T, *cols)
    assert str(got.value) == str(ref.value)


def test_a_joint_miss_gets_one_verdict_at_every_scale():
    # 9e-13 is 1.8e-12 of the joint's size 0.5: refused, as the same signal
    # scaled by 2 is (an absolute floor of 1e-12 once passed the first)
    cols = ((0.0, 0.5), (0.0, 0.5 + 9e-13), (1.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match=re.escape("discontinuity at t=0.5: 0.5 vs 0.5000000000009")):
        Signal(1.0, *cols)
    doubled = (cols[0], *([2.0 * c for c in col] for col in cols[1:]))
    with pytest.raises(ValueError, match=re.escape("discontinuity at t=0.5: 1.0 vs 1.0000000000018")):
        Signal(1.0, *doubled)


def test_the_float_format_floor_excuses_subnormal_misses_only():
    # a step of 5 is refused on any piece, also one 1e308 long
    with pytest.raises(ValueError, match=re.escape("discontinuity at t=1e+308: 0.0 vs 5.0")):
        Signal(1.5e308, (0.0, 1e308), (0.0, 5.0), (0.0, 0.0), (0.0, 0.0))
    # scaling by 1e-310 rounds c2 = 1e-16 to 0, so the joint misses by
    # 1e-310, the rounding's 1e-326 times u^2 = 1e16: a subnormal miss
    f = Signal(2e8, (0.0, 1e8), (0.0, 1.0), (0.0, 2e-8), (1e-16, 0.0))
    h = scale(f, 1e-310)
    assert h.c2 == (0.0, 0.0) and h.c0[1] == 1e-310
    validate_segmentwise(h.T, tuple(h.segments))


def test_a_joint_whose_terms_overflow_is_refused():
    # a step of 5 at t = 1e160: the left end overflows to inf, or its terms
    # c1*u and c2*u^2 do while the end is 0.0; an infinite bound passes nothing
    for c1, left in ((0.0, "inf"), (-1e150, "0.0")):
        cols = (1e200, (0.0, 1e160), (0.0, 5.0), (c1, 0.0), (1e-10, 0.0))
        message = f"discontinuity at t=1e+160: {left} vs 5.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            Signal(*cols)
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_segmentwise(cols[0], tuple(map(Segment, *cols[1:])))


@st.composite
def near_miss_cases(draw):
    """(T, t0, c0, c1, c2, theta): the columns of a signal from the
    cross-scale or the column strategies, anchored at f(0) = 0, with a
    threshold on its scale; in half the cases one piece's start is moved
    off its joint by r * STRUCT_TOL times the joint's largest term, with r
    near 1, so the joint lies just inside or just outside the tolerance."""
    if draw(st.booleans()):
        f, _, theta = draw(cross_scale_inputs())
    else:
        f = draw(column_cases())[0]
        theta = diameter_norm(f) / draw(st.floats(1.0, 64.0)) or 1.0
    t0, c0, c1, c2 = (list(col) for col in (f.t0, f.c0, f.c1, f.c2))
    if len(t0) > 1 and draw(st.booleans()):
        i = draw(st.integers(1, len(t0) - 1))
        u = t0[i] - t0[i - 1]
        a, b, c = c0[i - 1], c1[i - 1], c2[i - 1]
        left = a + u * (b + u * c)
        size = max(abs(left), abs(c0[i]), abs(a), abs(b * u), abs(c * u * u))
        r = draw(st.floats(0.9, 1.1))
        c0[i] = left + draw(st.sampled_from((r, -r))) * STRUCT_TOL * size
    return f.T, t0, c0, c1, c2, theta


def _verdict(T, *cols):
    """None if `Signal` accepts the columns, else its message up to the
    values (which scale with the signal)."""
    try:
        Signal(T, *cols)
    except ValueError as exc:
        return str(exc).partition(":")[0]
    return None


@given(near_miss_cases())
@settings(max_examples=200, deadline=None)
def test_validity_is_homogeneous_under_powers_of_two(case):
    # the joint rule is relative to the joint's terms, so scaling by 2^j,
    # exact while every coefficient stays a normal float, keeps the verdict
    # (the floor for subnormal misses acts only on joints below 2e-296,
    # which the strategies do not reach); homogeneity_check scales a valid
    # f by 2^j through `scale`
    T, t0, c0, c1, c2, theta = case
    verdict = _verdict(T, t0, c0, c1, c2)
    f = Signal(T, t0, c0, c1, c2) if verdict is None else None
    for j in range(-40, 41):
        s = 2.0 ** j
        cols = [[s * x for x in col] for col in (c0, c1, c2)]
        if not all(x == 0.0 or sys.float_info.min <= abs(x) < math.inf
                   for col in cols for x in col):
            continue
        assert _verdict(T, t0, *cols) == verdict
        if f is not None:
            assert homogeneity_check(f, theta * s, theta)


@pytest.mark.parametrize("bad", ["0.5", None, b"1"])
@pytest.mark.parametrize("where", [0, 1])
@pytest.mark.parametrize("col", range(4))
def test_a_column_entry_that_is_no_real_number_is_refused(bad, where, col):
    cols = [[0.0, 0.5], [0.0, 0.5], [1.0, 0.0], [0.0, 0.0]]
    cols[col][where] = bad
    with pytest.raises(TypeError):
        Signal(1.0, *cols)


def test_an_entry_that_is_no_real_number_is_refused_after_a_non_finite_one():
    # every entry is read before any is converted: the "0.7" is not parsed
    with pytest.raises(TypeError):
        Signal(1.0, (0.0, math.inf, "0.7"), (0.0,) * 3, (0.0,) * 3, (0.0,) * 3)


# The other constructors of float columns, each from a times and a values column.
_TWO_COLUMN_MAKERS = {
    "EventSequence": lambda times, values: EventSequence(1.0, times, values),
    "DenseEvents": lambda times, values: DenseEvents(1.0, times, values),
    "from_pairs": lambda times, values: from_pairs(1.0, list(zip(times, values))),
    "pwl_from_points": lambda times, values: pwl_from_points(1.0, times, values),
}


@pytest.mark.parametrize("bad", ["0.5", None, b"1"])
@pytest.mark.parametrize("where", [0, 1])
@pytest.mark.parametrize("col", range(2))
@pytest.mark.parametrize("make", _TWO_COLUMN_MAKERS)
def test_an_event_or_knot_entry_that_is_no_real_number_is_refused(make, bad, where, col):
    cols = [[0.0, 0.5], [1.0, -1.0]]
    _TWO_COLUMN_MAKERS[make](*cols)  # valid as given
    cols[col][where] = bad
    with pytest.raises(TypeError):
        _TWO_COLUMN_MAKERS[make](*cols)


def test_columns_are_float_tuples_after_construction():
    f = Signal(np.int64(3), [0, 1], (0, np.float32(1.0)), np.array([1, 0]), (False, -1))
    for col in (f.t0, f.c0, f.c1, f.c2):
        assert type(col) is tuple and all(type(x) is float for x in col)
    assert f == signal_of(3.0, Segment(0.0, 0.0, 1.0), Segment(1.0, 1.0, 0.0, -1.0))


def _spelled(values):
    """Entries drawn from `values`, each as given or as a numpy scalar:
    np.int64 where it holds the int, np.float64 or np.float32 otherwise
    (float32 rounds the value, which is then the entry's value)."""
    def spell(x, wrap):
        if wrap is np.int64:
            return np.int64(x) if type(x) is int and -2**63 <= x < 2**63 else x
        return x if wrap is None or type(x) is bool else wrap(x)
    return st.builds(spell, values, st.sampled_from((None, np.int64, np.float64, np.float32)))


# Starts near 2^53 and 10^20, where consecutive ints round to one float.
_LONG_INTS = st.integers(2**53 - 2, 2**53 + 6) | st.integers(10**20 - 3, 10**20 + 3)


@st.composite
def mixed_columns(draw):
    """(T, t0, c0, c1, c2) with entries of mixed types: floats, ints (long
    ones among them, which float() rounds), numpy scalars and bools.  The
    starts are sorted by exact value, so two that round to one float may
    both be there; each c0 after the first is the left piece's end in
    floats, written as an int where it is integral."""
    zeros = st.sampled_from((0, 0.0, -0.0, False, np.int64(0), np.float64(0.0)))
    later = _spelled(st.integers(1, 10**6) | st.floats(1e-3, 1e6) | _LONG_INTS | st.just(True))
    starts = draw(st.lists(later, max_size=6))
    t0 = [draw(zeros), *sorted(starts, key=lambda x: (float(x), int(x)))]
    last = float(t0[-1])
    T = draw(_spelled(st.integers(1, 4).map(lambda k: int(last) + k)
                      | st.floats(1.0, 2.0).map(lambda s: s * last + 1.0)))
    coef = _spelled(st.integers(-3, 3) | st.floats(-10.0, 10.0) | st.booleans())
    c1, c2 = ([draw(coef) for _ in t0] for _ in "12")
    c0 = [draw(coef)]
    for i in range(len(t0) - 1):
        u = float(t0[i + 1]) - float(t0[i])
        end = float(c0[i]) + u * (float(c1[i]) + u * float(c2[i]))
        c0.append(int(end) if draw(st.booleans()) and end == int(end) else end)
    return T, t0, c0, c1, c2


def _message(T, *cols):
    """None if `Signal` accepts the columns, else its message."""
    try:
        Signal(T, *cols)
    except ValueError as exc:
        return str(exc)
    return None


@given(mixed_columns())
@settings(max_examples=150, deadline=None)
def test_a_stored_signal_is_accepted_again_from_its_own_columns(case):
    # every check reads the stored floats: the entries and their floats get
    # one verdict, and a signal rebuilt from its columns has the same bits
    T, *cols = case
    floats = [list(map(float, col)) for col in cols]
    message = _message(T, *cols)
    assert message == _message(float(T), *floats)
    if message is None:
        f = Signal(T, *cols)
        assert _packed(Signal(f.T, f.t0, f.c0, f.c1, f.c2)) == _packed(f)
        assert _packed(Signal(float(T), *floats)) == _packed(f)


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="equal lengths"):
        Signal(1.0, (0.0, 0.5), (0.0, 0.5), (1.0,), (0.0, 0.0))


def test_segments_view():
    f = integrate(random_walk(1.0, 4, 5, 0.5))
    view = f.segments
    assert len(view) == 5
    assert view[0] == Segment(f.t0[0], f.c0[0], f.c1[0], f.c2[0])
    assert view[-1] == Segment(f.t0[-1], f.c0[-1], f.c1[-1], f.c2[-1])
    assert view[1:3] == tuple(view)[1:3] and type(view[1:3]) is tuple
    assert list(view) == [view[i] for i in range(5)]
    assert view == tuple(view) and view == integrate(random_walk(1.0, 4, 5, 0.5)).segments
    assert view != random_walk(1.0, 4, 5, 0.5).segments


def test_no_production_path_builds_a_segment(monkeypatch, tmp_path):
    built = []
    init = Segment.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Segment, "__init__", counting_init)
    f = random_walk(1.0, 5, 12, 0.4)
    g = pwl_from_points(1.0, [0.0, 0.3, 1.0], [0.0, 0.2, -0.1])
    for theta in (0.05, 2.0 ** -6):
        eta = sod_sample(f, theta)
        assert sod_sample(reconstruct(eta), theta) == eta
        assert lc_sample(reconstruct(eta), theta) == eta
        lc_sample(f, theta)
        if_sample(f, theta)
        assert homogeneity_check(f, theta, 2.0 * theta)
    h = subtract(add(f, g), scale(g, 2.0))
    diameter_norm(h)
    evaluate(integrate(h), 0.5)
    assert len(h.segments) == len(h.t0)
    path = tmp_path / "h.json"
    save_signal(path, h)
    assert load_signal(path) == h
    corpus = make_qi_corpus(3, 1)
    qi_verify(corpus, 0.1)
    emdm_sweep(f, "D", [0.25, 0.2])
    left_continuity_probe(f, 0.25, n_steps=3)
    generate("ramp_plateau", 1.0)
    sine_pwl(2.0, 8)
    zero(1.0)
    assert built == []
    h.segments[0]  # the view builds its element, and the counter sees it
    assert len(built) == 1
