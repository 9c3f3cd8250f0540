import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodlab import analysis
from sodlab.analysis import (
    SPIKE_METRICS,
    _qi_fit,
    certify_norm,
    emdm_characterize,
    emdm_sweep,
    left_continuity_probe,
    make_metric,
    make_qi_corpus,
    qi_verify,
)
from sodlab.events import difference, from_pairs
from sodlab.cli import distance, emdm
from sodlab.norms import NORM_KINDS, norm_by_kind
from sodlab.sampler import reconstruct, sod_sample
from sodlab.signals import (
    Segment,
    Signal,
    diameter_norm,
    pwl_from_points,
    random_walk,
    sine_pwl,
    subtract,
    zero,
)
from sodlab.trains import (
    alternating_train,
    equidistant_alternating,
    mmsn_train,
    positive_train,
    random_unit_train,
)

from oracles import (
    comb_signal,
    local_max_signal,
    qi_corpus_eager,
    qi_fit_loop,
    schreiber_conflation_witness,
    signal_of,
    transcription_sweep_compact,
)


def unit_ramp(T=1.0):
    return signal_of(T, Segment(0.0, 0.0, 1.0))


# random_walk(SHORT_T, ...) is the unit-horizon walk with time scaled by
# SHORT_T exactly, so time tolerances relative to T give identical results.
SHORT_T = 2.0 ** -30


# Every spelling norms.canonical_kind used to fold onto a norm tag.
FORMER_NORM_ALIASES = ("d", "discrepancy", "a", "alexiewicz", "m", "max_max_sum", "mms")


def _choices(command, name):
    (option,) = [p for p in command.params if p.name == name]
    return option.type.choices


class TestMetricFactory:
    def test_norm_metrics(self):
        m = make_metric("D")
        a = alternating_train(4)
        b = alternating_train(4, start=-1)
        assert m.is_norm and m.kind == "D"
        assert m(a, a) == 0.0
        assert m(a, b) == 2.0

    @pytest.mark.parametrize("alias", sorted(
        {*FORMER_NORM_ALIASES, *map(str.upper, FORMER_NORM_ALIASES), *NORM_KINDS,
         "Discrepancy"}))
    def test_every_norm_alias(self, alias):
        # of the spellings once folded onto a norm tag, only the tags resolve
        if alias not in NORM_KINDS:
            with pytest.raises(ValueError, match="unknown metric kind"):
                make_metric(alias)
            return
        m = make_metric(alias)
        a = alternating_train(4)
        b = from_pairs(1.0, [(0.5, 1.0)])
        assert m.is_norm and m.kind == alias
        assert m(a, b) == norm_by_kind(alias)(difference(a, b))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_metric("hausdorff")

    @pytest.mark.parametrize("name", sorted(
        {*_choices(distance, "metric"), *_choices(emdm, "metric")}))
    def test_every_cli_metric_choice_resolves(self, name):
        m = make_metric(name)
        assert m.is_norm == (name in NORM_KINDS)
        assert m.kind == (name if m.is_norm else SPIKE_METRICS[name][0])

    @pytest.mark.parametrize("name", ["d", "discrepancy", "Max_Max_Sum",
                                      "van_rossum", "VR"])
    def test_former_spellings_are_refused(self, name):
        with pytest.raises(ValueError, match="unknown metric kind"):
            make_metric(name)

    def test_norm_kind_takes_no_parameters(self):
        with pytest.raises(ValueError, match="takes no parameters"):
            make_metric("D", alpha=1.0)

    def test_spike_metric_parameters_reach_the_params_class(self):
        with pytest.raises(TypeError):
            make_metric("vr", s=2.0)
        assert make_metric("vr").params == {"alpha": 1.0}
        assert make_metric("vp", s=2.0).params == {"s": 2.0, "mode": "combined"}


class TestEmdmSweep:
    def test_monotone_ramp_is_zero_for_every_metric(self):
        f = unit_ramp()
        for kind in ("D", "A", "M"):
            res = emdm_sweep(f, kind, [0.3, 0.22])
            assert res.lambda_estimate == 0.0
        res = emdm_sweep(f, make_metric("vr", alpha=1.0), [0.3])
        assert res.lambda_estimate == 0.0

    def test_local_max_critical_threshold(self):
        f = local_max_signal(0.25)
        res = emdm_sweep(f, "D", [0.25])
        assert res.lambda_estimate == 1.0

    def test_local_max_van_rossum_positive_bounded(self):
        f = local_max_signal(0.25)
        res = emdm_sweep(f, make_metric("vr", alpha=1.0), [0.25])
        assert 0.0 < res.lambda_estimate <= f.T

    def test_comb_stays_on_unit_sphere(self):
        f = comb_signal(4, 0.25)
        for kind in ("D", "A"):
            res = emdm_sweep(f, kind, [0.25, 0.2])
            assert res.lambda_estimate <= 1.0 + 1e-9

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            emdm_sweep(unit_ramp(), "D", [])

    @pytest.mark.parametrize("theta", [True, "0.25", 0, math.nan, math.inf])
    def test_rejects_a_threshold_that_is_not_a_positive_real(self, theta):
        with pytest.raises(ValueError, match="threshold must be a positive finite number"):
            emdm_sweep(unit_ramp(), "D", [0.25, theta])

    def test_short_horizon_matches_unit_horizon(self):
        for seed in range(10):
            unit = emdm_sweep(random_walk(1.0, seed, 12, 0.4), "D", [0.1, 0.05])
            short = emdm_sweep(random_walk(SHORT_T, seed, 12, 0.4), "D", [0.1, 0.05])
            assert short.per_theta == unit.per_theta


    @pytest.mark.parametrize("seed", range(1, 6))
    def test_values_scale_exactly_with_time(self, seed):
        # on a horizon s = 4^j both samples are the unit horizon's times s,
        # so van Rossum at alpha = 1/s is sqrt(s) times its unit value and
        # D is unchanged, exactly.  A walk passes every level it reaches,
        # so its gaps are 0; the reconstruction of its sample at 0.25 has
        # every extremum on a level, so its gaps are not.
        grid = (0.2, 0.25, 0.3)

        def signals(s):
            walk = random_walk(s, seed, 40, 0.4)
            return walk, reconstruct(sod_sample(walk, 0.25))

        for k, unit in enumerate(signals(1.0)):
            unit_vr = emdm_sweep(unit, make_metric("vr"), grid).per_theta
            unit_d = emdm_sweep(unit, "D", grid).per_theta
            assert (unit_vr[1].value > 0.0) == (k == 1)
            for s in (2.0 ** 20, 2.0 ** -20):
                f = signals(s)[k]
                vr = emdm_sweep(f, make_metric("vr", alpha=1.0 / s), grid).per_theta
                assert [p.value for p in vr] == [math.sqrt(s) * p.value for p in unit_vr]
                assert emdm_sweep(f, "D", grid).per_theta == unit_d

    @pytest.mark.parametrize("metric", ["vr", "D"])
    def test_a_walk_passing_a_level_by_6e_6_theta_has_no_gap(self, metric):
        # the walk's minimum -0.30000062 passes the level -3 theta = -0.3
        # strictly, so the right limit keeps that event: the gap is 0
        f = random_walk(1.0, 6, 12, 0.4)
        res = emdm_sweep(f, make_metric(metric), [0.1, 0.05])
        assert [p.value for p in res.per_theta] == [0.0, 0.0]
        assert res.lambda_estimate == 0.0

    def test_integrate_and_fire_vertex_touch_is_one(self):
        # t - t^2 / 2 touches its maximum 0.5 = 2 * 0.25 = 4 * 0.125 at its
        # vertex t = 1: the right limit drops that event and one after it,
        # which are one unit of D apart, the unit sphere's sup
        f = Signal(2.0, (0.0,), (0.0,), (1.0,), (-0.5,))
        res = emdm_sweep(f, "D", [0.25, 0.125])
        assert [p.value for p in res.per_theta] == [1.0, 1.0]

    def test_touches_on_both_sides_put_d_at_two(self):
        # each touch of an outward level drops that event and the one that
        # returns to the level before it, an adjacent pair (+, -) for an up
        # level and (-, +) for a down level; with both kinds the prefix
        # walk of the difference spans 2.  f touches 0.5 and then -0.5.
        f = pwl_from_points(4.0, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
                            [0.0, 0.25, 0.5, 0.25, 0.0, -0.25, -0.5, -0.25])
        assert emdm_sweep(f, "D", [0.25]).lambda_estimate == 2.0
        assert emdm_sweep(f, "D", [0.125]).lambda_estimate == 2.0

    def test_schreiber_is_refused(self):
        with pytest.raises(ValueError, match="^the Schreiber similarity has no distance"):
            emdm_sweep(random_walk(1.0, 3, 40, 0.4), "schreiber", [0.2])


class TestEmdmCharacterize:
    def test_discrepancy_and_alexiewicz_are_exactly_one(self):
        assert emdm_characterize("D", n_max=200).value == 1.0
        assert emdm_characterize("A", n_max=200).value == 1.0

    def test_max_max_sum_is_one(self):
        assert emdm_characterize("M", n_max=100).value == 1.0

    def test_every_norm_is_one_on_every_alternating_train(self):
        # the identity a norm's characterization rests on: an alternating
        # unit train's prefix walk visits only 0 and +-1
        trains = [alternating_train(n, start=start)
                  for n in range(1, 201) for start in (1, -1)]
        for kind in NORM_KINDS:
            normf = norm_by_kind(kind)
            assert {normf(eta) for eta in trains} == {1.0}, kind
            # no train is built: a horizon too large for one still reads 1
            assert emdm_characterize(kind, T=1e308).value == 1.0

    def test_a_norm_is_checked_for_n_max_then_kind_then_horizon(self):
        unknown = analysis.EventMetric("X", lambda a, b: 0.0, True)
        with pytest.raises(ValueError, match="^n_max must be an integer >= 1"):
            emdm_characterize(unknown, n_max=0, T=0.0)
        with pytest.raises(ValueError, match="^unknown norm kind 'X'"):
            emdm_characterize(unknown, T=0.0)
        with pytest.raises(ValueError, match="^horizon must be a positive finite number"):
            emdm_characterize("D", T=0.0)

    def test_characterization_dominates_sweeps(self):
        char = emdm_characterize("D").value
        for f in (unit_ramp(), local_max_signal(0.25), comb_signal(3, 0.25)):
            res = emdm_sweep(f, "D", [0.25, 0.2])
            assert res.lambda_estimate <= char + 1e-9

    def test_van_rossum_growth_bounds(self):
        alpha = 1.0
        for T in (10.0, 20.0, 40.0):
            m = make_metric("vr", alpha=alpha)
            res = emdm_characterize(m, n_max=400, T=T, deltas=(0.5,))
            row = res.growth_table[0]
            delta = row["delta"]
            kappa = math.exp(-2 * alpha * delta) * (1 - math.exp(-alpha * delta)) ** 2
            assert kappa * T - 1e-9 <= row["energy"] <= T + 1e-9

    def test_van_rossum_growth_monotone_in_T(self):
        m = make_metric("vr", alpha=1.0)
        values = [emdm_characterize(m, n_max=400, T=T, deltas=(0.5,)).value
                  for T in (10.0, 20.0, 40.0)]
        assert values == sorted(values)

    def test_victor_purpura_growth_table(self):
        m = make_metric("vp", s=1.0)
        res = emdm_characterize(m, n_max=64, T=8.0)
        assert all(row["distance"] > 0.0 for row in res.growth_table)

    @pytest.mark.parametrize("T, n_max", [(0.9, 7), (0.9, 28), (0.1, 11), (0.1, 22)])
    def test_growth_trains_end_inside_a_horizon_that_n_times_T_over_n_rounds_past(
            self, T, n_max):
        assert n_max * (T / n_max) > T
        res = emdm_characterize(make_metric("vr", alpha=1.0), n_max=n_max, T=T)
        for row in res.growth_table:
            assert row["T"] == T and row["n"] * row["delta"] <= T

    @pytest.mark.parametrize("deltas, message", [
        ((5.0,), "delta 5.0 puts no event on the horizon T = 1.0: round(T / delta) is 0"),
        ((0.5, 2.5), "delta 2.5 puts no event on the horizon T = 1.0"),
        ((-0.5,), "delta must be a positive finite number, got -0.5"),
        ((0.0,), "delta must be a positive finite number, got 0.0"),
        ((math.nan,), "delta must be a positive finite number, got nan"),
        ((True,), "delta must be a positive finite number, got True"),
    ])
    def test_refuses_a_delta_by_name_before_any_train(self, monkeypatch, deltas, message):
        def no_train(*args):
            raise AssertionError("a train was built")

        monkeypatch.setattr(analysis, "equidistant_alternating", no_train)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            emdm_characterize(make_metric("vr"), T=1.0, deltas=deltas)

    def test_schreiber_has_no_characterization(self):
        with pytest.raises(ValueError, match="^the Schreiber similarity has no distance"):
            emdm_characterize(make_metric("schreiber"))


class TestQiVerify:
    def test_identical_pair_trivial_bounds(self):
        f = unit_ramp()
        rep = qi_verify([(f, f)], 0.2)
        assert rep.violations == 0
        assert rep.B_at_A1 == 0.0

    def test_campaign_no_violations(self):
        corpus = make_qi_corpus(200, 7)
        for theta in (0.05, 0.2):
            rep = qi_verify(corpus, theta, "D")
            assert rep.violations == 0
            assert rep.B_at_A1 <= 4.0 * theta + 1e-9
            assert rep.reconstruction_failures == 0
            assert rep.coarse_C == 0.0

    def test_alexiewicz_folded_bounds(self):
        corpus = make_qi_corpus(200, 11)
        rep = qi_verify(corpus, 0.1, "A")
        assert rep.violations == 0

    def test_max_max_sum_reports_no_bound(self):
        corpus = make_qi_corpus(10, 3)
        rep = qi_verify(corpus, 0.1, "M")
        assert rep.violations is None

    def test_envelopes_are_monotone(self):
        corpus = make_qi_corpus(100, 5)
        rep = qi_verify(corpus, 0.1)
        assert all(a[1] <= b[1] + 1e-12 for a, b in zip(rep.rho1, rep.rho1[1:]))
        assert all(a[1] <= b[1] + 1e-12 for a, b in zip(rep.rho2, rep.rho2[1:]))

    def test_asymptotic_isometry_on_unit_diameter_pair(self):
        from sodlab.signals import pwl_from_points
        # dyadic knot values keep f - g an exact unit ramp
        knots = [k / 8.0 for k in range(9)]
        fvals = [0.0, 0.25, -0.125, 0.125, 0.375, 0.25, 0.5, 0.3125, 0.5625]
        gvals = [fv - k for fv, k in zip(fvals, knots)]
        f = pwl_from_points(1.0, knots, fvals)
        g = pwl_from_points(1.0, knots, gvals)
        assert diameter_norm(subtract(f, g)) == 1.0
        for theta in (0.2, 0.1, 0.05, 0.025, 0.0125):
            rep = qi_verify([(f, g)], theta, "D")
            (dx, dy), = rep.per_trial
            assert abs(dy - 1.0) <= 4.0 * theta + 1e-9

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            qi_verify([], 0.1)

    def test_small_scale_violations_are_visible(self, monkeypatch):
        # the 200-pair campaign scaled by 1e-10: every lower bound
        # diam - 4 theta is positive, so a norm that returns 0 violates it
        corpus = make_qi_corpus(200, 7, amplitude=4e-11)
        assert qi_verify(corpus, 2.5e-12, "D").violations == 0
        monkeypatch.setattr("sodlab.analysis.norm_by_kind",
                            lambda kind: lambda eta: 0.0)
        assert qi_verify(corpus, 2.5e-12, "D").violations == len(corpus)


@st.composite
def fit_inputs(draw):
    """(dxs, dys, theta): 1..40 trials at a scale 2^-40..2^40, each value a
    multiple of 1/16 (so that B ties across grid points), a signed zero, or
    any float up to 4, times the scale."""
    unit = 2.0 ** draw(st.integers(-40, 40))
    value = (st.integers(0, 64).map(lambda m: m / 16.0) | st.sampled_from((0.0, -0.0))
             | st.floats(0.0, 4.0)).map(lambda v: v * unit)
    n = draw(st.integers(1, 40))
    dxs = draw(st.lists(value, min_size=n, max_size=n))
    dys = draw(st.lists(value, min_size=n, max_size=n))
    return dxs, dys, unit * draw(st.floats(1.0 / 64.0, 1.0))


@given(fit_inputs())
@settings(max_examples=200, deadline=None)
def test_qi_fit_matches_the_trial_loop_by_repr(case):
    assert repr(_qi_fit(*case)) == repr(qi_fit_loop(*case))


@pytest.mark.parametrize("seed", [3, 201])
def test_qi_fit_commutes_with_power_of_two_scaling(seed):
    # every dx, dy and B scales exactly by 2^k, so the tie to the minimum
    # must too: with an absolute tolerance, k = -40 fitted A = 1.0
    fits = []
    for k in (-40, -20, 0, 20):
        s = 2.0 ** k
        rep = qi_verify(make_qi_corpus(200, seed, amplitude=0.4 * s), 0.1 * s, "D")
        fit = (rep.fitted_A, rep.fitted_B, rep.B_at_A1)
        assert repr(fit) == repr(qi_fit_loop(*zip(*rep.per_trial), rep.theta))
        fits.append((rep.fitted_A, rep.fitted_B / s, rep.B_at_A1 / s))
    assert fits[0][0] > 1.0
    assert fits == [fits[0]] * 4


@pytest.mark.parametrize("n_pairs", [0, -5, True, 2.5])
def test_qi_corpus_refuses_a_bad_trial_count(n_pairs):
    with pytest.raises(ValueError, match=f"n_pairs must be an integer >= 1, got {n_pairs!r}"):
        make_qi_corpus(n_pairs, 1)


@pytest.mark.parametrize("seed", [-1, True, 2.5, "3"])
def test_qi_corpus_refuses_a_bad_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        make_qi_corpus(3, seed)
    assert len(make_qi_corpus(3, np.int64(7))) == 3


@pytest.mark.parametrize("n_pairs, seed, T, n_breaks, amplitude", [
    (1, 0, 1.0, 12, 0.4),
    (7, 42, 1.0, 12, 0.4),
    (25, 201, 2.5, 3, 0.05),
    (40, 2 ** 40, 1e-6, 30, 1e3),
    (5, np.int64(9), 3, 1, 1),
])
def test_qi_corpus_builds_the_pairs_of_the_eager_list(n_pairs, seed, T, n_breaks,
                                                      amplitude):
    eager = qi_corpus_eager(n_pairs, seed, T, n_breaks, amplitude)
    corpus = make_qi_corpus(n_pairs, seed, T, n_breaks, amplitude)
    assert isinstance(corpus, Sequence) and len(corpus) == n_pairs
    assert list(corpus) == eager
    assert list(corpus) == eager  # a second pass builds them again
    assert [corpus[i] for i in range(n_pairs)] == eager
    assert corpus[-1] == eager[-1] and corpus[-n_pairs] == eager[0]
    assert corpus[0][0] is not corpus[0][0]  # nothing is cached
    for i in (n_pairs, -n_pairs - 1):
        with pytest.raises(IndexError):
            corpus[i]


@pytest.mark.parametrize("walk", [
    {"T": -1.0}, {"T": True}, {"n_breaks": 0}, {"amplitude": 0.0},
    {"T": 1e-300, "amplitude": 1e300},
])
def test_qi_corpus_refuses_bad_walk_parameters_before_any_pair(walk):
    with pytest.raises(ValueError) as eager:
        qi_corpus_eager(3, 1, **walk)
    with pytest.raises(ValueError, match=f"^{re.escape(str(eager.value))}$"):
        make_qi_corpus(3, 1, **walk)


def qi_peak_growth_per_trial(warm, small, large):
    """Growth of qi_verify's tracemalloc peak per trial from `small` to
    `large` trials, after a warm-up run of `warm` (lazy imports, caches)."""
    def peak(n):
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        qi_verify(make_qi_corpus(n, 3), 0.2)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(warm)
        low, high = peak(small), peak(large)
    finally:
        tracemalloc.stop()
    return (high - low) / (large - small)


def test_qi_verify_memory_per_trial_is_bounded(monkeypatch):
    # only the per-trial results grow with the trial count: the pairs are
    # built a batch at a time and freed after it.  One worker: tracemalloc
    # sees only this process, which would otherwise run half the trials.
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 1)
    # about 440 B per trial; a corpus built up front adds about 3 KB
    assert qi_peak_growth_per_trial(50, 100, 600) < 1000.0


def test_qi_verify_memory_per_trial_is_bounded_with_forked_workers(monkeypatch):
    # the parent builds only its own range's pairs, and what the children
    # send back is their per-trial results, so its own growth per trial of
    # the campaign stays that of the results
    forks = []
    forked = analysis._qi_trials_forked
    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    monkeypatch.setattr(analysis, "_qi_trials_forked",
                        lambda ranges, *args: forks.append(len(ranges)) or forked(ranges, *args))
    assert qi_peak_growth_per_trial(300, 300, 800) < 1000.0
    assert forks == [2, 2, 2]


def _qi_with_cpus(monkeypatch, cpus, corpus, theta, kind):
    """qi_verify as a host with `cpus` usable CPUs runs it, and the length of
    each range this process ran itself."""
    ran = []
    trials = analysis._qi_trials
    monkeypatch.setattr(analysis, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(analysis, "_qi_trials",
                        lambda pairs, *args: ran.append(len(pairs)) or trials(pairs, *args))
    try:
        return qi_verify(corpus, theta, kind), ran
    finally:
        monkeypatch.setattr(analysis, "_qi_trials", trials)


@pytest.mark.parametrize("kind", ["D", "A", "M"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_qi_verify_on_forked_workers_equals_the_serial_loop_by_repr(monkeypatch, cpus, kind):
    # a small minimum keeps the campaigns short; the sizes straddle
    # cpus * minimum, so the ranges differ in length and the worker count
    # is cpus - 1 or cpus
    minimum = 8
    monkeypatch.setattr(analysis, "_QI_MIN_TRIALS_PER_WORKER", minimum)
    for n in (cpus * minimum - 1, cpus * minimum + 1):
        qi = make_qi_corpus(n, 100 + n)
        for corpus in (qi, list(qi)):
            serial, _ = _qi_with_cpus(monkeypatch, 1, corpus, 0.1, kind)
            report, ran = _qi_with_cpus(monkeypatch, cpus, corpus, 0.1, kind)
            k = max(1, min(cpus, n // minimum))
            assert ran == [n // k]  # this process runs the first range
            assert repr(report) == repr(serial)
            assert multiprocessing.active_children() == []


def test_qi_verify_splits_at_the_real_minimum(monkeypatch):
    n = 2 * analysis._QI_MIN_TRIALS_PER_WORKER + 1
    corpus = make_qi_corpus(n, 17)
    serial, _ = _qi_with_cpus(monkeypatch, 1, corpus, 0.2, "D")
    report, ran = _qi_with_cpus(monkeypatch, 2, corpus, 0.2, "D")
    assert ran == [n // 2]
    assert repr(report) == repr(serial)


def test_a_serial_qi_verify_imports_no_multiprocessing():
    # below twice the minimum nothing forks, on any host
    code = ("import sys\n"
            "from sodlab.analysis import _QI_MIN_TRIALS_PER_WORKER, make_qi_corpus, qi_verify\n"
            "qi_verify(make_qi_corpus(2 * _QI_MIN_TRIALS_PER_WORKER - 1, 1), 0.2)\n"
            "print('multiprocessing' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(analysis.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def _walk_pair(seed, T=1.0):
    return random_walk(T, seed, 12, 0.4), random_walk(T, seed + 1, 12, 0.4)


def _assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("faults", [
    {8: "unanchored"},                      # the last range only
    {5: "T=2", 8: "T=3"},                   # two children's ranges: the earlier one's
    {1: "T=3", 7: "unanchored"},            # this process's range and a child's
    {6: "unanchored", 7: "T=2"},            # two faults in one range
])
def test_qi_verify_on_forked_workers_raises_the_serial_error(monkeypatch, faults):
    # 9 pairs in three ranges of 3: [0, 3) here, [3, 6) and [6, 9) in children
    monkeypatch.setattr(analysis, "_QI_MIN_TRIALS_PER_WORKER", 3)
    unanchored = pwl_from_points(1.0, [0.0, 1.0], [0.25, 0.0])
    corpus = [_walk_pair(2 * i) for i in range(9)]
    for i, fault in faults.items():
        f, g = corpus[i]
        corpus[i] = ((unanchored, g) if fault == "unanchored"
                     else (f, _walk_pair(2 * i, float(fault[2:]))[1]))
    with pytest.raises(ValueError) as serial:
        _qi_with_cpus(monkeypatch, 1, corpus, 0.1, "D")
    with pytest.raises(ValueError) as forked:
        _qi_with_cpus(monkeypatch, 3, corpus, 0.1, "D")
    assert type(forked.value) is type(serial.value) and str(forked.value) == str(serial.value)
    first = faults[min(faults)]
    assert str(serial.value) == ("sampling requires f(0) = 0" if first == "unanchored"
                                 else f"horizon mismatch: 1.0 vs {float(first[2:])!r}")
    _assert_no_child_left()


@pytest.mark.parametrize("message, silenced", [
    ("This process (pid={}) is multi-threaded, use of fork() may lead to deadlocks "
     "in the child.", True),
    ("fork() is deprecated (pid={})", False),
])
def test_only_the_threaded_fork_warning_is_silenced(monkeypatch, message, silenced):
    # os.fork on Python >= 3.12 warns with the first message in a process
    # with threads; under -W error nothing else may be swallowed
    monkeypatch.setattr(analysis, "_QI_MIN_TRIALS_PER_WORKER", 3)
    real_fork = os.fork

    def warning_fork():
        warnings.warn(message.format(os.getpid()), DeprecationWarning, stacklevel=2)
        return real_fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    corpus = [_walk_pair(2 * i) for i in range(6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if silenced:
            report, ran = _qi_with_cpus(monkeypatch, 2, corpus, 0.1, "D")
            assert ran == [3] and report.trials == 6
        else:
            with pytest.raises(DeprecationWarning, match="is deprecated"):
                _qi_with_cpus(monkeypatch, 2, corpus, 0.1, "D")
    _assert_no_child_left()


def test_a_worker_that_dies_is_reported_and_reaped(monkeypatch):
    monkeypatch.setattr(analysis, "_QI_MIN_TRIALS_PER_WORKER", 3)
    corpus = [_walk_pair(2 * i) for i in range(6)]
    trials = analysis._qi_trials
    parent = os.getpid()

    def die_in_a_child(pairs, *args):
        if os.getpid() != parent:
            os._exit(7)
        return trials(pairs, *args)

    monkeypatch.setattr(analysis, "usable_cpus", lambda: 2)
    monkeypatch.setattr(analysis, "_qi_trials", die_in_a_child)
    with pytest.raises(RuntimeError, match="exited with code 7 before sending its trials"):
        qi_verify(corpus, 0.1, "D")
    _assert_no_child_left()


@pytest.mark.parametrize("build, name", [
    (lambda: random_walk(1.0, 1, True, 0.5), "n_breaks"),
    (lambda: random_walk(1.0, 1, 0, 0.5), "n_breaks"),
    (lambda: sine_pwl(1.0, 64.0), "resolution"),
    (lambda: emdm_characterize("D", n_max=2.5), "n_max"),
    (lambda: left_continuity_probe(random_walk(1.0, 1, 4, 0.5), 0.1, n_steps=0), "n_steps"),
    (lambda: alternating_train(-1), "n"),
    (lambda: mmsn_train(True), "n"),
])
def test_counts_are_refused_unless_integers_in_range(build, name):
    with pytest.raises(ValueError, match=rf"^{name}\b.* must be an integer >= "):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: positive_train(2.5), "n must be an integer >= 0"),
    (lambda: positive_train(-3), "n must be an integer >= 0"),
    (lambda: equidistant_alternating(2.5, 0.1), "n must be an integer >= 1"),
    (lambda: equidistant_alternating(3, True), "delta must be a positive finite number"),
    (lambda: equidistant_alternating(3, math.inf), "delta must be a positive finite number"),
], ids=["positive_float", "positive_negative", "equidistant_float", "equidistant_bool_delta",
        "equidistant_inf_delta"])
def test_train_and_transcription_counts_are_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        build()


@pytest.mark.parametrize("args, message", [
    ((True, 3), "seed must be an integer >= 0, got True"),
    ((1, -1), "n must be an integer >= 0, got -1"),
    ((1, 3, 0.0), "horizon must be a positive finite number, got 0.0"),
    # 21 floats lie in [0, 1e-322]: every draw of 40 repeats one
    ((1, 40, 1e-322), r"could not draw n = 40 distinct times in \[0, T = 1e-322\]"),
], ids=["bool_seed", "negative_n", "zero_horizon", "subnormal_horizon"])
def test_random_unit_train_refuses_what_it_cannot_draw(args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        random_unit_train(*args)


def test_equidistant_alternating_compares_its_events_with_the_float_horizon():
    # float(10**20 - 1) is 1e20: the one event is at the stored horizon
    eta = equidistant_alternating(1, 1e20, 10**20 - 1)
    twin = equidistant_alternating(1, 1e20, 1e20)
    assert (eta.T, eta.times, eta.values) == (1e20, (1e20,), (1.0,))
    assert struct.pack("<3d", eta.T, *eta.times, *eta.values) == struct.pack(
        "<3d", twin.T, *twin.times, *twin.values)


@pytest.mark.parametrize("theta", [0.0, -0.1, math.inf, math.nan, True, "0.1"])
def test_qi_verify_and_probe_refuse_a_bad_threshold(theta):
    with pytest.raises(ValueError, match="threshold must be a positive finite number"):
        qi_verify([], theta)  # before the corpus is looked at
    with pytest.raises(ValueError, match="threshold must be a positive finite number"):
        left_continuity_probe(unit_ramp(), theta)


class TestLeftContinuityProbe:
    def test_ramp_closed_form(self):
        f = unit_ramp()
        rep = left_continuity_probe(f, 0.3, 10)
        assert rep.stabilized_at is not None
        assert rep.monotone
        assert all(d in ("up", "flat") for d in rep.directions)
        last = rep.steps[-1]
        for k, t in enumerate(last["times"], start=1):
            assert t == pytest.approx(k * last["theta"], abs=1e-12)
        gaps = [s["max_gap"] for s in rep.steps[rep.stabilized_at - 1:]]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-2

    def test_short_horizon_directions_match_unit_horizon(self):
        for seed in range(10):
            unit = left_continuity_probe(random_walk(1.0, seed, 12, 0.4), 0.1)
            short = left_continuity_probe(random_walk(SHORT_T, seed, 12, 0.4), 0.1)
            assert "up" in unit.directions and "down" in unit.directions
            assert short.stabilized_at == unit.stabilized_at
            assert short.directions == unit.directions

    def test_local_max_probe_and_control_drop(self):
        f = local_max_signal(0.25)
        rep = left_continuity_probe(f, 0.25, 12)
        assert rep.stabilized_at is not None
        assert rep.monotone
        assert rep.control_count < len(rep.reference_times)

    def test_control_keeps_an_event_whose_level_the_walk_passes(self):
        # the minimum passes -3 theta by 6.2e-6 theta: the right limit keeps
        # all 19 events, where theta0 (1 + 2^-10) had lost two
        f = random_walk(1.0, 6, 12, 0.4)
        rep = left_continuity_probe(f, 0.1)
        assert len(rep.reference_times) == 19
        assert rep.control_count == 19
        assert rep.control_times == rep.reference_times

    def test_a_count_that_never_settles(self):
        rep = left_continuity_probe(random_walk(1.0, 0, 40, 0.4), 0.2, n_steps=3)
        assert [s["count"] for s in rep.steps] == [68, 40, 33]
        assert len(rep.reference_times) == 28
        assert rep.stabilized_at is None
        assert rep.monotone is False
        assert rep.directions == ()

    def test_a_count_that_settles_by_count_alone(self):
        # step 6 has theta0's 157 events, 22 of them with other signs: the
        # count is judged, not the crossings, so 40 events have no direction
        rep = left_continuity_probe(random_walk(1.0, 5, 40, 0.4), 0.05)
        assert [s["count"] for s in rep.steps[4:]] == [155] + [157] * 7
        assert rep.stabilized_at == 6
        assert rep.monotone is False
        assert len(rep.directions) == 157
        assert rep.directions.count("none") == 40

    def test_zero_signal(self):
        rep = left_continuity_probe(zero(1.0), 0.2, 4)
        assert len(rep.reference_times) == 0
        assert all(s["count"] == 0 for s in rep.steps)
        assert rep.stabilized_at == 1


class TestCertify:
    def test_discrepancy_certifies_itself(self):
        rep = certify_norm("D")
        assert rep.verdict == "equivalent"
        assert rep.alt_bound == 1.0
        assert rep.same_sign_inf == 1.0
        assert rep.sweep_max_ratio <= 1.0 + 1e-12

    def test_alexiewicz_equivalent(self):
        rep = certify_norm("A")
        assert rep.verdict == "equivalent"
        assert rep.alt_bound == 1.0
        assert rep.same_sign_inf == 1.0
        assert rep.sweep_max_ratio <= 2.0 + 1e-12

    def test_max_max_sum_fails_sweep_only(self):
        rep = certify_norm("M")
        assert rep.verdict == "not_equivalent"
        assert rep.alt_ok and rep.same_sign_ok and not rep.sweep_ok
        assert rep.sweep_witness["norm"] == 1.0
        assert rep.sweep_witness["sweep"] >= 20.0

    def test_witnesses_reevaluate(self):
        for kind in ("D", "A", "M"):
            rep = certify_norm(kind)
            normf = norm_by_kind(kind)
            alt = from_pairs(rep.alt_witness["T"], rep.alt_witness["events"])
            assert normf(alt) == rep.alt_witness["value"]
            same = from_pairs(rep.same_sign_witness["T"],
                              rep.same_sign_witness["events"])
            assert normf(same) / len(same) == rep.same_sign_witness["value"]
            sweep = from_pairs(rep.sweep_witness["T"], rep.sweep_witness["events"])
            assert normf(sweep) == rep.sweep_witness["norm"]

    def test_sweeps_are_the_oracle_sweeps_of_the_family_trains(self):
        # the report's sweep is the window-and-transcription definition itself
        trains = [("mmsn", n, mmsn_train(n)) for n in analysis._MMSN_COUNTS]
        trains += [("random", n, random_unit_train(seed, n))
                   for seed, n in analysis._RANDOM_SWEEP]
        for kind in NORM_KINDS:
            rep = certify_norm(kind)
            assert [(row["family"], row["n"]) for row in rep.sweep_table] == [
                (family, n) for family, n, _ in trains]
            for row, (_, _, eta) in zip(rep.sweep_table, trains):
                assert row["sweep"] == transcription_sweep_compact(eta, kind)
            witness = from_pairs(rep.sweep_witness["T"], rep.sweep_witness["events"])
            assert rep.sweep_witness["sweep"] == transcription_sweep_compact(witness, kind)


def test_schreiber_witness_conflates_pairs():
    w = schreiber_conflation_witness(8)
    assert w["similarity_12"] == pytest.approx(-1.0, abs=1e-12)
    assert w["similarity_34"] == pytest.approx(-1.0, abs=1e-12)
    assert w["distance_12"] == pytest.approx(w["distance_34"], abs=1e-12)
    assert w["discrepancy_12"] == 8.0
    assert w["discrepancy_34"] == 2.0


def test_sweep_handles_horizon_boundary_threshold():
    # an event exactly at the horizon vanishes for every larger threshold:
    # a genuinely right-discontinuous configuration even for a monotone ramp
    res = emdm_sweep(unit_ramp(), "D", [0.25])
    assert res.lambda_estimate == 1.0
