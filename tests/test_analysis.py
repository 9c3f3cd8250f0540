import math
import re
import tracemalloc
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
    schreiber_conflation_witness,
)
from sodlab.events import difference, from_pairs
from sodlab.cli import distance, emdm
from sodlab.norms import NORM_KINDS, norm_by_kind
from sodlab.signals import (
    Segment,
    diameter_norm,
    random_walk,
    sine_pwl,
    subtract,
    zero,
)
from sodlab.structure import transcribe
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
            assert res.stabilized
        res = emdm_sweep(f, make_metric("vr", alpha=1.0), [0.3])
        assert res.lambda_estimate == 0.0

    def test_local_max_critical_threshold(self):
        f = local_max_signal(0.25)
        res = emdm_sweep(f, "D", [0.25])
        assert res.lambda_estimate == 1.0
        assert res.stabilized

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
    def test_stabilized_flags_do_not_depend_on_time_scale(self, seed):
        # the van Rossum gap shrinks like sqrt(s) at alpha = 1/s, so an
        # absolute value tolerance would flip flags at small s
        flags = []
        for s in (1.0, 2.0 ** 20, 2.0 ** -20):
            res = emdm_sweep(random_walk(s, seed, 40, 0.4),
                             make_metric("vr", alpha=1.0 / s), (0.2, 0.25, 0.3))
            flags.append(tuple(p.stabilized for p in res.per_theta))
        assert flags[1] == flags[0] and flags[2] == flags[0]

    def test_schreiber_is_refused(self):
        with pytest.raises(ValueError):
            emdm_sweep(random_walk(1.0, 3, 40, 0.4), "schreiber", [0.2])


class TestEmdmCharacterize:
    def test_discrepancy_and_alexiewicz_are_exactly_one(self):
        assert emdm_characterize("D", n_max=200).value == 1.0
        assert emdm_characterize("A", n_max=200).value == 1.0

    def test_max_max_sum_is_one(self):
        assert emdm_characterize("M", n_max=100).value == 1.0

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

    def test_schreiber_has_no_characterization(self):
        with pytest.raises(ValueError):
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


def test_qi_verify_memory_per_trial_is_bounded():
    # only the per-trial results grow with the trial count: the pairs are
    # built a batch at a time and freed after it
    def peak(n):
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        qi_verify(make_qi_corpus(n, 3), 0.2)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(50)  # warm-up: lazy imports and caches
        small, large = peak(100), peak(600)
    finally:
        tracemalloc.stop()
    # about 440 B per trial; a corpus built up front adds about 3 KB
    assert (large - small) / 500 < 1000.0


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
    (lambda: transcribe(alternating_train(2), "plus_minus", 2.5), "n must be an integer >= 0"),
    (lambda: transcribe(alternating_train(2), "plus_minus", True), "n must be an integer >= 0"),
    (lambda: positive_train(2.5), "n must be an integer >= 0"),
    (lambda: positive_train(-3), "n must be an integer >= 0"),
    (lambda: equidistant_alternating(2.5, 0.1), "n must be an integer >= 1"),
    (lambda: equidistant_alternating(3, True), "delta must be a positive finite number"),
    (lambda: equidistant_alternating(3, math.inf), "delta must be a positive finite number"),
], ids=["transcribe_float", "transcribe_bool", "positive_float", "positive_negative",
        "equidistant_float", "equidistant_bool_delta", "equidistant_inf_delta"])
def test_train_and_transcription_counts_are_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        build()


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
