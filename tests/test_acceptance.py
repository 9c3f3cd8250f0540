"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from sodlab.analysis import (
    certify_norm,
    emdm_characterize,
    emdm_sweep,
    left_continuity_probe,
    make_metric,
    make_qi_corpus,
)
from sodlab.events import difference, from_pairs, split_signs
from sodlab.norms import (
    alexiewicz_norm,
    discrepancy_norm,
    max_max_sum_norm,
)
from sodlab.sampler import homogeneity_check, lc_sample, reconstruct, sod_sample
from sodlab.signals import (
    Segment,
    diameter_norm,
    pwl_from_points,
    random_walk,
    subtract,
)
from sodlab.spike_metrics import VictorPurpuraParams, victor_purpura
from sodlab.structure import pi_map, transcribe
from sodlab.trains import (
    equidistant_alternating,
    mmsn_train,
    random_unit_train,
)

from oracles import (
    comb_signal,
    discrepancy_bruteforce,
    exp_response,
    local_max_signal,
    random_nonnegative_train,
    random_pure_train,
    schreiber_conflation_witness,
    signal_of,
)


def ok(label):
    print(f"PASS {label}")


def test_c01_quasi_isometry_sandwich():
    start = time.perf_counter()
    corpus = make_qi_corpus(1000, 2024)
    dxs = [diameter_norm(subtract(f, g)) for f, g in corpus]
    violations = 0
    for theta in (0.05, 0.1, 0.2, 0.5):
        for (f, g), dx in zip(corpus, dxs):
            dy = discrepancy_norm(
                difference(sod_sample(f, theta), sod_sample(g, theta)))
            if dy < dx - 4.0 * theta - 1e-9 or dy > dx + 2.0 * theta + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    ok(f"criterion 1: sandwich bound, 1000 pairs x 4 thetas, "
       f"0 violations in {elapsed:.2f}s")


def test_c02_asymptotic_isometry():
    knots = [k / 8.0 for k in range(9)]
    fvals = [0.0, 0.25, -0.125, 0.125, 0.375, 0.25, 0.5, 0.3125, 0.5625]
    gvals = [fv - k for fv, k in zip(fvals, knots)]
    f = pwl_from_points(1.0, knots, fvals)
    g = pwl_from_points(1.0, knots, gvals)
    assert diameter_norm(subtract(f, g)) == 1.0
    thetas = (0.2, 0.1, 0.05, 0.025, 0.0125)
    gaps = []
    for theta in thetas:
        dy = discrepancy_norm(
            difference(sod_sample(f, theta), sod_sample(g, theta)))
        assert abs(dy - 1.0) <= 4.0 * theta + 1e-9
        gaps.append(dy)
    assert abs(gaps[-1] - 1.0) <= 0.05
    ok(f"criterion 2: asymptotic isometry, ratio at theta=0.0125 "
       f"is {gaps[-1]:.4f}")


def test_c03_norm_equivalence():
    rng = np.random.default_rng(3)
    for trial in range(10_000):
        n = int(rng.integers(1, 81))
        vals = [float(v) for v in rng.choice([-2.0, -1.0, 1.0, 2.0], n)]
        d = discrepancy_norm(vals)
        a = alexiewicz_norm(vals)
        assert 0.5 * d <= a <= d
    witness = from_pairs(1.0, [(0.2, -1.0), (0.4, 1.0), (0.6, 1.0)])
    assert alexiewicz_norm(witness) == 1.0
    assert discrepancy_norm(witness) == 2.0
    ok("criterion 3: 1/2 D <= A <= D on 10^4 sequences, witness exact")


def test_c04_fast_vs_bruteforce():
    rng = np.random.default_rng(7)
    for trial in range(10_100):
        if trial < 9_000:
            n = int(rng.integers(1, 81))
        elif trial < 10_000:
            n = int(rng.integers(81, 161))
        else:
            n = int(rng.integers(400, 501))
        vals = [float(v) for v in rng.choice([-2.0, -1.0, 1.0, 2.0], n)]
        assert discrepancy_norm(vals) == discrepancy_bruteforce(vals)
    ok("criterion 4: O(n) discrepancy == O(n^2) brute force on 10^4+ "
       "sequences, n up to 500, exact")


def test_c05_max_max_sum_counterexample():
    for n in (4, 10, 40, 100):
        eta = mmsn_train(n)
        assert max_max_sum_norm(eta) == 1.0
        assert discrepancy_norm(eta) == float((n + 1) // 2)
    report = certify_norm("M")
    assert report.verdict == "not_equivalent"
    assert report.alt_ok and report.same_sign_ok and not report.sweep_ok
    assert report.sweep_witness["norm"] == 1.0
    assert report.sweep_witness["sweep"] >= 20.0
    witness = from_pairs(report.sweep_witness["T"], report.sweep_witness["events"])
    assert max_max_sum_norm(witness) == report.sweep_witness["norm"]
    ok("criterion 5: ||eta_n||_M = 1 vs ||eta_n||_D = n/2; "
       "max-max-sum fails the sweep condition")


def test_c06_chain_decomposition():
    from oracles import is_alternating
    from sodlab.structure import chain_decompose

    for seed in range(500):
        n = 4 + seed % 197
        eta = random_unit_train(seed, n)
        chain = chain_decompose(eta)
        r = discrepancy_norm(eta)
        assert chain.r == int(r)
        total = 0.0
        for inc in chain.increments():
            d = discrepancy_norm(inc)
            assert d == 1.0
            assert is_alternating(inc)
            total += d
        assert total == r
    ok("criterion 6: chain telescoping exact on 500 random unit "
       "sequences, n <= 200")


def test_c07_transcription_inequality_and_pi():
    for seed in range(300):
        eta = random_unit_train(seed + 7000, 4 + seed % 90)
        d0 = discrepancy_norm(eta)
        for pattern in ("plus_minus", "minus_plus"):
            prev = d0
            for n in range(1, 10):
                cur = discrepancy_norm(transcribe(eta, pattern, n))
                assert cur <= d0
                assert cur <= prev + 1e-12
                prev = cur
        out = pi_map(eta)
        nz = [v for v in out.values if v != 0.0]
        assert len(nz) == int(d0)
        assert all(v > 0.0 for v in nz) or all(v < 0.0 for v in nz)
        assert discrepancy_norm(out) == d0
    ok("criterion 7: transcription never raises discrepancy; "
       "pi map single-signed with r nonzeros")


def test_c08_emdm_characterization():
    char_d = emdm_characterize("D", n_max=200).value
    char_a = emdm_characterize("A", n_max=200).value
    assert char_d == 1.0
    assert char_a == 1.0
    signals = (local_max_signal(0.25), comb_signal(4, 0.25),
               signal_of(1.0, Segment(0.0, 0.0, 1.0)))
    for kind, char in (("D", char_d), ("A", char_a)):
        for f in signals:
            res = emdm_sweep(f, kind, [0.25, 0.2, 0.125])
            assert res.lambda_estimate <= char + 1e-9
    ok("criterion 8: characterization exactly 1 for D and A; "
       "per-signal sweeps never exceed it")


def test_c09_van_rossum_bounds():
    for alpha in (0.5, 1.0, 2.0):
        for T in (10.0, 20.0, 40.0):
            n = int(2 * T)
            delta = T / n
            eta = equidistant_alternating(n, delta, T)
            floor = math.exp(-alpha * delta) * (1.0 - math.exp(-alpha * delta))
            probe = np.asarray(eta.times[1:]) - 1e-9
            measured = np.abs(exp_response(eta, alpha, probe)).min()
            assert measured >= floor - 1e-9
            res = emdm_characterize(make_metric("vr", alpha=alpha),
                                    n_max=2 * n, T=T, deltas=(delta,))
            kappa = math.exp(-2.0 * alpha * delta) \
                * (1.0 - math.exp(-alpha * delta)) ** 2
            row = res.growth_table[0]
            assert kappa * T - 1e-9 <= row["energy"] <= T + 1e-9
    ok("criterion 9: smoothed-train floor and kappa*T <= energy <= T "
       "for alpha in {0.5,1,2}, T in {10,20,40}")


def test_c10_victor_purpura():
    rng = np.random.default_rng(10)
    for trial in range(1000):
        a = random_nonnegative_train(int(rng.integers(2**31)), 1 + trial % 12)
        b = random_nonnegative_train(int(rng.integers(2**31)), 1 + (trial * 7) % 11)
        d0 = victor_purpura(a, b, VictorPurpuraParams(0.0))
        pa, ma = split_signs(a)
        pb, mb = split_signs(b)
        assert d0 == abs(len(pa) - len(pb)) + abs(len(ma) - len(mb))
    dt = 0.7
    one = from_pairs(2.0, [(0.3, 1.0)])
    moved = from_pairs(2.0, [(0.3 + dt, 1.0)])
    for s in (0.5, 1.0, 4.0):
        got = victor_purpura(one, moved, VictorPurpuraParams(s))
        assert abs(got - min(2.0, s * dt)) <= 1e-12
    ok("criterion 10: VP counting formula on 10^3 pairs; "
       "offset pair equals min(2, s*dt)")


def test_c11_left_continuity():
    f = local_max_signal(0.25)
    report = left_continuity_probe(f, 0.25, 12)
    assert report.stabilized_at is not None
    assert report.monotone
    gaps = [s["max_gap"] for s in report.steps[report.stabilized_at - 1:]]
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 2.0 ** (-10)
    assert report.control_count < len(report.reference_times)
    ok(f"criterion 11: monotone convergence, count stabilizes at "
       f"n={report.stabilized_at}; control drops "
       f"{len(report.reference_times)} -> {report.control_count}")


def test_c12_coarse_surjectivity():
    rng = np.random.default_rng(12)
    for trial in range(1000):
        theta = float(rng.uniform(0.05, 2.0))
        n = int(rng.integers(1, 30))
        eta = random_pure_train(trial + 40_000, n, theta)
        f = reconstruct(eta)
        for sample in (sod_sample, lc_sample):
            back = sample(f, theta)
            assert back.times == eta.times
            assert back.values == eta.values
    ok("criterion 12: reconstruct/resample exact on 10^3 theta-pure "
       "sequences (C = 0), by SOD and by LC")


def test_c13_homogeneity():
    rng = np.random.default_rng(13)
    for trial in range(1000):
        f = random_walk(1.0, int(rng.integers(2**31)), 10, 0.5)
        theta = float(rng.uniform(0.03, 0.5))
        j = int(rng.integers(-3, 4))
        assert homogeneity_check(f, theta, theta * 2.0 ** j)
    ok("criterion 13: exact time/amplitude homogeneity on 10^3 "
       "(f, theta, theta~) triples")


def test_c14_schreiber_witness():
    w = schreiber_conflation_witness(8)
    assert w["similarity_12"] == pytest.approx(-1.0, abs=1e-12)
    assert w["similarity_34"] == pytest.approx(-1.0, abs=1e-12)
    assert w["distance_12"] == pytest.approx(w["distance_34"], abs=1e-12)
    assert w["discrepancy_12"] != w["discrepancy_34"]
    ok("criterion 14: Schreiber similarity conflates the four-train "
       "pairs (S = -1 for both)")
