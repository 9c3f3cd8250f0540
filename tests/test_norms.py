import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodlab.events import from_pairs, scale_events
from sodlab.norms import (
    NORM_KINDS,
    alexiewicz_norm,
    discrepancy_norm,
    max_max_sum_norm,
    norm_by_kind,
)
from sodlab.trains import alternating_train, mmsn_train

from oracles import discrepancy_bruteforce, random_signed_train

amp_lists = st.lists(
    st.sampled_from([-2.0, -1.0, 1.0, 2.0]), min_size=0, max_size=60)


def test_discrepancy_alternating_is_one():
    for n in (1, 2, 5, 17, 100):
        assert discrepancy_norm(alternating_train(n)) == 1.0


def test_discrepancy_two_up_two_down():
    eta = from_pairs(5.0, [(1.0, 1.0), (2.0, 1.0), (3.0, -1.0), (4.0, -1.0)])
    assert discrepancy_norm(eta) == 2.0
    assert discrepancy_bruteforce(eta) == 2.0


def test_discrepancy_mmsn_100():
    eta = mmsn_train(100)
    assert discrepancy_norm(eta) == 50.0
    assert discrepancy_bruteforce(eta) == 50.0


def test_bruteforce_trivial_cases():
    assert discrepancy_bruteforce(from_pairs(1.0, [])) == 0.0
    assert discrepancy_bruteforce(from_pairs(1.0, [(0.5, -1.5)])) == 1.5


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        discrepancy_bruteforce([1.0] * 10_001)


@given(amp_lists)
@settings(max_examples=300, deadline=None)
def test_fast_equals_bruteforce(values):
    assert discrepancy_norm(values) == discrepancy_bruteforce(values)


def test_fast_equals_bruteforce_campaign():
    for seed in range(1000):
        eta = random_signed_train(seed, 5 + seed % 90)
        assert discrepancy_norm(eta) == discrepancy_bruteforce(eta)


def test_alexiewicz_half_factor_witness():
    eta = from_pairs(5.0, [(1.0, -1.0), (2.0, 1.0), (3.0, 1.0)])
    assert alexiewicz_norm(eta) == 1.0
    assert discrepancy_norm(eta) == 2.0


def test_alexiewicz_two_up():
    assert alexiewicz_norm(from_pairs(3.0, [(1.0, 1.0), (2.0, 1.0)])) == 2.0


@given(amp_lists)
@settings(max_examples=300, deadline=None)
def test_alexiewicz_discrepancy_equivalence(values):
    a = alexiewicz_norm(values)
    d = discrepancy_norm(values)
    assert 0.5 * d <= a <= d
    assert a <= d <= 2.0 * a


def test_max_max_sum_mmsn_is_one():
    for n in (4, 10, 40, 100):
        assert max_max_sum_norm(mmsn_train(n)) == 1.0


def test_max_max_sum_basic():
    assert max_max_sum_norm(from_pairs(1.0, [(0.5, 1.0)])) == 1.0
    assert max_max_sum_norm(from_pairs(3.0, [(1.0, 1.0), (2.0, 1.0)])) == 2.0
    assert max_max_sum_norm([]) == 0.0


def test_max_max_sum_adds_left_to_right():
    # ten +0.1 events add left to right to 0.9999999999999999; from Python
    # 3.12 sum() compensates rounding and gives 1.0
    eta = from_pairs(1.0, [(k / 11, 0.1) for k in range(1, 11)])
    assert max_max_sum_norm(eta) == max_max_sum_norm([0.1] * 10) == 0.9999999999999999


def test_empty_has_all_norms_zero():
    for fn in (discrepancy_norm, alexiewicz_norm, max_max_sum_norm):
        assert fn([]) == 0.0


def test_absolute_homogeneity():
    eta = random_signed_train(3, 25)
    for lam in (-2.0, -0.5, 0.5, 4.0):
        scaled = scale_events(eta, lam)
        assert discrepancy_norm(scaled) == abs(lam) * discrepancy_norm(eta)
        assert alexiewicz_norm(scaled) == abs(lam) * alexiewicz_norm(eta)
        assert max_max_sum_norm(scaled) == abs(lam) * max_max_sum_norm(eta)


@given(st.integers(2, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_triangle_inequality_on_shared_grid(n, data):
    xs = data.draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
                            min_size=n, max_size=n))
    ys = data.draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
                            min_size=n, max_size=n))
    zs = [x + y for x, y in zip(xs, ys)]
    for fn in (discrepancy_norm, alexiewicz_norm, max_max_sum_norm):
        assert fn(zs) <= fn(xs) + fn(ys) + 1e-12


def test_alternating_unit_implies_unit_norms():
    for n in (1, 3, 8, 33):
        for start in (1, -1):
            eta = alternating_train(n, start=start)
            assert discrepancy_norm(eta) == 1.0
            assert alexiewicz_norm(eta) == 1.0


def test_order_sensitivity_witness():
    # same multiset of amplitudes, very different discrepancy
    n = 100
    assert discrepancy_norm(mmsn_train(n)) == 50.0
    assert discrepancy_norm(alternating_train(n)) == 1.0


def test_norm_by_kind_aliases():
    # only the tags resolve; the long names and lower-case tags are refused
    eta = mmsn_train(10)
    assert NORM_KINDS == ("D", "A", "M")
    assert norm_by_kind("D")(eta) == discrepancy_norm(eta)
    assert norm_by_kind("A")(eta) == alexiewicz_norm(eta)
    assert norm_by_kind("M")(eta) == max_max_sum_norm(eta)
    for name in ("euclid", "discrepancy", "a", "max_max_sum", "mms", "Max_Max_Sum"):
        with pytest.raises(ValueError, match="unknown norm kind"):
            norm_by_kind(name)
