import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodlab.events import from_pairs
from sodlab.norms import NORM_KINDS, discrepancy_norm
from sodlab.structure import (
    DenseEvents,
    chain_decompose,
    mmd_intervals,
    pi_map,
)
from sodlab.trains import alternating_train, mmsn_train, random_unit_train

from oracles import (
    chain_stages_scan,
    discrepancy_bruteforce,
    is_alternating,
    mmd_index_intervals_scan,
    pi_map_dense,
    transcribe,
    transcribe_dense,
    transcription_sweep_compact,
)


def mmd_oracle(eta):
    """Reconstruct the interval recursion with brute-force norm evaluations."""
    vals = list(eta.values)
    times = eta.times
    n = len(vals)
    r = discrepancy_bruteforce(vals)
    spans = []
    sums = []
    start = 0
    while start < n:
        end = None
        for j in range(start, n):
            if discrepancy_bruteforce(vals[start:j + 1]) == r:
                end = j
                break
        if end is None:
            break
        left = None
        for i in range(end, start - 1, -1):
            if discrepancy_bruteforce(vals[i:end + 1]) == r:
                left = i
                break
        spans.append((times[left], times[end]))
        sums.append(sum(vals[left:end + 1]))
        start = end + 1
    return r, spans, sums


def test_dense_validation():
    with pytest.raises(ValueError):
        DenseEvents(1.0, (0.5, 0.5), (1.0, 1.0))
    with pytest.raises(ValueError):
        DenseEvents(1.0, (0.5,), (1.0, 0.0))
    for T in (-1.0, 0.0, math.inf):
        with pytest.raises(ValueError):
            DenseEvents(T, (0.5,), (1.0,))
    with pytest.raises(ValueError):
        DenseEvents(1.0, (0.5,), (math.nan,))
    assert DenseEvents(1.0, (0.5,), (0.0,)).values == (0.0,)


class TestMmd:
    def test_two_up_two_down(self):
        eta = from_pairs(5.0, [(1.0, 1.0), (2.0, 1.0), (3.0, -1.0), (4.0, -1.0)])
        dec = mmd_intervals(eta)
        assert dec.r == 2.0
        assert dec.intervals == ((1.0, 2.0), (3.0, 4.0))
        assert dec.partial_sums == (2.0, -2.0)

    def test_alternating_train_singletons(self):
        eta = alternating_train(7)
        dec = mmd_intervals(eta)
        assert dec.r == 1.0
        assert dec.intervals == tuple((t, t) for t in eta.times)
        assert dec.partial_sums == eta.values

    def test_single_event(self):
        eta = from_pairs(1.0, [(0.5, -1.0)])
        dec = mmd_intervals(eta)
        assert dec.intervals == ((0.5, 0.5),)
        assert dec.partial_sums == (-1.0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mmd_intervals(from_pairs(1.0, []))

    def test_matches_bruteforce_oracle(self):
        for seed in range(150):
            eta = random_unit_train(seed, 4 + seed % 40)
            dec = mmd_intervals(eta)
            r, spans, sums = mmd_oracle(eta)
            assert dec.r == r
            assert dec.intervals == tuple(spans)
            assert dec.partial_sums == tuple(sums)

    def test_invariants_campaign(self):
        for seed in range(100):
            eta = random_unit_train(seed + 500, 5 + seed % 50)
            dec = mmd_intervals(eta)
            idx = {t: k for k, t in enumerate(eta.times)}
            r = dec.r
            # every restriction attains the full discrepancy
            for a, b in dec.intervals:
                block = eta.values[idx[a]:idx[b] + 1]
                assert discrepancy_bruteforce(block) == r
            # partial sums are +-r and alternate in sign
            assert all(abs(s) == r for s in dec.partial_sums)
            assert all(s1 * s2 < 0 for s1, s2 in
                       zip(dec.partial_sums, dec.partial_sums[1:]))
            # in-between interval sums vanish
            for (_, b), (a2, _) in zip(dec.intervals, dec.intervals[1:]):
                gap = eta.values[idx[b] + 1:idx[a2]]
                assert sum(gap) == 0.0


def dense_stages(chain):
    """The r + 1 dense stages of a chain, built from `first_stage`."""
    cells = list(zip(chain.eta.values, chain.first_stage))
    return [tuple(v if first <= k else 0.0 for v, first in cells)
            for k in range(chain.r + 1)]


class TestChain:
    def test_two_up_two_down(self):
        eta = from_pairs(5.0, [(1.0, 1.0), (2.0, 1.0), (3.0, -1.0), (4.0, -1.0)])
        chain = chain_decompose(eta)
        assert chain.r == 2
        assert chain.first_stage == (2, 1, 2, 1)
        assert dense_stages(chain) == [(0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, -1.0), eta.values]

    def test_alternating_single_stage(self):
        eta = alternating_train(9)
        chain = chain_decompose(eta)
        assert chain.r == 1
        assert len(dense_stages(chain)) == 2

    def test_campaign(self):
        for seed in range(100):
            eta = random_unit_train(seed + 900, 5 + seed % 60)
            chain = chain_decompose(eta)
            r = int(discrepancy_norm(eta))
            assert chain.r == r
            increments = chain.increments()
            assert len(increments) == r
            total = 0.0
            dense = dense_stages(chain)
            for k, inc in enumerate(increments, start=1):
                assert is_alternating(inc)
                assert discrepancy_norm(inc) == 1.0
                assert discrepancy_norm(dense[k]) == float(k)
                total += discrepancy_norm(inc)
            assert total == discrepancy_norm(eta)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            chain_decompose(from_pairs(1.0, [(0.5, 0.5)]))
        with pytest.raises(ValueError):
            chain_decompose(from_pairs(1.0, []))


def unit_seq(*values):
    return from_pairs(1.0, [((k + 1) / 10, v) for k, v in enumerate(values)])


class TestTranscribe:
    def test_adjacent_pair(self):
        out = transcribe(unit_seq(1.0, -1.0), "plus_minus", 1)
        assert out.pairs() == []
        assert out.T == 1.0

    def test_nested_pairs_inner_first(self):
        eta = unit_seq(1.0, 1.0, -1.0, -1.0)
        one = transcribe(eta, "plus_minus", 1)
        assert one.pairs() == [(0.1, 1.0), (0.4, -1.0)]
        two = transcribe(eta, "plus_minus", 2)
        assert two.pairs() == []

    def test_pattern_over_zeros(self):
        # the zeros of a dense grid are the pairs that a pass dropped
        eta = unit_seq(-1.0, 1.0, -1.0, 1.0)
        out = transcribe(eta, "plus_minus", 1)
        assert out.pairs() == [(0.1, -1.0), (0.4, 1.0)]
        assert transcribe(out, "minus_plus", 1).pairs() == []
        assert transcribe(out, "plus_minus", 5).pairs() == out.pairs()

    def test_idempotent_beyond_fixpoint(self):
        eta = unit_seq(1.0, -1.0, 1.0)
        assert transcribe(eta, "plus_minus", 50).pairs() == [(0.3, 1.0)]

    def test_rejects_non_unit_values(self):
        with pytest.raises(ValueError, match="unit amplitudes"):
            transcribe(unit_seq(2.0), "plus_minus", 1)
        with pytest.raises(ValueError, match="pattern"):
            transcribe(alternating_train(2), "plus", 1)
        with pytest.raises(ValueError, match="n must be"):
            transcribe(alternating_train(2), "plus_minus", -1)

    def test_sum_invariant_and_discrepancy_non_increasing(self):
        for seed in range(60):
            eta = random_unit_train(seed + 2000, 4 + seed % 30)
            for pattern in ("plus_minus", "minus_plus"):
                prev = eta
                for n in range(1, 8):
                    cur = transcribe(eta, pattern, n)
                    assert sum(cur.values) == sum(eta.values)
                    assert discrepancy_norm(cur) <= discrepancy_norm(prev)
                    assert discrepancy_norm(cur) <= discrepancy_norm(eta)
                    prev = cur


class TestSweep:
    # the sweep of condition (iii) is ||eta||_D (analysis.certify_norm);
    # these pin the sign-list oracle's value to it on the paper's trains
    def test_alternating_discrepancy_is_one(self):
        eta = alternating_train(12)
        assert transcription_sweep_compact(eta, "D") == discrepancy_norm(eta) == 1.0

    def test_mmsn_40_max_max_sum(self):
        eta = mmsn_train(40)
        assert transcription_sweep_compact(eta, "M") == discrepancy_norm(eta) >= 20.0

    def test_mmsn_40_discrepancy_tight(self):
        eta = mmsn_train(40)
        assert transcription_sweep_compact(eta, "D") == discrepancy_norm(eta) == 20.0


class TestPi:
    def test_all_positive_is_identity_on_restriction(self):
        eta = from_pairs(1.0, [(0.2, 1.0), (0.5, 1.0), (0.8, 1.0)])
        out = pi_map(eta)
        assert out.grid == eta.times
        assert out.values == eta.values

    def test_three_event_example(self):
        eta = from_pairs(4.0, [(1.0, -1.0), (2.0, 1.0), (3.0, 1.0)])
        out = pi_map(eta)
        nz = [v for v in out.values if v != 0.0]
        assert len(nz) == 2
        assert all(v == 1.0 for v in nz)
        assert discrepancy_norm(out) == discrepancy_norm(eta) == 2.0

    def test_campaign_sign_purity_and_preservation(self):
        for seed in range(200):
            eta = random_unit_train(seed + 3000, 4 + seed % 80)
            out = pi_map(eta)
            r = discrepancy_norm(eta)
            nz = [v for v in out.values if v != 0.0]
            assert len(nz) == int(r)
            assert all(v > 0 for v in nz) or all(v < 0 for v in nz)
            assert discrepancy_norm(out) == r


# --- the extreme-position search against the scanning oracle ----------------

def _train_from_signs(signs):
    return from_pairs(1.0, [((k + 1) / (len(signs) + 1), v) for k, v in enumerate(signs)])


# Short sign lists shrink well; seeded random trains reach n = 2000.
unit_trains = st.one_of(
    st.lists(st.sampled_from((-1.0, 1.0)), min_size=1, max_size=60).map(_train_from_signs),
    st.builds(random_unit_train, st.integers(0, 2**32 - 1), st.integers(1, 2000)),
)


@given(unit_trains)
@example(random_unit_train(7, 2000))
@settings(max_examples=60, deadline=None)
def test_chain_and_mmd_equal_the_scanning_oracle(eta):
    chain = chain_decompose(eta)
    stages = chain_stages_scan(eta.values)
    assert chain.r == len(stages) - 1
    assert dense_stages(chain) == stages
    for inc, prev, cur in zip(chain.increments(), stages, stages[1:]):
        kept = [(t, b) for t, a, b in zip(eta.times, prev, cur) if a != b]
        assert inc.pairs() == kept
    r, idx, sums = mmd_index_intervals_scan(eta.values)
    dec = mmd_intervals(eta)
    assert dec.r == r
    assert dec.intervals == tuple((eta.times[i], eta.times[j]) for i, j in idx)
    assert dec.partial_sums == tuple(sums)


@given(st.lists(st.sampled_from((-2.0, -1.0, 1.0, 2.0)), min_size=1, max_size=80))
@settings(max_examples=200, deadline=None)
def test_mmd_on_integer_amplitudes_equals_the_scanning_oracle(values):
    eta = _train_from_signs(values)
    r, idx, sums = mmd_index_intervals_scan(eta.values)
    dec = mmd_intervals(eta)
    assert (dec.r, dec.partial_sums) == (r, tuple(sums))
    assert dec.intervals == tuple((eta.times[i], eta.times[j]) for i, j in idx)


def test_chain_memory_is_linear_at_10k_events():
    # the r + 1 dense stages would take r * n * 8 bytes (13 MB here)
    n = 10_000
    eta = random_unit_train(35, n)
    tracemalloc.start()
    try:
        chain = chain_decompose(eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.r > 100
    assert peak < 200 * n


def test_chain_at_128k_events_runs_in_linear_passes():
    eta = random_unit_train(36, 128_000)
    start = time.perf_counter()
    chain = chain_decompose(eta)
    elapsed = time.perf_counter() - start
    assert chain.r == int(discrepancy_norm(eta))
    assert sorted(set(chain.first_stage)) == list(range(1, chain.r + 1))
    assert elapsed < 2.0


# --- pi_map and the sparse transcription passes against the dense-grid oracles

short_unit_trains = st.one_of(
    st.lists(st.sampled_from((-1.0, 1.0)), min_size=1, max_size=300).map(_train_from_signs),
    st.builds(random_unit_train, st.integers(0, 2**32 - 1), st.integers(1, 300)),
)


@given(short_unit_trains)
@example(random_unit_train(7, 300))
@example(alternating_train(300))
@settings(max_examples=60, deadline=None)
def test_transcribe_and_pi_equal_the_dense_oracles(eta):
    dense = DenseEvents(eta.T, eta.times, eta.values)
    r = int(discrepancy_norm(eta))
    for pattern in ("plus_minus", "minus_plus"):
        for n in range(r + 2):
            ref = transcribe_dense(dense, pattern, n)
            kept = [(t, v) for t, v in zip(ref.grid, ref.values) if v != 0.0]
            assert transcribe(eta, pattern, n).pairs() == kept
    out, ref = pi_map(eta), pi_map_dense(eta)
    assert (out.T, out.grid) == (ref.T, ref.grid)
    assert list(map(repr, out.values)) == list(map(repr, ref.values))


def test_pi_equals_the_dense_oracle_on_every_short_sign_list():
    # all 2,046 sign lists of length 1 to 10
    for n in range(1, 11):
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            eta = _train_from_signs(signs)
            assert repr(pi_map(eta)) == repr(pi_map_dense(eta))


@given(st.lists(st.sampled_from((-1.0, 1.0)), min_size=1, max_size=40).map(_train_from_signs))
@example(mmsn_train(40))
@example(alternating_train(12))
@example(from_pairs(1.0, [(0.5, -1.0)]))
@settings(max_examples=40, deadline=None)
def test_sweep_equals_the_sign_list_oracle(eta):
    # analysis.certify_norm takes ||eta||_D for the sweep of condition (iii);
    # a new tag in NORM_KINDS fails here until that argument covers it
    d = discrepancy_norm(eta)
    for kind in NORM_KINDS:
        assert repr(transcription_sweep_compact(eta, kind)) == repr(d)
