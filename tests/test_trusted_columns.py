"""The outputs that the library stores without the public validator,
checked against it.

`Signal._from_columns` and `EventSequence._from_columns` store finished
columns unchecked.  The sampler's output, `reconstruct` and the merged
sums `add` and `subtract` go through them, each keeping only the checks its
arithmetic can fail.  Here every such output is rebuilt by its
public constructor, the oracle, which must accept it and store the same
fields.  A sum that cancels a joint's terms below the joint's miss is
refused instead, with the message the constructor gives its pieces.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodlab.events import EventSequence
from sodlab.sampler import lc_sample, reconstruct, sod_sample
from sodlab.signals import Signal, add, integrate, random_walk, scale, subtract

from oracles import add_segmentwise, scale_segmentwise
from test_sampler import cross_scale_inputs, run_on_inputs
from test_signals import column_cases


def assert_revalidates(x):
    """Rebuild `x` by its public constructor, which runs the full validator
    and raises ValueError on a fault, and require an equal object with the
    same fields by repr, so that a list for a tuple, an int for a float or
    0.0 for -0.0 shows."""
    y = type(x)(**{field.name: getattr(x, field.name) for field in dataclasses.fields(x)})
    assert y == x and repr(y) == repr(x)


@given(run_on_inputs())
@settings(max_examples=200, deadline=None)
def test_sampler_and_reconstruct_outputs_pass_the_validator(case):
    # walks, antiderivatives (quadratic pieces), lattice walks with steep
    # pieces and reconstructions, on horizons 2^-30..2^20
    f, theta = case
    for sample in (sod_sample, lc_sample):
        eta = sample(f, theta)
        assert_revalidates(eta)
        if eta.times:  # an empty sequence reconstructs through `zero`
            back = reconstruct(eta)
            assert_revalidates(back)
            assert_revalidates(sample(back, theta))


@given(cross_scale_inputs(), st.integers(-40, 40))
@settings(max_examples=200, deadline=None)
def test_merged_sums_pass_the_validator(case, k):
    # the cross-scale pairs, rescaled exactly by 2^k: amplitudes about
    # 1e-21..1e21 on horizons 1e-6..1e9
    f, g, _ = case
    f, g = scale(f, 2.0 ** k), scale(g, 2.0 ** k)
    for h in (add(f, g), subtract(f, g), subtract(f, f)):
        assert_revalidates(h)


def _antiderivative(T, seed, n_breaks, amplitude):
    return scale(integrate(random_walk(T, seed, n_breaks, amplitude)), 1.0 / T)


@given(column_cases())
@settings(max_examples=200, deadline=None)
# g is f / 2 on f's first piece, with values about 1e7: the difference is
# 0.0 there, and at f's joint only the two operands' rounding is left
@example((_antiderivative(0.0011174640896517598, 3, 2, 1e8),
          _antiderivative(0.0011174640896517598, 3, 1, 1e8), 0.5))
def test_sums_with_signed_zeros_pass_the_validator(case):
    # signals scaled by 0.0 or -0.0 among them, and any factor.  A sum that
    # cancels a joint's terms below its miss is refused, with the message
    # the public constructor gives the same pieces; a sum with a zero
    # operand cancels nothing, and every sum returned revalidates
    f, g, lam = case
    fl = scale(f, lam)
    for x, y, sign in ((f, g, 1.0), (f, g, -1.0), (fl, g, 1.0), (g, fl, -1.0)):
        try:
            h = add(x, y) if sign > 0.0 else subtract(x, y)
        except ValueError as exc:
            assert any(x.c0 + x.c1 + x.c2) and any(y.c0 + y.c1 + y.c2)
            with pytest.raises(ValueError) as ref:
                add_segmentwise(x, scale_segmentwise(y, sign))
            assert str(exc) == str(ref.value)
        else:
            assert_revalidates(h)


def _mutants():
    """Outputs of the trusted call sites, each with one fault put in through
    the private constructor."""
    eta = sod_sample(random_walk(1.0, 3, 12, 0.4), 0.1)
    f = reconstruct(eta)
    times = list(eta.times)
    times[1], times[2] = times[2], times[1]
    c0 = list(f.c0)
    c0[3] += 1e-3
    return {
        "two swapped times": EventSequence._from_columns(eta.T, tuple(times), eta.values),
        "an event past T": EventSequence._from_columns(eta.times[-1] / 2, eta.times,
                                                       eta.values),
        "a zero amplitude": EventSequence._from_columns(eta.T, eta.times,
                                                        (0.0, *eta.values[1:])),
        "an int amplitude": EventSequence._from_columns(eta.T, eta.times[:1], (1,)),
        "a broken joint": Signal._from_columns(f.T, f.t0, tuple(c0), f.c1, f.c2),
        "a start past T": Signal._from_columns(f.t0[-1], f.t0, f.c0, f.c1, f.c2),
        "a list column": Signal._from_columns(f.T, list(f.t0), f.c0, f.c1, f.c2),
    }


@pytest.mark.parametrize("fault", sorted(_mutants()))
def test_the_check_refuses_a_mutant(fault):
    with pytest.raises((ValueError, AssertionError)):
        assert_revalidates(_mutants()[fault])
