"""The one float formatter (`_util.float_reprs`) and the file writers built
on it: byte-identical to per-value repr writers, across chunk boundaries,
in memory that does not grow with the input."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import events_csv_text, signal_to_dict

from sodlab._util import CHUNK, float_reprs, write_text_atomic
from sodlab.cli import _write_csv
from sodlab.events import EventSequence, write_events_csv
from sodlab.signals import integrate, pwl_from_points, save_signal


@given(st.lists(st.floats()) | st.lists(st.floats()).map(tuple))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0])
@settings(max_examples=300, deadline=None)
def test_float_reprs_equal_repr(xs):
    assert float_reprs(xs) == list(map(repr, xs))


def test_float_reprs_equal_repr_on_random_bit_patterns():
    # a uniform exponent field puts 97% of the values outside [1e-4, 1e16),
    # where orjson's text is not used: the second half keeps the random
    # sign and mantissa bits and draws the exponent from 2^-15..2^54
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
    exponent = np.uint64(0x7FF << 52)
    bits[100_000:] = (bits[100_000:] & ~exponent) | (
        rng.integers(1023 - 15, 1023 + 55, size=100_000, dtype=np.uint64) << np.uint64(52))
    xs = bits.view(np.float64)
    xs = xs[np.isfinite(xs)].tolist()
    assert len(xs) > 199_000
    assert float_reprs(xs) == list(map(repr, xs))


def _with_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# the values where repr's layout turns (1e-4, 1e16) and where float
# formatters often go astray: zeros, the subnormal and float extremes, the
# end of the exact integers, the largest exact power of ten
_EDGES = [
    y
    for x in (0.0, 5e-324, 1e-5, 1e-4, 2.0 ** 53, 1e16, 1e22, 1.7976931348623157e308)
    for y in _with_neighbours(x) if math.isfinite(y)
] + [-0.0, 9999999999999998.0]


def test_float_reprs_equal_repr_on_edges():
    xs = _EDGES + [-x for x in _EDGES]
    assert float_reprs(xs) == list(map(repr, xs))
    assert float_reprs(()) == []


def _mixed(n: int) -> list[float]:
    """n values of magnitude 1e-22..1e22 in both signs, zeros among them,
    so that values repr writes with an exponent sit on chunk edges too."""
    out = [(-1.0) ** k * 10.0 ** ((7 * k) % 45 - 22) * (1.0 + k / (n + 1)) for k in range(n)]
    out[::97] = [0.0] * len(out[::97])
    return out


# 0 and 1 items, one chunk less one, one, one plus one, two plus one
_SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@pytest.mark.parametrize("n", _SIZES)
def test_events_csv_bytes_across_chunk_edges(tmp_path, n):
    # the times pass 1e16 near the first chunk edge: repr's exponent
    # layout there and fixed-point layout before it
    values = [v or 1.5 for v in _mixed(n)]
    eta = EventSequence(1e17, tuple(k * 2.5e12 for k in range(n)), tuple(values))
    path = tmp_path / "events.csv"
    write_events_csv(path, eta)
    assert path.read_bytes() == events_csv_text(eta).encode()


@pytest.mark.parametrize("n", [n for n in _SIZES if n])  # a signal has a piece
def test_signal_json_bytes_across_chunk_edges(tmp_path, n):
    f = integrate(pwl_from_points(1e17, [k * 2.5e12 for k in range(n)], _mixed(n)))
    assert len(f.t0) == n
    path = tmp_path / "sig.json"
    save_signal(path, f)
    expected = json.dumps(signal_to_dict(f), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", [0, 1, CHUNK + 1])
def test_report_csv_bytes_equal_a_per_cell_writer(tmp_path, n):
    # a float column, an int column, a str column and a mixed one (a
    # numpy float is written by its repr, a non-finite float by repr too)
    values = _mixed(n)
    rows = [(k, f"k={k}", v, v if k % 3 else (np.float64(v) if k % 2 else math.inf))
            for k, v in enumerate(values)]
    path = tmp_path / "rows.csv"
    _write_csv(path, ("i", "label", "x", "y"), rows)
    expected = "".join(
        ",".join(repr(c) if isinstance(c, float) else str(c) for c in row) + "\n"
        for row in [("i", "label", "x", "y"), *rows])
    assert path.read_text() == expected


def _peak_bytes(write) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        write()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writers_memory_does_not_grow_with_the_input(tmp_path):
    # the sizes and value ranges of a bulk sample and its reconstruction
    n = 100_000
    times = [k / n for k in range(n)]
    values = np.random.default_rng(5).uniform(-1.0, 1.0, n).tolist()
    eta = EventSequence(1.0, tuple(times), tuple(values))
    f = pwl_from_points(1.0, times, values)
    # warm: the formatter's import is not part of a write's memory
    write_events_csv(tmp_path / "warm.csv", EventSequence(1.0, (0.5,), (1.0,)))
    csv_peak = _peak_bytes(lambda: write_events_csv(tmp_path / "events.csv", eta))
    json_peak = _peak_bytes(lambda: save_signal(tmp_path / "sig.json", f))
    # a whole-file writer holds each of n values' strings: tens of MB here
    assert csv_peak < 4 * 2**20, csv_peak
    assert json_peak < 4 * 2**20, json_peak


def test_a_failing_chunk_leaves_the_destination_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def chunks():
        yield "new\n"
        raise ValueError("bad value")

    with pytest.raises(ValueError, match="bad value"):
        write_text_atomic(path, chunks())
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    write_text_atomic(path, iter(["a", "b\n"]))
    assert path.read_text() == "ab\n"
