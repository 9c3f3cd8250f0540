import math
import operator
import os
import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodlab import events
from sodlab._util import BLOCK, CHUNK
from sodlab.events import (
    EventSequence,
    _unit_normalized,
    difference,
    empty,
    from_pairs,
    read_events_csv,
    scale_events,
    split_signs,
    write_events_csv,
)
from sodlab.sampler import sod_sample
from sodlab.signals import pwl_from_points, random_walk
from sodlab.structure import DenseEvents, chain_decompose
from sodlab.trains import random_unit_train

from oracles import (difference_stepwise, events_csv_text, is_alternating, random_signed_train,
                     read_events_csv_lines)


def seq(*pairs, T=10.0):
    return from_pairs(T, list(pairs))


def test_from_pairs_reads_a_generator_once():
    eta = from_pairs(1.0, ((t, v) for t, v in [(0.5, 1.0), (0.7, -1.0)]))
    assert eta.pairs() == [(0.5, 1.0), (0.7, -1.0)]


def test_difference_with_self_is_empty():
    eta = seq((1.0, 1.0), (2.0, -1.0))
    assert len(difference(eta, eta)) == 0


def test_difference_disjoint_supports():
    a = seq((1.0, 1.0))
    b = seq((2.0, 1.0))
    assert difference(a, b).pairs() == [(1.0, 1.0), (2.0, -1.0)]


def test_difference_shared_time_cancels():
    a = seq((1.0, 0.5), (2.0, 0.5))
    b = seq((2.0, 0.5), (3.0, -0.5))
    assert difference(a, b).pairs() == [(1.0, 0.5), (3.0, 0.5)]


def test_difference_horizon_mismatch():
    with pytest.raises(ValueError):
        difference(seq((1.0, 1.0), T=2.0), seq((1.0, 1.0), T=3.0))


def test_difference_past_the_float_range_is_refused():
    # 1e308 - (-1e308) overflows: the EventSequence validator's message
    a = EventSequence(1.0, (0.5,), (1e308,))
    b = EventSequence(1.0, (0.5,), (-1e308,))
    with pytest.raises(ValueError, match="^event values must be finite$"):
        difference(a, b)


@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_difference_antisymmetry(s1, s2):
    a = random_signed_train(s1, 12)
    b = random_signed_train(s2, 9)
    lhs = difference(a, b)
    rhs = scale_events(difference(b, a), -1.0)
    assert lhs.times == rhs.times and lhs.values == rhs.values


@st.composite
def difference_pairs(draw):
    """Two sequences on one horizon 2^-30..2^20 with times from one small
    pool, so that exact collisions are common, each side possibly empty
    and holding t = 0 as 0.0 or -0.0; amplitudes of magnitude 1e-9..1e9,
    +-1 or +-2 times one unit, so that collisions cancel, or any float."""
    T = 2.0 ** draw(st.integers(-30, 20))
    unit = 10.0 ** draw(st.floats(-9.0, 9.0))
    pool = sorted({T * x for x in draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                                   max_size=8))})
    amplitude = (st.sampled_from((1.0, -1.0, 2.0, -2.0)).map(lambda c: c * unit)
                 | st.floats(-2.0 * unit, 2.0 * unit).filter(bool))

    def side():
        times = sorted(draw(st.lists(st.sampled_from(pool), unique=True)))
        if times and times[0] == 0.0 and draw(st.booleans()):
            times[0] = -0.0
        return EventSequence(T, times, [draw(amplitude) for _ in times])

    return side(), side()


@given(difference_pairs())
@settings(max_examples=300, deadline=None)
@example((from_pairs(1.0, [(-0.0, 1.0), (0.5, 2.0)]), from_pairs(1.0, [(0.0, 1.0)])))
@example((from_pairs(1.0, [(-0.0, 2.0)]), from_pairs(1.0, [(0.0, 1.0), (0.5, -1.0)])))
@example((from_pairs(1.0, [(0.0, 1.0)]), from_pairs(1.0, [(-0.0, 1.0), (1.0, 3.0)])))
@example((from_pairs(1.0, []), from_pairs(1.0, [(0.25, 1.0), (0.5, -1.0)])))
@example((from_pairs(1.0, [(0.25, 1.0), (0.5, -1.0)]), from_pairs(1.0, [])))
def test_difference_matches_the_stepwise_merge_by_repr(pair):
    a, b = pair
    got, ref = difference(a, b), difference_stepwise(a, b)
    assert repr((got.T, got.times, got.values)) == repr((ref.T, ref.times, ref.values))


def test_split_signs_all_positive():
    eta = seq((1.0, 1.0), (2.0, 2.0))
    plus, minus = split_signs(eta)
    assert plus.pairs() == eta.pairs()
    assert len(minus) == 0


def test_split_signs_example():
    plus, minus = split_signs(seq((1.0, 1.0), (2.0, -1.0)))
    assert plus.pairs() == [(1.0, 1.0)]
    assert minus.pairs() == [(2.0, 1.0)]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_split_signs_recombination(s):
    eta = random_signed_train(s, 20)
    plus, minus = split_signs(eta)
    back = difference(plus, minus)
    assert back.pairs() == eta.pairs()


def test_unit_normalized_keeps_empty_impure_and_unit_sequences():
    for eta in (empty(1.0), seq((1.0, 2.0), (2.0, -1.0)), seq((1.0, 1.0), (2.0, -1.0))):
        got, theta = _unit_normalized(eta)
        assert got is eta and theta is None


@given(st.integers(0, 2**31 - 1), st.floats(-6.0, 6.0), st.floats(1 / 64, 1.0))
@settings(max_examples=300, deadline=None)
def test_unit_normalized_sampler_output_is_exactly_unit(seed, u, v):
    # theta * (1 / theta) is 0.9999999999999999 for about 14% of these thresholds
    theta = 10.0 ** u * v
    eta = sod_sample(random_walk(1.0, seed, 12, 8.0 * theta), theta)
    units, got = _unit_normalized(eta)
    assert units.times == eta.times
    assert all(x in (-1.0, 1.0) for x in units.values)
    assert got == (theta if eta.times and theta != 1.0 else None)
    if eta.times:
        chain_decompose(units)


def test_is_alternating_examples():
    assert is_alternating(seq((1.0, 1.0), (2.0, -1.0), (3.0, 1.0)))
    assert not is_alternating(seq((1.0, 1.0), (2.0, 1.0)))
    assert is_alternating(empty(1.0))
    assert is_alternating(seq((1.0, -3.0)))


def test_boundary_null_space_outputs_alternate():
    # zigzag signals touching +-theta exactly sample to alternating trains
    theta = 0.25
    for peaks in (1, 2, 4):
        knots = [0.0]
        vals = [0.0]
        for i in range(peaks):
            knots.extend([2 * i + 1.0, 2 * i + 2.0])
            vals.extend([theta, 0.0])
        f = pwl_from_points(2.0 * peaks, knots, vals)
        eta = sod_sample(f, theta)
        assert len(eta) == 2 * peaks
        assert is_alternating(eta)


def test_validation_rejects_bad_sequences():
    with pytest.raises(ValueError):
        EventSequence(1.0, (0.5, 0.4), (1.0, 1.0))  # non-increasing
    with pytest.raises(ValueError):
        EventSequence(1.0, (0.5,), (0.0,))  # zero amplitude
    with pytest.raises(ValueError):
        EventSequence(1.0, (1.5,), (1.0,))  # beyond horizon
    with pytest.raises(ValueError):
        EventSequence(1.0, (0.5, 0.7), (1.0,))  # length mismatch
    for times in ((-0.1, 0.5), (0.2, math.nan, 0.7), (math.nan,)):
        with pytest.raises(ValueError):
            EventSequence(1.0, times, (1.0,) * len(times))
    for v in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            EventSequence(1.0, (0.5,), (v,))
    for T in (0, -1, math.inf, math.nan, "1"):
        with pytest.raises(ValueError, match="horizon"):
            EventSequence(T, (), ())


def test_int_horizon_stored_as_float():
    for T in (1, np.int64(1), np.float64(1.0)):
        for eta in (EventSequence(T, (0.5,), (1.0,)), DenseEvents(T, (0.5,), (0.0,))):
            assert type(eta.T) is float and eta.T == 1.0


def test_csv_roundtrip(tmp_path):
    eta = random_signed_train(5, 17, T=3.0)
    path = tmp_path / "events.csv"
    write_events_csv(path, eta)
    back = read_events_csv(path)
    assert back.T == eta.T
    assert back.pairs() == eta.pairs()


@pytest.mark.parametrize("eta", [
    empty(2.0),
    EventSequence(1.0, (0.25, 0.5, 1.0), (0.125, -0.125, 0.125)),
    # mixed magnitudes: subnormal, exponent and fixed-point reprs, signs
    EventSequence(1e17, (0.0, 5e-324, 1e-20, 0.1, 1.5, 123456789.125, 1e16, 1e17),
                  (1e-300, -2.5, 1e300, 7.0, -1e-7, 3.0, -3.0, -5e-324)),
    sod_sample(random_walk(1.0, 7, 200, 0.4), 2.0 ** -7),
])
def test_csv_bytes_equal_the_fstring_writer(tmp_path, eta):
    path = tmp_path / "events.csv"
    write_events_csv(path, eta)
    assert path.read_bytes() == events_csv_text(eta).encode()


def test_csv_blank_lines_and_spaces(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("\n t,v \n\n0.25, 1.0\n  \n0.5 ,-1.0\r\n")
    back = read_events_csv(path, horizon=1)
    assert back.T == 1.0 and back.pairs() == [(0.25, 1.0), (0.5, -1.0)]


def test_csv_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_events_csv(path, empty(2.0))
    back = read_events_csv(path)
    assert back.T == 2.0 and len(back) == 0


def test_csv_horizon_flag_wins(tmp_path):
    eta = seq((1.0, 1.0), T=10.0)
    path = tmp_path / "events.csv"
    write_events_csv(path, eta)
    assert read_events_csv(path, horizon=20.0).T == 20.0


@pytest.mark.parametrize("horizon", [True, "0.5", -1.0])
def test_csv_horizon_argument_must_be_a_number(tmp_path, horizon):
    # a flag, a string or a negative number in the horizon slot is refused,
    # and the message blames the argument, not the file
    path = tmp_path / "one.csv"
    path.write_text("t,v\n0.25,1.0\n")
    with pytest.raises(ValueError, match="horizon must be a positive finite number") as info:
        read_events_csv(path, horizon)
    assert not str(info.value).startswith(str(path))


def test_events_past_the_horizon_name_the_csv(tmp_path):
    # a valid horizon, from the sidecar or the argument, that the events
    # exceed is the file's fault
    path = tmp_path / "late.csv"
    write_events_csv(path, seq((0.5, 1.0), T=1.0))
    (tmp_path / "late.csv.meta.json").write_text('{"T": 0.25}')
    for horizon in (None, 0.25):
        with pytest.raises(ValueError) as info:
            read_events_csv(path, horizon)
        assert str(info.value).startswith(f"{path}: ")


def test_csv_without_horizon_is_an_error(tmp_path):
    # the last event time is not the horizon: no sidecar and no flag raises
    for eta in (seq((1.0, 1.0), T=10.0), empty(2.0)):
        path = tmp_path / f"events{len(eta)}.csv"
        write_events_csv(path, eta)
        (tmp_path / f"events{len(eta)}.csv.meta.json").unlink()
        with pytest.raises(ValueError, match="horizon"):
            read_events_csv(path)
        assert read_events_csv(path, horizon=eta.T).pairs() == eta.pairs()


def test_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v\n0.1,1.0,extra\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_events_csv(path, horizon=1.0)
    # errors name the physical line, blank lines included
    path.write_text("t,v\n\n\n0.1,1.0,extra\n")
    with pytest.raises(ValueError, match="bad.csv:4: expected two columns"):
        read_events_csv(path, horizon=1.0)
    path.write_text("\nt,v\n0.1,1.0\n\n0.2,x\n0.3\n")
    with pytest.raises(ValueError, match="bad.csv:5: could not convert"):
        read_events_csv(path, horizon=1.0)
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        read_events_csv(path, horizon=1.0)


def test_csv_rows_whose_cells_balance_across_lines_are_refused(tmp_path):
    # joined into one list, 3 cells and 1 cell make two rows' worth of
    # numbers: the comma count of each row is what refuses them
    path = tmp_path / "bad.csv"
    path.write_text("t,v\n0.1,0.5,1.0\n0.3\n")
    with pytest.raises(ValueError, match="bad.csv:2: expected two columns"):
        read_events_csv(path, horizon=1.0)


def _bits(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


@pytest.mark.parametrize("text, pairs", [
    ("t,v\n1,1\n", [(1.0, 1.0)]),
    ("t,v\n0.25,1e+16\n", [(0.25, 1e16)]),
    ("t,v\n 0.25 , 0.25 \n", [(0.25, 0.25)]),
    ("t,v\n-0.0,-0.5\n", [(-0.0, -0.5)]),
    ("t,v\n5e-324,5e-324\n", [(5e-324, 5e-324)]),
    ("t,v\r\n0.25,1.0\r\n0.5,-1.0\r\n", [(0.25, 1.0), (0.5, -1.0)]),
    # -0 is JSON's integer 0: it reads as 0.0, not -0.0
    ("t,v\n-0,1.0\n", [(0.0, 1.0)]),
])
def test_csv_accepted_json_numbers(tmp_path, text, pairs):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode())
    eta = read_events_csv(path, horizon=1.0)
    assert all(type(x) is float for x in eta.times + eta.values)
    assert _bits(eta.times) == _bits([t for t, _ in pairs])
    assert _bits(eta.values) == _bits([v for _, v in pairs])


_times = st.lists(st.floats(min_value=0.0, max_value=1e300), unique=True, max_size=40)
_amplitudes = st.builds(
    operator.mul, st.sampled_from([1.0, -1.0]), st.floats(min_value=1e-300, max_value=1e300))


@st.composite
def _wide_sequences(draw):
    times = sorted(draw(_times))
    if times and times[0] == 0.0 and draw(st.booleans()):
        times[0] = -0.0
    values = draw(st.lists(_amplitudes, min_size=len(times), max_size=len(times)))
    T = max(times[-1:] + [draw(st.floats(min_value=5e-324, max_value=1e300))])
    return EventSequence(T, times, values)


def _assert_csv_round_trip(path, eta):
    write_events_csv(path, eta)
    back = read_events_csv(path)
    assert back.T == eta.T
    assert _bits(back.times) == _bits(eta.times)
    assert _bits(back.values) == _bits(eta.values)


@given(_wide_sequences())
@settings(max_examples=200, deadline=None)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, eta):
    _assert_csv_round_trip(tmp_path_factory.mktemp("csv") / "events.csv", eta)


def test_csv_round_trip_across_chunk_borders(tmp_path):
    # three full chunks of rows and a one-row last chunk
    n = 3 * CHUNK + 1
    rng = np.random.default_rng(25)
    times = np.sort(rng.uniform(0.0, 1.0, n)).tolist()
    values = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)).tolist()
    path = tmp_path / "events.csv"
    _assert_csv_round_trip(path, EventSequence(1.0, times, values))
    # a bad cell in the third chunk is named by its line in the file
    lines = path.read_text().splitlines()
    lines[2 * CHUNK + 5] = "+" + lines[2 * CHUNK + 5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"events.csv:{2 * CHUNK + 6}: could not convert '[+]"):
        read_events_csv(path)


def _csv_read_peak_and_held(tmp_path, loose=False):
    """The tracemalloc peak of reading 10^5 written events, and the bytes
    the sequence read holds: its two tuples and its distinct floats.  With
    `loose`, the file has a blank line after every 7th line."""
    n = 100_000
    rng = np.random.default_rng(5)
    eta = EventSequence(1.0, np.sort(rng.uniform(0.0, 1.0, n)).tolist(),
                        rng.choice([-0.0078125, 0.0078125], n).tolist())
    path = tmp_path / "events.csv"
    write_events_csv(path, eta)
    if loose:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line + "\n" * (i % 7 == 6) for i, line in enumerate(lines)))
    tracemalloc.start()
    try:
        back = read_events_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = {id(x): x for x in back.times + back.values}.values()
    held = (sys.getsizeof(back.times) + sys.getsizeof(back.values)
            + sum(map(sys.getsizeof, floats)))
    assert len(back) == n
    return peak, held


def test_csv_read_peak_memory_is_a_few_times_the_sequence(tmp_path):
    # the text is parsed one block at a time, each block's list dropped once
    # its numbers join the columns; a whole-file split into cell strings
    # peaks at about 4x what the sequence holds
    peak, held = _csv_read_peak_and_held(tmp_path)
    assert peak < 3 * held, f"peak {peak / 1e6:.1f} MB, sequence {held / 1e6:.1f} MB"


def test_csv_block_read_peak_memory_is_below_1_75_times_the_sequence(tmp_path):
    # about 1.4x: the columns as lists while the validator copies them into
    # tuples; a string per row, as the line-by-line reader holds, made 2.4x
    peak, held = _csv_read_peak_and_held(tmp_path)
    assert peak < 1.75 * held, f"peak {peak / 1e6:.1f} MB, sequence {held / 1e6:.1f} MB"


def test_csv_read_peak_memory_with_blank_lines_is_below_1_75_times_the_sequence(tmp_path):
    # each block of lines is read on its own: a string per row of the whole
    # file, as a line-by-line reader holds, made 2.4x
    peak, held = _csv_read_peak_and_held(tmp_path, loose=True)
    assert peak < 1.75 * held, f"peak {peak / 1e6:.1f} MB, sequence {held / 1e6:.1f} MB"


def _read_through_pipe(text):
    """read_events_csv of `text` written into a pipe by a thread: a file
    that reads once, front to back, and has nothing left to read again."""
    read_end, write_end = os.pipe()

    def write():
        try:
            with open(write_end, "wb" if isinstance(text, bytes) else "w") as out:
                out.write(text)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read_events_csv(f"/dev/fd/{read_end}", horizon=1.0)
    finally:
        os.close(read_end)
        writer.join()


def test_csv_bad_row_in_a_pipe_is_named_by_its_line():
    with pytest.raises(ValueError, match=r"^/dev/fd/\d+:3: could not convert 'x'"):
        _read_through_pipe("t,v\n0.1,1.0\n0.2,x\n")


@pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
def test_csv_byte_that_is_not_utf8_is_named_by_its_line(tmp_path, piped):
    # in the first row and at byte 300,000, blocks past the first: the cell
    # that holds the byte fails the row check, which names the file and line
    text = events_csv_text(random_unit_train(3, 20_000)).encode()
    path = tmp_path / "bad.csv"
    for offset in (text.index(b"\n") + 3, 300_000):
        assert text[offset:offset + 1].isdigit()
        data = text[:offset] + b"\xff" + text[offset + 1:]
        line = data[:offset].count(b"\n") + 1
        where = r"/dev/fd/\d+" if piped else re.escape(str(path))
        message = rf"^{where}:{line}: could not convert '[^']*\\udcff[^']*': expected a JSON"
        with pytest.raises(ValueError, match=message):
            if piped:
                _read_through_pipe(data)
            else:
                path.write_bytes(data)
                read_events_csv(path, horizon=1.0)


def test_csv_with_blank_lines_reads_from_a_pipe_as_from_a_file(tmp_path):
    # several blocks of rows, each with blank and whitespace-only lines
    n = 10_000
    rng = np.random.default_rng(35)
    eta = EventSequence(1.0, np.sort(rng.uniform(0.0, 1.0, n)).tolist(),
                        rng.choice([-0.5, 0.5], n).tolist())
    lines = events_csv_text(eta).splitlines()
    text = "\n" + "".join(f"{line}\n" + "\n  \n" * (i % 7 == 6) for i, line in enumerate(lines))
    path = tmp_path / "events.csv"
    path.write_text(text)
    piped, read = _read_through_pipe(text), read_events_csv(path, horizon=1.0)
    assert _bits(piped.times) == _bits(read.times) == _bits(eta.times)
    assert _bits(piped.values) == _bits(read.values) == _bits(eta.values)


# --- the block reader against the line-by-line reference ---------------------

_BAD_CELLS = ("+0.5", "x", "", "1.0.0", "true", "null", "[1]", "0x10", "nan", '"1"')


def _mutate(draw, lines, i, kind):
    """Apply the mutation `kind` to `lines` at line i >= 1."""
    if kind == "blank":
        lines.insert(i, "")
    elif kind == "whitespace":
        lines.insert(i, draw(st.sampled_from((" ", "\t", "  \t "))))
    elif kind == "spaces":
        lines[i] = " " + lines[i].replace(",", " , ") + " "
    elif kind == "crlf":
        lines[i] += "\r"
    elif kind == "three_then_one":  # a row of 3 cells, then a row of 1
        cell, _, rest = lines[i + 1].partition(",")
        lines[i:i + 2] = [lines[i] + "," + cell, rest]
    elif kind == "bad_cell":
        t, _, v = lines[i].partition(",")
        bad = draw(st.sampled_from(_BAD_CELLS))
        lines[i] = f"{bad},{v}" if draw(st.booleans()) else f"{t},{bad}"
    elif kind == "long_row":  # valid, but no row end within two blocks
        lines[i] = lines[i].replace(",", "," + " " * (2 * BLOCK), 1)


@st.composite
def _mutated_csv_texts(draw):
    """(text, plain): the writer's text for 1,800..2,200 random events, which
    reaches past the first `BLOCK` border, with up to three mutations, each
    within three lines of that border, and maybe without its final newline;
    plain when the text is the writer's."""
    n = draw(st.integers(1800, 2200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.sort(rng.uniform(0.0, 1.0, n)).tolist()
    values = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)).tolist()
    lines = events_csv_text(EventSequence(1.0, times, values)).splitlines()
    # the line holding the first border: the header's 4 characters, then a block
    ends = np.cumsum([len(line) + 1 for line in lines])
    border = int(np.searchsorted(ends, 4 + BLOCK, side="right"))
    kinds = draw(st.lists(st.sampled_from(("blank", "whitespace", "spaces", "crlf",
                                           "three_then_one", "bad_cell", "long_row")),
                          max_size=3))
    for kind in kinds:
        _mutate(draw, lines, border + draw(st.integers(-3, 3)), kind)
    final = draw(st.booleans())
    return "\n".join(lines) + ("\n" if final else ""), final and not kinds


def _read_outcome(read, path):
    try:
        eta = read(path, 1.0)
    except ValueError as exc:
        return str(exc)
    return _bits(eta.times), _bits(eta.values)


def _refuse_lines(text):
    raise AssertionError("the writer's text was read line by line")


@given(_mutated_csv_texts())
@settings(max_examples=150, deadline=None)
def test_the_block_reader_reads_as_the_line_reader(tmp_path_factory, case):
    # the same bits, or the same `path:line:` message, on either side of a
    # block border; the writer's own text reads with the per-line reading refused
    text, plain = case
    path = tmp_path_factory.mktemp("csv") / "events.csv"
    path.write_bytes(text.encode())
    assert _read_outcome(read_events_csv, path) == _read_outcome(read_events_csv_lines, path)
    if plain:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(events, "_line_cells", _refuse_lines)
            assert _read_outcome(read_events_csv, path) == _read_outcome(
                read_events_csv_lines, path)
