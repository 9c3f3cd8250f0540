"""The signal JSON reader: save_signal's layout read in blocks by orjson,
every other layout by json.load, with the same bits and the same errors."""

import json
import os
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sodlab import signals
from sodlab._util import CHUNK
from sodlab.cli import main
from sodlab.signals import Signal, load_signal, random_walk, save_signal

from oracles import json_load_signal, signal_to_dict


def _bits(f: Signal) -> bytes:
    return b"".join(struct.pack(f"<{len(col)}d", *col)
                    for col in ((f.T,), f.t0, f.c0, f.c1, f.c2))


def _chunked(path):
    with open(path) as handle:
        return signals._chunked_columns(handle)


def _with_int_literals(d: dict) -> dict:
    """d with every integral float written as a JSON integer: 3.0 as 3,
    -0.0 as 0, 1e300 as its 301 digits."""
    def lit(x):
        return int(x) if x == int(x) else x
    return {"T": lit(d["T"]),
            "segments": [{k: lit(v) for k, v in s.items()} for s in d["segments"]]}


def _layouts(d: dict, rnd) -> dict:
    """The texts of d in save_signal's layout and in three others: compact
    (the layout the benchmark writes its walks in), indent 4, and indent 2
    with each piece's keys shuffled."""
    shuffled = [dict(rnd.sample(sorted(s.items()), len(s))) for s in d["segments"]]
    return {
        "sorted": json.dumps(d, indent=2, sort_keys=True) + "\n",
        "compact": json.dumps(d),
        "indent4": json.dumps(d, indent=4, sort_keys=True),
        "shuffled": json.dumps({"T": d["T"], "segments": shuffled}, indent=2) + "\n",
    }


def _assert_readers_agree(path):
    assert _bits(load_signal(path)) == _bits(json_load_signal(path))


# Values whose text or reading differs: signed zeros, subnormals, the ends
# of the range, and the layouts repr writes with an exponent.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 4e-320, 2.2250738585072014e-308, 1e300,
          -1e300, 1e-05, -3.5e-07, 9.99e-05, 1e16, -1.2345678901234567e20, 3.0, -2.0]
_COEFFS = st.one_of(st.sampled_from(_EDGES),
                    st.floats(-1e300, 1e300, allow_subnormal=True),
                    st.integers(-2**70, 2**70).map(float))


@st.composite
def _edge_signals(draw):
    T = draw(st.sampled_from([1.0, 3.0, 2.0 ** -40, 1e300]))
    starts = draw(st.lists(st.floats(0.0, T, exclude_max=True), max_size=11))
    t0 = [0.0] + sorted(set(starts) - {0.0})
    c1 = draw(st.lists(_COEFFS, min_size=len(t0), max_size=len(t0)))
    c2 = draw(st.lists(_COEFFS, min_size=len(t0), max_size=len(t0)))
    c0 = [draw(_COEFFS)]
    for i in range(len(t0) - 1):  # each joint exact: the left piece's end
        u = t0[i + 1] - t0[i]
        c0.append(c0[i] + u * (c1[i] + u * c2[i]))
    try:
        return Signal(T, t0, c0, c1, c2)
    except ValueError:  # a coefficient overflowed
        reject()


@given(_edge_signals(), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_every_layout_reads_to_the_bits_json_load_reads(tmp_path_factory, f, ints, rnd):
    tmp = tmp_path_factory.mktemp("layouts")
    d = signal_to_dict(f)
    if ints:
        d = _with_int_literals(d)
    for name, text in _layouts(d, rnd).items():
        path = tmp / f"{name}.json"
        path.write_text(text)
        _assert_readers_agree(path)
    saved = tmp / "saved.json"
    save_signal(saved, f)
    assert _bits(load_signal(saved)) == _bits(f)
    assert _chunked(saved) is not None


def _wide_signal(n: int, seed: int) -> Signal:
    """n pieces whose slopes and curvatures span 10^-300..10^290, with signed
    zeros and subnormals among them; each joint is the left piece's end."""
    rng = np.random.default_rng(seed)
    t0 = [0.0] + np.sort(rng.uniform(0.0, 1.0, n - 1)).tolist()
    c1, c2 = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 290, n) for _ in "12")
    c1[::7], c2[::5], c2[::11] = -0.0, 5e-324, 0.0
    c1, c2 = c1.tolist(), c2.tolist()
    c0 = [-0.0]
    for i in range(n - 1):
        u = t0[i + 1] - t0[i]
        c0.append(c0[i] + u * (c1[i] + u * c2[i]))
    return Signal(1.0, t0, c0, c1, c2)


_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@pytest.mark.parametrize("n", _SIZES)
def test_every_layout_reads_alike_at_chunk_sizes(tmp_path, n):
    for name, text in _layouts(signal_to_dict(_wide_signal(n, n)), random.Random(n)).items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        _assert_readers_agree(path)
        if name in ("sorted", "shuffled"):  # save_signal's layout, in any key order
            assert _chunked(path) is not None


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("block", [None, 200, 1000])
def test_block_borders(tmp_path, monkeypatch, n, block):
    # a block of 200 characters ends one piece or none; of 1000, several
    if block:
        monkeypatch.setattr(signals, "BLOCK", block)
    f = _wide_signal(n, n)
    path = tmp_path / "wide.json"
    save_signal(path, f)
    assert _chunked(path) is not None
    assert _bits(load_signal(path)) == _bits(f)


# --- errors ---------------------------------------------------------------------
# A defect in piece k of a file in save_signal's layout, whose piece k is
# lines 3 + 6k ("    {") to 3 + 6k + 5 ("    },"); c1 is line 3 + 6k + 2.

def _value(text):
    def defect(lines, k):
        lines[3 + 6 * k + 2] = f'      "c1": {text},'
    return defect


def _no_c2(lines, k):
    del lines[3 + 6 * k + 3]


def _start_repeated(lines, k):
    j = min(k + 1, (len(lines) - 6) // 6 - 1)  # the next piece, or the last
    lines[3 + 6 * j + 4] = lines[3 + 6 * (j - 1) + 4]


def _truncated(lines, k):
    del lines[3 + 6 * k + 3:]


def _trailing_text(lines, k):
    lines.append('{"T": 2.0}')


def _wrong_closer(lines, k):
    lines[-2] = "]"


def _horizon(text):
    def defect(lines, k):
        lines[1] = f'  "T": {text},'
    return defect


_DEFECTS = {
    "true": (_value("true"), 'field "c1" must be a number, got true'),
    "null": (_value("null"), 'field "c1" must be a number, got null'),
    "string": (_value('"0"'), 'field "c1" must be a number, got "0"'),
    "NaN": (_value("NaN"), "non-finite coefficient in the segment at t="),
    "Infinity": (_value("-Infinity"), "non-finite coefficient in the segment at t="),
    "1e400": (_value("1e400"), "non-finite coefficient in the segment at t="),
    "400 digits": (_value("1" + "0" * 399), "malformed signal JSON: int too large"),
    # orjson reads the 21 digits as 1e+20: json.dumps of its list would differ
    "list": (_value("[100000000000000000000]"), "must be a number, got [100000000000000000000]"),
    "no c2": (_no_c2, "malformed signal JSON: 'c2'"),
    "start repeated": (_start_repeated, "segment start times must be strictly increasing"),
    "truncated": (_truncated, "Expecting "),
    "trailing text": (_trailing_text, "Extra data"),
    "wrong closer": (_wrong_closer, "Expecting "),
    "T true": (_horizon("true"), 'field "T" must be a number, got true'),
}


@pytest.fixture(scope="module")
def saved_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("base") / "base.json"
    save_signal(path, random_walk(1.0, 26, 2 * CHUNK + 1, 0.5))
    assert _chunked(path) is not None
    return path.read_text().split("\n")


@pytest.mark.parametrize("defect", list(_DEFECTS))
@pytest.mark.parametrize("k", [0, CHUNK, 2 * CHUNK])
def test_a_defect_fails_as_json_load_fails(tmp_path, saved_lines, defect, k):
    # in the first block, in a middle one, and in the last
    edit, message = _DEFECTS[defect]
    lines = list(saved_lines)
    edit(lines, k)
    path = tmp_path / "bad.json"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as err:
        json_load_signal(path)
    expected = str(err.value)
    assert expected.startswith(f"{path}: ") and message in expected
    with pytest.raises(ValueError) as err:
        load_signal(path)
    assert str(err.value) == expected


def _constant(T, c0, starts) -> dict:
    return {"T": T, "segments": [{"t": t, "c0": c0, "c1": 0, "c2": 0} for t in starts]}


_REPEATED = "segment start times must be strictly increasing"
# Floats but for the two long starts, which orjson reads as floats too:
# the block reader takes the file
_LONG_STARTS = {"T": 1e21, "segments": [{"t": t, "c0": 0.0, "c1": 0.0, "c2": 0.0}
                                        for t in (0.0, 10**20, 10**20 + 1)]}


@pytest.mark.parametrize("d, error", [
    # below 2^64: an int to orjson too
    pytest.param(_constant(10**19, 1, [0, 1]), None, id="d0"),
    # a float to orjson
    pytest.param(_constant(2.0, 10**20, [0, 1]), None, id="d1"),
    # below -2^63: a float to orjson
    pytest.param(_constant(2.0, -10**19, [0, 1]), None, id="d2"),
    # 10^20 and 10^20 + 1 increase as ints, not as the one float they round
    # to: the start check reads the stored floats, so both readers refuse
    # the file, whether its ints send it to json.load or, as floats, to the
    # block reader
    pytest.param(_constant(10**21, 0, [0, 10**20, 10**20 + 1]), _REPEATED, id="d3"),
    pytest.param(_LONG_STARTS, _REPEATED, id="long_starts_among_floats"),
])
def test_a_long_integer_reads_as_json_reads_it(tmp_path, d, error):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")
    if error is None:
        _assert_readers_agree(path)
        return
    for read in (load_signal, json_load_signal):
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == f"{path}: {error}"


def test_an_integer_literal_is_read_by_json_load(tmp_path):
    # save_signal writes floats only: "T": 1, or a "c2": 0 in the last block,
    # leaves the block reader for json.load, which reads the ints
    path = tmp_path / "ints.json"
    save_signal(path, random_walk(1.0, 8, 1200, 0.5))
    text = path.read_text()
    head, found, tail = text.rpartition('"c2": 0.0,')
    assert found and text.startswith('{\n  "T": 1.0,')
    int_c2 = f'{head}"c2": 0,{tail}'
    for edited in (int_c2.replace('"T": 1.0,', '"T": 1,', 1), int_c2,
                   text.replace('"T": 1.0,', '"T": 1,', 1)):
        path.write_text(edited)
        assert _chunked(path) is None
        assert _bits(load_signal(path)) == _bits(json_load_signal(path))


def test_an_extra_key_is_read_by_json_load(tmp_path):
    # json.load ignores a fifth key, but fails on deep nesting under it,
    # which orjson parses
    f = random_walk(1.0, 4, 3, 0.5)
    path = tmp_path / "extra.json"
    for extra, error in (("1", None), ("[" * 5000 + "]" * 5000, RecursionError)):
        text = json.dumps(signal_to_dict(f), indent=2, sort_keys=True) + "\n"
        path.write_text(text.replace('"c0": ', f'"x": {extra},\n      "c0": ', 1))
        assert _chunked(path) is None
        if error is None:
            _assert_readers_agree(path)
            continue
        with pytest.raises(error):
            json_load_signal(path)
        with pytest.raises(error):
            load_signal(path)


def test_a_piece_longer_than_a_block_is_read_by_json_load(tmp_path, monkeypatch):
    monkeypatch.setattr(signals, "BLOCK", 200)
    path = tmp_path / "long.json"
    text = json.dumps(signal_to_dict(random_walk(1.0, 5, 3, 0.5)), indent=2, sort_keys=True)
    path.write_text(text.replace('"c0": ', " " * 300 + '"c0": ') + "\n")
    assert _chunked(path) is None
    _assert_readers_agree(path)


def test_a_pipe_is_read_by_json_load(tmp_path):
    # no rewinding a pipe: a layout the block reader leaves is read whole
    f = random_walk(1.0, 3, 40, 0.5)
    r, w = os.pipe()
    os.write(w, json.dumps(signal_to_dict(f)).encode())  # well inside a pipe's buffer
    os.close(w)
    try:
        assert _bits(load_signal(f"/dev/fd/{r}")) == _bits(f)
    finally:
        os.close(r)


def test_both_readers_refuse_a_joint_miss_by_the_one_rule(tmp_path):
    # a miss of 9e-13 on a joint of size 0.5, written in save_signal's layout
    # (read in blocks) and compactly (read by json.load)
    f = Signal._from_columns(1.0, (0.0, 0.5), (0.0, 0.5 + 9e-13), (1.0, 0.0), (0.0, 0.0))
    block, compact = tmp_path / "block.json", tmp_path / "compact.json"
    save_signal(block, f)
    compact.write_text(json.dumps(signal_to_dict(f)))
    assert _chunked(block) is not None and _chunked(compact) is None
    for path in (block, compact):
        with pytest.raises(ValueError) as err:
            load_signal(path)
        assert str(err.value) == f"{path}: discontinuity at t=0.5: 0.5 vs 0.5000000000009"
        result = CliRunner().invoke(main, ["sample", "--input", str(path), "--theta", "0.1",
                                           "--out", str(tmp_path / "ev.csv")])
        assert result.exit_code == 1 and "discontinuity at t=0.5" in result.output


def test_read_peak_memory_is_below_twice_the_signal(tmp_path):
    # json.load's whole text and one dict per piece peak at about 3.1x the
    # signal; one block's dicts at a time leave the columns and their tuples
    n = 100_000
    f = random_walk(1.0, 14, n, 0.5)
    path = tmp_path / "walk.json"
    save_signal(path, f)
    tracemalloc.start()
    try:
        back = load_signal(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols = (back.t0, back.c0, back.c1, back.c2)
    floats = {id(x): x for col in cols for x in col}.values()
    held = sum(map(sys.getsizeof, cols)) + sum(map(sys.getsizeof, floats))
    assert _bits(back) == _bits(f)
    assert peak < 2 * held, f"peak {peak / 1e6:.1f} MB, signal {held / 1e6:.1f} MB"
