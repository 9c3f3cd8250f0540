"""Event sequences: sampler outputs, their differences, and sign structure.

Events are stored sparsely (no zero amplitudes).  Grid merging uses exact
float time equality: samplers and generators only produce times from exact
arithmetic, so collisions are intentional, never tolerance-matched.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import repeat

from ._util import (BLOCK, CHUNK, JSON_NUMBERS, check_positive, float_columns, float_reprs,
                    write_text_atomic)


def _check_grid(T, times, values, what: str):
    """Validation shared by EventSequence and DenseEvents: a positive finite
    horizon, strictly increasing `what` times in [0, T], and one finite
    value per time, checked on the floats of `float_columns`.  Returns the
    horizon as a float and times and values as float tuples."""
    T = check_positive(T, "horizon")
    finite, (times, values) = float_columns(times, values)
    if len(times) != len(values):
        raise ValueError(f"{what} times and values must have equal length")
    if not all(map(operator.lt, times, times[1:])):
        raise ValueError(f"{what} times must be strictly increasing")
    for t in times[:1] + times[-1:]:  # increasing: the ends bound the rest
        if not 0.0 <= t <= T:
            raise ValueError(f"{what} time {t!r} outside [0, {T!r}]")
    if not finite:  # the times lie in [0, T]: a value is not finite
        raise ValueError(f"{what} values must be finite")
    return T, times, values


@dataclass(frozen=True)
class EventSequence:
    """Finite ordered list of (time, amplitude) events on [0, T].

    Times are strictly increasing within [0, T]; amplitudes are finite and
    nonzero; an entry that is no real number raises a TypeError, unparsed.
    A sequence is theta-pure when all |v_k| coincide; differences of two
    theta-pure sequences may carry amplitudes in {-2t, -t, t, 2t}.
    """

    T: float
    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        T, times, values = _check_grid(self.T, self.times, self.values, "event")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if 0.0 in values:
            raise ValueError("event amplitudes must be nonzero")

    @classmethod
    def _from_columns(cls, T: float, times: tuple, values: tuple) -> EventSequence:
        """The sequence with these fields, stored as given: none of the
        checks of `__post_init__` runs.  For library code only, on float
        tuples that pass those checks by how they were built; each caller
        names the checks it skips and why they cannot fail, and runs the
        ones that can."""
        eta = object.__new__(cls)
        eta.__dict__.update(T=T, times=times, values=values)
        return eta

    def __len__(self) -> int:
        return len(self.times)

    def pairs(self):
        return list(zip(self.times, self.values))

    def is_pure(self) -> bool:
        """True when all amplitude magnitudes are identical (or empty)."""
        return len(set(map(abs, self.values))) <= 1


def from_pairs(T: float, pairs) -> EventSequence:
    times = tuple(p[0] for p in pairs)
    values = tuple(p[1] for p in pairs)
    return EventSequence(T, times, values)


def empty(T: float) -> EventSequence:
    return EventSequence(T, (), ())


def scale_events(eta: EventSequence, lam: float) -> EventSequence:
    """Amplitudes scaled by lam; lam = 0 yields the empty sequence."""
    if lam == 0.0:
        return empty(eta.T)
    return EventSequence(eta.T, eta.times, tuple(lam * v for v in eta.values))


def difference(eta1: EventSequence, eta2: EventSequence) -> EventSequence:
    """Merged-grid pointwise eta1 - eta2; exact cancellations are dropped."""
    if eta1.T != eta2.T:
        raise ValueError(f"horizon mismatch: {eta1.T!r} vs {eta2.T!r}")
    t1, v1 = eta1.times, eta1.values
    t2, v2 = eta2.times, eta2.values
    n1, n2 = len(t1), len(t2)
    i = j = 0
    times, values = [], []
    while i < n1 and j < n2:
        t, s = t1[i], t2[j]
        if t < s:
            times.append(t)
            values.append(v1[i])
            i += 1
        elif s < t:
            times.append(s)
            values.append(-v2[j])
            j += 1
        else:  # exact time collision
            v = v1[i] - v2[j]
            if v != 0.0:
                times.append(t)
                values.append(v)
            i += 1
            j += 1
    # the tail of the side left over: its amplitudes are nonzero, as stored
    times += t1[i:]
    values += v1[i:]
    times += t2[j:]
    values += map(operator.neg, v2[j:])
    return EventSequence(eta1.T, tuple(times), tuple(values))


def _unit_normalized(eta: EventSequence) -> tuple[EventSequence, float | None]:
    """(eta / theta, theta) for a theta-pure eta with theta != 1, else (eta, None).
    Stored unchecked: the times are eta's and each v / theta is exactly +-1.0."""
    theta = abs(eta.values[0]) if eta.values else 1.0
    if theta == 1.0 or not eta.is_pure():
        return eta, None
    units = tuple(v / theta for v in eta.values)
    return EventSequence._from_columns(eta.T, eta.times, units), theta


def split_signs(eta: EventSequence) -> tuple[EventSequence, EventSequence]:
    """(positive part, negated negative part); both carry amplitudes > 0 and
    eta reconstructs as plus - minus on the merged grid."""
    plus = [(t, v) for t, v in zip(eta.times, eta.values) if v > 0.0]
    minus = [(t, -v) for t, v in zip(eta.times, eta.values) if v < 0.0]
    return from_pairs(eta.T, plus), from_pairs(eta.T, minus)


# --- CSV interface ---------------------------------------------------------
# Header `t,v`, one event per row, times ascending, full decimal precision;
# every cell is a JSON number.
# The horizon travels in a sidecar JSON (or a CLI flag).


def _sidecar_path(path) -> str:
    return f"{path}.meta.json"


def write_events_csv(path, eta: EventSequence) -> None:
    write_text_atomic(path, _events_csv(eta))
    write_text_atomic(_sidecar_path(path), json.dumps({"T": eta.T}) + "\n")


def _events_csv(eta: EventSequence):
    """The CSV text in chunks of `CHUNK` rows, every number as its
    float.__repr__."""
    yield "t,v\n"
    times, values = eta.times, eta.values
    for i in range(0, len(times), CHUNK):
        rows = zip(float_reprs(times[i:i + CHUNK]), float_reprs(values[i:i + CHUNK]))
        yield "\n".join(map(",".join, rows)) + "\n"


def _bad_row(path) -> ValueError:
    """The error for the first malformed data row of the CSV at `path`,
    numbered by its physical line: each cell is read by the rule of
    `read_events_csv`, so this finds a row whenever that refuses one."""
    import orjson

    with open(path) as handle:
        rows = [(n, ln.strip()) for n, ln in enumerate(handle, start=1) if ln.strip()]
    for lineno, row in rows[1:]:  # after the header
        cells = row.split(",")
        if len(cells) != 2:
            return ValueError(f"{path}:{lineno}: expected two columns, got {row!r}")
        for cell in cells:
            try:
                number = type(orjson.loads(cell)) in JSON_NUMBERS
            except orjson.JSONDecodeError:
                number = False
            if not number:
                return ValueError(
                    f"{path}:{lineno}: could not convert {cell!r}: expected a JSON number")
    raise AssertionError("no malformed row")


def _read_sidecar(path) -> float:
    """The horizon `T` from the sidecar of the CSV at `path`; a missing or
    malformed sidecar raises a ValueError that names it."""
    meta_path = _sidecar_path(path)
    try:
        with open(meta_path) as handle:
            return check_positive(json.load(handle)["T"], "horizon")
    except FileNotFoundError:
        raise ValueError(
            f"{path}: no horizon; pass --horizon or keep the {meta_path} sidecar"
        ) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{meta_path}: expected a JSON object with a positive numeric \"T\" ({exc!r})"
        ) from None


def read_events_csv(path, horizon: float | None = None) -> EventSequence:
    """Read an event CSV; blank lines are skipped, a malformed row raises
    a ValueError that starts with ``path:line:``, and events the horizon
    refuses raise one that starts with ``path:``.

    Every cell must be a JSON number, which is what `write_events_csv`
    writes; orjson reads each exactly as float() does.  A file in the
    layout that `write_events_csv` writes (the header ``t,v``, then rows of
    one comma each, every row ended by a newline) is read by
    `_block_columns`, one `BLOCK` of text and one orjson call at a time.
    Any other file, and a file that reader leaves, is read again line by
    line by `_line_columns`, which skips blank lines, strips each row and
    names the first bad line.  The two read the same numbers from a file
    both take, so a file reads to the same bits, or fails with the same
    message, by either."""
    if horizon is not None:
        horizon = check_positive(horizon, "horizon")
    with open(path) as handle:
        cols = None
        if handle.seekable():  # the per-line path reads the file from its start
            try:
                cols = _block_columns(handle)
            except ValueError:  # orjson's errors are ValueErrors
                pass
            handle.seek(0)
        if cols is None:
            cols = _line_columns(handle, path)
    if horizon is None:
        horizon = _read_sidecar(path)
    try:
        return EventSequence(horizon, *cols)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# Every byte but the comma and the newline, which `_block_columns` deletes
# to see a block's row layout.
_CELL_BYTES = bytes(sorted(set(range(256)) - set(b",\n")))


def _block_columns(handle):
    """The times and values of the event CSV in `handle`, for a file laid
    out as `write_events_csv` writes it.  None, or a ValueError, where the
    text departs from that layout or holds a cell that is not a JSON number.

    The text is read `BLOCK` characters at a time.  The whole rows in the
    buffer are one comma-and-newline-separated run of cells: its commas
    and newlines must alternate, starting and ending with a comma, which
    puts exactly one comma in each row (a count of commas alone misses a
    row of 3 cells before a row of 1).  The run is then parsed by one
    orjson call as a list of 2 numbers a row, and the list is dropped once
    its numbers are appended to the columns.  The text after the last
    newline waits for the next block."""
    if handle.read(4) != "t,v\n":
        return None
    import orjson  # here, not at import: only reading a file pays for it

    times, values = [], []
    buf = ""
    while True:
        more = handle.read(BLOCK)
        text, found, buf = (buf + more).rpartition("\n")
        if found:
            separators = text.encode().translate(None, _CELL_BYTES)
            rows = len(separators) // 2 + 1
            if separators != b",\n" * (rows - 1) + b",":
                return None
            cells = orjson.loads("[" + text.replace("\n", ",") + "]")
            # numbers hold no comma: 2 numbers a row means each cell is one
            if len(cells) != 2 * rows or not set(map(type, cells)) <= JSON_NUMBERS:
                return None
            times += cells[0::2]
            values += cells[1::2]
        if not more:  # the file ends: with a newline, as the writer ends it
            return None if buf else (times, values)
        if len(buf) > 2 * BLOCK:  # no row ends within two blocks: not this layout
            return None


def _line_columns(handle, path):
    """The times and values of the event CSV in `handle`, read line by line:
    blank lines are skipped and rows stripped.  The numbers are parsed by
    one orjson call per `CHUNK` rows, over the rows joined into a JSON list;
    a bad header or row raises the ValueError of `read_events_csv`."""
    import orjson  # here, not at import: only reading a file pays for it

    rows = list(filter(None, map(str.strip, handle)))
    if not rows or rows[0] != "t,v":
        raise ValueError(f"{path}: expected header 't,v'")
    del rows[0]
    times, values = [], []
    try:
        if set(map(str.count, rows, repeat(","))) - {1}:
            raise ValueError("a row without exactly two columns")
        for i in range(0, len(rows), CHUNK):
            chunk = rows[i:i + CHUNK]
            cells = orjson.loads("[" + ",".join(chunk) + "]")
            # numbers hold no comma: 2 numbers a row means each cell is one
            if len(cells) != 2 * len(chunk) or not set(map(type, cells)) <= JSON_NUMBERS:
                raise ValueError("a cell that is not a JSON number")
            times += cells[0::2]
            values += cells[1::2]
    except ValueError as exc:  # orjson.JSONDecodeError is a ValueError
        raise _bad_row(path) from exc
    return times, values
