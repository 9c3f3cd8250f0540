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
    pairs = list(pairs)  # read once: an iterator has no second pass
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
    writes; orjson reads each exactly as float() does.  The file is read
    once, front to back, so a pipe reads as a file does.  The header is
    its first nonblank line.  The lines after it are read `BLOCK`
    characters at a time, each block completed to the end of its last
    line, and `_block_cells` reads each block.  A byte that is not UTF-8
    is read as a lone surrogate, so its cell is malformed."""
    if horizon is not None:
        horizon = check_positive(horizon, "horizon")
    times, values = [], []
    with open(path, errors="surrogateescape") as handle:
        lineno, line = 0, ""  # the lines read so far, and the last of them
        for lineno, line in enumerate(iter(handle.readline, ""), start=1):
            if line.strip():
                break
        if line.strip() != "t,v":
            raise ValueError(f"{path}: expected header 't,v'")
        while block := handle.read(BLOCK) + handle.readline():
            text = block.removesuffix("\n")
            lines, cells = _block_cells(text, path, lineno)
            times += cells[0::2]
            values += cells[1::2]
            lineno += lines
    if horizon is None:
        horizon = _read_sidecar(path)
    try:
        return EventSequence(horizon, times, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# Every byte but the comma and the newline, which `_block_cells` deletes
# to see a block's row layout.
_CELL_BYTES = bytes(sorted(set(range(256)) - set(b",\n")))


def _block_cells(text: str, path, lineno: int) -> tuple[int, list]:
    """The number of lines in `text`, whole lines of an event CSV after its
    line `lineno`, and their numbers, two a row: the time and the value.

    Text laid out as `write_events_csv` writes it is checked in C, with no
    Python object per row: its commas and newlines must alternate,
    starting and ending with a comma, which puts exactly one comma in each
    row (a count of commas alone misses a row of 3 cells before a row of
    1).  It is then parsed by one orjson call, each newline read as a
    comma.  Any other text, and text that parse refuses, is read by
    `_line_cells`; text both refuse is scanned line by line for its first
    bad row, whose ValueError names the file and the line."""
    separators = text.encode(errors="surrogateescape").translate(None, _CELL_BYTES)
    lines = separators.count(b"\n") + 1
    cells = None
    if separators == b",\n" * (lines - 1) + b",":
        cells = _json_numbers(text.replace("\n", ","), 2 * lines)
    if cells is None:
        cells = _line_cells(text)
    if cells is not None:
        return lines, cells
    for lineno, row in enumerate(map(str.strip, text.split("\n")), start=lineno + 1):
        if not row:
            continue
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns, got {row!r}")
        for cell in cells:
            if _json_numbers(cell, 1) is None:
                raise ValueError(
                    f"{path}:{lineno}: could not convert {cell!r}: expected a JSON number")
    raise AssertionError("no malformed row")


def _line_cells(text: str) -> list | None:
    """The numbers of the event CSV lines `text` read line by line: blank
    lines are skipped, each row is stripped and must hold exactly one
    comma, and one orjson call parses the rows joined.  None for text that
    this refuses."""
    rows = list(filter(None, map(str.strip, text.split("\n"))))
    if set(map(str.count, rows, repeat(","))) - {1}:
        return None
    return _json_numbers(",".join(rows), 2 * len(rows))


def _json_numbers(cells: str, count: int) -> list | None:
    """The comma-separated `cells` parsed by orjson, if they are `count`
    JSON numbers (float or int, not bool); None if not."""
    import orjson  # here, not at import: only reading a file pays for it

    try:
        numbers = orjson.loads("[" + cells + "]")
    except orjson.JSONDecodeError:
        return None
    # numbers hold no comma: `count` numbers means each cell is one
    if len(numbers) != count or not set(map(type, numbers)) <= JSON_NUMBERS:
        return None
    return numbers
