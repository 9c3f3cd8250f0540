"""Small shared helpers (real-number, positive-number and integer checks,
float columns, float formatting, report JSON, atomic file output)."""

import json
import math
import numbers
import os
import tempfile
from itertools import islice

import numpy as np

# The types json and orjson read a JSON number as; a bool, though an int, is not one.
JSON_NUMBERS = frozenset((float, int))
# Rows or pieces that a file writer formats at a time: its memory is
# O(CHUNK), not O(n), and one chunk's strings stay small.
CHUNK = 4096
# Characters a file reader takes at a time: about 500 signal JSON pieces or
# 1,600 event CSV rows.  A block's text, its copies and its parsed list are
# the reader's transient memory, a few hundred KB.
BLOCK = 1 << 16


def real_float(x) -> float:
    """x as a float if x is a real number, ints and numpy scalars included
    (inf past the float range), else nan: a bool, a string or None."""
    # the ABC check is slow; bool is a numbers.Real, but not a quantity
    if type(x) is float or (type(x) is not bool and isinstance(x, numbers.Real)):
        try:
            return float(x)
        except OverflowError:
            return math.inf
    return math.nan


def check_positive(x, name: str) -> float:
    """x as a float, if `real_float` reads it as a positive finite number;
    anything else raises a ValueError naming the quantity `name`."""
    value = real_float(x)
    if math.isfinite(value) and value > 0.0:
        return value
    raise ValueError(f"{name} must be a positive finite number, got {x!r}")


def check_integer(x, name: str, minimum: int) -> int:
    """x as an int, if x is an integer >= `minimum` (bools not); anything
    else raises a ValueError naming the quantity `name`."""
    if type(x) is not bool and isinstance(x, numbers.Integral) and x >= minimum:
        return int(x)
    raise ValueError(f"{name} must be an integer >= {minimum}, got {x!r}")


def float_columns(*cols) -> tuple[bool, list[tuple[float, ...]]]:
    """(finite, columns): whether every entry is finite, and the columns as
    float tuples.  math.isfinite reads every entry, with no early stop (sum,
    not all), before any is converted: a string, bytes or None raises a TypeError."""
    cols = [col if isinstance(col, (list, tuple)) else list(col) for col in cols]
    finite = all([sum(map(math.isfinite, col)) == len(col) for col in cols])
    return finite, [tuple(map(float, col)) for col in cols]


def float_reprs(col) -> list[str]:
    """``list(map(repr, col))`` for a tuple or list of Python floats.

    One orjson call writes every value by Ryu's shortest round-trip digits,
    which are float.__repr__'s; only its layout differs, and only where repr
    switches to an exponent: for nonzero |x| < 1e-4 and for |x| >= 1e16
    (orjson writes 0.00001, 1e-7 and 1e16 where repr writes 1e-05, 1e-07
    and 1e+16).  Those values, and inf and nan (orjson's null), are repr'd
    one by one.
    """
    import orjson  # here, not at import: only writing a file pays for it

    if not col:
        return []
    out = orjson.dumps(col)[1:-1].decode().split(",")
    a = np.abs(np.fromiter(col, dtype=float, count=len(col)))
    for i in np.flatnonzero((a != 0.0) & ~((a >= 1e-4) & (a < 1e16))).tolist():
        out[i] = repr(col[i])
    return out


def write_text_atomic(path, text):
    """Write `text`, a str or an iterable of str chunks, to `path` via a
    temp file + rename in the same directory.  A failure, also one raised
    while the chunks are made, leaves `path` as it was and removes the temp
    file; an OSError is raised naming `path`, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


# Types whose C-encoded JSON holds no ", " of its own.
_FLAT_SCALARS = (float, int, bool, type(None))
# Longest inner list that a list of flat lists is encoded in one call for.
# Short ones, like (x, y) pairs, cost more per list in the recursion than
# per value; long ones cost about the same either way, but one call over
# them all builds strings too large for the cache (15% slower on chain
# stages of 2000 values).
_SHORT = 16
# How json writes the floats that repr writes as inf, -inf and nan.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def json_report(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, for
    payloads built of dicts with string keys, lists, tuples and JSON scalars.

    json.dumps with an indent runs the pure-Python encoder.  Here a flat
    list of scalars, or a list of short nonempty flat lists of scalars
    (such as qi-check's envelope pairs), is written in one call, by
    `float_reprs` when it holds only floats and by the C encoder otherwise,
    and laid out again; dicts and other lists recurse.
    """
    parts = []
    _encode(payload, "\n", parts)
    return "".join(parts)


def _scalar_tokens(values) -> list[str]:
    """The JSON of each value of a list of `_FLAT_SCALARS`, as json writes
    it: a finite float as its repr."""
    if not all(type(x) is float for x in values):
        # no flat scalar's JSON holds ", ", so the separators are the only ones
        return json.dumps(values)[1:-1].split(", ")
    tokens = float_reprs(values)
    if not math.isfinite(sum(values)):  # an inf or a nan, or a sum past the range
        tokens = [_NON_FINITE.get(s, s) for s in tokens]
    return tokens


def _encode(obj, newline, parts) -> None:
    """Append the indented JSON of `obj`, whose lines start with `newline`."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, got {key!r}")
            parts.append(f"{sep}{json.dumps(key)}: ")
            _encode(obj[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
        elif all(type(x) in _FLAT_SCALARS for x in obj):
            # appended apart: joining them here would copy the body once more
            parts.extend(("[", inner, ("," + inner).join(_scalar_tokens(obj)), newline, "]"))
        elif (all(isinstance(x, (list, tuple)) and 0 < len(x) <= _SHORT for x in obj)
              and all(type(y) in _FLAT_SCALARS for x in obj for y in x)):
            deeper = inner + "  "
            tokens = iter(_scalar_tokens([y for x in obj for y in x]))
            rows = [("," + deeper).join(islice(tokens, len(x))) for x in obj]
            body = f"{inner}],{inner}[{deeper}".join(rows)
            parts.extend(("[", inner, "[", deeper, body, inner, "]", newline, "]"))
        else:
            sep = "[" + inner
            for item in obj:
                parts.append(sep)
                _encode(item, inner, parts)
                sep = "," + inner
            parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))
