"""Small shared helpers (positive-number and integer checks, report JSON,
atomic file output)."""

import json
import math
import numbers
import os
import tempfile


def check_positive(x, name: str) -> float:
    """x as a float, if x is a positive finite real number (ints and numpy
    scalars included, bools not); anything else raises a ValueError naming
    the quantity `name`."""
    # the ABC check is slow; bool is a numbers.Real, but not a quantity
    if type(x) is float or (type(x) is not bool and isinstance(x, numbers.Real)):
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        if math.isfinite(value) and value > 0.0:
            return value
    raise ValueError(f"{name} must be a positive finite number, got {x!r}")


def check_integer(x, name: str, minimum: int) -> int:
    """x as an int, if x is an integer >= `minimum` (bools not); anything
    else raises a ValueError naming the quantity `name`."""
    if type(x) is not bool and isinstance(x, numbers.Integral) and x >= minimum:
        return int(x)
    raise ValueError(f"{name} must be an integer >= {minimum}, got {x!r}")


def write_text_atomic(path, text):
    """Write `text` to `path` via a temp file + rename in the same directory.
    A failure raises an OSError that names `path`, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


# Types whose C-encoded JSON holds no ", " or "]" of its own.
_FLAT_SCALARS = (float, int, bool, type(None))
# Longest inner list that a list of flat lists is encoded in one call for.
# Short ones, like (x, y) pairs, cost more per list in the recursion than
# per value; long ones cost about the same either way, but one call over
# them all builds strings too large for the cache (15% slower on chain
# stages of 2000 values).
_SHORT = 16


def json_report(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, for
    payloads built of dicts with string keys, lists, tuples and JSON scalars.

    json.dumps with an indent runs the pure-Python encoder.  Here a flat
    list of numbers, or a list of short nonempty flat lists of numbers
    (such as qi-check's envelope pairs), goes through the C encoder in one
    call and only its separators are laid out again; dicts and other lists
    recurse.
    """
    parts = []
    _encode(payload, "\n", parts)
    return "".join(parts)


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
            body = json.dumps(obj)[1:-1].replace(", ", "," + inner)
            parts.extend(("[", inner, body, newline, "]"))
        elif (all(isinstance(x, (list, tuple)) and 0 < len(x) <= _SHORT for x in obj)
              and all(type(y) in _FLAT_SCALARS for x in obj for y in x)):
            # no scalar's JSON holds "]" or ", ", so the inner lists' own
            # "], [" and ", " are the only ones
            deeper = inner + "  "
            body = (json.dumps(obj)[2:-2]
                    .replace("], [", f"{inner}],{inner}[{deeper}")
                    .replace(", ", "," + deeper))
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
