"""Small shared helpers (positive-number check, atomic file output)."""

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
