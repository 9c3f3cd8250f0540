"""Small shared helpers (horizon check, atomic file output)."""

import math
import numbers
import os
import tempfile


def check_horizon(T) -> float:
    """T as a float, if T is a positive finite real number (ints and numpy
    scalars included); anything else raises ValueError."""
    if type(T) is float or isinstance(T, numbers.Real):  # the ABC check is slow
        try:
            horizon = float(T)
        except OverflowError:
            horizon = math.inf
        if math.isfinite(horizon) and horizon > 0.0:
            return horizon
    raise ValueError(f"horizon must be a positive finite number, got {T!r}")


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
