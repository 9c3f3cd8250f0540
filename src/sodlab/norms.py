"""The three event-sequence norms: Weyl discrepancy, Alexiewicz, max-max-sum.

Norms see only the ordered amplitude sequence; times enter through ordering
alone (the interval suprema reduce to index intervals).  Every function
accepts an EventSequence, a DenseEvents, or a plain iterable of amplitudes.
"""

from __future__ import annotations


def _amplitudes(eta):
    values = getattr(eta, "values", eta)
    return values if isinstance(values, (tuple, list)) else tuple(values)


def discrepancy_norm(eta) -> float:
    """max over contiguous index intervals of |interval sum|, computed O(n)
    as the range of the prefix-sum walk (max vs 0 minus min vs 0)."""
    hi = lo = acc = 0.0
    for v in _amplitudes(eta):
        acc += v
        if acc > hi:
            hi = acc
        elif acc < lo:
            lo = acc
    return hi - lo


def alexiewicz_norm(eta) -> float:
    """max over prefixes of |prefix sum| (intervals anchored at 0)."""
    best = acc = 0.0
    for v in _amplitudes(eta):
        acc += v
        if abs(acc) > best:
            best = abs(acc)
    return best


def max_max_sum_norm(eta) -> float:
    """max(max_k |v_k|, |sum_k v_k|)."""
    values = _amplitudes(eta)
    total = 0.0
    for v in values:  # left to right: from Python 3.12, sum() compensates rounding
        total += v
    return max(max(map(abs, values), default=0.0), abs(total))


_FUNCS = {"D": discrepancy_norm, "A": alexiewicz_norm, "M": max_max_sum_norm}

# Norm tags, in the order the CLI lists them.
NORM_KINDS = tuple(_FUNCS)


def norm_by_kind(kind: str):
    """Norm function for a tag in NORM_KINDS."""
    try:
        return _FUNCS[kind]
    except KeyError:
        raise ValueError(f"unknown norm kind {kind!r} (expected D, A or M)") from None
