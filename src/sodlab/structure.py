"""Discrete structure of unit event sequences: minimal intervals of maximal
discrepancy, the unit-step chain factorization, pattern-transcription
operators, and the sign-purification map built from them.

Everything here runs on the prefix-sum walk: the discrepancy of a contiguous
block of events equals the range of the global prefix-sum array over the
block's index window (left base included), so interval searches are sliding
range queries on one array.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import EventSequence, _check_grid, difference
from .norms import discrepancy_norm, norm_by_kind


@dataclass(frozen=True)
class DenseEvents:
    """Events on an explicit support grid, zeros retained positionally."""

    T: float
    grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        T, grid, values = _check_grid(self.T, self.grid, self.values, "grid")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.grid)


def to_dense(eta: EventSequence) -> DenseEvents:
    return DenseEvents(eta.T, eta.times, eta.values)


def to_sparse(dense: DenseEvents) -> EventSequence:
    kept = [(t, v) for t, v in zip(dense.grid, dense.values) if v != 0.0]
    return EventSequence(dense.T, tuple(t for t, _ in kept), tuple(v for _, v in kept))


@dataclass(frozen=True)
class MmdDecomposition:
    """Disjoint minimal-length intervals on which the restriction attains the
    full discrepancy r; their event sums D_m alternate in sign and the sums
    over the gaps between them vanish."""

    r: float
    intervals: tuple[tuple[float, float], ...]
    partial_sums: tuple[float, ...]


@dataclass(frozen=True)
class ChainDecomposition:
    """Stages eta_0 = 0, ..., eta_r = eta on a shared dense grid with unit
    discrepancy increments: ||eta_k - eta_{k-1}||_D = 1 for every k."""

    stages: tuple[DenseEvents, ...]

    @property
    def r(self) -> int:
        return len(self.stages) - 1

    def increments(self) -> list[EventSequence]:
        return [difference(to_sparse(cur), to_sparse(prev))
                for prev, cur in zip(self.stages, self.stages[1:])]


def _require_unit(values, zeros_ok: bool) -> None:
    allowed = (-1.0, 0.0, 1.0) if zeros_ok else (-1.0, 1.0)
    for v in values:
        if v not in allowed:
            raise ValueError(
                f"needs unit amplitudes ({'zeros allowed' if zeros_ok else 'no zeros'}), got {v!r}"
            )


def _mmd_index_intervals(values):
    """(r, [(i, j)], [D_m]) over event indices; zeros may appear in `values`
    but interval endpoints are nonzero positions.

    Recursion: after interval m the next right end is the earliest nonzero
    index strictly beyond it whose fresh restriction attains discrepancy r,
    and the left end is the latest start preserving r.  Searching strictly to
    the right of the previous interval is the reading that keeps successive
    intervals disjoint.
    """
    n = len(values)
    prefix = [0.0] * (n + 1)
    for k, v in enumerate(values):
        prefix[k + 1] = prefix[k] + v
    r = max(prefix) - min(prefix)
    if r == 0.0:
        return 0.0, [], []
    intervals = []
    sums = []
    base = 0
    while base < n:
        hi = lo = prefix[base]
        end = None
        for j in range(base, n):
            p = prefix[j + 1]
            if p > hi:
                hi = p
            elif p < lo:
                lo = p
            if values[j] != 0.0 and hi - lo == r:
                end = j
                break
        if end is None:
            break
        hi = lo = prefix[end + 1]
        start = None
        for i in range(end, base - 1, -1):
            p = prefix[i]
            if p > hi:
                hi = p
            elif p < lo:
                lo = p
            if values[i] != 0.0 and hi - lo == r:
                start = i
                break
        intervals.append((start, end))
        sums.append(prefix[end + 1] - prefix[start])
        base = end + 1
    return r, intervals, sums


def mmd_intervals(eta: EventSequence) -> MmdDecomposition:
    """Minimal-length intervals of maximal discrepancy of a nonempty sequence."""
    if not eta.times:
        raise ValueError("mmd_intervals needs a nonempty sequence")
    r, idx, sums = _mmd_index_intervals(list(eta.values))
    spans = tuple((eta.times[i], eta.times[j]) for i, j in idx)
    return MmdDecomposition(r, spans, tuple(sums))


def chain_decompose(eta: EventSequence) -> ChainDecomposition:
    """Factor a unit sequence into r = ||eta||_D unit-discrepancy stages.

    Stage k-1 zeroes the first event of each MMD interval of stage k, which
    lowers the walk range by exactly one; the zeroed events alternate in sign,
    so every increment has discrepancy one and the stage norms telescope.
    """
    if not eta.times:
        raise ValueError("chain_decompose needs a nonempty sequence")
    _require_unit(eta.values, zeros_ok=False)
    vals = list(eta.values)
    r = int(discrepancy_norm(vals))
    stages = [tuple(vals)]
    for _ in range(r):
        _, idx, _ = _mmd_index_intervals(vals)
        for i, _j in idx:
            vals[i] = 0.0
        stages.append(tuple(vals))
    if any(v != 0.0 for v in stages[-1]):  # pragma: no cover - theorem guard
        raise RuntimeError("chain recursion did not terminate at the zero sequence")
    dense = tuple(
        DenseEvents(eta.T, eta.times, stage) for stage in reversed(stages)
    )
    return ChainDecomposition(dense)


_PATTERNS = {"plus_minus": (1.0, -1.0), "minus_plus": (-1.0, 1.0)}


def _sweep_once(values, first, second):
    """One left-to-right transcription pass: zero every disjoint occurrence of
    (first, 0...0, second); the scan continues after each zeroed pair, so
    freshly exposed patterns wait for the next application."""
    out = list(values)
    nz = [k for k, v in enumerate(out) if v != 0.0]
    changed = False
    k = 0
    while k + 1 < len(nz):
        i, j = nz[k], nz[k + 1]
        if out[i] == first and out[j] == second:
            out[i] = 0.0
            out[j] = 0.0
            changed = True
            k += 2
        else:
            k += 1
    return out, changed


def transcribe(dense: DenseEvents, pattern: str, n: int) -> DenseEvents:
    """n transcription applications; idempotent once no pattern remains."""
    if pattern not in _PATTERNS:
        raise ValueError(f"pattern must be 'plus_minus' or 'minus_plus', got {pattern!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_unit(dense.values, zeros_ok=True)
    first, second = _PATTERNS[pattern]
    vals = list(dense.values)
    for _ in range(n):
        vals, changed = _sweep_once(vals, first, second)
        if not changed:
            break
    return DenseEvents(dense.T, dense.grid, tuple(vals))


def _compact_chain(signs, first, second):
    """All stages of repeated transcription on a zero-free sign list, the
    input itself first, stopping at the fixpoint."""
    chain = [signs]
    cur = signs
    while True:
        out = []
        k = 0
        changed = False
        while k < len(cur):
            if k + 1 < len(cur) and cur[k] == first and cur[k + 1] == second:
                k += 2
                changed = True
            else:
                out.append(cur[k])
                k += 1
        if not changed:
            return chain
        chain.append(out)
        cur = out


# Largest sequence `transcription_sweep` accepts: its interval enumeration
# is O(n^2) and each interval runs two transcription chains.
_SWEEP_MAX_EVENTS = 300


def transcription_sweep(eta: EventSequence, kind: str) -> float:
    """max of ||T^n_(-+)(T^m_(+-)(eta|_I))|| over all contiguous index
    intervals I and all application depths up to the per-interval fixpoints.

    O(n^2) interval enumeration; refuses sequences above `_SWEEP_MAX_EVENTS`.
    """
    normf = norm_by_kind(kind)
    _require_unit(eta.values, zeros_ok=False)
    n = len(eta.values)
    if n > _SWEEP_MAX_EVENTS:
        raise ValueError(f"transcription_sweep refuses n={n} > {_SWEEP_MAX_EVENTS}")
    vals = list(eta.values)
    best = 0.0
    for i in range(n):
        for j in range(i, n):
            window = vals[i:j + 1]
            for mid in _compact_chain(window, 1.0, -1.0):
                for final in _compact_chain(mid, -1.0, 1.0):
                    v = normf(final)
                    if v > best:
                        best = v
    return best


def pi_map(eta: EventSequence) -> DenseEvents:
    """Restrict to the first MMD interval and transcribe both pattern kinds
    r = ||eta||_D times each.

    The result is single-signed with exactly r nonzero values and
    discrepancy r: inside the minimal window the walk meets its extremes only
    at the ends, so every opposing event pairs off.
    """
    if not eta.times:
        raise ValueError("pi_map needs a nonempty sequence")
    _require_unit(eta.values, zeros_ok=False)
    r_val, idx, _ = _mmd_index_intervals(list(eta.values))
    r = int(r_val)
    i, j = idx[0]
    dense = DenseEvents(eta.T, eta.times[i:j + 1], eta.values[i:j + 1])
    dense = transcribe(dense, "plus_minus", r)
    return transcribe(dense, "minus_plus", r)
