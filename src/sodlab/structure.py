"""Discrete structure of unit event sequences: minimal intervals of maximal
discrepancy, the unit-step chain factorization and sign purification.

The interval searches run on the prefix-sum walk: the discrepancy of a
contiguous block of events equals the range of the global prefix-sum array
over the block's index window (left base included), so they are sliding
range queries on one array.  The sign-purification map reaches the fixpoint
of the paper's pattern transcription in one matching pass; the transcription
passes themselves are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventSequence, _check_grid
from .norms import discrepancy_norm


@dataclass(frozen=True)
class DenseEvents:
    """Events on an explicit support grid, zeros retained positionally: the
    output of `pi_map`."""

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
    """Stages eta_0 = 0, ..., eta_r = eta on the grid of eta with unit
    discrepancy increments: ||eta_k - eta_{k-1}||_D = 1 for every k.

    Stored as one integer per event: `first_stage[i]` is the stage at which
    event i first appears, so stage k keeps the events with
    first_stage <= k and increment k holds those with first_stage == k.
    """

    eta: EventSequence
    r: int
    first_stage: tuple[int, ...]

    def increments(self) -> list[EventSequence]:
        """eta_k - eta_{k-1} for k = 1..r, each the events first appearing
        at stage k."""
        times = [[] for _ in range(self.r)]
        values = [[] for _ in range(self.r)]
        for t, v, s in zip(self.eta.times, self.eta.values, self.first_stage):
            times[s - 1].append(t)
            values[s - 1].append(v)
        return [EventSequence(self.eta.T, tuple(ts), tuple(vs))
                for ts, vs in zip(times, values)]


def _require_unit(values) -> None:
    for v in values:
        if v not in (-1.0, 1.0):
            raise ValueError(f"needs unit amplitudes, got {v!r}")


def _turns(walk, hi, lo):
    """(starts, stops): the walk positions where a run of extreme positions
    turns from one extreme to the other, in position order.

    A window of the walk has range hi - lo exactly when it holds a position
    of the maximum hi and a position of the minimum lo.  So from a base
    position, the earliest window of full range ends at q, the later of the
    next max position and the next min position, and the shortest such
    window ending at q starts at the last position before q of the other
    extreme.  With q as the next base this pairs the last position of each
    run of equal extremes with the first position of the next run.  The
    event leaving position p is event p, so the window covers events
    start..stop-1, whose first and last events are nonzero.
    """
    ext = np.flatnonzero((walk == hi) | (walk == lo))
    at_max = walk[ext] == hi
    turn = np.flatnonzero(at_max[1:] != at_max[:-1])
    return ext[turn], ext[turn + 1]


def _mmd_index_intervals(values):
    """(r, [(i, j)], [D_m]) over event indices.

    After interval m the next right end is the earliest index beyond it
    whose fresh restriction attains discrepancy r, and the left end is the
    latest start preserving r (see `_turns`).  Searching strictly to the
    right of the previous interval is the reading that keeps successive
    intervals disjoint.  `np.cumsum` adds in order, so the prefix sums are
    those of a running sum.  O(n) numpy work.
    """
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    hi, lo = prefix.max(), prefix.min()
    r = float(hi - lo)
    if r == 0.0:
        return 0.0, [], []
    starts, stops = _turns(prefix, hi, lo)
    intervals = list(zip(starts.tolist(), (stops - 1).tolist()))
    return r, intervals, (prefix[stops] - prefix[starts]).tolist()


def mmd_intervals(eta: EventSequence) -> MmdDecomposition:
    """Minimal-length intervals of maximal discrepancy of a nonempty sequence."""
    if not eta.times:
        raise ValueError("mmd_intervals needs a nonempty sequence")
    r, idx, sums = _mmd_index_intervals(eta.values)
    spans = tuple((eta.times[i], eta.times[j]) for i, j in idx)
    return MmdDecomposition(r, spans, tuple(sums))


def chain_decompose(eta: EventSequence) -> ChainDecomposition:
    """Factor a unit sequence into r = ||eta||_D unit-discrepancy stages.

    Stage k-1 zeroes the first event of each MMD interval of stage k, which
    lowers the walk range by exactly one; the zeroed events alternate in sign,
    so every increment has discrepancy one and the stage norms telescope.

    Each of the r passes runs on the events still live, with the +-1 prefix
    walk from `np.cumsum` (exact in integers): O(n) work per pass and O(n)
    memory in all.
    """
    if not eta.times:
        raise ValueError("chain_decompose needs a nonempty sequence")
    _require_unit(eta.values)
    steps = np.where(np.asarray(eta.values) > 0.0, 1, -1)
    live = np.arange(len(steps))
    first = np.zeros(len(steps), dtype=np.int64)
    r = int(discrepancy_norm(eta.values))
    for stage in range(r, 0, -1):
        walk = np.concatenate(([0], np.cumsum(steps)))
        starts, _ = _turns(walk, walk.max(), walk.min())
        first[live[starts]] = stage
        live = np.delete(live, starts)
        steps = np.delete(steps, starts)
    if len(live):  # pragma: no cover - theorem guard
        raise RuntimeError("chain recursion did not terminate at the zero sequence")
    return ChainDecomposition(eta, r, tuple(first.tolist()))


def pi_map(eta: EventSequence) -> DenseEvents:
    """The first MMD interval's events left by cancelling adjacent (+1, -1)
    pairs, then (-1, +1) pairs, until none remain, on the interval's grid.

    A down event closes the latest open up event, and unmatched events
    survive.  This is the paper's fixpoint: a transcription pass drops every
    adjacent (+, -) pair, so reduction takes as many passes as the deepest
    nesting, and as the walk meets its extremes only at the window's ends,
    matched pairs nest at most r - 1 deep, within r = ||eta||_D passes.  An
    unmatched down event would pass the start's extreme, and an unmatched up
    event the end's, so r survivors of one sign remain, with discrepancy r,
    and the (-, +) stage drops nothing.
    """
    if not eta.times:
        raise ValueError("pi_map needs a nonempty sequence")
    _require_unit(eta.values)
    _, idx, _ = _mmd_index_intervals(eta.values)
    i, j = idx[0]
    values = list(eta.values[i:j + 1])
    open_ups = []
    for k, v in enumerate(values):
        if v > 0.0:
            open_ups.append(k)
        elif open_ups:
            values[open_ups.pop()] = values[k] = 0.0
    return DenseEvents(eta.T, eta.times[i:j + 1], tuple(values))
