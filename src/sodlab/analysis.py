"""Empirical verification harness: threshold-discontinuity estimation,
quasi-isometry bounds, left-continuity probing, and certification of norms
against the equivalence conditions (alternating-family bound, same-sign
infimum, transcription-sweep bound, with the sweep equal to ||eta||_D)."""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import spike_metrics
from ._util import check_integer, check_positive, usable_cpus
from .events import EventSequence, _unit_normalized, difference, empty
from .norms import NORM_KINDS, discrepancy_norm, norm_by_kind
from .sampler import _sample, reconstruct, sod_sample
from .signals import Signal, _check_walk, diameter_norm, random_walk, subtract
from .trains import (
    alternating_train,
    equidistant_alternating,
    mmsn_train,
    positive_train,
    random_unit_train,
)


# --- metrics ---------------------------------------------------------------

# Spike-train metrics by CLI name, in the CLI's order: (kind tag, Params class,
# distance function's name in `spike_metrics`, looked up per metric made, so
# a wrapper bound there, as the benchmark tracer binds one, is called).
SPIKE_METRICS = {
    "vr": ("van_rossum", spike_metrics.VanRossumParams, "van_rossum"),
    "schreiber": ("schreiber", spike_metrics.SchreiberParams, "schreiber_distance"),
    "vp": ("victor_purpura", spike_metrics.VictorPurpuraParams, "victor_purpura"),
}


class EventMetric:
    """Callable semi-metric on event sequences, tagged with its kind."""

    def __init__(self, kind, fn, is_norm, params=None):
        self.kind = kind
        self.is_norm = is_norm
        self.params = dict(params or {})
        self._fn = fn

    def __call__(self, eta1: EventSequence, eta2: EventSequence) -> float:
        return self._fn(eta1, eta2)


def make_metric(kind: str, **params) -> EventMetric:
    """Metric factory: a NORM_KINDS tag (the norm of the difference; takes no
    parameters) or a SPIKE_METRICS name (parameters go to its Params class)."""
    if kind in SPIKE_METRICS:
        tag, params_cls, fn_name = SPIKE_METRICS[kind]
        p = params_cls(**params)
        fn = getattr(spike_metrics, fn_name)
        return EventMetric(tag, lambda a, b: fn(a, b, p), False, vars(p))
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    if params:
        raise ValueError(f"norm kind {kind!r} takes no parameters, got {sorted(params)}")
    normf = norm_by_kind(kind)
    return EventMetric(kind, lambda a, b: normf(difference(a, b)), True)


# --- EMDM sweep and characterization ----------------------------------------

@dataclass(frozen=True)
class PerThetaSweep:
    theta: float
    value: float
    # Not a field: the right limit is exact, so every value is final.  The
    # benchmark's traced observer (bench/worker.py) still reads this name;
    # ROADMAP item 1 retires it there.
    stabilized = True


@dataclass(frozen=True)
class SweepResult:
    lambda_estimate: float
    theta_at_max: float
    per_theta: tuple[PerThetaSweep, ...]


def _emdm_metric(metric) -> EventMetric:
    """The metric of an EMDM report, made from its name if given one.  The
    Schreiber similarity is refused: it has no distance to the zero
    sequence, the distance that both the sweep and the characterization
    measure the threshold discontinuity against."""
    if isinstance(metric, str):
        metric = make_metric(metric)
    if metric.kind == "schreiber":
        raise ValueError("the Schreiber similarity has no distance to the zero "
                         "sequence, so it has no threshold-discontinuity measure")
    return metric


def emdm_sweep(f: Signal, metric, theta_grid) -> SweepResult:
    """Per-signal discontinuity measure: for each theta of the grid, the
    metric gap between the normalized output Phi_theta f / theta and its
    right limit in the threshold, lim Phi_{theta + eps} f / (theta + eps)
    as eps -> 0+, which `sampler._sample` computes exactly with
    ``right=True``.  The estimate is the maximum over the grid.  The
    Schreiber metric is refused with a ValueError.
    """
    metric = _emdm_metric(metric)
    thetas = [check_positive(t, "threshold") for t in theta_grid]
    if not thetas:
        raise ValueError("theta grid must be nonempty")
    per = []
    for theta in thetas:
        at, limit = (_unit_normalized(_sample(f, theta, right=r))[0] for r in (False, True))
        per.append(PerThetaSweep(theta, metric(at, limit)))
    best = max(per, key=lambda p: p.value)
    return SweepResult(best.value, best.theta, tuple(per))


@dataclass(frozen=True)
class CharacterizeResult:
    value: float
    growth_table: tuple[dict, ...] | None


def emdm_characterize(metric, n_max: int = 200, T: float = 1.0,
                      deltas=None) -> CharacterizeResult:
    """Supremum of the metric over the discrepancy unit sphere.

    The sphere intersected with unit sequences is exactly the alternating
    trains.  An alternating unit train's prefix walk visits only 0 and
    +-1, so every norm of NORM_KINDS is exactly 1 on each of them, and a
    norm metric's value is 1 with no train built (`n_max` is checked, the
    kind and the horizon too).  Time-sensitive metrics (van Rossum,
    Victor-Purpura) get a growth table over equidistant alternating
    trains; for van Rossum the table also carries the squared distance
    (the energy the threshold-discontinuity bounds are stated for) and the
    reported value is its maximum.
    """
    metric = _emdm_metric(metric)
    n_max = check_integer(n_max, "n_max", 1)
    if metric.is_norm:
        norm_by_kind(metric.kind)  # an unknown kind raises
        empty(T)  # checks the horizon
        return CharacterizeResult(1.0, None)
    zero_train = empty(T)  # checks the horizon
    if deltas is None:
        deltas = (T / 8.0, T / 16.0, T / 32.0)
    counts = []
    for delta in [check_positive(delta, "delta") for delta in deltas]:
        n = round(T / delta)
        if n == 0:
            raise ValueError(f"delta {delta!r} puts no event on the horizon "
                             f"T = {T!r}: round(T / delta) is 0")
        counts.append(min(n, n_max))
    key = "energy" if metric.kind == "van_rossum" else "distance"
    rows = []
    for n in counts:
        step = T / n
        if n * step > T:  # rounded past T; one ulp less puts n * step <= T
            step = math.nextafter(step, 0.0)
        dist = metric(equidistant_alternating(n, step, T), zero_train)
        row = {"n": n, "T": T, "delta": step, "distance": dist, **metric.params}
        if key == "energy":
            row["energy"] = dist * dist
        rows.append(row)
    return CharacterizeResult(max(row[key] for row in rows), tuple(rows))


@dataclass(frozen=True)
class EmdmReport:
    metric: str
    theta_grid: tuple[float, ...]
    per_signal: tuple[dict, ...]
    characterization: float
    growth_table: tuple[dict, ...] | None


# --- quasi-isometry verification --------------------------------------------

@dataclass(frozen=True)
class QiReport:
    kind: str
    theta: float
    trials: int
    violations: int | None
    fitted_A: float
    fitted_B: float
    B_at_A1: float
    coarse_C: float
    reconstruction_failures: int
    per_trial: tuple[tuple[float, float], ...]
    rho1: tuple[tuple[float, float], ...]
    rho2: tuple[tuple[float, float], ...]


class QiCorpus(Sequence):
    """A read-only sequence of random-walk pairs that holds only their seeds:
    pair i is the two walks seeded by row i of the n x 2 array `seeds`,
    built each time it is read and never cached."""

    # Iteration builds the pairs this many at a time: built one at a time
    # between trials, they made qi_verify's 1000 trials about 8% slower,
    # since each walk sets up a numpy generator.  A batch is about 100 KB.
    _BATCH = 32

    def __init__(self, seeds, T, n_breaks, amplitude):
        self._seeds = seeds
        self._walk = (T, n_breaks, amplitude)

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, i):
        """Pair i, or for a slice a corpus over the same seed rows (a view)."""
        if isinstance(i, slice):
            return QiCorpus(self._seeds[i], *self._walk)
        a, b = self._seeds[operator.index(i)]  # an IndexError out of range
        T, n_breaks, amplitude = self._walk
        return (random_walk(T, int(a), n_breaks, amplitude),
                random_walk(T, int(b), n_breaks, amplitude))

    def __iter__(self):
        n = len(self)
        for start in range(0, n, self._BATCH):
            yield from [self[i] for i in range(start, min(start + self._BATCH, n))]


def make_qi_corpus(n_pairs: int, seed: int, T: float = 1.0,
                   n_breaks: int = 12, amplitude: float = 0.4) -> QiCorpus:
    """Seed-deterministic sequence of `n_pairs` random piecewise-linear
    signal pairs, each drawn from two child seeds of `seed`.

    The pairs are built on demand, when read, and nothing is cached: the
    corpus holds 16 bytes of seeds per pair, iterating it builds the pairs
    a few dozen at a time, and iterating it twice builds every pair twice.
    The walk parameters are checked here, before any pair is built.
    """
    n_pairs = check_integer(n_pairs, "trial count n_pairs", 1)
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    _check_walk(T, n_breaks, amplitude)
    child = rng.integers(0, 2 ** 62, size=(n_pairs, 2))
    return QiCorpus(child, T, n_breaks, amplitude)


def _monotone_envelopes(dxs, dys):
    order = sorted(zip(dxs, dys))
    rho2 = []
    run = -math.inf
    for x, y in order:
        run = max(run, y)
        rho2.append((x, run))
    rho1 = []
    run = math.inf
    for x, y in reversed(order):
        run = min(run, y)
        rho1.append((x, run))
    rho1.reverse()
    return tuple(rho1), tuple(rho2)


def _qi_fit(dxs, dys, theta):
    """(A, B(A), B(1)) for the least A of the grid 1, 1.01, ..., 2 that
    minimises B(a) = max(0, dy - a dx, dx/a - dy) over the trials, up to a
    rounding error relative to the data's scale, so that the fit commutes
    with scaling every dx, dy and theta by a power of two."""
    # one 1-D pass per a, never an n x 101 matrix: the IEEE operations of
    # the loop over the trials, and an exact max
    x, y = np.array(dxs), np.array(dys)
    grid = [1.0 + 0.01 * k for k in range(101)]
    bs = [max(0.0, float(np.maximum(y - a * x, x / a - y).max())) for a in grid]
    tie = min(bs) + 1e-12 * (max(dxs) + theta)
    best = next(i for i, b in enumerate(bs) if b <= tie)
    return grid[best], bs[best], bs[0]


# Lower sandwich bound (a, b) per norm kind: a * diam(f - g) - b * theta;
# the upper bound diam(f - g) + 2 theta is shared.  Kinds without an entry
# carry no sandwich.
SANDWICH = {"D": (1.0, 4.0), "A": (0.5, 2.0)}
# Rounding allowance on both sides of the sandwich, per unit diam(f - g) + theta.
_QI_SLACK = 1e-9
# Fewest trials qi_verify gives a forked worker.  A child costs about 6 ms
# to fork, join and hand its results back.  At theta = 0.2, the cheapest
# trials qi-check runs, two workers were slower than one at 80 trials each
# and faster at 96 (medians of 15 alternating runs, 2-CPU x86_64 VM,
# Python 3.11); 128 stays clear of that break-even.
_QI_MIN_TRIALS_PER_WORKER = 128


def _qi_trials(pairs, theta, normf):
    """(dxs, dys, failures) over the pairs, in order: diam(f - g), the norm
    of the difference of the two samples, and the number of samples that
    the reconstruct/resample round trip did not give back exactly."""
    dxs, dys = [], []
    failures = 0
    for f, g in pairs:
        eta_f = sod_sample(f, theta)
        eta_g = sod_sample(g, theta)
        dxs.append(diameter_norm(subtract(f, g)))
        dys.append(normf(difference(eta_f, eta_g)))
        for eta in (eta_f, eta_g):
            back = sod_sample(reconstruct(eta), theta)
            if back.times != eta.times or back.values != eta.values:
                failures += 1
    return dxs, dys, failures


def _qi_child(pairs, theta, normf, conn):
    """A forked worker's body: send (True, trials) or (False, exception)."""
    try:
        result = (True, _qi_trials(pairs, theta, normf))
    except Exception as exc:  # re-raised by the parent, in trial order
        result = (False, exc)
    conn.send(result)
    conn.close()


def _qi_trials_forked(ranges, theta, normf):
    """`_qi_trials` over consecutive ranges of pairs, joined in order: the
    first range runs in this process, each other one in a forked child that
    sends its three results back through a pipe.  The earliest failing
    range's exception is raised; children are always joined, and ended
    first when anything fails.

    Fork, not spawn: a child needs the parent's imports, its `normf` closure
    and its pairs, which a spawned process would import or unpickle again
    at a cost above what the trials save."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    done = False
    try:
        for pairs in ranges[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_qi_child, args=(pairs, theta, normf, send))
            # Python >= 3.12 warns when a process with threads forks, as
            # numpy's with an OpenBLAS pool does.  The child takes no lock
            # such a thread may hold: it runs only pure-Python trials and
            # numpy's random generator, never BLAS.
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                    DeprecationWarning)
                proc.start()
            send.close()
            children.append((proc, recv))
        dxs, dys, failures = _qi_trials(ranges[0], theta, normf)
        for proc, recv in children:
            try:
                ok, result = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a qi_verify worker exited with code {proc.exitcode} "
                                   "before sending its trials") from None
            if not ok:
                raise result
            dxs += result[0]
            dys += result[1]
            failures += result[2]
        done = True
    finally:
        for proc, recv in children:
            if not done:
                proc.terminate()
            proc.join()
            recv.close()
    return dxs, dys, failures


def qi_verify(corpus, theta: float, kind: str = "D") -> QiReport:
    """Check the sampling sandwich over a corpus of signal pairs and fit the
    empirical quasi-isometry constants.

    For the discrepancy norm the sandwich is
    ``diam(f-g) - 4 theta <= ||Phi f - Phi g||_D <= diam(f-g) + 2 theta``;
    for the Alexiewicz norm the two-sided norm equivalence folds in as
    ``diam/2 - 2 theta <= ||.||_A <= diam + 2 theta``.  The max-max-sum norm
    carries no such bound and reports violations = None.  The coarse
    surjectivity constant is certified as 0 by exact reconstruct/resample
    round trips on the image side.

    The corpus is any sized iterable of pairs, read once in order, so a
    `QiCorpus` holds no more than one batch of pairs at a time.

    On a host with several usable CPUs, a list, tuple or `QiCorpus` is
    split into contiguous ranges of at least `_QI_MIN_TRIALS_PER_WORKER`
    pairs, at most one per CPU: this process runs the first, forked
    children the others, and the results are joined in trial order, so the
    report does not depend on the CPU count.  An exception a trial raises
    reaches the caller as the serial loop would raise it: the earliest
    failing trial's.
    """
    theta = check_positive(theta, "threshold")
    if not corpus:
        raise ValueError("corpus must be nonempty")
    normf = norm_by_kind(kind)
    n = len(corpus)
    k = min(usable_cpus(), n // _QI_MIN_TRIALS_PER_WORKER)
    if k > 1 and isinstance(corpus, (list, tuple, QiCorpus)):
        bounds = [n * i // k for i in range(k + 1)]
        ranges = [corpus[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        dxs, dys, failures = _qi_trials_forked(ranges, theta, normf)
    else:
        dxs, dys, failures = _qi_trials(corpus, theta, normf)
    if kind in SANDWICH:
        a, b = SANDWICH[kind]
        violations = sum(
            1 for dx, dy in zip(dxs, dys)
            if dy < a * dx - b * theta - _QI_SLACK * (dx + theta)
            or dy > dx + 2.0 * theta + _QI_SLACK * (dx + theta)
        )
    else:
        violations = None

    fitted_a, fitted_b, b_at_a1 = _qi_fit(dxs, dys, theta)
    rho1, rho2 = _monotone_envelopes(dxs, dys)
    return QiReport(
        kind=kind,
        theta=theta,
        trials=len(corpus),
        violations=violations,
        fitted_A=fitted_a,
        fitted_B=fitted_b,
        B_at_A1=b_at_a1,
        coarse_C=0.0 if failures == 0 else math.nan,
        reconstruction_failures=failures,
        per_trial=tuple(zip(dxs, dys)),
        rho1=rho1,
        rho2=rho2,
    )


# --- left-continuity probe ---------------------------------------------------

@dataclass(frozen=True)
class LeftContinuityReport:
    theta0: float
    reference_times: tuple[float, ...]
    steps: tuple[dict, ...]
    stabilized_at: int | None
    monotone: bool
    directions: tuple[str, ...]
    control_count: int
    control_times: tuple[float, ...]


def left_continuity_probe(f: Signal, theta0: float,
                          n_steps: int = 12) -> LeftContinuityReport:
    """Sample at theta_n = theta0 * (1 - 2^-n) rising to theta0.

    The event count must stabilize at the theta0 count from some step on, and
    each event time coordinate must then converge monotonically to its theta0
    time: crossings reached on a rise approach from below (direction "up"),
    crossings after a direction reversal may approach from above ("down")
    since their target level rises with the threshold.  `stabilized_at` is
    the first step from which every count is theta0's, judged by count
    only; a count that never stabilizes within n_steps is reported
    (stabilized_at = None), not raised.
    The control run is the right limit at theta0, lim Phi_{theta0 + eps} f
    as eps -> 0+, computed exactly: it drops the events of the levels f
    only touches, so its count falls below theta0's exactly when theta0
    is critical for f.
    """
    theta0 = check_positive(theta0, "threshold")
    n_steps = check_integer(n_steps, "n_steps", 1)
    ref_times = sod_sample(f, theta0).times
    steps = []
    for n in range(1, n_steps + 1):
        th = theta0 * (1.0 - 2.0 ** (-n))
        times = sod_sample(f, th).times
        gap = max((abs(r - t) for r, t in zip(ref_times, times)), default=0.0)
        steps.append({"n": n, "theta": th, "count": len(times), "max_gap": gap,
                      "times": list(times)})
    last_off = max((s["n"] for s in steps if s["count"] != len(ref_times)), default=0)
    stabilized_at = last_off + 1 if last_off < n_steps else None
    directions = []
    if stabilized_at is not None:
        tol = 1e-12 * f.T
        tails = [s["times"] for s in steps[stabilized_at - 1:]]
        for seq in zip(*tails, ref_times):  # one event's times, then theta0's
            nondec = all(a <= b + tol for a, b in zip(seq, seq[1:]))
            noninc = all(a >= b - tol for a, b in zip(seq, seq[1:]))
            directions.append("flat" if nondec and noninc else "up" if nondec
                              else "down" if noninc else "none")
    control = _sample(f, theta0, right=True)
    return LeftContinuityReport(
        theta0=theta0,
        reference_times=ref_times,
        steps=tuple(steps),
        stabilized_at=stabilized_at,
        monotone=stabilized_at is not None and "none" not in directions,
        directions=tuple(directions),
        control_count=len(control),
        control_times=control.times,
    )


# --- norm certification -------------------------------------------------------

# Family sizes for the three equivalence conditions, on [0, 1].  Random
# sweeps are (seed, n) pairs.
_ALT_COUNTS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 200)
_SAME_SIGN_COUNTS = (1, 2, 3, 5, 8, 13, 21, 34, 50)
_MMSN_COUNTS = (8, 16, 24, 40)
_RANDOM_SWEEP = ((101, 24), (202, 32), (303, 40))


@dataclass(frozen=True)
class CertificationReport:
    kind: str
    alt_bound: float
    alt_ok: bool
    alt_witness: dict
    same_sign_inf: float
    same_sign_ok: bool
    same_sign_witness: dict
    sweep_max_ratio: float
    sweep_growth: float
    sweep_ok: bool
    sweep_witness: dict
    sweep_table: tuple[dict, ...]
    verdict: str


def _eta_payload(eta: EventSequence) -> dict:
    return {"T": eta.T, "events": [[t, v] for t, v in zip(eta.times, eta.values)]}


# Empirical pass bounds: the conditions demand finiteness (resp. a positive
# infimum, resp. an affine sweep bound); at desk scale a family value that
# neither exceeds the cap nor grows with family size counts as satisfied.
_ALT_CAP = 8.0
_SAME_SIGN_FLOOR = 0.05
_SWEEP_RATIO_CAP = 4.0
_GROWTH_CAP = 1.5


def certify_norm(kind: str) -> CertificationReport:
    """Test a norm against the three discrepancy-equivalence conditions.

    (i) boundedness over alternating families, (ii) a positive infimum of
    norm-per-event over same-sign families, (iii) a stable transcription-sweep
    to norm ratio.  The verdict is EQUIVALENT only when all three hold; every
    reported witness re-evaluates to its recorded values.

    The sweep of (iii), the largest norm of any contiguous window under
    repeated (+1, -1) then (-1, +1) cancellation, is defined by
    `tests/oracles.transcription_sweep_compact`.  A cancellation drops an
    adjacent zero-sum pair, one interior point of the window's prefix walk,
    so no kind in NORM_KINDS grows under it: the sweep is the largest norm
    of a window, which on a nonempty unit train is ||eta||_D for every kind.
      D: a window's walk is a piece of the whole walk, which attains the range;
      A: the largest |S_j - S_i| over i < j is the range;
      M: max(1, largest |window sum|) = max(1, ||eta||_D) = ||eta||_D.
    """
    normf = norm_by_kind(kind)

    alt_rows = []
    for n in _ALT_COUNTS:
        for start in (1, -1):
            eta = alternating_train(n, start=start)
            alt_rows.append((normf(eta), n, eta))
    alt_value, _, alt_eta = max(alt_rows, key=lambda r: r[0])
    small = min(v for v, n, _ in alt_rows if n == min(_ALT_COUNTS))
    big = max(v for v, n, _ in alt_rows if n == max(_ALT_COUNTS))
    alt_ok = alt_value <= _ALT_CAP and big <= _GROWTH_CAP * max(small, 1e-12)

    same_rows = []
    for n in _SAME_SIGN_COUNTS:
        eta = positive_train(n)
        same_rows.append((normf(eta) / len(eta), n, eta))
    same_value, _, same_eta = min(same_rows, key=lambda r: r[0])
    same_ok = same_value >= _SAME_SIGN_FLOOR

    sweep_rows = []
    trains = [("mmsn", n, mmsn_train(n)) for n in _MMSN_COUNTS]
    trains += [("random", n, random_unit_train(seed, n)) for seed, n in _RANDOM_SWEEP]
    for family, n, eta in trains:
        sw, nv = discrepancy_norm(eta), normf(eta)
        sweep_rows.append((sw / nv, eta, family, n, sw, nv))
    sweep_table = [{"family": family, "n": n, "sweep": sw, "norm": nv, "ratio": ratio}
                   for ratio, _, family, n, sw, nv in sweep_rows]
    max_ratio, sweep_eta, _, _, sweep_val, sweep_norm = max(
        sweep_rows, key=lambda r: r[0])
    mmsn_ratios = [(n, r) for r, _, famname, n, _, _ in sweep_rows if famname == "mmsn"]
    mmsn_ratios.sort()
    growth = mmsn_ratios[-1][1] / max(mmsn_ratios[0][1], 1e-12)
    sweep_ok = max_ratio <= _SWEEP_RATIO_CAP and growth <= _GROWTH_CAP

    verdict = "equivalent" if (alt_ok and same_ok and sweep_ok) else "not_equivalent"
    return CertificationReport(
        kind=kind,
        alt_bound=alt_value,
        alt_ok=alt_ok,
        alt_witness={"value": alt_value, **_eta_payload(alt_eta)},
        same_sign_inf=same_value,
        same_sign_ok=same_ok,
        same_sign_witness={"value": same_value, **_eta_payload(same_eta)},
        sweep_max_ratio=max_ratio,
        sweep_growth=growth,
        sweep_ok=sweep_ok,
        sweep_witness={"sweep": sweep_val, "norm": sweep_norm,
                       "ratio": max_ratio, **_eta_payload(sweep_eta)},
        sweep_table=tuple(sweep_table),
        verdict=verdict,
    )
