"""The three benchmark workloads: inputs made from the seed, the ordered
`sodlab` subcommands, and the checks on their outputs.

A workload is a function of (seed, workdir) that writes its inputs into the
workdir and returns a `Plan`: the commands, each with the case label the
traced pass files its spans under, and a `check` function that inspects the
outputs after the timed phase and returns `(name, ok, detail)` triples.

Why these three:
- sample_bulk: one huge input through the sampler, events and signals
  layers and the CSV/JSON I/O, about 25 events per linear piece, and one
  exact round trip with one event per piece.  Bypasses spike_metrics,
  structure and analysis.
- qi_campaign: the same layers on about 8,000 tiny inputs (12 pieces each),
  so per-call overhead and constructor validation dominate.  A bulk-path
  speed-up that adds per-call cost shows up here as a loss.
- metrics_battery: the quadratic spike-metric and structure paths with
  their n x n memory; never calls the sampler.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

THETA_BULK = 2.0 ** -7          # power of two: every prefix sum stays exact
THETA_HALF = 2.0 ** -6
QI_THETAS = (0.2, 0.1, 0.05, 0.025)  # the acceptance sandwich thresholds
QI_TRIALS = 1000
PURE_THETA = 2.0 ** -3
# About 25 events per linear piece at THETA_BULK, so ~127k events; sized so
# that a timed run holds four or more whole workers.
BULK_BREAKS = 5000


@dataclass
class Command:
    label: str          # unique within the workload; names output files
    case: str           # span case in the traced pass
    args: list[str]
    calib: str = "py"   # the calibration chunk whose speed this command tracks


@dataclass
class Plan:
    commands: list[Command]
    check: Callable[[dict], list[tuple[str, bool, str]]]


# --- inputs written by the benchmark ------------------------------------------

def _write_walk(path, rng, n_breaks: int, amplitude: float, T: float = 1.0) -> None:
    """A seeded PWL random walk in the sodlab signal JSON format."""
    steps = rng.uniform(-amplitude, amplitude, n_breaks)
    values = [0.0]
    for s in steps:
        values.append(values[-1] + float(s))
    times = [i * T / n_breaks for i in range(n_breaks + 1)]
    times[-1] = T
    segments = [{"t": times[i], "c0": values[i],
                 "c1": (values[i + 1] - values[i]) / (times[i + 1] - times[i]),
                 "c2": 0.0} for i in range(n_breaks)]
    with open(path, "w") as handle:
        json.dump({"T": T, "segments": segments}, handle)


def _write_train(path, rng, n: int, magnitude: float, T: float = 1.0) -> None:
    """n events at distinct sorted uniform times with random signs and one
    magnitude, as an event CSV plus its horizon sidecar."""
    times = np.unique(rng.uniform(0.0, T, n))
    while len(times) != n:  # measure-zero collision: redraw
        times = np.unique(rng.uniform(0.0, T, n))
    signs = rng.integers(0, 2, n) * 2 - 1
    lines = ["t,v"] + [f"{float(t)!r},{float(s) * magnitude!r}"
                       for t, s in zip(times, signs)]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(f"{path}.meta.json", "w") as handle:
        handle.write(json.dumps({"T": T}) + "\n")


# --- output readers used by the checks ------------------------------------------

def read_csv_events(path):
    with open(path) as handle:
        rows = handle.read().splitlines()
    if not rows or rows[0] != "t,v":
        raise ValueError(f"{path}: bad header")
    times, values = [], []
    for row in rows[1:]:
        t, v = row.split(",")
        times.append(float(t))
        values.append(float(v))
    return times, values


def _walk_range(steps) -> int:
    """Range of the integer prefix walk of +-1 steps, origin included."""
    acc = hi = lo = 0
    for s in steps:
        acc += s
        hi = max(hi, acc)
        lo = min(lo, acc)
    return hi - lo


def _increasing(times) -> bool:
    return all(a < b for a, b in zip(times, times[1:]))


def _pure_check(path, theta):
    times, values = read_csv_events(path)
    ok = _increasing(times) and all(v == theta or v == -theta for v in values)
    return ok, f"{len(values)} events"


def _load(path):
    with open(path) as handle:
        return json.load(handle)


# --- sample_bulk -------------------------------------------------------------------

def sample_bulk(seed: int, workdir: str) -> Plan:
    t7, t6 = repr(THETA_BULK), repr(THETA_HALF)
    cmds = [
        Command("walk", "walk", ["generate", "--kind", "random_walk", "--seed", str(seed),
                                 "--n-breaks", str(BULK_BREAKS), "--amplitude", "0.4",
                                 "--out", "walk.json"]),
        Command("sod7", "bulk", ["sample", "--input", "walk.json", "--theta", t7,
                                 "--scheme", "sod", "--out", "sod7.csv"]),
        Command("sod6", "bulk_half", ["sample", "--input", "walk.json", "--theta", t6,
                                      "--scheme", "sod", "--out", "sod6.csv"]),
        Command("lc7", "bulk", ["sample", "--input", "walk.json", "--theta", t7,
                                "--scheme", "lc", "--out", "lc7.csv"]),
        Command("recon", "bulk", ["generate", "--kind", "from_events",
                                  "--events", "sod7.csv", "--out", "recon.json"]),
        Command("resample", "resample", ["sample", "--input", "recon.json", "--theta", t7,
                                         "--scheme", "sod", "--out", "resample.csv"]),
        Command("normD", "bulk", ["norm", "--events", "sod7.csv", "--kind", "D"]),
        Command("walk_if", "if_walk", ["generate", "--kind", "random_walk",
                                       "--seed", str(seed + 1), "--n-breaks", "1000",
                                       "--amplitude", "0.4", "--out", "walk_if.json"]),
        Command("if", "if", ["sample", "--input", "walk_if.json", "--theta", t7,
                             "--scheme", "if", "--out", "if.csv"]),
    ]

    def check(out):
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        res = []
        for label, theta in (("sod7", THETA_BULK), ("sod6", THETA_HALF),
                             ("lc7", THETA_BULK), ("if", THETA_BULK)):
            ok, detail = _pure_check(path(f"{label}.csv"), theta)
            res.append((f"{label}.amplitudes_pm_theta", ok, detail))
        with open(path("sod7.csv"), "rb") as a, open(path("resample.csv"), "rb") as b:
            same = a.read() == b.read()
        res.append(("resample.byte_identical", same, ""))
        _, values = read_csv_events(path("sod7.csv"))
        expected = _walk_range(1 if v > 0 else -1 for v in values) * THETA_BULK
        printed = out["normD"].strip()
        res.append(("normD.equals_prefix_range", printed == repr(expected),
                    f"printed {printed}, expected {expected!r}"))
        return res

    return Plan(cmds, check)


# --- qi_campaign ----------------------------------------------------------------------

def qi_campaign(seed: int, workdir: str) -> Plan:
    _write_walk(os.path.join(workdir, "walk40.json"), np.random.default_rng(seed), 40, 0.4)
    cmds = [Command(f"qi_{theta!r}", f"qi.theta_{theta!r}",
                    ["qi-check", "--trials", str(QI_TRIALS), "--norm", "D",
                     "--theta", repr(theta), "--seed", str(seed),
                     "--out", f"qi_{theta!r}.json"])
            for theta in QI_THETAS]
    cmds += [
        Command("emdm", "emdm", ["emdm", "--metric", "D", "--input", "walk40.json",
                                 "--out", "emdm.json"]),
        Command("probe", "probe", ["probe-continuity", "--input", "walk40.json",
                                   "--theta0", "0.25", "--out", "probe.json"]),
    ]

    def check(out):
        res = []
        for theta in QI_THETAS:
            rep = _load(os.path.join(workdir, f"qi_{theta!r}.json"))
            ok = (rep["violations"] == 0 and rep["reconstruction_failures"] == 0
                  and rep["trials"] == QI_TRIALS)
            res.append((f"qi_{theta!r}.sandwich", ok,
                        f"violations={rep['violations']} "
                        f"failures={rep['reconstruction_failures']}"))
        emdm = _load(os.path.join(workdir, "emdm.json"))
        lam = emdm["per_signal"][0]["lambda"]
        res.append(("emdm.characterization_one", emdm["characterization"] == 1.0,
                    repr(emdm["characterization"])))
        res.append(("emdm.lambda_finite", math.isfinite(lam) and lam >= 0.0, repr(lam)))
        probe = _load(os.path.join(workdir, "probe.json"))
        res.append(("probe.steps", len(probe["steps"]) == 12, ""))
        return res

    return Plan(cmds, check)


# --- metrics_battery ------------------------------------------------------------------

PURE_SIZES = (1000, 2000)
VP_SIZES = (250, 500)
CHAIN_SIZES = (1000, 2000)


def metrics_battery(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    for n in PURE_SIZES:
        for side in "ab":
            _write_train(path(f"pure{n}{side}.csv"), rng, n, PURE_THETA)
    for n in VP_SIZES:
        for side in "ab":
            _write_train(path(f"unit{n}{side}.csv"), rng, n, 1.0)
    for n in CHAIN_SIZES:
        _write_train(path(f"unit{n}.csv"), rng, n, 1.0)

    cmds = []
    for n in PURE_SIZES:
        pair = ["--a", f"pure{n}a.csv", "--b", f"pure{n}b.csv"]
        cmds += [
            Command(f"vr{n}", f"n{n}", ["distance", *pair, "--metric", "vr", "--alpha", "1"],
                    "np"),
            Command(f"schr_exp{n}", f"exp.n{n}", ["distance", *pair, "--metric", "schreiber"],
                    "np"),
            Command(f"schr_gauss{n}", f"gauss.n{n}",
                    ["distance", *pair, "--metric", "schreiber", "--kernel", "gaussian"], "np"),
        ]
    for n in VP_SIZES:
        cmds.append(Command(f"vp{n}", f"n{n}", ["distance", "--a", f"unit{n}a.csv",
                                                "--b", f"unit{n}b.csv", "--metric", "vp"]))
    for n in CHAIN_SIZES:
        for what in ("mmd", "chain", "pi"):
            cmds.append(Command(f"{what}{n}", f"n{n}",
                                ["decompose", "--events", f"unit{n}.csv", "--what", what,
                                 "--out", f"{what}{n}.json"]))
    for kind in "DAM":
        cmds.append(Command(f"certify{kind}", kind,
                            ["certify", "--norm", kind, "--out", f"certify{kind}.json"]))
    cmds.append(Command("emdm_vr", "emdm_vr", ["emdm", "--metric", "vr",
                                               "--out", "emdm_vr.json"]))

    def check(out):
        res = []
        for n in PURE_SIZES:
            vr = float(out[f"vr{n}"])
            res.append((f"vr{n}.finite_nonneg", math.isfinite(vr) and vr >= 0.0, repr(vr)))
            for kernel in ("exp", "gauss"):
                d = float(out[f"schr_{kernel}{n}"])
                res.append((f"schr_{kernel}{n}.in_0_2", 0.0 <= d <= 2.0, repr(d)))
        for n in VP_SIZES:
            _, va = read_csv_events(path(f"unit{n}a.csv"))
            _, vb = read_csv_events(path(f"unit{n}b.csv"))
            # combined mode compares a = a+ + b- against b = a- + b+
            na = sum(v > 0 for v in va) + sum(v < 0 for v in vb)
            nb = sum(v < 0 for v in va) + sum(v > 0 for v in vb)
            d = float(out[f"vp{n}"])
            res.append((f"vp{n}.in_count_bounds", abs(na - nb) <= d <= na + nb,
                        f"{d!r} in [{abs(na - nb)}, {na + nb}]"))
        for n in CHAIN_SIZES:
            _, values = read_csv_events(path(f"unit{n}.csv"))
            r = _walk_range(int(v) for v in values)
            mmd = _load(path(f"mmd{n}.json"))
            sums = mmd["partial_sums"]
            res.append((f"mmd{n}.intervals", mmd["r"] == r and bool(sums)
                        and all(abs(s) == r for s in sums)
                        and all(a * b < 0 for a, b in zip(sums, sums[1:])), f"r={r}"))
            chain = _load(path(f"chain{n}.json"))
            stages = chain["stages"]
            incr_ok = all(_walk_range(int(b - a) for a, b in zip(s0, s1) if b != a) == 1
                          for s0, s1 in zip(stages, stages[1:]))
            res.append((f"chain{n}.unit_increments",
                        chain["r"] == r and len(stages) == r + 1 and incr_ok
                        and not any(stages[0]) and stages[-1] == values, f"r={r}"))
            pi = [v for v in _load(path(f"pi{n}.json"))["values"] if v != 0.0]
            res.append((f"pi{n}.single_signed_r", len(pi) == r
                        and (all(v > 0 for v in pi) or all(v < 0 for v in pi)),
                        f"{len(pi)} nonzero, r={r}"))
        expected = {"D": "equivalent", "A": "equivalent", "M": "not_equivalent"}
        for kind, verdict in expected.items():
            got = _load(path(f"certify{kind}.json"))["verdict"]
            res.append((f"certify{kind}.verdict", got == verdict, got))
        char = _load(path("emdm_vr.json"))["characterization"]
        res.append(("emdm_vr.finite_nonneg", math.isfinite(char) and char >= 0.0, repr(char)))
        return res

    return Plan(cmds, check)


WORKLOADS = {"sample_bulk": sample_bulk, "qi_campaign": qi_campaign,
             "metrics_battery": metrics_battery}

# The distance commands whose peak allocation the memory pass records.
MEMORY_LABELS = tuple(f"{m}{n}" for n in PURE_SIZES for m in ("vr", "schr_exp", "schr_gauss"))
