"""sodlab benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  Workloads (see workloads.py): sample_bulk,
qi_campaign, metrics_battery.  Each runs as a closed loop: one fresh worker
process at a time (worker.py) issues the workload's `sodlab` subcommands
in-process, each after the previous one returns, then checks every output.
Inputs come from --seed only.  BLAS threads are pinned to 1 in the workers.

--trace 0 (timed run).  Five set-up-only workers, then whole-workload
workers until S seconds have passed (at least one).  End-to-end metrics,
each the median over the workers, with the sample count printed:
  setup_s      from worker spawn until sodlab.cli is imported and the
               workload's inputs are on disk (set-up and timed workers)
  wall_ref_s   the timed phase (all subcommands; checks excluded) at a
               reference host speed: each command's time is multiplied by
               CALIB_REF_S / the mean of the calibration chunks timed just
               before and just after it, then summed.  Each command names
               the chunk it tracks: pure Python, or n x n numpy.
  peak_rss_mb  the worker's max RSS, from os.wait4
The host's speed drifts by +-25% over minutes, which the median over workers
cannot cancel: over ten runs raw wall_s spreads 14-18% (interquartile
distance / median), wall_ref_s 4-9%.
Also printed, not gated: wall_s (the raw timed phase); the calibration
chunk times; failed_ratio (failed / attempted operations; an operation is
one subcommand or one output check); sample_events_per_s (sample_bulk:
events written by the theta=2^-7 sod `sample` / its time, JSON load and CSV
write included) and trials_per_s.theta_<t> (qi_campaign), both at the
reference host speed.

--trace 1 (traced run).  For every workload, the named one first: one
untraced worker, then one traced worker that records a span around every
public library function and every subcommand; then one memory worker with
tracemalloc on for the spike-metric distances.  Repeats until S seconds have
passed; each per-layer metric is the median over the rounds.  Every
workload is traced because each per-layer metric lives on one of them.
Metric names are <layer>.<op>[.<case>].<stat>; stats:
  calls          exact count of calls
  self_s         span time minus the time its child spans cover
  us_per_event   self time per event (per segment: us_per_segment)
  events_per_piece  sampler events per linear input piece (exact)
  slope          log-log slope of self time against n between two sizes
  peak_alloc_mb  peak tracemalloc allocation of the command (memory pass)
  <layer>.self_s summed self time of a layer over all workloads
  <workload>.unattributed_s   traced wall time no span accounts for
  <workload>.tracing_overhead traced / untraced time, both at the
                 reference host speed (see wall_ref_s)
The spans of the last traced worker of each workload are written to
.bench_work/traces/<workload>.spans.csv.

Every worker's output digest (sha256 over the files and printed lines) must
repeat across the run's workers; a mismatch counts as a failed operation.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  --out writes the full record (metadata, every worker) as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH_DIR)

from tracing import LAYERS  # noqa: E402
from workloads import QI_THETAS, QI_TRIALS, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
HARD_LIMIT_S = 170.0
BLAS_THREADS = "1"
# Reference times of the calibration chunks (worker.calibrate), about their
# medians on the 2-core x86_64 VM they were set on.  wall_ref_s is the time
# the workload would take on a host where the chunks take exactly this long.
CALIB_REF_S = {"py": 0.020, "np": 0.010}
SUBCOMMANDS = ("generate", "sample", "norm", "distance", "decompose", "emdm",
               "qi-check", "certify", "probe-continuity")


# --- workers ----------------------------------------------------------------------

class Spawner:
    """Starts one worker at a time and reaps it with os.wait4."""

    def __init__(self, tag: str, deadline: float):
        self.dir = os.path.join(WORK, tag)
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def run(self, workload: str, seed: int, mode: str, spans: str | None = None) -> dict:
        self.count += 1
        workdir = os.path.join(self.dir, f"w{self.count}")
        result_path = os.path.join(self.dir, f"r{self.count}.json")
        log_path = os.path.join(self.dir, f"log{self.count}.txt")
        os.makedirs(self.dir, exist_ok=True)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--workdir", workdir, "--result", result_path]
        if spans:
            cmd += ["--spans", spans]
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=log)
            try:
                status, rusage, timed_out = self._reap(proc)
            except BaseException:  # interrupted: end the worker before leaving
                proc.kill()
                proc.wait()
                raise
        out = {"mode": mode, "exit": os.waitstatus_to_exitcode(status),
               "timed_out": timed_out, "peak_rss_mb": rusage.ru_maxrss / 1024.0}
        if out["exit"] == 0 and os.path.exists(result_path):
            with open(result_path) as handle:
                out.update(json.load(handle))
            out["setup_s"] = out["ready_monotonic"] - spawned
        else:
            with open(log_path) as handle:
                out["log"] = handle.read()[-2000:]
        shutil.rmtree(workdir, ignore_errors=True)
        return out

    def _reap(self, proc):
        timed_out = False
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, rusage, timed_out
            if time.monotonic() > self.deadline and not timed_out:
                proc.kill()
                timed_out = True
            time.sleep(0.02)


# --- helpers ------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else math.nan


def git_commit() -> str:
    """HEAD of the checkout's .git, read directly; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_ops(w: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure notes) of one whole-workload worker."""
    if "commands" not in w:
        return 1, 1, [f"worker exit {w['exit']}: {w.get('log', '')}"]
    notes = [f"{c['label']}: exit {c['exit']} {c['error']}"
             for c in w["commands"] if c["exit"] != 0]
    notes += [f"check {name}: {detail}" for name, ok, detail in w["checks"] if not ok]
    return len(w["commands"]) + len(w["checks"]), len(notes), notes


def digest_failures(workers) -> list[str]:
    digests = {w["digest"] for w in workers if w.get("digest")}
    return [] if len(digests) <= 1 else [f"output digests differ: {sorted(digests)}"]


def ref_seconds(w: dict) -> dict[str, float]:
    """Each command's time rescaled to the reference host speed by the
    calibration chunks timed just before and after it."""
    cal = w["calib"]
    return {c["label"]: c["seconds"] * 2 * CALIB_REF_S[c["calib"]]
            / (cal[i][c["calib"]] + cal[i + 1][c["calib"]])
            for i, c in enumerate(w["commands"])}


def workload_extras(workload: str, workers) -> dict:
    """The workload-specific throughputs at the reference host speed,
    medians over the workers."""
    ref = [ref_seconds(w) for w in workers]
    if workload == "sample_bulk":
        rates = [int(w["printed"]["sod7"].split("(")[1].split()[0]) / r["sod7"]
                 for w, r in zip(workers, ref)]
        return {"sample_events_per_s": (median(rates), "1/s")}
    if workload == "qi_campaign":
        return {f"trials_per_s.theta_{t!r}":
                (median([QI_TRIALS / r[f"qi_{t!r}"] for r in ref]), "1/s")
                for t in QI_THETAS}
    return {}


# --- timed run ---------------------------------------------------------------------

def timed_run(workload, seed, seconds, spawner):
    setups = [spawner.run(workload, seed, "setup") for _ in range(SETUP_SPAWNS)]
    workers = []
    start = time.monotonic()
    while True:
        workers.append(spawner.run(workload, seed, "timed"))
        if time.monotonic() - start >= seconds or time.monotonic() > spawner.deadline:
            break
    attempted = failed = 0
    notes = []
    for w in workers:
        a, f, n = worker_ops(w)
        attempted, failed, notes = attempted + a, failed + f, notes + n
    for s in setups:
        if "setup_s" not in s:
            attempted, failed = attempted + 1, failed + 1
            notes.append(f"setup worker exit {s['exit']}: {s.get('log', '')}")
    dig = digest_failures(workers)
    attempted += len(workers) - 1
    failed += len(dig)
    notes += dig
    ok = [w for w in workers if "commands" in w]
    metrics = {
        "setup_s": (median([w["setup_s"] for w in setups + workers if "setup_s" in w]), "s"),
        "wall_ref_s": (median([sum(ref_seconds(w).values()) for w in ok]), "s"),
        "peak_rss_mb": (median([w["peak_rss_mb"] for w in ok]), "MB"),
    }
    extras = {"wall_s": (median([w["wall_s"] for w in ok]), "s"),
              **{f"calib_{k}_s": (median([c[k] for w in ok for c in w["calib"] if k in c]), "s")
                 for k in CALIB_REF_S if any(k in c for w in ok for c in w["calib"])},
              **workload_extras(workload, ok),
              "failed_ratio": (failed / attempted, "1")}
    counts = {"setup_s": len(setups) + len(ok), "wall_ref_s": len(ok), "wall_s": len(ok),
              "peak_rss_mb": len(ok)}
    record = {"setups": setups, "workers": workers}
    return metrics, extras, counts, attempted, failed, notes, record


# --- traced run --------------------------------------------------------------------

def _rows(traced):
    """Trace rows of every traced worker, tagged with their workload."""
    return [dict(r, workload=w["workload"]) for w in traced for r in w["trace"]["rows"]]


def _sum(rows, layer, op=None, case=None, prefix=None, key="self_s"):
    return sum(r[key] for r in rows if r["layer"] == layer
               and (op is None or r["op"] == op)
               and (case is None or r["case"] == case)
               and (prefix is None or r["case"].startswith(prefix)))


def _per(rows, layer, op, unit_key, **sel):
    units = _sum(rows, layer, op, key=unit_key, **sel)
    return 1e6 * _sum(rows, layer, op, **sel) / units if units else math.nan


def _slope(t_small, t_big, n_small, n_big):
    return math.log(t_big / t_small) / math.log(n_big / n_small)


def per_layer_metrics(traced, untraced, memory, counters) -> dict:
    """Every per-layer metric of one traced round."""
    rows = _rows(traced)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for case in ("bulk", "bulk_half", "resample", "if", "qi.theta_0.2", "qi.theta_0.025"):
        put(f"sampler.sod_sample.{case}.us_per_event",
            _per(rows, "sampler", "sod_sample", "events", case=case), "us")
    put("sampler.lc_sample.bulk.us_per_event",
        _per(rows, "sampler", "lc_sample", "events", case="bulk"), "us")
    put("sampler.reconstruct.bulk.us_per_event",
        _per(rows, "sampler", "reconstruct", "events", case="bulk"), "us")
    put("sampler.reconstruct.qi.us_per_event",
        _per(rows, "sampler", "reconstruct", "events", prefix="qi."), "us")
    for case in ("bulk", "bulk_half", "resample", "if", *(f"qi.theta_{t!r}" for t in QI_THETAS)):
        ev = _sum(rows, "sampler", "sod_sample", case=case, key="events")
        seg = _sum(rows, "sampler", "sod_sample", case=case, key="segments")
        put(f"sampler.sod_sample.{case}.events_per_piece", ev / seg, "events/piece")
    put("sampler.sod_sample.calls", _sum(rows, "sampler", "sod_sample", key="calls"), "count")

    put("signals.Signal.validate.us_per_segment",
        _per(rows, "signals", "Signal.validate", "segments"), "us")
    put("signals.Signal.validate.calls",
        _sum(rows, "signals", "Signal.validate", key="calls"), "count")
    for op in ("load_signal", "save_signal", "pwl_from_points"):
        put(f"signals.{op}.us_per_segment", _per(rows, "signals", op, "segments"), "us")
    for op in ("random_walk", "subtract", "diameter_norm"):
        put(f"signals.{op}.self_s", _sum(rows, "signals", op), "s")

    put("events.EventSequence.validate.us_per_event",
        _per(rows, "events", "EventSequence.validate", "events"), "us")
    put("events.EventSequence.validate.calls",
        _sum(rows, "events", "EventSequence.validate", key="calls"), "count")
    for op in ("read_events_csv", "write_events_csv", "difference"):
        put(f"events.{op}.us_per_event", _per(rows, "events", op, "events"), "us")

    for op in ("discrepancy_norm", "alexiewicz_norm", "max_max_sum_norm"):
        put(f"norms.{op}.us_per_event", _per(rows, "norms", op, "events"), "us")
    put("norms.discrepancy_norm.calls", _sum(rows, "norms", "discrepancy_norm", key="calls"),
        "count")

    mb = {label: peak / 2 ** 20 for label, peak in memory.items()}
    for op, tag, label in (("van_rossum", "", "vr"),
                           ("schreiber_similarity", "exp.", "schr_exp"),
                           ("schreiber_similarity", "gauss.", "schr_gauss")):
        t = {n: _sum(rows, "spike_metrics", op, case=f"{tag}n{n}") for n in (1000, 2000)}
        for n in (1000, 2000):
            put(f"spike_metrics.{op}.{tag}n{n}.self_s", t[n], "s")
            put(f"spike_metrics.{op}.{tag}n{n}.peak_alloc_mb", mb.get(f"{label}{n}", math.nan),
                "MB")
        put(f"spike_metrics.{op}.{tag}slope", _slope(t[1000], t[2000], 1000, 2000), "1")
    t = {n: _sum(rows, "spike_metrics", "victor_purpura", case=f"n{n}") for n in (250, 500)}
    for n in (250, 500):
        put(f"spike_metrics.victor_purpura.n{n}.self_s", t[n], "s")
    put("spike_metrics.victor_purpura.slope", _slope(t[250], t[500], 250, 500), "1")

    t = {n: _sum(rows, "structure", "chain_decompose", case=f"n{n}") for n in (1000, 2000)}
    for n in (1000, 2000):
        put(f"structure.chain_decompose.n{n}.self_s", t[n], "s")
    put("structure.chain_decompose.slope", _slope(t[1000], t[2000], 1000, 2000), "1")
    put("structure.DenseEvents.validate.us_per_event",
        _per(rows, "structure", "DenseEvents.validate", "events"), "us")
    for op in ("mmd_intervals", "pi_map", "transcribe", "transcription_sweep"):
        put(f"structure.{op}.self_s", _sum(rows, "structure", op), "s")
    put("structure.transcription_sweep.calls",
        _sum(rows, "structure", "transcription_sweep", key="calls"), "count")

    for theta in QI_THETAS:
        put(f"analysis.qi_verify.theta_{theta!r}.self_s",
            _sum(rows, "analysis", "qi_verify", case=f"qi.theta_{theta!r}"), "s")
    for kind in "DAM":
        put(f"analysis.certify_norm.{kind}.self_s",
            _sum(rows, "analysis", "certify_norm", case=kind), "s")
    for op in ("make_qi_corpus", "emdm_sweep", "emdm_characterize", "left_continuity_probe"):
        put(f"analysis.{op}.self_s", _sum(rows, "analysis", op), "s")
    hits, attempts = counters.get("emdm_sweep", (0, 0))
    put("analysis.emdm_sweep.stabilized_ratio", hits / attempts if attempts else math.nan, "1")

    put("trains.certify.self_s", sum(_sum(rows, "trains", case=k) for k in "DAM"), "s")
    for sub in SUBCOMMANDS:
        put(f"cli.{sub}.self_s", _sum(rows, "cli", sub), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", _sum(rows, layer), "s")

    for w in traced:
        name = w["workload"]
        put(f"{name}.traced_wall_s", w["wall_s"], "s")
        put(f"{name}.unattributed_s", w["wall_s"] - w["trace"]["attributed_s"], "s")
        put(f"{name}.tracing_overhead", sum(ref_seconds(w).values())
            / sum(ref_seconds(untraced[name]).values()), "1")
    put("trace.spans", sum(w["trace"]["spans"] for w in traced), "count")
    return m


def traced_run(first, seed, seconds, spawner):
    order = [first] + [w for w in WORKLOADS if w != first]
    rounds, workers = [], []
    start = time.monotonic()
    while True:
        untraced, traced = {}, []
        for name in order:
            untraced[name] = spawner.run(name, seed, "timed")
            spans = os.path.join(WORK, "traces", f"{name}.spans.csv")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            traced.append(spawner.run(name, seed, "traced", spans=spans))
        memory = spawner.run("metrics_battery", seed, "memory")
        workers += [*untraced.values(), *traced, memory]
        rounds.append((untraced, traced, memory))
        if time.monotonic() - start >= seconds or time.monotonic() > spawner.deadline:
            break
    attempted = failed = 0
    notes = []
    for w in workers:
        a, f, n = worker_ops(w)
        attempted, failed, notes = attempted + a, failed + f, notes + n
    for name in order:
        dig = digest_failures([w for w in workers
                               if w.get("workload") == name and w["mode"] != "memory"])
        failed += len(dig)
        notes += dig
    per_round = []
    if not failed:
        for untraced, traced, memory in rounds:
            counters = {}
            for w in traced:
                for (op, _case), (hits, total) in w["trace"]["counters"]:
                    c = counters.setdefault(op, [0, 0])
                    c[0] += hits
                    c[1] += total
            per_round.append(per_layer_metrics(traced, untraced, memory["peak_alloc_bytes"],
                                               counters))
    metrics = {name: (median([r[name][0] for r in per_round]), unit)
               for name, (_, unit) in (per_round[0].items() if per_round else ())}
    record = {"workers": workers, "rows": _rows(rounds[-1][1])}
    return metrics, attempted, failed, notes, record


# --- output ------------------------------------------------------------------------

def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_trace_tables(rows):
    for name in WORKLOADS:
        sel = [r for r in rows if r["workload"] == name]
        print(f"\n# traced layers, {name}")
        for layer in LAYERS:
            print(f"  {layer:14s} self_s {fmt(_sum(sel, layer))}")
        print(f"  {'op':44s} {'case':16s} {'calls':>8s} {'self_s':>10s} {'us/event':>10s} "
              f"{'us/seg':>10s}")
        for r in sel:
            ev = 1e6 * r["self_s"] / r["events"] if r["events"] else None
            sg = 1e6 * r["self_s"] / r["segments"] if r["segments"] else None
            print(f"  {r['layer'] + '.' + r['op']:44s} {r['case']:16s} {r['calls']:8d} "
                  f"{r['self_s']:10.4f} {fmt(ev) if ev else '-':>10s} "
                  f"{fmt(sg) if sg else '-':>10s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the full run record here (JSON)")
    opts = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sodlab", "cli.py")):
        print(f"error: no sodlab sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a sodlab checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}-{os.getpid()}"
    spawner = Spawner(tag, started + HARD_LIMIT_S)
    try:
        if opts.trace:
            metrics, attempted, failed, notes, record = traced_run(
                opts.workload, opts.seed, opts.seconds, spawner)
            extras, counts = {}, {}
        else:
            metrics, extras, counts, attempted, failed, notes, record = timed_run(
                opts.workload, opts.seed, opts.seconds, spawner)
    finally:
        shutil.rmtree(spawner.dir, ignore_errors=True)

    versions = next((w["versions"] for w in record["workers"] if "versions" in w), {})
    meta = {"commit": git_commit(), "workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds, "trace": opts.trace, **versions,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "machine": platform.machine(), "platform": platform.platform(),
            "run_s": time.monotonic() - started}
    digests = sorted({w["digest"] for w in record["workers"] if w.get("digest")
                      and w.get("workload") == opts.workload})

    print("# run " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# output digest {opts.workload}: {', '.join(digests) or '-'}")
    for name, (value, unit) in {**metrics, **extras}.items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{name} = {fmt(value)} {unit}{n}")
    if opts.trace:
        print_trace_tables(record["rows"])
    else:
        for w in record["workers"][:1]:
            if "commands" in w:
                print("# first worker, per command: " + ", ".join(
                    f"{c['label']} {c['seconds']:.3f}s" for c in w["commands"]))
    for note in notes:
        print(f"# FAILED {note}")

    if opts.out:
        with open(opts.out, "w") as handle:
            json.dump({"meta": meta, "digests": digests, "attempted": attempted,
                       "failed": failed, "notes": notes,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                       "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
                       "record": record}, handle)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
