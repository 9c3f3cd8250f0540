"""One benchmark worker: a fresh process that runs one workload once.

    python3 bench/worker.py --workload W --seed N --mode setup|timed|traced|memory \
        --workdir DIR --result FILE [--spans FILE]

The worker imports `sodlab.cli` from the checkout's `src/`, writes the
workload's inputs into DIR, stamps the moment it is ready (the end of
set-up), then issues every subcommand in-process through
`sodlab.cli.main(args, standalone_mode=False)`, one after the other.  After
the timed phase it checks the outputs and takes the output digest.  The
result, a JSON object, goes to FILE.

Modes:
- setup: exits once ready; measures set-up alone.
- timed: nothing else runs; the per-command and phase wall times count.
  The calibration chunks (`calibrate`) run before each command and after
  the last; their times are reported apart and left out of the phase time.
- traced: as timed, and spans are recorded around every public library
  function and every subcommand (see tracing.py); the span aggregates go
  into the result.
- memory: tracemalloc is on, only the memory-pass commands run, and each
  command's peak traced allocation is recorded.  Its times are discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _import_cli():
    sys.path.insert(0, SRC_DIR)
    import sodlab.cli

    if not os.path.abspath(sodlab.cli.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"sodlab imported from {sodlab.cli.__file__}, not {SRC_DIR}")
    return sodlab.cli


def run_command(cli, args):
    """(exit code, printed text, error) of one in-process subcommand."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ret = cli.main(args, standalone_mode=False)
            if isinstance(ret, int):
                code = ret
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a stop
            code, error = 1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() + err.getvalue(), error


def output_digest(workdir, printed) -> str:
    """sha256 over every file in the workdir (sorted by name, name and bytes)
    and every printed line, in command order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as handle:
            h.update(handle.read())
        h.update(b"\0")
    for label, text in printed:
        h.update(f"{label}\0{text}\0".encode())
    return h.hexdigest()


def calibrate(kinds) -> dict[str, float]:
    """Seconds taken by fixed calibration chunks that do not touch sodlab,
    so that their times track host speed only: "py", a pure-Python loop,
    and "np", an n x n numpy kernel like the spike-metric Gram forms.  Only
    the kinds the workload's commands name run: the numpy chunk's arrays
    would raise the peak RSS of a light workload."""
    out = {}
    if "py" in kinds:
        t0 = time.perf_counter()
        acc, buf = 0.0, [(0.0, 0.0)] * 64
        for k in range(100000):
            x = (k % 97) * 0.5
            acc += x * x - acc * 1e-9
            buf[k & 63] = (x, acc)
        out["py"] = time.perf_counter() - t0
    if "np" in kinds:
        import numpy as np

        t0 = time.perf_counter()
        t = np.linspace(0.0, 1.0, 1000)
        kern = np.exp(-np.abs(t[:, None] - t[None, :])) - np.exp(-(2.0 - t[:, None] - t[None, :]))
        float(t @ kern @ t)
        out["np"] = time.perf_counter() - t0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced", "memory"),
                    default="timed")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    opts = ap.parse_args(argv)

    cli = _import_cli()
    sys.path.insert(0, BENCH_DIR)
    import workloads

    os.makedirs(opts.workdir, exist_ok=True)
    os.chdir(opts.workdir)
    plan = workloads.WORKLOADS[opts.workload](opts.seed, ".")
    ready = time.monotonic()
    if opts.mode == "setup":
        with open(opts.result, "w") as handle:
            json.dump({"workload": opts.workload, "ready_monotonic": ready}, handle)
        return 0

    tracer = tracing = None
    commands = plan.commands
    if opts.mode == "traced":
        import tracing

        tracer = tracing.Tracer(f"{opts.workload}-{opts.seed}-{os.getpid()}")
        tracer.observers["emdm_sweep"] = lambda r: (
            sum(p.stabilized for p in r.per_theta), len(r.per_theta))
        tracer.install()
    elif opts.mode == "memory":
        import tracemalloc

        commands = [c for c in commands if c.label in workloads.MEMORY_LABELS]
        tracemalloc.start()

    cmd_rows, printed, calib = [], [], []
    kinds = {c.calib for c in commands}
    peaks = {}
    phase_start = time.perf_counter()
    for cmd in commands:
        if opts.mode == "memory":
            tracemalloc.reset_peak()
        else:
            calib.append(calibrate(kinds))
        if tracer is not None:
            tracer.case = cmd.case
            sid = tracer.open_span("cli", cmd.args[0])
        t0 = time.perf_counter()
        code, text, error = run_command(cli, cmd.args)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close_span(sid)
        elif opts.mode == "memory":
            peaks[cmd.label] = tracemalloc.get_traced_memory()[1]
        cmd_rows.append({"label": cmd.label, "case": cmd.case, "calib": cmd.calib,
                         "seconds": t1 - t0, "exit": code, "error": error})
        printed.append((cmd.label, text))
    if opts.mode != "memory":
        calib.append(calibrate(kinds))
    phase_end = time.perf_counter()
    if opts.mode == "memory":
        tracemalloc.stop()

    checks = []
    digest = None
    if opts.mode != "memory":
        outs = {label: text for label, text in printed}
        try:
            checks = [list(c) for c in plan.check(outs)]
        except Exception as exc:  # unreadable output fails the check stage
            checks = [["checks", False, f"{type(exc).__name__}: {exc}"]]
        digest = output_digest(".", printed)

    result = {
        "workload": opts.workload, "seed": opts.seed, "mode": opts.mode,
        "ready_monotonic": ready,
        "wall_s": phase_end - phase_start - sum(sum(c.values()) for c in calib),
        "calib": calib,
        "commands": cmd_rows, "checks": checks, "digest": digest,
        "printed": {label: text for label, text in printed},
        "peak_alloc_bytes": peaks,
        "versions": _versions(),
    }
    if tracer is not None:
        rows = tracing.aggregate(tracer)
        result["trace"] = {"rows": rows, "spans": len(tracer.spans),
                           "attributed_s": sum(r["self_s"] for r in rows),
                           "counters": [[list(k), v] for k, v in tracer.counters.items()]}
        if opts.spans:
            tracing.write_spans(tracer, opts.spans)
    with open(opts.result, "w") as handle:
        json.dump(result, handle)
    return 0


def _versions() -> dict:
    from importlib import metadata

    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "click": metadata.version("click")}


if __name__ == "__main__":
    sys.exit(main())
