"""Command-line front end: sampling, norms, distances, decompositions, and
the analysis subcommands.  All outputs are written atomically and are
byte-identical for identical configurations and seeds."""

from __future__ import annotations

import dataclasses
import sys

import click

from . import (__version__, analysis, events, norms, sampler, signals,
               spike_metrics, structure)
from ._util import check_integer, check_positive, float_reprs, json_report, write_text_atomic

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ASSERTION = 2

# `sample --scheme` names and their `sampler` functions' names, read per call.
_SCHEMES = {"sod": "sod_sample", "lc": "lc_sample", "if": "if_sample"}


def _write_json(path, payload, omit=()) -> None:
    """Write a dict, or a report dataclass without its `omit` fields."""
    if dataclasses.is_dataclass(payload):
        payload = {k: v for k, v in vars(payload).items() if k not in omit}
    write_text_atomic(path, (json_report(payload), "\n"))


def _write_csv(path, header, rows) -> None:
    """The rows under `header`; a column of floats only goes through
    `float_reprs`, any other column through repr (floats) and str."""
    columns = [float_reprs(col) if all(type(c) is float for c in col)
               else [repr(c) if isinstance(c, float) else str(c) for c in col]
               for col in zip(*rows)]
    lines = map(",".join, zip(*columns))
    write_text_atomic(path, "\n".join([",".join(header), *lines]) + "\n")


def _csv_path(out_path) -> str:
    return f"{out_path}.csv" if not str(out_path).endswith(".json") \
        else f"{str(out_path)[:-5]}.csv"


class _Main(click.Group):
    """Command group that owns exit code EXIT_INVALID: usage errors (click's
    own code 2 is EXIT_ASSERTION here) and a ValueError or OSError from any
    subcommand, printed as `error: <message>`."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INVALID
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INVALID
            raise
        except (OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID)


@click.group(cls=_Main)
@click.version_option(__version__, package_name="sodlab")
def main():
    """Threshold-based sampling on piecewise-polynomial signals and the
    event-sequence analysis toolkit."""


@main.command()
@click.option("--kind", required=True,
              type=click.Choice(["ramp_plateau", "sine_pwl", "random_walk", "from_events"]))
@click.option("--T", "horizon", type=float, default=1.0, show_default=True)
@click.option("--resolution", type=int, default=64, show_default=True,
              help="Knots per period for sine_pwl.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-breaks", type=int, default=12, show_default=True)
@click.option("--amplitude", type=float, default=0.4, show_default=True)
@click.option("--events", "events_path", type=click.Path(exists=True),
              help="Event CSV for kind=from_events.")
@click.option("--horizon", "events_horizon", type=float, default=None,
              help="Horizon override when reading the event CSV.")
@click.option("--out", required=True, type=click.Path())
def generate(kind, horizon, resolution, seed, n_breaks, amplitude,
             events_path, events_horizon, out):
    """Write a generated signal as JSON."""
    check_integer(seed, "--seed", 0)
    if kind == "from_events":
        if not events_path:
            raise ValueError("kind=from_events needs --events")
        sig = sampler.reconstruct(events.read_events_csv(events_path, events_horizon))
    else:
        sig = signals.generate(kind, horizon, resolution=resolution, seed=seed,
                               n_breaks=n_breaks, amplitude=amplitude)
    signals.save_signal(out, sig)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--theta", required=True, type=float)
@click.option("--scheme", type=click.Choice(list(_SCHEMES)), default="sod",
              show_default=True)
@click.option("--out", required=True, type=click.Path())
def sample(input_path, theta, scheme, out):
    """Sample a signal; writes an event CSV plus a horizon sidecar."""
    eta = getattr(sampler, _SCHEMES[scheme])(signals.load_signal(input_path), theta)
    events.write_events_csv(out, eta)
    click.echo(f"wrote {out} ({len(eta)} events)")


@main.command()
@click.option("--events", "events_path", required=True, type=click.Path(exists=True))
@click.option("--kind", required=True,
              type=click.Choice(norms.NORM_KINDS, case_sensitive=False))
@click.option("--horizon", type=float, default=None)
def norm(events_path, kind, horizon):
    """Print a norm value of an event sequence."""
    eta = events.read_events_csv(events_path, horizon)
    click.echo(repr(norms.norm_by_kind(kind)(eta)))


@main.command()
@click.option("--a", "path_a", required=True, type=click.Path(exists=True))
@click.option("--b", "path_b", required=True, type=click.Path(exists=True))
@click.option("--metric", required=True, type=click.Choice(list(analysis.SPIKE_METRICS)))
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--s", type=float, default=1.0, show_default=True,
              help="Victor-Purpura shift rate.")
@click.option("--vp-mode", "mode", type=click.Choice(spike_metrics.VP_MODES),
              default="combined", show_default=True)
@click.option("--kernel", type=click.Choice(list(spike_metrics.KERNELS)),
              default="causal_exponential", show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--h", type=click.Choice(spike_metrics.H_SHAPES),
              default="one_minus_s", show_default=True)
@click.option("--horizon", type=float, default=None)
def distance(path_a, path_b, metric, horizon, **options):
    """Print a spike-train distance between two event CSVs."""
    eta1 = events.read_events_csv(path_a, horizon)
    eta2 = events.read_events_csv(path_b, horizon)
    m = analysis.make_metric(metric, **_metric_params(metric, options))
    if m.kind == "victor_purpura":
        # the edit distance counts unit spikes: map a theta-pure pair
        # with one shared magnitude onto unit amplitudes
        eta1, m1 = events._unit_normalized(eta1)
        eta2, m2 = events._unit_normalized(eta2)
        if m1 is not None and m2 is not None and m1 != m2:
            raise ValueError(f"theta-pure trains with different magnitudes "
                             f"({m1!r} vs {m2!r}); normalize them first")
    click.echo(repr(m(eta1, eta2)))


def _metric_params(metric, options) -> dict:
    """The options that are fields of the metric's Params class (a norm has
    none) and, for a Schreiber kernel, the kernel's own width only; another
    option given on the command line is an error."""
    entry = analysis.SPIKE_METRICS.get(metric)
    fields = [f.name for f in dataclasses.fields(entry[1])] if entry else []
    chosen = f"--metric {metric}"
    if "kernel" in fields:
        kernel = options["kernel"]
        chosen += f" --kernel {kernel}"
        fields = [name for name in fields if name not in spike_metrics.KERNELS.values()
                  or name == spike_metrics.KERNELS[kernel]]
    ctx, default = click.get_current_context(), click.core.ParameterSource.DEFAULT
    extra = [p.opts[0] for p in ctx.command.params if p.name in options
             and p.name not in fields and ctx.get_parameter_source(p.name) is not default]
    if extra:
        raise ValueError(f"{chosen} takes no {', '.join(extra)}")
    return {name: options[name] for name in fields}


# Largest dense chain payload `decompose --what chain` writes, in cells
# (r + 1) * n: the stage lists and their JSON text take about 35 bytes a
# cell, so a run peaks near 100 MB RSS at this size (98 MB measured at
# 1.9 million cells).
_CHAIN_MAX_CELLS = 2_000_000


def _chain_payload(eta) -> dict:
    """The r + 1 dense chain stages on the event grid; refuses non-unit
    amplitudes and a payload above `_CHAIN_MAX_CELLS` cells up front."""
    structure._require_unit(eta.values)
    n, r = len(eta), int(norms.discrepancy_norm(eta))
    if (r + 1) * n > _CHAIN_MAX_CELLS:
        raise ValueError(f"decompose --what chain refuses n={n} events with r={r}: "
                         f"(r+1)*n = {(r + 1) * n} cells > {_CHAIN_MAX_CELLS}")
    chain = structure.chain_decompose(eta)
    cells = list(zip(eta.values, chain.first_stage))
    return {
        "r": chain.r,
        "grid": list(eta.times),
        "stages": [[v if first <= k else 0.0 for v, first in cells]
                   for k in range(chain.r + 1)],
    }


@main.command()
@click.option("--events", "events_path", required=True, type=click.Path(exists=True))
@click.option("--what", required=True, type=click.Choice(["mmd", "chain", "pi"]))
@click.option("--horizon", type=float, default=None)
@click.option("--out", required=True, type=click.Path())
def decompose(events_path, what, horizon, out):
    """Write the MMD / chain / sign-purification decomposition as JSON.

    Chain and sign-purification run on unit amplitudes; a theta-pure input is
    normalized by 1/theta first and the theta recorded in the payload.
    """
    eta = events.read_events_csv(events_path, horizon)
    theta = None
    if what in ("chain", "pi"):
        eta, theta = events._unit_normalized(eta)
    if what == "mmd":
        dec = structure.mmd_intervals(eta)
        payload = {
            "r": dec.r,
            "intervals": [list(iv) for iv in dec.intervals],
            "partial_sums": list(dec.partial_sums),
        }
    elif what == "chain":
        payload = _chain_payload(eta)
    else:
        dense = structure.pi_map(eta)
        payload = {"grid": list(dense.grid), "values": list(dense.values)}
    if theta is not None:
        payload["theta"] = theta
    _write_json(out, payload)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--metric", required=True,
              type=click.Choice([*norms.NORM_KINDS, "vr"], case_sensitive=False))
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--input", "input_path", type=click.Path(exists=True), default=None,
              help="Optional signal for the per-signal sweep.")
@click.option("--theta-grid", default="0.2,0.25,0.3", show_default=True)
@click.option("--n-max", type=int, default=200, show_default=True)
@click.option("--T", "horizon", type=float, default=1.0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def emdm(metric, alpha, input_path, theta_grid, n_max, horizon, out, csv_path):
    """Threshold-discontinuity report: characterization plus optional sweep."""
    m = analysis.make_metric(metric, **_metric_params(metric, {"alpha": alpha}))
    thetas = []
    for entry in theta_grid.split(","):
        try:
            thetas.append(check_positive(float(entry), "--theta-grid"))
        except ValueError:
            raise ValueError("each --theta-grid entry must be a positive finite "
                             f"number, got {entry!r}") from None
    char = analysis.emdm_characterize(m, n_max=n_max, T=horizon)
    per_signal = []
    if input_path:
        sweep = analysis.emdm_sweep(signals.load_signal(input_path), m, thetas)
        per_signal.append({
            "signal": str(input_path),
            "lambda": sweep.lambda_estimate,
            "theta_at_max": sweep.theta_at_max,
        })
    report = analysis.EmdmReport(
        metric=m.kind,
        theta_grid=tuple(thetas),
        per_signal=tuple(per_signal),
        characterization=char.value,
        growth_table=char.growth_table,
    )
    _write_json(out, report)
    rows = [("characterization", "", report.characterization)]
    rows.extend(("lambda", row["signal"], row["lambda"]) for row in per_signal)
    if char.growth_table:
        rows.extend(("growth", f"n={r['n']};T={r['T']}", r["distance"])
                    for r in char.growth_table)
    _write_csv(csv_path or _csv_path(out), ("row", "label", "value"), rows)
    click.echo(f"wrote {out}")


@main.command(name="qi-check")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--theta", type=float, required=True)
@click.option("--norm", "kind",
              type=click.Choice(list(analysis.SANDWICH), case_sensitive=False),
              default="D", show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--T", "horizon", type=float, default=1.0, show_default=True)
@click.option("--n-breaks", type=int, default=12, show_default=True)
@click.option("--amplitude", type=float, default=0.4, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def qi_check(trials, theta, kind, seed, horizon, n_breaks, amplitude, out, csv_path):
    """Quasi-isometry sandwich campaign; exits 2 if any violation is found."""
    theta = check_positive(theta, "--theta")  # before the corpus is built
    check_integer(seed, "--seed", 0)
    corpus = analysis.make_qi_corpus(trials, seed, horizon, n_breaks, amplitude)
    report = analysis.qi_verify(corpus, theta, kind)
    _write_json(out, report, omit=("per_trial",))
    _write_csv(csv_path or _csv_path(out), ("trial", "d_input", "d_output"),
               [(i, dx, dy) for i, (dx, dy) in enumerate(report.per_trial)])
    click.echo(f"wrote {out} (violations={report.violations})")
    if report.violations:
        click.echo("sandwich bound violated", err=True)
        sys.exit(EXIT_ASSERTION)


@main.command()
@click.option("--norm", "kind", required=True,
              type=click.Choice(norms.NORM_KINDS, case_sensitive=False))
@click.option("--out", required=True, type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def certify(kind, out, csv_path):
    """Certify a norm against the discrepancy-equivalence conditions."""
    report = analysis.certify_norm(kind)
    _write_json(out, report)
    _write_csv(csv_path or _csv_path(out),
               ("family", "n", "sweep", "norm", "ratio"),
               [(r["family"], r["n"], r["sweep"], r["norm"], r["ratio"])
                for r in report.sweep_table])
    click.echo(f"wrote {out} (verdict={report.verdict})")


@main.command(name="probe-continuity")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--theta0", required=True, type=float)
@click.option("--steps", type=int, default=12, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def probe_continuity(input_path, theta0, steps, out, csv_path):
    """Left-continuity probe with the right limit at theta0 as control."""
    report = analysis.left_continuity_probe(signals.load_signal(input_path),
                                            theta0, steps)
    _write_json(out, report)
    _write_csv(csv_path or _csv_path(out), ("n", "theta", "count", "max_gap"),
               [(s["n"], s["theta"], s["count"], s["max_gap"])
                for s in report.steps])
    click.echo(f"wrote {out} (stabilized_at={report.stabilized_at})")


if __name__ == "__main__":
    main()
