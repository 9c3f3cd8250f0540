import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodlab import cli
from sodlab._util import json_report
from sodlab.cli import main
from sodlab.events import from_pairs, read_events_csv, scale_events, write_events_csv
from sodlab.trains import alternating_train

from oracles import discrepancy_bruteforce, local_max_signal


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


def test_generate_sample_below_threshold(runner, tmp_path):
    sig = tmp_path / "ramp.json"
    out = tmp_path / "events.csv"
    assert invoke(runner, "generate", "--kind", "ramp_plateau", "--T", "1.0",
                  "--out", str(sig)).exit_code == 0
    assert invoke(runner, "sample", "--input", str(sig), "--theta", "1.0",
                  "--scheme", "sod", "--out", str(out)).exit_code == 0
    assert out.read_text() == "t,v\n"


def test_sample_and_norm_pipeline(runner, tmp_path):
    sig = tmp_path / "walk.json"
    out = tmp_path / "events.csv"
    invoke(runner, "generate", "--kind", "random_walk", "--seed", "3",
           "--n-breaks", "10", "--amplitude", "0.5", "--out", str(sig))
    invoke(runner, "sample", "--input", str(sig), "--theta", "0.1",
           "--out", str(out))
    eta = read_events_csv(out)
    assert len(eta) > 0
    res = invoke(runner, "norm", "--events", str(out), "--kind", "D")
    assert res.exit_code == 0
    fast = float(res.output)
    assert fast == discrepancy_bruteforce(eta)


def test_norm_alternating_prints_one(runner, tmp_path):
    path = tmp_path / "alt.csv"
    write_events_csv(path, alternating_train(9))
    res = invoke(runner, "norm", "--events", str(path), "--kind", "D")
    assert res.output.strip() == "1.0"


def test_distance_command(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_events_csv(a, alternating_train(5, T=2.0))
    write_events_csv(b, alternating_train(5, T=2.0, start=-1))
    res = invoke(runner, "distance", "--a", str(a), "--b", str(b),
                 "--metric", "vr", "--alpha", "1.0")
    assert res.exit_code == 0 and float(res.output) > 0.0
    res = invoke(runner, "distance", "--a", str(a), "--b", str(b),
                 "--metric", "vp", "--s", "0.0")
    assert res.exit_code == 0 and float(res.output) == 2.0
    res = invoke(runner, "distance", "--a", str(a), "--b", str(b),
                 "--metric", "schreiber")
    assert res.exit_code == 0


def test_vp_rejects_pure_trains_of_different_magnitudes(runner, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_events_csv(a, scale_events(alternating_train(5), 0.1))
    write_events_csv(b, scale_events(alternating_train(5), 0.2))
    res = runner.invoke(main, ["distance", "--a", str(a), "--b", str(b),
                               "--metric", "vp"])
    assert res.exit_code == 1
    assert "different magnitudes" in res.output


def test_decompose_commands(runner, tmp_path):
    path = tmp_path / "eta.csv"
    write_events_csv(path, alternating_train(6, T=3.0))
    for what in ("mmd", "chain", "pi"):
        out = tmp_path / f"{what}.json"
        res = invoke(runner, "decompose", "--events", str(path),
                     "--what", what, "--out", str(out))
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload
    mmd = json.loads((tmp_path / "mmd.json").read_text())
    assert mmd["r"] == 1.0 and len(mmd["intervals"]) == 6


def test_decompose_and_vp_normalize_pure_sampler_output(runner, tmp_path):
    sig = tmp_path / "walk.json"
    ev = tmp_path / "ev.csv"
    invoke(runner, "generate", "--kind", "random_walk", "--seed", "11",
           "--n-breaks", "12", "--amplitude", "0.5", "--out", str(sig))
    invoke(runner, "sample", "--input", str(sig), "--theta", "0.1",
           "--out", str(ev))
    out = tmp_path / "chain.json"
    res = invoke(runner, "decompose", "--events", str(ev), "--what", "chain",
                 "--out", str(out))
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["theta"] == 0.1 and payload["r"] >= 1
    res = invoke(runner, "distance", "--a", str(ev), "--b", str(ev),
                 "--metric", "vp", "--s", "1.0")
    assert res.exit_code == 0 and float(res.output) == 0.0


def test_decompose_and_vp_where_theta_times_its_reciprocal_is_not_one(runner, tmp_path,
                                                                     monkeypatch):
    # 3925.5014268912773 * (1 / 3925.5014268912773) is 0.9999999999999999
    theta = 3925.5014268912773
    monkeypatch.chdir(tmp_path)
    invoke(runner, "generate", "--kind", "random_walk", "--seed", "5", "--n-breaks", "40",
           "--amplitude", "20000", "--out", "w.json")
    invoke(runner, "sample", "--input", "w.json", "--theta", repr(theta), "--out", "ev.csv")
    for what in ("chain", "pi"):
        res = invoke(runner, "decompose", "--events", "ev.csv", "--what", what,
                     "--out", f"{what}.json")
        assert res.exit_code == 0, res.output
        assert json.loads((tmp_path / f"{what}.json").read_text())["theta"] == theta
    res = invoke(runner, "distance", "--a", "ev.csv", "--b", "ev.csv", "--metric", "vp")
    assert res.exit_code == 0 and float(res.output) == 0.0


def test_decompose_refuses_non_unit_amplitudes_by_name(runner, tmp_path, monkeypatch):
    # the chain's cell count of this input is over the limit, but the fault
    # to report is its amplitudes
    monkeypatch.chdir(tmp_path)
    write_events_csv("eta.csv", from_pairs(1.0, [(0.25, 1e6), (0.5, 1.0)]))
    for what in ("chain", "pi"):
        res = invoke(runner, "decompose", "--events", "eta.csv", "--what", what,
                     "--out", "d.json")
        assert res.exit_code == 1
        assert "needs unit amplitudes, got 1000000.0" in res.output
        assert not (tmp_path / "d.json").exists()


def test_qi_check_success_and_determinism(runner, tmp_path):
    out1 = tmp_path / "qi1.json"
    out2 = tmp_path / "qi2.json"
    for out in (out1, out2):
        res = invoke(runner, "qi-check", "--trials", "40", "--theta", "0.1",
                     "--norm", "D", "--seed", "42", "--out", str(out),
                     "--csv", str(out) + ".csv")
        assert res.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "qi1.json.csv").read_bytes() == \
        (tmp_path / "qi2.json.csv").read_bytes()
    report = json.loads(out1.read_text())
    assert report["violations"] == 0
    # per_trial goes to the CSV only
    assert set(report) == {
        "kind", "theta", "trials", "violations", "fitted_A", "fitted_B",
        "B_at_A1", "coarse_C", "reconstruction_failures", "rho1", "rho2"}


def test_emdm_command(runner, tmp_path):
    sig = tmp_path / "fig2.json"
    from sodlab.signals import save_signal
    save_signal(sig, local_max_signal(0.25))
    out = tmp_path / "emdm.json"
    res = invoke(runner, "emdm", "--metric", "D", "--input", str(sig),
                 "--theta-grid", "0.25", "--out", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"metric", "theta_grid", "per_signal",
                           "characterization", "growth_table"}
    assert set(report["per_signal"][0]) == {"signal", "lambda", "theta_at_max"}
    assert report["characterization"] == 1.0
    assert report["per_signal"][0]["lambda"] == 1.0


def test_emdm_walk_passing_a_level_by_6e_6_theta_reports_no_gap(runner, tmp_path):
    # the walk's minimum passes the level -0.3 by 6.2e-7: no discontinuity
    walk, out = tmp_path / "w.json", tmp_path / "e.json"
    invoke(runner, "generate", "--kind", "random_walk", "--seed", "6", "--n-breaks", "12",
           "--amplitude", "0.4", "--out", str(walk))
    res = invoke(runner, "emdm", "--metric", "vr", "--input", str(walk),
                 "--theta-grid", "0.1", "--out", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text())["per_signal"][0]["lambda"] == 0.0


def test_emdm_vr_records_alpha(runner, tmp_path):
    out = tmp_path / "emdm_vr.json"
    res = invoke(runner, "emdm", "--metric", "vr", "--alpha", "2", "--out", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert report["metric"] == "van_rossum"
    assert report["theta_grid"] == [0.2, 0.25, 0.3]
    assert report["growth_table"]
    assert all(row["alpha"] == 2.0 for row in report["growth_table"])


def test_emdm_growth_table_at_a_horizon_n_times_T_over_n_rounds_past(runner, tmp_path):
    # 7 * (0.9 / 7) rounds to 0.9000000000000001
    out = tmp_path / "e.json"
    res = invoke(runner, "emdm", "--metric", "vr", "--n-max", "7", "--T", "0.9",
                 "--out", str(out))
    assert res.exit_code == 0, res.output
    table = json.loads(out.read_text())["growth_table"]
    assert [row["n"] for row in table] == [7, 7, 7]
    assert all(row["T"] == 0.9 for row in table)


@pytest.mark.parametrize("grid", ["0.2,-1", "0.2,x", "0.2,,0.3", "0", "nan", "inf"])
def test_emdm_refuses_a_bad_theta_grid_entry_before_any_work(runner, tmp_path,
                                                             monkeypatch, grid):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.analysis, "emdm_characterize",
                        lambda *args, **kwargs: pytest.fail("characterization ran"))
    res = invoke(runner, "emdm", "--metric", "D", "--theta-grid", grid, "--out", "e.json")
    assert res.exit_code == 1
    assert res.output.startswith("error: ") and "--theta-grid" in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, named", [
    (["--trials", "-5", "--theta", "0.1"], "n_pairs"),
    (["--trials", "0", "--theta", "0.1"], "n_pairs"),
    (["--theta", "inf"], "--theta"),
    (["--trials", "-5", "--theta", "-0.1"], "--theta"),
    (["--trials", "3", "--theta", "0.1", "--seed", "-1"], "--seed"),
])
def test_qi_check_refuses_bad_inputs_before_any_work(runner, tmp_path, monkeypatch,
                                                      args, named):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.analysis, "qi_verify",
                        lambda *args, **kwargs: pytest.fail("the campaign ran"))
    if named != "n_pairs":  # these are checked before the corpus is built
        monkeypatch.setattr(cli.analysis, "make_qi_corpus",
                            lambda *args, **kwargs: pytest.fail("the corpus was built"))
    res = invoke(runner, "qi-check", *args, "--out", "q.json")
    assert res.exit_code == 1
    assert res.output.startswith("error: ") and named in res.output
    assert list(tmp_path.iterdir()) == []


def test_generate_refuses_a_negative_seed_before_any_work(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.signals, "generate",
                        lambda *args, **kwargs: pytest.fail("the signal was generated"))
    res = invoke(runner, "generate", "--kind", "random_walk", "--seed", "-3",
                 "--out", "w.json")
    assert res.exit_code == 1
    assert res.output.startswith("error: ") and "--seed" in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flags", [
    (["emdm", "--metric", "D", "--alpha", "5", "--out", "e.json"], "--alpha"),
    (["distance", "--a", "a.csv", "--b", "a.csv", "--metric", "vr", "--s", "5"], "--s"),
    (["distance", "--a", "a.csv", "--b", "a.csv", "--metric", "vp", "--alpha", "2",
      "--h", "arccos"], "--alpha, --h"),
])
def test_options_a_metric_does_not_take_are_refused(runner, tmp_path, monkeypatch,
                                                     args, flags):
    # an option given with a metric that has no such parameter is an error,
    # not silently dropped
    monkeypatch.chdir(tmp_path)
    write_events_csv("a.csv", alternating_train(4, T=1.0))
    res = invoke(runner, *args)
    assert res.exit_code == 1
    assert res.output == f"error: --metric {args[args.index('--metric') + 1]} takes no {flags}\n"
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("kernel_args, flag, kernel", [
    ([], "--sigma", "causal_exponential"),
    (["--kernel", "gaussian"], "--alpha", "gaussian"),
])
def test_schreiber_kernel_refuses_the_other_kernels_width(runner, tmp_path, monkeypatch,
                                                          kernel_args, flag, kernel):
    monkeypatch.chdir(tmp_path)
    write_events_csv("a.csv", alternating_train(4, T=1.0))
    write_events_csv("b.csv", alternating_train(5, T=1.0))
    pair = ["distance", "--a", "a.csv", "--b", "b.csv", "--metric", "schreiber", *kernel_args]
    res = invoke(runner, *pair, flag, "50")
    assert res.exit_code == 1
    assert res.output == f"error: --metric schreiber --kernel {kernel} takes no {flag}\n"
    # the kernel's own width is taken, and changes the distance
    own = "--sigma" if flag == "--alpha" else "--alpha"
    default = invoke(runner, *pair)
    wide = invoke(runner, *pair, own, "50")
    assert default.exit_code == wide.exit_code == 0
    assert float(default.output) != float(wide.output)


def test_chain_payload_over_the_cell_limit_is_refused(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_CHAIN_MAX_CELLS", 60)
    write_events_csv("eta.csv", from_pairs(1.0, [(k / 32, 1.0) for k in range(1, 21)]))
    res = invoke(runner, "decompose", "--events", "eta.csv", "--what", "chain",
                 "--out", "c.json")
    assert res.exit_code == 1
    assert "n=20 events with r=20" in res.output and "420 cells > 60" in res.output
    assert not (tmp_path / "c.json").exists()
    write_events_csv("alt.csv", alternating_train(20))  # r = 1: 40 cells
    assert invoke(runner, "decompose", "--events", "alt.csv", "--what", "chain",
                  "--out", "c.json").exit_code == 0


_json_scalars = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)),
    st.integers(-(10 ** 40), 10 ** 40),
    st.booleans(),
    st.none(),
)
_json_payloads = st.recursive(
    st.one_of(_json_scalars, st.text(), st.lists(_json_scalars, max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(), inner, max_size=5),
    ),
    max_leaves=40,
)


@given(_json_payloads)
@example({"é\n\"\\": ["a, b", "\u2028\x00", {}], "": [[], (), -0.0, 10 ** 40, None, True],
          "z": {"nan": [math.nan, math.inf, -math.inf]}})
@example({"pairs": [[0.5, 1.0], (2.0, -3.0)], "one": [[7]], "deep": [[1.0, [2.0]]]})
@example([[1.0, 2.0], []])
@example([[True, None], [False, 0], (None,)])
@example({"rho": [[-0.0, math.inf], [10 ** 40, -math.inf], [math.nan, -(10 ** 40)]]})
@example([["], [", 1.0], [2.0, ", "]])
@settings(max_examples=150, deadline=None)
def test_json_report_equals_sorted_indented_json_dumps(payload):
    assert json_report(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_report_refuses_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        json_report({1: 2.0})


def test_certify_command(runner, tmp_path):
    out = tmp_path / "certify.json"
    res = invoke(runner, "certify", "--norm", "M", "--out", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert set(report) == {
        "kind", "alt_bound", "alt_ok", "alt_witness", "same_sign_inf",
        "same_sign_ok", "same_sign_witness", "sweep_max_ratio", "sweep_growth",
        "sweep_ok", "sweep_witness", "sweep_table", "verdict"}
    assert report["verdict"] == "not_equivalent"


def test_probe_continuity_command(runner, tmp_path):
    sig = tmp_path / "fig2.json"
    from sodlab.signals import save_signal
    save_signal(sig, local_max_signal(0.25))
    out = tmp_path / "probe.json"
    res = invoke(runner, "probe-continuity", "--input", str(sig),
                 "--theta0", "0.25", "--steps", "8", "--out", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert set(report) == {
        "theta0", "reference_times", "steps", "stabilized_at", "monotone",
        "directions", "control_count", "control_times"}
    assert report["control_count"] < len(report["reference_times"])


def test_generate_from_events(runner, tmp_path):
    path = tmp_path / "eta.csv"
    write_events_csv(path, alternating_train(4, T=2.0))
    out = tmp_path / "rec.json"
    res = invoke(runner, "generate", "--kind", "from_events", "--events",
                 str(path), "--out", str(out))
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["T"] == 2.0


def test_malformed_input_exits_one(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"T\": 1.0, \"segments\": [{\"t\": 0.0}]}")
    res = runner.invoke(main, ["sample", "--input", str(bad), "--theta", "0.1",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1
    badcsv = tmp_path / "bad.csv"
    badcsv.write_text("t,v\n0.5,oops\n")
    res = runner.invoke(main, ["norm", "--events", str(badcsv), "--kind", "D"])
    assert res.exit_code == 1


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("token", ["+1.0", ".5", "1.", "inf", "nan", "1_0", "true",
                                   "null", '"1"', "[1", "1e400"])
def test_csv_cell_that_is_not_a_json_number_exits_one_naming_its_line(
        runner, tmp_path, token, column):
    # float() reads the first six; a cell must be a JSON number, which is
    # what the writer writes, and the error names the physical line
    path = tmp_path / "bad.csv"
    row = ("0.5," + token) if column else (token + ",0.5")
    path.write_text(f"t,v\n0.25,1.0\n\n{row}\n0.75,1.0\n")
    with pytest.raises(ValueError, match=r"bad.csv:4: could not convert"):
        read_events_csv(path, horizon=1.0)
    res = runner.invoke(main, ["norm", "--events", str(path), "--kind", "D",
                               "--horizon", "1.0"])
    assert res.exit_code == 1
    assert res.output.startswith(f"error: {path}:4: could not convert")
    assert res.output.count("\n") == 1 and "Traceback" not in res.output


@pytest.mark.parametrize("field, value", [("T", "true"), ("t", '"0"'),
                                          ("c1", '" 1e0 "'), ("c2", "false")])
def test_signal_field_that_is_not_a_json_number_exits_one(runner, tmp_path, field, value):
    fields = {"T": "1.0", "t": "0.0", "c0": "0.0", "c1": "1.0", "c2": "0.0", field: value}
    seg = ", ".join(f'"{key}": {fields[key]}' for key in ("t", "c0", "c1", "c2"))
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"T": {fields["T"]}, "segments": [{{{seg}}}]}}')
    res = runner.invoke(main, ["sample", "--input", str(bad), "--theta", "0.1",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1
    assert f'{bad}: signal JSON field "{field}" must be a number, got {value}' in res.output
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("meta", ['{"X": 1}', "[1]", '{"T": "abc"}', '{"T": -1}',
                                  '{"T": true}', '{"T": "2"}'])
def test_malformed_sidecar_exits_one_naming_it(runner, tmp_path, meta):
    path = tmp_path / "alt.csv"
    write_events_csv(path, alternating_train(4))
    sidecar = tmp_path / "alt.csv.meta.json"
    sidecar.write_text(meta + "\n")
    res = runner.invoke(main, ["norm", "--events", str(path), "--kind", "D"])
    assert res.exit_code == 1
    assert res.output.startswith(f"error: {sidecar}: ")
    assert res.output.count("\n") == 1 and "Traceback" not in res.output


def test_events_past_the_sidecar_horizon_exit_one_naming_the_csv(runner, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,v\n0.5,1.0\n")
    (tmp_path / "one.csv.meta.json").write_text('{"T": 0.25}\n')
    res = runner.invoke(main, ["norm", "--events", str(path), "--kind", "D"])
    assert res.exit_code == 1
    assert res.output.startswith(f"error: {path}: ")
    assert res.output.count("\n") == 1 and "Traceback" not in res.output


def test_qi_check_violation_exits_two(runner, tmp_path, monkeypatch):
    from sodlab import analysis

    real = analysis.qi_verify

    def doctored(corpus, theta, kind="D"):
        report = real(corpus, theta, kind)
        return type(report)(**{**report.__dict__, "violations": 1})

    monkeypatch.setattr("sodlab.cli.analysis.qi_verify", doctored)
    res = runner.invoke(main, ["qi-check", "--trials", "5", "--theta", "0.1",
                               "--out", str(tmp_path / "qi.json")])
    assert res.exit_code == 2


@pytest.mark.parametrize("horizons", [(1.0, 2.0), (2.0, 1.0)])
def test_distance_keeps_each_sidecar_horizon(runner, tmp_path, horizons):
    paths = []
    for k, T in enumerate(horizons):
        path = tmp_path / f"eta{k}.csv"
        write_events_csv(path, from_pairs(T, [(0.5, 1.0)]))
        paths.append(str(path))
    res = runner.invoke(main, ["distance", "--a", paths[0], "--b", paths[1],
                               "--metric", "vr"])
    assert res.exit_code == 1
    assert "horizon mismatch" in res.output


def test_invalid_theta_exits_one(runner, tmp_path):
    sig = tmp_path / "ramp.json"
    invoke(runner, "generate", "--kind", "ramp_plateau", "--out", str(sig))
    res = runner.invoke(main, ["sample", "--input", str(sig), "--theta", "-1",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1


@pytest.mark.parametrize("args", [
    ["emdm", "--metric", "D", "--theta-grid", "a", "--out", "e.json"],
    ["probe-continuity", "--input", "sig.json", "--theta0", "-1", "--out", "p.json"],
    ["qi-check", "--trials", "3", "--theta", "-1", "--out", "q.json"],
    ["generate", "--kind", "from_events", "--out", "g.json"],
    ["norm", "--events", "alt.csv", "--kind", "A", "--horizon", "-1"],
    ["decompose", "--events", "impure.csv", "--what", "chain", "--out", "c.json"],
])
def test_invalid_input_exits_one_with_error_line(runner, tmp_path, monkeypatch, args):
    # the group's error boundary turns each library ValueError into exit 1
    monkeypatch.chdir(tmp_path)
    invoke(runner, "generate", "--kind", "ramp_plateau", "--out", "sig.json")
    write_events_csv("alt.csv", alternating_train(4, T=1.0))
    write_events_csv("impure.csv", from_pairs(1.0, [(0.25, 0.5), (0.5, 2.0)]))
    res = invoke(runner, *args)
    assert res.exit_code == 1
    assert res.output.startswith("error: ")


def test_unwritable_output_names_the_destination(runner, tmp_path):
    sig = tmp_path / "ramp.json"
    invoke(runner, "generate", "--kind", "ramp_plateau", "--out", str(sig))
    out = tmp_path / "missing" / "x.csv"
    res = invoke(runner, "sample", "--input", str(sig), "--theta", "0.1",
                 "--out", str(out))
    assert res.exit_code == 1
    assert res.output.startswith("error: ") and str(out) in res.output
    assert ".tmp-" not in res.output


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["norm", "--help"]])
def test_help_and_version_exit_zero(runner, args):
    assert runner.invoke(main, args).exit_code == 0


@pytest.mark.parametrize("args", [
    ["qi-check", "--theta", "0.1", "--norm", "M", "--out", "x.json"],
    ["norm", "--kind", "Q", "--events", "x.csv"],
    ["sample", "--input", "missing.json", "--theta", "0.1", "--out", "x.csv"],
    ["distance", "--a", "x.csv", "--b", "x.csv", "--metric", "vp", "--s-cost", "1"],
    ["distance", "--a", "x.csv", "--b", "x.csv", "--metric", "van_rossum"],
])
def test_usage_errors_exit_one(runner, tmp_path, monkeypatch, args):
    # click's own usage-error code 2 is reserved for a sandwich violation
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("t,v\n")
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert "Error" in res.output
