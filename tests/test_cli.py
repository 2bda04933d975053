"""Command-line interface: exit codes, report schema, determinism, config."""

import csv
import hashlib
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import jsonschema
import pytest

from cocyclelab import (
    DegreeCheckError,
    HolonomyDivergedError,
    NoHyperbolicityError,
    NumericOverflowError,
    ResolutionError,
    evaluate,
    spec_from_json,
)
from cocyclelab.cli import (
    COMMON_DEFAULTS,
    DEFAULTS,
    NULLABLE_TYPES,
    RUNNERS,
    _fraction_str,
    _spearman,
    build_parser,
    main,
    resolve_config,
)
from cocyclelab.reports import canonical_payload, dump_report, load_schema, write_csv

SCHEMA = load_schema()
ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = ROOT / "baselines"

# small but non-trivial settings, one per command
FAST_ARGS = {
    "lyap": ["--steps", "2000", "--samples", "4", "--direction-steps", "64"],
    "robustness": ["--trials", "3", "--steps", "1000", "--samples", "2"],
    "continuity": ["--steps", "1000", "--samples", "2"],
    "scan-periodic": ["--max-period", "3"],
    "holonomy": ["--pairs", "3"],
    "bunching": ["--grid", "512"],
    "degree": ["--grid", "512"],
    "section": ["--grid", "256", "--iterations", "10",
                "--direction-steps", "64", "--restarts", "2"],
    "natext": ["--grid", "512", "--samples", "20", "--depth", "12"],
}


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# -- every command round trips ---------------------------------------------------

@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_command_runs_and_validates(command, tmp_path):
    code, report = run_cli([command, *FAST_ARGS[command]], tmp_path)
    assert code == 0
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == command
    assert report["config"]["command"] == command
    assert "workers" not in report["config"]
    assert report["config"]["seed"] == COMMON_DEFAULTS["seed"]
    assert report["config"]["spec"]["winding"] == 1


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_version_and_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(f"--{key.replace('_', '-')} " in out for key in DEFAULTS[command])


def _other_value(key, default):
    """A valid value of a setting other than its default: flag text, resolved value."""
    if key == "method":
        return "furstenberg", "furstenberg"
    if isinstance(default, list):
        return "5,7", [5, 7]
    value = NULLABLE_TYPES[key](3) if default is None else default * 2
    return str(value), value


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_every_setting_has_a_flag(command):
    """Each setting a config file can set is also set by --<setting with dashes>."""
    parser = build_parser()
    for key, default in DEFAULTS[command].items():
        text, value = _other_value(key, default)
        args = parser.parse_args([command, f"--{key.replace('_', '-')}", text])
        assert getattr(args, key) is not None
        cfg, _, _ = resolve_config(args)
        assert cfg[key] == value and type(cfg[key]) is type(value)


def test_one_parser_serves_every_call(tmp_path):
    """build_parser returns one parser per process, and parsing leaves it as
    it was: a run after one with --k 3 still resolves the default k."""
    assert build_parser() is build_parser()
    code, report = run_cli(["degree", "--grid", "512", "--k", "3"], tmp_path, "k3.json")
    assert code == 0 and report["config"]["k"] == 3
    code, report = run_cli(["degree", "--grid", "512"], tmp_path)
    assert code == 0 and report["config"]["k"] == COMMON_DEFAULTS["k"] == 8


def test_stdout_report_when_no_out(capsys):
    code = main(["degree", "--grid", "512"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["results"]["twist_degree"] == 2


# -- exit code 1: configuration --------------------------------------------------

def test_bad_degree_is_config_error(tmp_path, capsys):
    assert run_cli(["lyap", "--k", "1"], tmp_path)[0] == 1
    capsys.readouterr()


def test_unknown_flag_and_missing_command(capsys):
    assert main(["lyap", "--frobnicate", "7"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 100, "stepz": 7}))
    assert run_cli(["lyap", "--config", str(cfg)], tmp_path)[0] == 1
    capsys.readouterr()


def test_rescaled_spec_base_warns(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": [[2.0, 0.0], [0.0, 2.0]], "winding": 1}))
    code, report = run_cli(["degree", "--grid", "512", "--spec", str(spec)], tmp_path)
    assert code == 0
    assert report["config"]["spec"]["base"] == [[1.0, 0.0], [0.0, 1.0]]
    err = capsys.readouterr().err
    assert "warning: spec base has determinant 4; rescaled to 1" in err
    spec.write_text(json.dumps({"base": [[2.0, 0.0], [0.0, 0.5]], "winding": 1}))
    assert run_cli(["degree", "--grid", "512", "--spec", str(spec)], tmp_path)[0] == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [
    ({"base": [["2", 0], [0, "0.5"]]}, "matrix entry"),
    ({"base": [[True, 0], [0, 1]]}, "matrix entry"),
    ({"base": [[2, 0], [0, 0.5]], "twist": [{"freq": 1, "amp": "0.25"}]}, "amp"),
    ({"base": [[2, 0], [0, 0.5]], "twist": [{"freq": 1, "amp": 0.25, "phase": True}]}, "phase"),
    ({"base": [[2, 0], [0, 0.5]], "theta": True}, "theta"),
    ({"base": [[2, 0], [0, 0.5]], "winding": "1"}, "winding"),
    ({"base": [[2, 0], [0, 0.5]], "twist": [{"freq": 1.5, "amp": 0.25}]}, "frequency"),
], ids=["base-string", "base-bool", "amp-string", "phase-bool", "theta-bool", "winding-string",
        "freq-float"])
def test_spec_numbers_are_not_coerced(spec, field, tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert run_cli(["degree", "--grid", "512", "--spec", str(spec_file)], tmp_path)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")


@pytest.mark.parametrize("spec, key", [
    ({"base": [[2, 0], [0, 0.5]], "windng": 3}, "windng"),
    ({"base": [[2, 0], [0, 0.5]], "twist": [{"freq": 2, "amp": 0.1, "phse": 1.0}]}, "twist.phse"),
], ids=["top-level", "twist-term"])
def test_spec_refuses_unknown_keys(spec, key, tmp_path, capsys):
    # a misspelt key would otherwise run the default it was meant to replace
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert run_cli(["degree", "--grid", "512", "--spec", str(spec_file)], tmp_path)[0] == 1
    assert f"unknown cocycle description keys: ['{key}']" in capsys.readouterr().err


def test_malformed_config_and_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["lyap", "--config", str(bad)], tmp_path)[0] == 1
    assert run_cli(["lyap", "--spec", str(bad)], tmp_path)[0] == 1
    assert run_cli(["lyap", "--spec", str(tmp_path / "absent.json")], tmp_path)[0] == 1
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"winding": 2}))  # no base matrix
    assert run_cli(["lyap", "--spec", str(shallow)], tmp_path)[0] == 1
    capsys.readouterr()


def test_bad_j_values(tmp_path, capsys):
    assert run_cli(["continuity", "--j-values", "10,zz"], tmp_path)[0] == 1
    assert run_cli(["continuity", "--steps", "200", "--samples", "2",
                    "--j-values", "10,-3"], tmp_path)[0] == 1
    capsys.readouterr()


@pytest.mark.parametrize("args,config,key", [
    (["lyap"], {"k": 2.9}, "k"),
    (["lyap"], {"steps": 1000.5}, "steps"),
    (["lyap"], {"samples": True}, "samples"),
    (["lyap", "--burn-in", "-5"], None, "burn_in"),
    (["lyap"], {"method": "fourier"}, "method"),
    (["bunching", "--grid", "0"], None, "grid"),
    (["continuity", "--j-values", ","], None, "j_values"),
    (["holonomy", "--max-depth", "0"], None, "max_depth"),
    (["robustness", "--trials", "0"], None, "trials"),
    (["scan-periodic", "--tol", "-5"], None, "tol"),
    (["degree", "--seed", "-1"], None, "seed"),
    (["robustness", "--c0-grid", "0"], None, "c0_grid"),
    (["robustness", "--epsilon", "-1"], None, "epsilon"),
    (["robustness", "--epsilon", "nan"], None, "epsilon"),
    (["holonomy", "--tol", "inf"], None, "tol"),
    (["section", "--grid", "100"], None, "grid"),
    (["degree", "--grid", "100"], None, "grid"),
    (["natext", "--k", "9"], None, "k"),
    (["lyap", "--k", "600"], None, "k"),
], ids=["float-k", "float-steps", "bool-samples", "negative-burn-in", "unknown-method",
        "zero-grid", "empty-j-values", "zero-max-depth", "zero-trials", "negative-tol",
        "negative-seed", "zero-c0-grid", "negative-epsilon", "nan-epsilon", "inf-tol",
        "section-grid-not-power-of-two", "degree-grid-not-power-of-two", "natext-k-9",
        "lyap-k-600"])
def test_invalid_settings_are_config_errors(args, config, key, tmp_path, capsys):
    """Bad values stop in resolve_config: exit 1 with one error line that
    names the setting, and no traceback."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", str(cfg)]
    code, report = run_cli(args, tmp_path)
    err = capsys.readouterr().err
    assert code == 1 and report is None
    assert err.startswith(f"error: {key} must ") and "Traceback" not in err


def test_int_setting_accepted_as_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1}))
    code, report = run_cli(["bunching", "--grid", "512", "--config", str(cfg)], tmp_path)
    assert code == 0 and isinstance(report["config"]["theta"], float)


def test_natext_k_beyond_anchor_lattice(tmp_path, capsys):
    code, _ = run_cli(["natext", "--k", "9", "--grid", "256",
                       "--samples", "2", "--depth", "6"], tmp_path)
    assert code == 1
    assert "k <= 8" in capsys.readouterr().err


def test_scan_periodic_large_base_traces(tmp_path):
    """Orbit products of diag(10, 1/10) twists: every CSV trace is within
    1e-12 relative of the exact product of the same evaluate matrices."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"base": [[10.0, 0.0], [0.0, 0.1]], "winding": 1,
                                     "twist": []}))
    out_csv = tmp_path / "orbits.csv"
    code, report = run_cli(["scan-periodic", "--spec", str(spec_file), "--k", "2",
                            "--max-period", "12", "--csv", str(out_csv)], tmp_path)
    assert code == 0 and report["results"]["n_points"] == 8031
    spec = spec_from_json(report["config"]["spec"])
    with open(out_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == report["results"]["n_orbits"]
    for row in rows:
        x = Fraction(row["representative"])
        a, b, c, d = 1, 0, 0, 1
        for _ in range(int(row["period"])):
            ea, eb, ec, ed = map(Fraction, evaluate(spec, float(x)))
            a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
            x = (2 * x) % 1
        assert abs(float(row["trace"]) - (a + d)) <= 1e-12 * abs(a + d), row


def test_scan_periodic_csv_is_pinned(tmp_path):
    """The default run's full table: 7 763 orbits, of which the report keeps 500.
    Its digest was taken when the orbits were still enumerated one object per
    point, with Fraction representatives."""
    out_csv = tmp_path / "orbits.csv"
    code, _ = run_cli(["scan-periodic", "--csv", str(out_csv)], tmp_path)
    data = out_csv.read_bytes()
    assert code == 0 and data.count(b"\n") == 1 + 7763
    assert hashlib.sha256(data).hexdigest() == (
        "7445a0b27f6ed71b43ae5a236a1fcdde371cc116d48b4bfb69df0c62c122eea6")


def test_representatives_are_the_fraction_strings():
    for denom in range(1, 300):
        for j in range(denom):
            assert _fraction_str(j, denom) == str(Fraction(j, denom)), (j, denom)


# -- exit code 2: numeric failure -------------------------------------------------

@pytest.mark.parametrize("exc", [
    NumericOverflowError("boom"),
    NoHyperbolicityError(1.0, 2.0),
    HolonomyDivergedError("no limit"),
    ResolutionError("too coarse"),
    DegreeCheckError("disagree"),
])
def test_numeric_failures_exit_2(monkeypatch, capsys, exc):
    def blow_up(cfg, spec, map_):
        raise exc

    monkeypatch.setitem(RUNNERS, "bunching", blow_up)
    assert main(["bunching", "--grid", "512"]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_scan_periodic_overflow_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"base": [[1e200, 0.0], [0.0, 1e-200]], "winding": 1,
                                     "twist": []}))
    code, report = run_cli(["scan-periodic", "--spec", str(spec_file), "--max-period", "2"],
                           tmp_path)
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_scan_periodic_overflow_names_the_first_overflowing_orbit(tmp_path, capsys):
    """The products of period 8 at k = 2 first overflow at 5/255, not at the least
    orbit 1/255 of the period: the message names the first orbit, in table order,
    whose trace is not finite."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"base": [[1e39, 0.0], [0.0, 1e-39]], "winding": 1,
                                     "twist": [{"freq": 1, "amp": 0.2, "phase": 1.0}]}))
    code, _ = run_cli(["scan-periodic", "--spec", str(spec_file), "--k", "2",
                       "--max-period", "8"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "numeric failure: orbit product at 1/51 left float range\n"


def test_unresolvable_twist_degree_exits_2(tmp_path, capsys):
    """A twist far too fast for the finest grid fails every refinement,
    from the default grid up to 65536 points."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"base": [[2.0, 0.0], [0.0, 0.5]], "winding": 1,
                                     "twist": [{"freq": 3000, "amp": 40.0}]}))
    code, report = run_cli(["degree", "--spec", str(spec_file)], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert err.startswith("numeric failure: ") and "of 65536; refine the grid" in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_natext_coarse_grid_exits_2(flags, tmp_path):
    """The separation certificate is checked by a raise, which -O keeps."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-m", "cocyclelab", "natext", "--grid", "64",
                           "--out", str(tmp_path / "report.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("numeric failure: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


# -- exit code 3: analysis-level failure -------------------------------------------

def test_spearman_gives_tied_values_their_average_rank():
    # ranks 0, 1.5, 1.5, 3 against 0, 1, 2, 3: sqrt(0.9); ranking the tie 1, 1 or
    # 1, 2 would give sqrt(0.8) or 1
    assert _spearman([1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        math.sqrt(0.9), rel=1e-15)
    assert _spearman([1.0, 2.0, 2.0, 3.0], [4.0, 3.0, 3.0, 1.0]) == -1.0


def test_spearman_of_the_default_continuity_rows_is_four_fifths():
    # the default run's c0 gaps and exponent deltas: one swapped pair of ranks,
    # 1 - 6 * 2 / (4 * 15) = 4/5, correctly rounded
    c0 = [1.2441315577609202, 0.42489232859201953, 0.13197172517501468, 0.04808731485351205]
    delta = [0.06217976707161363, 0.006982403708186674, 0.0003604629316992791,
             0.00040508023936369764]
    assert _spearman(c0, delta) == 0.8


def test_degenerate_trend_exits_3(tmp_path):
    """A single j value leaves the monotonicity check without a trend to
    confirm; the report is still written, with pass=false."""
    code, report = run_cli(["continuity", "--steps", "500", "--samples", "2",
                            "--j-values", "25"], tmp_path)
    assert code == 3
    jsonschema.validate(report, SCHEMA)
    assert report["results"]["trend"]["pass"] is False
    assert report["results"]["trend"]["spearman"] == 0.0


def test_cross_check_block_present_and_passing(tmp_path):
    code, report = run_cli(["lyap", *FAST_ARGS["lyap"]], tmp_path)
    assert code == 0
    cc = report["results"]["cross_check"]
    assert cc["pass"] is True and cc["delta"] <= cc["tolerance"]


def test_single_method_skips_cross_check(tmp_path):
    code, report = run_cli(["lyap", "--steps", "1000", "--samples", "2",
                            "--method", "norm-growth"], tmp_path)
    assert code == 0
    assert "cross_check" not in report["results"]
    assert list(report["results"]["estimates"]) == ["norm_growth"]


# -- determinism -------------------------------------------------------------------

@pytest.mark.parametrize("command", ["lyap", "holonomy", "natext"])
def test_reruns_are_byte_identical(command, tmp_path):
    _, r1 = run_cli([command, *FAST_ARGS[command]], tmp_path, "a.json")
    _, r2 = run_cli([command, *FAST_ARGS[command]], tmp_path, "b.json")
    assert canonical_payload(r1) == canonical_payload(r2)


def test_worker_count_does_not_mark_the_report(tmp_path):
    base = ["lyap", "--steps", "1500", "--samples", "4", "--direction-steps", "64"]
    _, r1 = run_cli([*base, "--workers", "1"], tmp_path, "w1.json")
    _, r3 = run_cli([*base, "--workers", "3"], tmp_path, "w3.json")
    assert canonical_payload(r1) == canonical_payload(r3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 4}))  # accepted and ignored, like the flag
    _, r4 = run_cli([*base, "--config", str(cfg)], tmp_path, "w4.json")
    assert canonical_payload(r1) == canonical_payload(r4)


def test_seed_changes_results(tmp_path):
    base = ["lyap", "--steps", "1500", "--samples", "4", "--method", "norm-growth"]
    _, r1 = run_cli([*base, "--seed", "1"], tmp_path, "s1.json")
    _, r2 = run_cli([*base, "--seed", "2"], tmp_path, "s2.json")
    assert canonical_payload(r1) != canonical_payload(r2)
    assert r1["results"]["estimates"]["norm_growth"]["value"] != \
        r2["results"]["estimates"]["norm_growth"]["value"]


# -- files and precedence ------------------------------------------------------------

# each command's CSV header, and the records of its results that get one row each
CSV_TABLES = {
    "lyap": (["method", "value", "std_error", "n_steps", "n_samples"],
             lambda r: [r["estimates"][m] for m in sorted(r["estimates"])]),
    "robustness": (["trial", "c0_grid", "c0_certified", "value", "std_error"],
                   lambda r: r["trials"]),
    "continuity": (["j", "c0_certified", "value", "std_error", "delta"], lambda r: r["rows"]),
    "scan-periodic": (["period", "representative", "trace", "hyperbolic"],
                      lambda r: r["orbits"]),
    "holonomy": (["pair", "x0", "y0", "converged", "depth_used", "cauchy_residual",
                  "equivariance_residual"], lambda r: r["pairs"]),
    "bunching": (["k", "theta", "bunched", "margin", "sup_certified", "sup_grid"],
                 lambda r: [r]),
    "degree": (["k", "twist_degree", "single_solvable", "single_degree",
                "pair_solvable", "pair_degree", "obstructed"], lambda r: [r]),
    "section": (["restart", "jittered", "residual"], lambda r: r["runs"]),
    "natext": (["k", "n_charts", "delta", "lambda", "conjugacy_max_residual", "bound"],
               lambda r: [r]),
}


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_csv_output(command, tmp_path):
    """One row per record; a column named like a record field holds that
    field, bools as 0/1 and null as an empty cell."""
    out_csv = tmp_path / "table.csv"
    code, report = run_cli([command, *FAST_ARGS[command], "--csv", str(out_csv)], tmp_path)
    assert code == 0
    with open(out_csv, newline="") as f:
        rows = list(csv.reader(f))
    header, records = CSV_TABLES[command]
    records = records(report["results"])
    assert rows[0] == header
    assert len(rows) == 1 + len(records) and records
    for row, rec in zip(rows[1:], records):
        for name, cell in zip(header, row):
            if name in rec:
                v = rec[name]
                assert cell == ("" if v is None else str(int(v) if type(v) is bool else v))


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 700, "samples": 2,
                               "method": "norm-growth", "seed": 5}))
    _, r1 = run_cli(["lyap", "--config", str(cfg)], tmp_path, "r1.json")
    assert r1["config"]["steps"] == 700 and r1["config"]["seed"] == 5
    _, r2 = run_cli(["lyap", "--config", str(cfg), "--steps", "900"],
                    tmp_path, "r2.json")
    assert r2["config"]["steps"] == 900  # flag wins over file
    assert r2["config"]["samples"] == 2  # file wins over default
    assert DEFAULTS["lyap"]["steps"] == 100_000


def test_spec_inside_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": 512,
        "spec": {"base": [[1.0, 0.0], [0.0, 1.0]], "winding": 2, "twist": []},
    }))
    code, report = run_cli(["degree", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert report["results"]["twist_degree"] == 4
    assert report["config"]["spec"]["winding"] == 2


def test_spec_file_overrides_config_spec(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": 512,
        "spec": {"base": [[1.0, 0.0], [0.0, 1.0]], "winding": 2, "twist": []},
    }))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(
        {"base": [[1.0, 0.0], [0.0, 1.0]], "winding": -1, "twist": []}))
    _, report = run_cli(["degree", "--config", str(cfg), "--spec", str(spec_file)],
                        tmp_path)
    assert report["results"]["twist_degree"] == -2


# -- frozen baselines ------------------------------------------------------------------

@pytest.mark.parametrize("baseline,args", [
    pytest.param("natext_k2", ["natext", "--k", "2"], id="natext-2"),
    pytest.param("natext_k8", ["natext", "--k", "8"], id="natext-8"),
    pytest.param("holonomy_k8", ["holonomy", "--k", "8"], id="holonomy-8"),
    # k = 3 windows are not a power of two; perturbed specs carry 8 twist terms
    pytest.param("robustness_k3", ["robustness", "--k", "3", "--trials", "4"],
                 id="robustness-3"),
    pytest.param("section_k8", ["section", "--k", "8", "--grid", "512", "--iterations", "10",
                                "--restarts", "2"], id="section-8"),
    pytest.param("scan_periodic_k8", ["scan-periodic"], id="scan-periodic-8"),
    # holds the orbit of 1/4, whose trace is 2 exactly
    pytest.param("scan_periodic_k3", ["scan-periodic", "--k", "3", "--max-period", "7"],
                 id="scan-periodic-3"),
])
def test_baseline_regenerates(baseline, args, tmp_path):
    """Runs with the recorded arguments must reproduce the frozen
    first-run reports byte for byte (timestamps aside)."""
    with open(BASELINES / f"{baseline}.json") as f:
        frozen = json.load(f)
    code, report = run_cli(args, tmp_path)
    assert code == 0
    assert canonical_payload(report) == canonical_payload(frozen)
    if args[0] == "natext":
        assert report["results"]["conjugacy"]["max_residual"] == 0.0


@pytest.mark.parametrize("baseline", ["holonomy_k8", "robustness_k3"])
def test_dump_report_writes_the_indented_json_and_a_newline(baseline, tmp_path):
    with open(BASELINES / f"{baseline}.json") as f:
        report = json.load(f)
    out = tmp_path / "report.json"
    dump_report(report, str(out))
    assert out.read_bytes() == (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def test_dump_report_to_stdout_writes_the_same_text(capsys):
    with open(BASELINES / "holonomy_k8.json") as f:
        report = json.load(f)
    dump_report(report, None)
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"


# The two writers of an output file and the bytes each writes for a small input.
# Both go through one replace-or-write path, so each file-rule test below
# holds for the report and for the CSV alike.
WRITERS = {
    "report": (lambda path: dump_report({"command": "holonomy"}, path),
               (json.dumps({"command": "holonomy"}, indent=2) + "\n").encode()),
    "csv": (lambda path: write_csv(path, ["j", "delta"], [[100, 0.5]]),
            b"j,delta\r\n100,0.5\r\n"),
}


def _each_writer(tmp_path):
    """(directory, write, its bytes) per writer, each in a directory of its own."""
    for name, (write, text) in WRITERS.items():
        folder = tmp_path / name
        folder.mkdir()
        yield folder, write, text


@pytest.mark.parametrize("previous", [b"previous report\n", None], ids=["over", "new"])
def test_dump_report_that_raises_leaves_the_file_as_it_was(previous, tmp_path, monkeypatch):
    # a write that fails partway must not truncate the previous file, nor leave
    # its temporary file behind
    def failing_dump(obj, f, **kwargs):
        f.write('{"command": "hol')
        raise OSError("no space left on device")

    def failing_writer(f):
        f.write("j,del")
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", failing_dump)
    monkeypatch.setattr(csv, "writer", failing_writer)
    for folder, write, _ in _each_writer(tmp_path):
        out = folder / "report.json"
        if previous is not None:
            out.write_bytes(previous)
        with pytest.raises(OSError, match="no space"):
            write(str(out))
        assert [p.name for p in folder.iterdir()] == ([] if previous is None else ["report.json"])
        if previous is not None:
            assert out.read_bytes() == previous


def test_dump_report_through_a_symlink_writes_its_target(tmp_path):
    # the temporary file is renamed over the file the link names, not over the link
    for folder, write, text in _each_writer(tmp_path):
        target = folder / "target.json"
        target.write_text("previous report\n")
        link = folder / "link.json"
        link.symlink_to(target.name)
        write(str(link))
        assert link.is_symlink()
        assert target.read_bytes() == text
        assert sorted(p.name for p in folder.iterdir()) == ["link.json", "target.json"]


@pytest.mark.parametrize("previous", [b"previous report\n", None], ids=["over", "new"])
def test_dump_report_follows_no_link_planted_at_its_temporary_name(previous, tmp_path):
    # the temporary file is created, never opened: a link already at its name is
    # neither written through nor renamed over the file, written in place instead
    for folder, write, text in _each_writer(tmp_path):
        out = folder / "report.json"
        if previous is not None:
            out.write_bytes(previous)
        victim = folder / "victim.txt"
        victim.write_text("not a report\n")
        planted = folder / f"report.json.{os.getpid()}.tmp"
        planted.symlink_to(victim.name)
        write(str(out))
        assert victim.read_text() == "not a report\n"
        assert out.is_file() and not out.is_symlink()
        assert out.read_bytes() == text
        assert planted.is_symlink()


def test_dump_report_gives_a_new_report_the_mode_open_gives(tmp_path):
    # the temporary file is created 0o666 less the umask, as open(path, "w") creates one
    umask = os.umask(0o027)
    try:
        (tmp_path / "plain.json").write_text("")
        for folder, write, _ in _each_writer(tmp_path):
            write(str(folder / "report.json"))
            assert (folder / "report.json").stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(umask)
    assert (tmp_path / "plain.json").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_path_is_a_config_error(flag, tmp_path):
    # the run's work is done, but the path's directory is missing: one error
    # line and exit 1, not a traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    missing = tmp_path / "missing" / "out"
    args = ["--out", str(tmp_path / "report.json")] if flag == "--csv" else []
    proc = subprocess.run([sys.executable, "-m", "cocyclelab", "bunching", "--grid", "64",
                           *args, flag, str(missing)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write {missing}: No such file or directory\n"
    assert not missing.parent.exists()


def test_dump_report_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    for folder, write, _ in _each_writer(tmp_path):
        out = folder / "report.json"
        out.write_text("previous report\n")
        out.chmod(0o600)
        write(str(out))
        assert out.stat().st_mode & 0o777 == 0o600


def test_dump_report_writes_into_a_fifo_without_replacing_it(tmp_path):
    # a FIFO (like /dev/null, /dev/stdout or a process substitution) is not a
    # regular file: it is opened and written, never renamed over
    for folder, write, text in _each_writer(tmp_path):
        fifo = folder / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        try:
            write(str(fifo))
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [text]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in folder.iterdir()] == ["report.fifo"]


def test_dump_report_keeps_the_hard_links_of_the_file_it_writes(tmp_path):
    for folder, write, text in _each_writer(tmp_path):
        out = folder / "report.json"
        out.write_text("previous report\n")
        other = folder / "other.json"
        os.link(out, other)
        write(str(out))
        assert os.path.samefile(out, other)
        assert other.read_bytes() == text
        assert sorted(p.name for p in folder.iterdir()) == ["other.json", "report.json"]


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file to another owner needs root")
def test_dump_report_keeps_the_owner_of_the_file_it_replaces(tmp_path):
    for folder, write, text in _each_writer(tmp_path):
        out = folder / "report.json"
        out.write_text("previous report\n")
        os.chown(out, 4321, 4322)
        write(str(out))
        st = out.stat()
        assert (st.st_uid, st.st_gid) == (4321, 4322)
        assert out.read_bytes() == text


def test_dump_report_streams_instead_of_building_the_text(tmp_path):
    # json.dumps held the text several times over (6.7x its size here); json.dump
    # writes it in chunks, so the traced peak stays well below one copy
    report = {"command": "holonomy", "results": {"pairs": [
        {"i": i, "residual": i / 7.0, "depth": [i, i + 1, i + 2], "ok": True}
        for i in range(2_000)]}}
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        dump_report(report, str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 200_000
    assert peak < 0.5 * size, (peak, size)
