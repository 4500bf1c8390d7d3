import csv
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ssvortex
from ssvortex import resolvent, suites
from ssvortex.cli import ConfigError, build_config, main, parse_config_file
from ssvortex.homogeneous import NO_INTEGRABLE
from ssvortex.modes import KernelK1, LogGrid, ModeFunction, apply_phi1, lq_norm
from ssvortex.params import VortexParams
from ssvortex.resolvent import KernelK2, apply_phi2
from ssvortex.suites import (
    RunConfig,
    _contraction_checks,
    _residual_checks,
    _young_checks,
    emit,
    run,
)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def write(path, text):
    path.write_text(text)
    return str(path)


def test_parse_config_values(tmp_path):
    cfg = write(tmp_path / "a.cfg", """
# comment
alpha = 0.6
beta = -2
q = 3
m = 3
k_max = 4
seed = 7
lambda_offsets = 0.9, 1.5+1j
out = results
""")
    vals = parse_config_file(cfg)
    assert vals["alpha"] == 0.6
    assert vals["m"] == 3
    assert vals["lambda_offsets"] == (0.9, 1.5 + 1j)
    assert vals["out"] == "results"
    # every run input is a config key, the vortex parameters included
    run_cfg = build_config(vals, None, ("semigroup", "shooting"))
    p = run_cfg.params
    assert (p.alpha, p.beta, p.q, p.m) == (0.6, -2.0, 3.0, 3)
    assert (run_cfg.k_max, run_cfg.seed) == (4, 7)
    assert run_cfg.suites == ("semigroup", "shooting")


def test_parse_config_line_errors(tmp_path):
    bad = write(tmp_path / "bad.cfg", "alpha = 0.5\nnonsense line\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        parse_config_file(bad)
    unknown = write(tmp_path / "unk.cfg", "alpha = 0.5\nwibble = 3\n")
    with pytest.raises(ConfigError, match="unk.cfg:2.*wibble"):
        parse_config_file(unknown)


def test_parse_config_rejects_a_repeated_key(tmp_path, capsys):
    # a second `shoot_k` would silently replace the first: the run would check
    # k = 2 alone and report a pass for the k = 1 it never ran
    cfg = write(tmp_path / "dup.cfg", "shoot_k = 1\nalpha = 0.5\nshoot_k = 2\n")
    with pytest.raises(ConfigError, match="dup.cfg:3.*'shoot_k'.*line 1"):
        parse_config_file(cfg)
    assert main(["shoot", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_exit_2_on_config_that_is_not_utf8(tmp_path, capsys):
    # exit 1 means a check failed; an undecodable file is a configuration error
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"alpha = 0.5\nbeta = \xff\n")
    assert main(["shoot", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "UTF-8" in err


def test_cli_exit_2_on_bad_config(tmp_path, capsys):
    bad = write(tmp_path / "bad.cfg", "what even\n")
    assert main(["all", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_2_on_lambda_at_a0(tmp_path, capsys):
    # alpha=0.5, q=2 gives a0 = -1; a probe exactly on the line is rejected
    cfg = write(tmp_path / "c.cfg", "lambda_offsets = 0.5, 0+1j\n")
    assert main(["resolvent", "--config", cfg]) == 2
    assert "a0" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "young_batch = 0", "bound_batch = 0", "lambda_offsets = none",
    "shoot_k = none", "shoot_offsets = none", "shoot_imags = none", "shoot_k = 0"])
def test_cli_exit_2_on_empty_sample_set(tmp_path, capsys, line):
    # a Young, norm-bound, residual or shooting check over no samples would
    # pass vacuously (an empty shooting grid, or one of k = 0 alone, leaves only
    # the analytic k = 0 row); the config is rejected before any suite runs
    cfg = write(tmp_path / "c.cfg", f"{line}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "m = 2.5", "k_max = 1.5", "young_batch = 1.5", "seed = 1+1j", "tau_end = 1+1j",
    "shoot_k = 1, 2.5", "shoot_imags = 1+1j", "scan_n = 8192", "fine_n = 8", "lambdas = -0.5+0j", "out_dir = x",
    "seed = -5", "scan_t = 0", "tau_end = -1", "shoot_offsets = -0.5",
    "beta = nan", "beta = inf", "beta = 1+1j",
    "lambda_offsets = inf", "lambda_offsets = 0.5, 1+nanj", "lambda_offsets = 1+infj"])
def test_cli_exit_2_on_invalid_value(tmp_path, capsys, line):
    # a non-integral integer, a complex or non-finite real, a grid the dense eigensolve or
    # the log grid refuses, a key that is not a run input, a negative seed, an
    # empty scan span or evolution time, a shooting point not right of a0 and a
    # probe offset with an infinite or NaN part (once a crash in the resolvent
    # suite's solves) are all rejected before any suite runs
    cfg = write(tmp_path / "c.cfg", f"{line}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_build_config_normalizes_types():
    # integral floats are ints, ints of real fields are floats, scalars of tuple
    # keys are 1-tuples
    cfg = build_config({"m": 3.0, "k_max": 2.0, "shoot_k": 1, "lambda_offsets": 0.5 + 1j,
                        "beta": 2}, None, ("shooting",))
    assert cfg.params.m == 3 and isinstance(cfg.params.m, int)
    assert cfg.params.beta == 2.0 and isinstance(cfg.params.beta, float)
    assert cfg.k_max == 2 and isinstance(cfg.k_max, int)
    assert cfg.shoot_k == (1,)
    assert cfg.suites == ("shooting",)
    assert cfg.probe_lambdas() == (complex(-0.5, 1.0),)


def test_cli_out_flag_overrides_config_file(tmp_path):
    # one shooting point keeps the run short
    cfg = write(tmp_path / "c.cfg", f"out = {tmp_path / 'from_file'}\n"
                "shoot_k = 1\nshoot_offsets = 1.0\nshoot_imags = 0.0\n")
    assert main(["shoot", "--config", cfg, "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag").is_dir()
    assert not (tmp_path / "from_file").exists()


ONE_SHOOTING_POINT = "shoot_k = 1\nshoot_offsets = 1.0\nshoot_imags = 0.0\n"


@pytest.mark.parametrize("path", ["runs/#3", "runs/a,b"])
@pytest.mark.parametrize("quote", ["'", '"'])
def test_quoted_value_is_one_literal_string(tmp_path, monkeypatch, path, quote):
    # inside quotes `#` starts no comment and `,` makes no tuple: unquoted, the
    # first would be cut to `runs/` and the second run into a directory named
    # after the tuple's repr
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "c.cfg", f"out = {quote}{path}{quote}  # a comment, with a comma\n"
                + ONE_SHOOTING_POINT)
    assert parse_config_file(cfg)["out"] == path
    assert main(["shoot", "--config", cfg]) == 0
    assert (tmp_path / path / "shooting.csv").is_file()


@pytest.mark.parametrize("line", ["out = 'runs/#3", 'out = "runs', "out = runs'", "out = 'a'b",
                                  "lambda_offsets = 0.5, '1.0"])
def test_cli_exit_2_on_unbalanced_quote(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "c.cfg", f"{line}\n" + ONE_SHOOTING_POINT)
    with pytest.raises(ConfigError, match="c.cfg:1: .*quote"):
        parse_config_file(cfg)
    assert main(["shoot", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.cfg"]


@pytest.mark.parametrize("line", ["out =", "out = none", "out = ''", "out = a, b"])
def test_cli_exit_2_on_out_that_is_not_one_path(tmp_path, monkeypatch, capsys, line):
    # each of these once named the output directory after a tuple's repr, or
    # after nothing
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "c.cfg", f"{line}\n" + ONE_SHOOTING_POINT)
    assert main(["shoot", "--config", cfg]) == 2
    assert "out must be one non-empty path" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_cli_exit_2_on_empty_out_flag(tmp_path, monkeypatch, capsys):
    # an empty `--out` once fell back to the file's `out`, here the default ./out
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "c.cfg", ONE_SHOOTING_POINT)
    assert main(["shoot", "--config", cfg, "--out", ""]) == 2
    assert "out must be one non-empty path" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.cfg"]


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tiny", [False, True], ids=["measured", "tiny"])
def test_every_benchmark_config_builds(tmp_path, tiny):
    # the benchmark's worker builds every invocation's RunConfig this way, with
    # `{}` for the absent `--out`, so a config check it trips shows here first
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        for inv in workloads.write_configs(name, 0, str(tmp_path / name), tiny=tiny):
            cfg = build_config(parse_config_file(inv["config"]), {}, (inv["suite"],))
            assert (cfg.suites, cfg.out_dir) == ((inv["suite"],), inv["out_dir"])


def test_cli_suites_is_not_a_config_key(tmp_path, capsys):
    # the subcommand alone picks the suites
    cfg = write(tmp_path / "c.cfg", "suites = identities\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'suites'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["workers = 2", "workers = 0", "workers = none",
                                  "workers = 1+0j"])
def test_cli_workers_other_than_one_is_a_config_error(tmp_path, capsys, line):
    # the suites run serially; the key stays parseable for configs that set 1
    cfg = write(tmp_path / "c.cfg", f"{line}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "workers" in capsys.readouterr().err


def test_build_config_accepts_workers_one(tmp_path):
    cfg = write(tmp_path / "c.cfg", "workers = 1\nseed = 3\n")
    run_cfg = build_config(parse_config_file(cfg), None, ("shooting",))
    assert run_cfg.seed == 3
    assert not hasattr(run_cfg, "workers")


def test_unwritable_out_dir_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = RunConfig(suites=("semigroup",), out_dir=str(blocker / "sub"))
    assert run(cfg, log=lambda *a: None) == 2


def test_build_config_overrides():
    # `--out` is the one value the command line sets over the file
    cfg = build_config({"alpha": 0.6, "seed": 9, "out": "from_file"}, "x", ("identities",))
    assert cfg.params.alpha == 0.6
    assert cfg.seed == 9
    assert cfg.out_dir == "x"
    assert build_config({"out": "from_file"}, None, ("identities",)).out_dir == "from_file"


@pytest.mark.parametrize("flag", [
    "--alpha", "--beta", "--q", "--m", "--kmax", "--seed", "--workers"])
def test_cli_has_no_parameter_flags(flag, capsys):
    # a run's inputs come from its config file; only --config and --out are options
    with pytest.raises(SystemExit) as exc:
        main(["all", flag, "0.6"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_semigroup_small(tmp_path):
    cfg = RunConfig(params=VortexParams(alpha=0.5, beta=1.0),
                    suites=("semigroup",), k_max=1, out_dir=str(tmp_path / "r"),
                    evolve_n=512, tau_end=3.0)
    assert run(cfg, log=lambda *a: None) == 0
    report = json.loads((tmp_path / "r" / "semigroup.json").read_text())
    assert report["suite"] == "semigroup"
    assert report["passed"] is True
    lines = (tmp_path / "r" / "semigroup.csv").read_text().splitlines()
    assert lines[0] == "k,tau,norm"
    assert len(lines) > 10


def test_identities_suite_reports_failure(tmp_path):
    # the closed-form shortcuts are rapid-phase limits only; the suite must
    # report their true O(1) errors and therefore fail its strict tolerances
    cfg = RunConfig(suites=("identities",), out_dir=str(tmp_path / "r"))
    code = run(cfg, log=lambda *a: None)
    assert code == 1
    report = json.loads((tmp_path / "r" / "identities.json").read_text())
    errs = {c["name"]: c["max_error"] for c in report["checks"]}
    assert errs["tail_and_interval_shortcuts"] > 1e-2
    assert errs["kernel_composition_collapse"] > 1e-2


def test_emit_eigenvalue_schema(tmp_path):
    rows = [{"k": 0, "re": -1.25, "im": 0.5}]
    emit({"suite": "spectrum", "passed": True, "checks": []}, rows,
         ["k", "re", "im"], str(tmp_path), "spectrum")
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,re,im"
    assert lines[1] == "0,-1.25,0.5"
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["passed"] is True


def test_emit_serializes_complex_deterministically(tmp_path):
    report = {"z": 1.5 - 2.0j, "arr": np.array([1.0, 2.0]), "flag": np.bool_(True)}
    emit(report, [], ["x"], str(tmp_path), "r0")
    data = json.loads((tmp_path / "r0.json").read_text())
    assert data["z"] == [1.5, -2.0]
    assert data["arr"] == [1.0, 2.0]
    assert data["flag"] is True


def test_emit_round_trips_a_cell_with_comma_and_quote(tmp_path):
    cell = 'a, "b" c'
    emit({}, [{"x": 1.5, "s": cell}], ["x", "s"], str(tmp_path), "r0")
    with open(tmp_path / "r0.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == [{"x": "1.5", "s": cell}]


def test_shooting_csv_carries_the_note(tmp_path):
    # the note is the only reason an inconclusive point gives; the k = 0 one holds a comma
    cfg = RunConfig(suites=("shooting",), out_dir=str(tmp_path / "r"),
                    shoot_k=(1,), shoot_offsets=(1.0,), shoot_imags=(0.0,))
    assert run(cfg, log=lambda *a: None) == 0
    with open(tmp_path / "r" / "shooting.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["k"], r["verdict"]) for r in rows] == [("0", NO_INTEGRABLE), ("1", NO_INTEGRABLE)]
    assert rows[0]["note"] == "first-order radial mode, analytic verdict"
    assert rows[1]["note"] == ""


def test_iteration_budget_needs_picard_to_finish(monkeypatch):
    # a Picard run that breaks off at its step cap certifies nothing, however
    # few steps it took: each row fails at the cap, and the suite goes on
    monkeypatch.setattr(resolvent, "PICARD_MAX_ITER", 3)
    checks, rows = _contraction_checks(RunConfig())
    verdict = {c["name"]: c["passed"] for c in checks}
    assert verdict["contraction_factor_below_one"]
    assert not verdict["picard_iteration_budget"]
    budget_rows = [r for r in rows if r["check"] == "picard_iterations"]
    assert len(budget_rows) == 32
    assert all(not r["passed"] and r["value"] == 3 for r in budget_rows)


def test_young_checks_match_one_draw_at_a_time():
    # the batched lattice draws the same random stream as one draw per call:
    # per draw, the real part and then the imaginary part
    cfg = RunConfig(young_batch=3, seed=5)
    _, rows = _young_checks(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    grid = LogGrid(-suites.YOUNG_T, suites.YOUNG_T, suites.YOUNG_N)
    want = []
    for q, alpha in suites.YOUNG_LATTICE:
        p = VortexParams(alpha=alpha, beta=cfg.params.beta, m=2, q=q)
        kernels = [(k, apply_phi1, KernelK1(k, q, 2)) for k in suites.LATTICE_K]
        kernels += [(1, apply_phi2, KernelK2(p, 1, p.a0 + off))
                    for off in suites.LAMBDA_OFFSETS_YOUNG]
        for k, apply, kernel in kernels:
            ratios = []
            for _ in range(cfg.young_batch):
                x = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
                fn = ModeFunction(k, grid, x)
                ratios.append(lq_norm(apply(fn, kernel), q) / lq_norm(fn, q))
            want.append(max(ratios))
    assert len(rows) == len(want)
    np.testing.assert_allclose([r["value"] for r in rows], want, rtol=1e-12, atol=0)


def test_residual_check_reports_min_zone_fraction(small_all_config):
    cfg = small_all_config("z")
    checks, rows = _residual_checks(cfg)
    frac = checks[0]["min_zone_fraction"]
    # the k >= 1 solves leave the fast-phase far left out of the zone
    assert 0.0 < frac < 1.0
    assert frac == min(r["zone_fraction"] for r in rows)
    assert len(rows) == 3 * len(cfg.lambda_offsets)


def test_residual_check_fails_on_a_nan_residual(small_all_config, monkeypatch):
    # a row that measured nothing fails, and so does its check: a running max
    # from 0.0 would skip the NaN and pass
    real = suites.ode_residual
    calls = []

    def one_nan(U, G, lam, params):
        calls.append(None)
        res, frac = real(U, G, lam, params)
        return (math.nan if len(calls) == 2 else res), frac

    monkeypatch.setattr(suites, "ode_residual", one_nan)
    # at fine_n = 2^15+1 each residual passes unless it is replaced
    cfg = small_all_config("z", lambda_offsets=(1.0,), fine_n=2**15 + 1)
    checks, rows = _residual_checks(cfg)
    assert [r["passed"] for r in rows] == [True, False, True]
    assert not checks[0]["passed"]


def test_resolvent_summary_is_read_off_its_rows(small_all_config):
    # every check in resolvent.json is a reduction over its own rows of
    # resolvent.csv, and passes exactly when each of them passes
    cfg = small_all_config("r", suites=("resolvent",))
    assert run(cfg, log=lambda *a: None) == 1
    with open(os.path.join(cfg.out_dir, "resolvent.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(cfg.out_dir, "resolvent.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    a0 = report["params"]["a0"]

    def value(r):
        return float(r["value"])

    summary = {  # check -> (its rows' kind, summary key, reduction over one row)
        "young_phi1_lattice": ("young_phi1", "worst_ratio_to_bound",
                               lambda r: value(r) / float(r["bound"])),
        "young_phi2_lattice": ("young_phi2", "worst_ratio_to_bound",
                               lambda r: value(r) / float(r["bound"])),
        "contraction_factor_below_one": ("gamma", "worst_gamma", value),
        "picard_iteration_budget": ("picard_iterations", None, None),
        "ode_residuals": ("residual", "worst_residual", value),
        "resolvent_norm_bound": ("norm_ratio", "M_empirical",
                                 lambda r: value(r) * (float(r["lambda_re"]) - a0)),
    }
    checks = {c["name"]: c for c in report["checks"]}
    assert set(checks) == set(summary)
    assert {r["check"] for r in rows} == {kind for kind, _, _ in summary.values()}
    for name, (kind, key, of_row) in summary.items():
        own = [r for r in rows if r["check"] == kind]
        assert checks[name]["passed"] == all(r["passed"] == "true" for r in own), name
        if key is not None:
            assert checks[name][key] == max(of_row(r) for r in own), name
    assert report["passed"] == all(c["passed"] for c in checks.values())
    # on this config's coarse fine_n a residual row fails, so both verdicts occur
    assert not checks["ode_residuals"]["passed"] and checks["young_phi1_lattice"]["passed"]


def test_cli_all_writes_every_report(tmp_path, small_all_config):
    # criterion 10's config as a config file: `ssvortex all` runs the five
    # suites (it exits 1: the identities shortcuts, and the residuals on its
    # coarse fine_n, fail)
    cfg = write(tmp_path / "c.cfg", """
k_max = 1
seed = 99
young_batch = 2
bound_batch = 1
fine_n = 4097
norm_n = 1025
scan_n = 128
scan_t = 8.0
evolve_n = 256
tau_end = 2.0
lambda_offsets = 0.5, 1.0
shoot_k = 1
shoot_offsets = 1.0
shoot_imags = 0.0
""")
    out = tmp_path / "out"
    assert build_config(parse_config_file(cfg), str(out), suites.SUITES) == small_all_config("out")
    assert main(["all", "--config", cfg, "--out", str(out)]) == 1
    assert sorted(os.listdir(out)) == sorted(
        f"{name}.{ext}" for name in suites.SUITES for ext in ("csv", "json"))
    for name in suites.SUITES:
        assert json.loads((out / f"{name}.json").read_text())["suite"] == name


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal takes about as long to import as the rest of the program's
    # start-up; the K1 recurrence needs nothing from it
    src = os.path.dirname(os.path.dirname(ssvortex.__file__))
    code = "import sys, ssvortex.cli, ssvortex.suites; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
