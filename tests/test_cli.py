import csv
import filecmp
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import ssvortex
from ssvortex import suites
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
workers = 2
suites = semigroup, shooting
lambda_offsets = 0.9, 1.5+1j
out = results
""")
    vals = parse_config_file(cfg)
    assert vals["alpha"] == 0.6
    assert vals["m"] == 3
    assert vals["suites"] == ("semigroup", "shooting")
    assert vals["lambda_offsets"] == (0.9, 1.5 + 1j)
    assert vals["out"] == "results"
    # every run input is a config key, the vortex parameters included
    run_cfg = build_config(vals, None, None)
    p = run_cfg.params
    assert (p.alpha, p.beta, p.q, p.m) == (0.6, -2.0, 3.0, 3)
    assert (run_cfg.k_max, run_cfg.seed, run_cfg.workers) == (4, 7, 2)


def test_parse_config_line_errors(tmp_path):
    bad = write(tmp_path / "bad.cfg", "alpha = 0.5\nnonsense line\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        parse_config_file(bad)
    unknown = write(tmp_path / "unk.cfg", "alpha = 0.5\nwibble = 3\n")
    with pytest.raises(ConfigError, match="unk.cfg:2.*wibble"):
        parse_config_file(unknown)


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
    "young_batch = 0", "bound_batch = 0", "lambda_offsets = none"])
def test_cli_exit_2_on_empty_sample_set(tmp_path, capsys, line):
    # a Young, norm-bound or residual check over no samples would pass
    # vacuously; the config is rejected before any suite runs
    cfg = write(tmp_path / "c.cfg", f"suites = none\n{line}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "m = 2.5", "k_max = 1.5", "young_batch = 1.5", "seed = 1+1j", "tau_end = 1+1j",
    "shoot_k = 1, 2.5", "shoot_imags = 1+1j", "scan_n = 8192", "fine_n = 8", "lambdas = -0.5+0j", "out_dir = x",
    "seed = -5", "scan_t = 0", "tau_end = -1", "shoot_offsets = -0.5",
    "beta = nan", "beta = inf", "beta = 1+1j"])
def test_cli_exit_2_on_invalid_value(tmp_path, capsys, line):
    # a non-integral integer, a complex or non-finite real, a grid the dense eigensolve or
    # the log grid refuses, a key that is not a run input, a negative seed, an
    # empty scan span or evolution time, and a shooting point not right of a0
    # are all rejected before any suite runs
    cfg = write(tmp_path / "c.cfg", f"suites = none\n{line}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_build_config_normalizes_types():
    # integral floats are ints, ints of real fields are floats, scalars of tuple
    # keys are 1-tuples
    cfg = build_config({"m": 3.0, "k_max": 2.0, "shoot_k": 1, "lambda_offsets": 0.5 + 1j,
                        "suites": "shooting", "beta": 2}, None, None)
    assert cfg.params.m == 3 and isinstance(cfg.params.m, int)
    assert cfg.params.beta == 2.0 and isinstance(cfg.params.beta, float)
    assert cfg.k_max == 2 and isinstance(cfg.k_max, int)
    assert cfg.shoot_k == (1,)
    assert cfg.suites == ("shooting",)
    assert cfg.probe_lambdas() == (complex(-0.5, 1.0),)


def test_cli_out_flag_overrides_config_file(tmp_path):
    cfg = write(tmp_path / "c.cfg", f"suites = none\nout = {tmp_path / 'from_file'}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag").is_dir()
    assert not (tmp_path / "from_file").exists()


def test_cli_empty_suites_exits_zero(tmp_path):
    cfg = write(tmp_path / "c.cfg", "suites = none\n")
    out = tmp_path / "out"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0


def test_unwritable_out_dir_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = RunConfig(suites=("semigroup",), out_dir=str(blocker / "sub"))
    assert run(cfg, log=lambda *a: None) == 2


def test_build_config_overrides():
    # `--out` is the one value the command line sets over the file
    cfg = build_config({"alpha": 0.6, "seed": 9, "out": "from_file"}, "x", None)
    assert cfg.params.alpha == 0.6
    assert cfg.seed == 9
    assert cfg.out_dir == "x"
    assert build_config({"out": "from_file"}, None, None).out_dir == "from_file"


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


def _small_all_config(tmp_path, out_name):
    return RunConfig(
        params=VortexParams(alpha=0.5, beta=1.0),
        suites=("identities", "resolvent", "semigroup", "spectrum", "shooting"),
        k_max=1, seed=99, out_dir=str(tmp_path / out_name),
        young_batch=2, bound_batch=1, fine_n=4097,
        norm_n=1025, scan_n=128, scan_t=8.0, evolve_n=256, tau_end=2.0,
        lambda_offsets=(0.5, 1.0),
        shoot_k=(1,), shoot_offsets=(1.0,), shoot_imags=(0.0,),
    )


def test_iteration_budget_needs_picard_to_finish(monkeypatch):
    # a Picard run that breaks off early and is finished by Krylov reports a
    # small iteration count; it must not pass the certificate
    def krylov_finished(G, lam, params, **options):
        return SimpleNamespace(method="krylov", iterations=3)

    monkeypatch.setattr(suites, "solve_mode", krylov_finished)
    checks, rows = _contraction_checks(RunConfig())
    verdict = {c["name"]: c["passed"] for c in checks}
    assert verdict["contraction_factor_below_one"]
    assert not verdict["picard_iteration_budget"]
    assert not any(r["passed"] for r in rows if r["check"] == "picard_iterations")


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


def test_residual_check_reports_min_zone_fraction(tmp_path):
    cfg = _small_all_config(tmp_path, "z")
    checks, rows = _residual_checks(cfg)
    frac = checks[0]["min_zone_fraction"]
    # the k >= 1 solves leave the fast-phase far left out of the zone
    assert 0.0 < frac < 1.0
    assert len(rows) == 3 * len(cfg.lambda_offsets)


def test_worker_pool_output_matches_sequential(tmp_path):
    cfg1 = _small_all_config(tmp_path, "w1")
    cfg2 = _small_all_config(tmp_path, "w2")
    cfg1.suites = cfg2.suites = ("semigroup", "shooting")
    cfg2.workers = 3
    run(cfg1, log=lambda *a: None)
    run(cfg2, log=lambda *a: None)
    for name in sorted(os.listdir(tmp_path / "w1")):
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name, shallow=False), name


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal takes about as long to import as the rest of the program's
    # start-up; the K1 recurrence needs nothing from it
    src = os.path.dirname(os.path.dirname(ssvortex.__file__))
    code = "import sys, ssvortex.cli, ssvortex.suites; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
