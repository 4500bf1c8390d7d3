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
from ssvortex.params import VortexParams
from ssvortex.suites import RunConfig, _contraction_checks, _residual_checks, emit, run


def write(path, text):
    path.write_text(text)
    return str(path)


def test_parse_config_values(tmp_path):
    cfg = write(tmp_path / "a.cfg", """
# comment
alpha = 0.6
m = 3
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
    "seed = -5", "scan_t = 0", "tau_end = -1", "shoot_offsets = -0.5"])
def test_cli_exit_2_on_invalid_value(tmp_path, capsys, line):
    # a non-integral integer, a complex real, a grid the dense eigensolve or
    # the log grid refuses, a key that is not a run input, a negative seed, an
    # empty scan span or evolution time, and a shooting point not right of a0
    # are all rejected before any suite runs
    cfg = write(tmp_path / "c.cfg", f"suites = none\n{line}\n")
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_build_config_normalizes_types():
    # integral floats are ints, scalars of tuple keys are 1-tuples
    cfg = build_config({"m": 3.0, "k_max": 2.0, "shoot_k": 1, "lambda_offsets": 0.5 + 1j,
                        "suites": "shooting"}, {}, None)
    assert cfg.params.m == 3 and isinstance(cfg.params.m, int)
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
    cfg = build_config({"alpha": 0.6, "seed": 9}, {"alpha": 0.7, "out": "x"}, None)
    assert cfg.params.alpha == 0.7
    assert cfg.seed == 9
    assert cfg.out_dir == "x"


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


def test_residual_check_reports_min_zone_fraction(tmp_path):
    cfg = _small_all_config(tmp_path, "z")
    checks, rows = _residual_checks(cfg)
    frac = checks[0]["min_zone_fraction"]
    # the k >= 1 solves leave the fast-phase far left out of the zone
    assert 0.0 < frac < 1.0
    assert len(rows) == 3 * len(cfg.lambda_offsets)


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg1 = _small_all_config(tmp_path, "r1")
    cfg2 = _small_all_config(tmp_path, "r2")
    run(cfg1, log=lambda *a: None)
    run(cfg2, log=lambda *a: None)
    names = sorted(os.listdir(tmp_path / "r1"))
    assert names == sorted(os.listdir(tmp_path / "r2"))
    for name in names:
        assert filecmp.cmp(tmp_path / "r1" / name, tmp_path / "r2" / name, shallow=False), name


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
