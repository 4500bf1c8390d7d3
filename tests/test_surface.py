"""The public surface, and the hooks the benchmark's tracing relies on.

`bench/tracing.py` rebinds named `ssvortex` functions and reads arguments and
results of some of them; its own smoke test is not part of this suite, so a
rename that breaks it shows here first.  The signatures, the fields of the
public result types and every suite's CSV header are pinned so that a new
solver option, a changed field or a changed column shows up as a test diff.
Every public function but `shoot_homogeneous` is one that a full run calls: a
form only the tests use belongs in `tests/oracles.py`.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np

import ssvortex
from ssvortex import generator, suites

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing",
                                                  os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for name, mod, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"ssvortex.{mod}"), attr, None)), name
    for name in tracing.PACKAGE_MODULES:
        importlib.import_module(name)
    assert set(tracing.SUITES) == set(suites._SUITE_FN)
    module, _, attr = tracing.ROOT.partition(".")
    assert callable(getattr(importlib.import_module(f"ssvortex.{module}"), attr))
    # the traced evolve reads the grid size from its `gen` keyword
    gen = inspect.signature(ssvortex.evolve).parameters["gen"]
    assert gen.kind is inspect.Parameter.KEYWORD_ONLY


def test_public_names():
    assert sorted(ssvortex.__all__) == [
        "ConvergenceError", "EvolutionTrace", "GeneratorMatrix", "KernelK1", "KernelK2",
        "LogGrid", "ModeFunction", "ResolventSolution", "RunConfig", "ShootingResult",
        "VortexParams", "apply_phi1", "apply_phi2", "assemble_generator", "contraction_bound",
        "eig_scan", "emit", "evolve", "growth_fit", "k1_eval", "lq_norm", "ode_residual",
        "phi1_matrix", "psi_from_U", "resolvent_bound_check", "run", "shoot_batch",
        "shoot_homogeneous", "solve_k0", "solve_mode", "stable_dt", "verify_kernel_composition",
        "verify_neat_identities",
    ]


def test_every_public_function_runs_in_the_pipeline(small_all_config):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        suites.run(small_all_config("out"), log=lambda *a: None)
    finally:
        sys.setprofile(previous)
    # bench/tracing.py hooks shoot_homogeneous; the suites batch through shoot_batch
    hooked = {"shoot_homogeneous"}
    unused = [name for name in ssvortex.__all__ if name not in hooked
              and inspect.isfunction(obj := getattr(ssvortex, name))
              and obj.__code__ not in called]
    assert unused == []


def test_solver_signatures():
    expected = {
        "solve_mode": ["G", "lam", "params"],
        "solve_k0": ["G", "lam", "params"],
        "ode_residual": ["U", "G", "lam", "params"],
        "eig_scan": ["k_values", "params", "grid"],
        "evolve": ["U0", "tau_end", "gen"],
        "shoot_homogeneous": ["params", "k", "lam"],
        "shoot_batch": ["params", "tasks"],
        "resolvent_bound_check": ["lambda_values", "params", "k_max", "grid", "batch", "seed"],
        # traced; the dense-generator smoke test counts its calls from `dense()`
        "phi1_matrix": ["grid", "kernel", "rows"],
    }
    for name, params in expected.items():
        assert list(inspect.signature(getattr(ssvortex, name)).parameters) == params, name


def test_public_dataclass_fields():
    # the tracer reads `iterations`, `method`, `steps`, `verdict` and `grid`
    expected = {
        "ResolventSolution": ["U", "iterations", "method", "update_history"],
        "EvolutionTrace": ["times", "norms", "fitted_rate", "steps"],
        "ShootingResult": ["lam", "k", "mismatch", "verdict", "note"],
        "ModeFunction": ["k", "grid", "samples"],
    }
    for name, fields in expected.items():
        assert [f.name for f in dataclasses.fields(getattr(ssvortex, name))] == fields, name


def test_suite_csv_headers(tmp_path, small_all_config):
    suites.run(small_all_config("out"), log=lambda *a: None)
    expected = {
        "identities": "check,t,r,mu_re,mu_im,abs_error",
        "resolvent": "check,k,q,alpha,lambda_re,lambda_im,value,bound,passed",
        "semigroup": "k,tau,norm",
        "spectrum": "k,re,im",
        "shooting": "k,re_lambda,im_lambda,mismatch,verdict,note",
    }
    for name, header in expected.items():
        with (tmp_path / "out" / f"{name}.csv").open() as fh:
            assert fh.readline() == header + "\n", name


def test_spectrum_mode_entry_keys(monkeypatch, small_all_config):
    # the tracer reads these entries; k = 1's eigensolve is made not to converge
    def no_convergence(a, **kw):
        raise np.linalg.LinAlgError("eig algorithm did not converge")

    monkeypatch.setattr(generator, "eigvals", no_convergence)
    summary, _, _ = suites.suite_spectrum(small_all_config("out"))
    solved, failed = summary["checks"][0]["modes"]
    assert set(solved) == {"k", "max_re", "n_flagged"}
    assert set(failed) == {"k", "failed"}
