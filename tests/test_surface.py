"""The public surface, and the hooks the benchmark's tracing relies on.

`bench/tracing.py` rebinds named `ssvortex` functions and reads arguments and
results of some of them; its own smoke test is not part of this suite, so a
rename that breaks it shows here first.  The signatures, the fields of the
public result types and every suite's CSV header are pinned so that a new
solver option, a changed field or a changed column shows up as a test diff.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os

import ssvortex
from ssvortex import suites

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
        "ConvergenceError", "EvolutionTrace", "GeneratorMatrix", "Homo2Params",
        "KernelK1", "KernelK2", "LogGrid", "ModeFunction", "ResolventSolution",
        "RunConfig", "ShootingResult", "VortexParams", "apply_phi1", "apply_phi2",
        "assemble_generator", "contraction_bound", "eig_scan", "emit", "evolve",
        "growth_fit", "homo2_defect", "homo2_params", "hyp2f2_regularized", "k1_eval",
        "lq_norm", "ode_residual", "phi1_matrix", "psi_from_U", "q_frak",
        "resolvent_bound_check", "run", "shoot_batch", "shoot_homogeneous", "solve_k0",
        "solve_mode", "stable_dt", "verify_kernel_composition", "verify_neat_identities",
    ]


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
        "Homo2Params": ["a1", "a2", "b1", "b2", "q_frak"],
    }
    for name, fields in expected.items():
        assert [f.name for f in dataclasses.fields(getattr(ssvortex, name))] == fields, name


def test_suite_csv_headers(tmp_path):
    # criterion 10's config
    cfg = suites.RunConfig(
        k_max=1, seed=99, out_dir=str(tmp_path), young_batch=2, bound_batch=1, fine_n=4097,
        norm_n=1025, scan_n=128, scan_t=8.0, evolve_n=256, tau_end=2.0,
        lambda_offsets=(0.5, 1.0), shoot_k=(1,), shoot_offsets=(1.0,), shoot_imags=(0.0,))
    suites.run(cfg, log=lambda *a: None)
    expected = {
        "identities": "check,t,r,mu_re,mu_im,abs_error",
        "resolvent": "check,k,q,alpha,lambda_re,lambda_im,value,bound,passed",
        "semigroup": "k,tau,norm",
        "spectrum": "k,re,im",
        "shooting": "k,re_lambda,im_lambda,mismatch,verdict,note",
    }
    for name, header in expected.items():
        with (tmp_path / f"{name}.csv").open() as fh:
            assert fh.readline() == header + "\n", name
