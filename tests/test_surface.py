"""The public surface, and the hooks the benchmark's tracing relies on.

`bench/tracing.py` rebinds named `ssvortex` functions and reads arguments and
results of some of them; its own smoke test is not part of this suite, so a
rename that breaks it shows here first.  The signatures below are pinned so
that a new solver option shows up as a test diff.
"""

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
    # the traced evolve reads the grid size from its fourth argument
    assert list(inspect.signature(ssvortex.evolve).parameters)[3] == "gen"


def test_public_names():
    assert sorted(ssvortex.__all__) == [
        "ConvergenceError", "EvolutionTrace", "GeneratorMatrix", "Homo2Params",
        "KernelK1", "KernelK2", "LogGrid", "ModeFunction", "ResolventSolution",
        "RunConfig", "ShootingResult", "VortexParams", "apply_phi1", "apply_phi2",
        "assemble_generator", "contraction_bound", "eig_scan", "emit", "evolve",
        "growth_fit", "homo2_defect", "homo2_params", "hyp2f2_regularized", "k1_eval",
        "k2_eval", "lq_norm", "ode_residual", "phi1_matrix", "psi_from_U", "q_frak",
        "resolvent_bound_check", "run", "second_order_relation", "shoot_homogeneous",
        "solve_k0", "solve_mode", "stable_dt", "verify_kernel_composition",
        "verify_neat_identities",
    ]


def test_solver_signatures():
    expected = {
        "solve_mode": ["G", "lam", "params", "map_kind"],
        "solve_k0": ["G", "lam", "params"],
        "ode_residual": ["U", "G", "lam", "params"],
        "eig_scan": ["k_values", "params", "grid"],
        "evolve": ["U0", "tau_end", "dt", "gen"],
        "shoot_homogeneous": ["params", "k", "lam"],
        "resolvent_bound_check": ["lambda_values", "params", "k_max", "grid", "batch", "seed"],
    }
    for name, params in expected.items():
        assert list(inspect.signature(getattr(ssvortex, name)).parameters) == params, name
