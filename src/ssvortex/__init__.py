"""Mode-by-mode stability verification for the self-similar power-law vortex."""

from .generator import (
    EvolutionTrace,
    GeneratorMatrix,
    assemble_generator,
    eig_scan,
    evolve,
    growth_fit,
    stable_dt,
)
from .homogeneous import (
    Homo2Params,
    ShootingResult,
    homo2_defect,
    homo2_params,
    hyp2f2_regularized,
    q_frak,
    shoot_homogeneous,
)
from .modes import (
    KernelK1,
    LogGrid,
    ModeFunction,
    apply_phi1,
    k1_eval,
    lq_norm,
    phi1_matrix,
    psi_from_U,
    second_order_relation,
)
from .params import VortexParams
from .resolvent import (
    ConvergenceError,
    KernelK2,
    ResolventSolution,
    apply_phi2,
    contraction_bound,
    k2_eval,
    ode_residual,
    resolvent_bound_check,
    solve_k0,
    solve_mode,
    verify_kernel_composition,
    verify_neat_identities,
)
from .suites import RunConfig, emit, run

__all__ = [
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
__version__ = "0.1.0"
