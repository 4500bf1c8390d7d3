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
from .homogeneous import ShootingResult, shoot_batch, shoot_homogeneous
from .modes import (
    KernelK1,
    LogGrid,
    ModeFunction,
    apply_phi1,
    k1_eval,
    lq_norm,
    phi1_matrix,
    psi_from_U,
)
from .params import VortexParams
from .resolvent import (
    ConvergenceError,
    KernelK2,
    ResolventSolution,
    apply_phi2,
    contraction_bound,
    ode_residual,
    resolvent_bound_check,
    solve_k0,
    solve_mode,
    verify_kernel_composition,
    verify_neat_identities,
)
from .suites import RunConfig, emit, run

__all__ = [
    "ConvergenceError", "EvolutionTrace", "GeneratorMatrix", "KernelK1", "KernelK2",
    "LogGrid", "ModeFunction", "ResolventSolution", "RunConfig", "ShootingResult",
    "VortexParams", "apply_phi1", "apply_phi2", "assemble_generator", "contraction_bound",
    "eig_scan", "emit", "evolve", "growth_fit", "k1_eval", "lq_norm", "ode_residual",
    "phi1_matrix", "psi_from_U", "resolvent_bound_check", "run", "shoot_batch",
    "shoot_homogeneous", "solve_k0", "solve_mode", "stable_dt", "verify_kernel_composition",
    "verify_neat_identities",
]
__version__ = "0.1.0"
