"""Workload definitions: which `ssvortex` invocations a workload makes, with
which generated config, and which check verdicts each invocation must report.

Every workload runs at the default vortex `(alpha, beta, m, q) = (0.5, 1, 2, 2)`
and the default grid sizes of `RunConfig`; only batch, probe and mode counts
are set here, so that one iteration takes 6-40 s and a 30 s run holds one to
four of them.
"""

from __future__ import annotations

import os

# Check verdicts a correct program reports at these configs.  The two
# `identities` checks fail by design (README, "Expected acceptance outcome").
EXPECTED_CHECKS = {
    "identities": {"tail_and_interval_shortcuts": False,
                   "kernel_composition_collapse": False},
    "resolvent": {"young_phi1_lattice": True, "young_phi2_lattice": True,
                  "contraction_factor_below_one": True, "picard_iteration_budget": True,
                  "ode_residuals": True, "resolvent_norm_bound": True},
    "semigroup": {"radial_mode_rate_sharp": True, "all_modes_below_threshold": True},
    "spectrum": {"no_surviving_eigenvalue_right_of_a0": True},
    "shooting": {"no_integrable_homogeneous_solution": True},
}

# CLI subcommand -> suite it runs
SUBCOMMAND_SUITE = {"verify": "identities", "resolvent": "resolvent",
                    "semigroup": "semigroup", "spectrum": "spectrum", "shoot": "shooting"}

# Each workload: the (subcommand, config values) invocations of one iteration,
# whether the seed changes its inputs, and the `hostspeed` kernel of the same
# kind of work as its own, whose speed its times are divided by.  Why each was
# chosen is in BENCHMARK.json.
WORKLOADS = {
    "resolvent-default": {
        "invocations": [
            ("verify", {}),
            ("resolvent", {"young_batch": 10, "bound_batch": 2,
                           "lambda_offsets": (0.1, 1.0)}),
        ],
        "seed_affects_inputs": True,
        "speed_kernel": "loop",   # Picard loops in Python over numpy calls
    },
    "dense-generator": {
        # k = 1 is the lowest mode whose generator has the K1 block (phi1_matrix)
        "invocations": [("semigroup", {"k_max": 1}), ("spectrum", {"k_max": 1})],
        "seed_affects_inputs": False,
        "speed_kernel": "eig",    # LAPACK eigensolves take most of its time
    },
    "shooting-default": {
        "invocations": [("shoot", {"shoot_k": (1, 2, 3), "shoot_offsets": (0.8, 4.0),
                                   "shoot_imags": (-1.0, 1.0)})],
        "seed_affects_inputs": False,
        "speed_kernel": "ivp",    # solve_ivp calling Python right-hand sides
    },
}

# Smoke configuration of the benchmark's own test, never of a measured run:
# criterion 10's small grids where every verdict still holds (the residual and
# Young checks keep their default grids, one probe point).
TINY_GRIDS = {"norm_n": 1025, "scan_n": 128, "scan_t": 8.0, "evolve_n": 256,
              "tau_end": 2.0, "lambda_offsets": (1.0,)}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value) + ("," if len(value) == 1 else "")
    return repr(value)


def write_configs(name: str, seed: int, work_dir: str, tiny: bool = False) -> list:
    """Write one `key = value` config file per invocation of workload `name`.

    Returns a list of invocation dicts: subcommand, suite, config path, output
    directory and expected check verdicts.
    """
    spec = WORKLOADS[name]
    invocations = []
    for i, (sub, values) in enumerate(spec["invocations"]):
        out_dir = os.path.join(work_dir, f"out{i}-{sub}")
        merged = {"alpha": 0.5, "beta": 1.0, "m": 2, "q": 2.0, "seed": seed,
                  "workers": 1, "out": out_dir, **values}
        if tiny:
            merged.update(TINY_GRIDS)
        path = os.path.join(work_dir, f"config{i}-{sub}.cfg")
        with open(path, "w") as fh:
            fh.write(f"# benchmark workload {name}, invocation {i}: ssvortex {sub}\n")
            for key, value in merged.items():
                fh.write(f"{key} = {_format_value(value)}\n")
        suite = SUBCOMMAND_SUITE[sub]
        invocations.append({"subcommand": sub, "suite": suite, "config": path,
                            "out_dir": out_dir, "expected": EXPECTED_CHECKS[suite]})
    return invocations
