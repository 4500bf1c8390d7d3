"""Span tracing for the benchmark's traced runs, installed from outside the program.

`install` rebinds public `ssvortex` functions, in every `ssvortex` module that
holds them, to wrappers that record a span (name, start, end, parent) and a few
counts taken from arguments and results.  `uninstall` puts the originals back,
so nothing after the traced calls runs through them.  Source files are untouched.

Per-layer metrics (layer = module; name = `<module>.<function>.<quantity>`),
with the end-to-end metric each should move and the workload it shows on:

- modes.apply_phi1, psi_from_U, lq_norm, lq_norm_samples -> wall_ref_s on
  resolvent-default; predicted unchanged on shooting-default.
  modes.phi1_matrix -> wall_ref_s on dense-generator, where it is small.
- resolvent.solve_mode (self_s = K2 scan + per-iteration panel moments),
  solve_k0, apply_phi2, ode_residual, resolvent_bound_check -> wall_ref_s on
  resolvent-default; the layer is idle on dense-generator.
- generator.assemble_generator, evolve (semigroup suite) and eig_scan
  (spectrum suite; self_s = dense eigensolve) -> wall_ref_s and peak_rss_mb on
  dense-generator.
- homogeneous.shoot_homogeneous, solve_ivp -> wall_ref_s on shooting-default;
  predicted unchanged elsewhere.
- suites.<suite>.self_s and suites.emit -> wall_ref_s on every workload.
- trace.remainder_s is the time inside `cli.main` outside every named span
  (argument parsing, config building, the suite loop).  trace.overhead_s is the
  time the wrappers add: the number of spans times the cost of one wrapped call,
  measured on a no-op by `span_cost` in the same process.

Metric names and units are listed in BENCHMARK.json; `layer_metrics` computes
every one of them.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# (span name, defining module, attribute) of every wrapped function
TRACED = (
    ("modes.apply_phi1", "modes", "apply_phi1"),
    ("modes.psi_from_U", "modes", "psi_from_U"),
    ("modes.lq_norm", "modes", "lq_norm"),
    ("modes.lq_norm_samples", "modes", "lq_norm_samples"),
    ("modes.phi1_matrix", "modes", "phi1_matrix"),
    ("resolvent.solve_mode", "resolvent", "solve_mode"),
    ("resolvent.solve_k0", "resolvent", "solve_k0"),
    ("resolvent.apply_phi2", "resolvent", "apply_phi2"),
    ("resolvent.ode_residual", "resolvent", "ode_residual"),
    ("resolvent.resolvent_bound_check", "resolvent", "resolvent_bound_check"),
    ("generator.assemble_generator", "generator", "assemble_generator"),
    ("generator.evolve", "generator", "evolve"),
    ("generator.eig_scan", "generator", "eig_scan"),
    ("homogeneous.shoot_homogeneous", "homogeneous", "shoot_homogeneous"),
    ("homogeneous.solve_ivp", "homogeneous", "solve_ivp"),
    ("suites.emit", "suites", "emit"),
)
SUITES = ("identities", "resolvent", "semigroup", "spectrum", "shooting")
ROOT = "cli.main"
PACKAGE_MODULES = ("ssvortex", "ssvortex.params", "ssvortex.modes", "ssvortex.resolvent",
                   "ssvortex.generator", "ssvortex.homogeneous", "ssvortex.suites",
                   "ssvortex.cli")

class Tracer:
    """In-memory span list of one traced iteration, plus counts per span name."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list:
        """Duration of each span minus the part of it its child spans cover."""
        children = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in children[i]:   # children are disjoint and in start order
                cs, ce = max(self.spans[c][1], reach), min(self.spans[c][2], end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((end - start) - covered)
        return out


def _count_result(tracer: Tracer, name: str, args, kwargs, result) -> None:
    c = tracer.counts
    if name == "modes.apply_phi1":
        c["apply_phi1.points"] += args[0].grid.n
    elif name == "resolvent.solve_mode":
        c["solve_mode.iterations"] += result.iterations
        c["solve_mode.krylov"] += result.method == "krylov"
        c["solve_mode.picard"] += result.method == "picard"
    elif name == "generator.evolve":
        n = args[3].grid.n if len(args) > 3 else kwargs["gen"].grid.n
        c["evolve.steps"] += result.steps
        c["evolve.flop"] += result.steps * 4 * 8.0 * n * n
    elif name == "generator.eig_scan":
        for m in result["modes"]:
            c["eig_scan.modes"] += 1
            c["eig_scan.flagged"] += m.get("n_flagged", 0)
            probes = m.get("probes", ())
            c["eig_scan.probes"] += len(probes)
            c["eig_scan.probes_resolved"] += sum(bool(p["resolved"]) for p in probes)
    elif name == "homogeneous.shoot_homogeneous":
        c["shoot.inconclusive"] += result.verdict == "inconclusive"
    elif name == "homogeneous.solve_ivp":
        c["solve_ivp.rhs_evals"] += result.nfev
    elif name == "suites.emit":
        c["emit.bytes"] += sum(os.path.getsize(path) for path in result)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        _count_result(tracer, name, args, kwargs, result)
        return result
    return traced


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to the call it wraps: a no-op timed bare
    and wrapped, `calls` times each, median over `repeats` batches."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = _wrap(Tracer(), "calibration", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def install(tracer: Tracer, modules: dict) -> list:
    """Rebind every traced function in every package module that holds it.

    `modules` maps module name to module object.  Returns the (namespace,
    key, original) triples `uninstall` needs.
    """
    suites = modules["ssvortex.suites"]
    targets = [(name, getattr(modules[f"ssvortex.{mod}"], attr)) for name, mod, attr in TRACED]
    targets += [(f"suites.{s}", suites._SUITE_FN[s]) for s in SUITES]
    namespaces = [vars(modules[m]) for m in PACKAGE_MODULES] + [suites._SUITE_FN]
    restore = []
    for name, original in targets:
        wrapper = _wrap(tracer, name, original)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapper
                    restore.append((ns, key, original))
    return restore


def uninstall(restore: list) -> None:
    for ns, key, original in reversed(restore):
        ns[key] = original


def layer_metrics(tracer: Tracer, span_cost_s: float) -> dict:
    """Per-layer metric values of one traced iteration; `span_cost_s` is what
    `span_cost` measured."""
    selfs = tracer.self_times()
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _), self_s in zip(tracer.spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
    c = tracer.counts
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    for s in SUITES:
        out[f"suites.{s}.self_s"] = own[f"suites.{s}"]
    n_solve = calls["resolvent.solve_mode"]
    out.update({
        "modes.apply_phi1.ns_per_point":
            1e9 * total["modes.apply_phi1"] / c["apply_phi1.points"] if c["apply_phi1.points"] else 0.0,
        "resolvent.solve_mode.self_s": own["resolvent.solve_mode"],
        "resolvent.solve_mode.iterations": c["solve_mode.iterations"],
        "resolvent.solve_mode.krylov_fallbacks": c["solve_mode.krylov"],
        "resolvent.solve_mode.picard_converged_ratio":
            c["solve_mode.picard"] / n_solve if n_solve else 0.0,
        "generator.evolve.steps": c["evolve.steps"],
        "generator.evolve.us_per_step":
            1e6 * total["generator.evolve"] / c["evolve.steps"] if c["evolve.steps"] else 0.0,
        "generator.evolve.gflop_computed": c["evolve.flop"] / 1e9,
        "generator.eig_scan.self_s": own["generator.eig_scan"],
        "generator.eig_scan.modes": c["eig_scan.modes"],
        "generator.eig_scan.flagged": c["eig_scan.flagged"],
        "generator.eig_scan.probes": c["eig_scan.probes"],
        "generator.eig_scan.probes_resolved": c["eig_scan.probes_resolved"],
        "homogeneous.shoot_homogeneous.inconclusive": c["shoot.inconclusive"],
        "homogeneous.solve_ivp.rhs_evals": c["solve_ivp.rhs_evals"],
        "suites.emit.bytes": c["emit.bytes"],
        "trace.wall_s": total[ROOT],
        "trace.remainder_s": own[ROOT],
        "trace.overhead_s": len(tracer.spans) * span_cost_s,
    })
    return out
