"""Benchmark worker: one fresh process that sets up `ssvortex`, then runs one
workload's invocations once through `ssvortex.cli.main`, as a user's
`ssvortex <subcommand> --config FILE` runs do.

Usage: python3 bench/worker.py JOB_JSON T0

T0 is the `time.monotonic()` reading taken by the parent just before it started
this process, so setup time counts interpreter start, `import ssvortex` and
building every invocation's `RunConfig`.  A job with `"mode": "setup"` stops
there.  Otherwise it calls `cli.main` once per invocation, timing each and the
monotonic interval they span; with `"trace": true` the calls record spans (see
`tracing`), and the cost of one span is measured before them.  Emitted check
verdicts, and at the reference seed the reported numbers, are compared outside
the timed region.  The result is written as JSON to the job's `result` path,
and the spans to its `spans` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback


def flatten_numbers(obj, prefix="") -> dict:
    """Numeric leaves (bools excluded) of a JSON value, keyed by dotted path."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten_numbers(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.update(flatten_numbers(value, f"{prefix}.{i}"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = obj
    return out


def reported_numbers(summary: dict) -> dict:
    """Numbers a suite reports in its checks, keyed by `<check name>.<field path>`."""
    out = {}
    for check in summary["checks"]:
        out.update(flatten_numbers({k: v for k, v in check.items() if k != "name"},
                                   check["name"]))
    return out


def _close(got, want, tol: dict) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return abs(got - want) <= tol["atol"] + tol["rtol"] * abs(want)


class Checker:
    """Counts the checks a worker attempted and failed."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(message)

    def invocation(self, inv: dict, rc, error: str | None):
        """Compare one invocation's exit code, verdicts and numbers with the
        expected ones; returns its reported numbers (None if it failed)."""
        expected = inv["expected"]
        suite = inv["suite"]
        self.attempted += len(expected) + 1
        if error is not None:
            for _ in range(len(expected) + 1):
                self.fail(f"{suite}: raised {error}")
            return None
        want_rc = 0 if all(expected.values()) else 1
        if rc != want_rc:
            self.fail(f"{suite}: exit code {rc}, expected {want_rc}")
        try:
            with open(os.path.join(inv["out_dir"], f"{suite}.json")) as fh:
                summary = json.load(fh)
        except FileNotFoundError:
            for _ in expected:
                self.fail(f"{suite}: emitted no report")
            return None
        flags = {c["name"]: c["passed"] for c in summary["checks"]}
        for name, want in expected.items():
            if flags.get(name) is not want:
                self.fail(f"{suite}.{name}: passed={flags.get(name)}, expected {want}")
        for name in sorted(flags.keys() - expected.keys()):
            self.attempted += 1
            self.fail(f"{suite}.{name}: unexpected check")
        numbers = reported_numbers(summary)
        if self.reference is not None:
            tols = self.reference["tolerances"]
            for path, want in self.reference["values"][suite].items():
                self.attempted += 1
                tol = tols.get(path.rsplit(".", 1)[-1], tols["default"])
                got = numbers.get(path)
                if got is None or not _close(got, want, tol):
                    self.fail(f"{suite}.{path}: {got!r} differs from reference {want!r}"
                              f" (rtol {tol['rtol']}, atol {tol['atol']})")
        return numbers


def _blas_record(np_module) -> dict:
    try:
        deps = np_module.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def main(argv) -> int:
    job_path, t0 = argv[1], float(argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.realpath(os.path.join(job["root"], "src"))
    sys.path.insert(0, src)
    import ssvortex.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"ssvortex imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    invocations = job["invocations"]
    for inv in invocations:
        cli.build_config(cli.parse_config_file(inv["config"]), {}, (inv["suite"],))
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if job["mode"] == "setup":
        with open(job["result"], "w") as fh:
            json.dump(result, fh)
        return 0

    import numpy
    import scipy

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    modules = {name: sys.modules[name] for name in tracing.PACKAGE_MODULES}
    traced = bool(job["trace"])
    span_cost_s = tracing.span_cost() if traced else None
    checker = Checker(job.get("reference"))
    tracer = tracing.Tracer() if traced else None
    restore = tracing.install(tracer, modules) if traced else []
    suite_s = {}
    outcomes = []
    t0 = time.monotonic()
    try:
        for inv in invocations:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(inv["out_dir"], f"{inv['suite']}.json"))
            argv_inv = [inv["subcommand"], "--config", inv["config"]]
            rc, error = None, None
            t = time.perf_counter()
            root = tracer.open(tracing.ROOT) if traced else None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv_inv)
            except Exception:  # a raising suite is a failed check, not a crash
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            finally:
                if traced:
                    tracer.close(root)
            suite_s[inv["suite"]] = time.perf_counter() - t
            outcomes.append((inv, rc, error))
    finally:
        tracing.uninstall(restore)
    t1 = time.monotonic()
    numbers = {}
    for inv, rc, error in outcomes:
        got = checker.invocation(inv, rc, error)
        if got is not None:
            numbers[inv["suite"]] = got
    if traced:
        result["layers"] = tracing.layer_metrics(tracer, span_cost_s)
        with open(job["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    result.update({
        "wall_s": sum(suite_s.values()),
        "suite_s": suite_s,
        "t0": t0,
        "t1": t1,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "numbers": numbers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas": _blas_record(numpy)},
    })
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
