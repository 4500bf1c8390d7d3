"""Suite-level benchmark of ssvortex, with a traced per-module layer split.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # every workload, one table

Each workload (see `workloads.py` and BENCHMARK.json) runs as a series of fresh
worker processes, each of which imports `ssvortex` from `src/` and calls
`ssvortex.cli.main` once per invocation with generated config files, as a
user's `ssvortex <subcommand> --config FILE` would.  Workers start one after
another until the next would end past --seconds; there is always one.
OpenBLAS/OpenMP threads are fixed at BLAS_THREADS and the suites' `workers` at
1, and every process of a run is pinned to one CPU, BENCH_CPU.

Times are reported at reference host speed.  The shared host changes the CPU's
speed by up to 2x while a run lasts, so a `hostspeed` probe process samples that
speed on the same CPU, and each measured interval is scaled by the mean speed
the probe saw during it of the kernel of the workload's kind (see
`hostspeed.py`).  The raw wall times and that speed are reported beside them.

--trace 0 reports the end-to-end metrics: `wall_ref_s` (median over workers of
the time of the workload's suite invocations), `setup_s` (median over workers
and extra setup-only processes, at least MIN_SETUP_SAMPLES, of interpreter
start + `import ssvortex` + building `RunConfig`), `peak_rss_mb` (median over
workers), and `check_pass_ratio` (checks whose verdict, exit code and, at the
reference seed, reported numbers match, over checks attempted).  --trace 1
reports the per-layer metrics, medians over traced workers; those are raw
times.  Metric names and units are those of BENCHMARK.json.  Earlier stdout
lines give a readable report with sample counts and the environment record;
the last line is the JSON result.  Every run also writes
`.bench_out/<workload>-trace<0|1>/result.json` (and `spans<i>.json` per traced
worker), whose `numbers` are the values `reference.json` holds for a workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import at_reference_speed  # noqa: E402
from workloads import WORKLOADS, write_configs  # noqa: E402

BLAS_THREADS = 1          # no higher than nproc; the same on every commit
BENCH_CPU = max(os.sched_getaffinity(0))   # the one CPU every benchmark process runs on
MIN_SETUP_SAMPLES = 3     # setup-only processes fill setup_s up to this many samples
SETUP_KERNEL = "loop"     # the `hostspeed` kernel of setup's kind: interpreter start, imports
REFERENCE_SEED = 0
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORKER_TIMEOUT_S = 120.0  # a run with a hung worker still ends within 180 s
PROBE_TIMEOUT_S = 10.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """Machine and source record; the worker adds Python, numpy, scipy and BLAS."""
    src = os.path.join(ROOT, "src", "ssvortex")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "blas_threads": BLAS_THREADS, "bench_cpu": BENCH_CPU}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _pin() -> None:
    os.sched_setaffinity(0, {BENCH_CPU})


def _spawn(job: dict, job_path: str, timeout: float) -> tuple:
    """Run one worker process; returns its result and the monotonic time it started."""
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                               repr(t0)], env=_child_env(), capture_output=True,
                              text=True, timeout=timeout, check=False, preexec_fn=_pin)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(job["result"]) as fh:
        return json.load(fh), t0


class HostSpeedProbe:
    """The `hostspeed` probe process, pinned to the benchmark's CPU for the
    duration of a `with` block; `samples` holds its samples afterwards."""

    def __enter__(self):
        self.samples = None
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "hostspeed.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      preexec_fn=_pin)
        if self._proc.stdout.readline() != b"ready\n":   # started and sampled once
            self._proc.kill()
            self._proc.wait()
            raise BenchError("host-speed probe did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise BenchError("host-speed probe did not stop")
        if self._proc.returncode == 0 and out:
            self.samples = json.loads(out)
        elif exc[0] is None:
            raise BenchError(f"host-speed probe exited {self._proc.returncode}")
        return False


def _reference_for(name: str, seed: int, tiny: bool):
    if tiny:
        return None
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)
    if name not in ref["workloads"]:
        return None
    if seed != REFERENCE_SEED and WORKLOADS[name]["seed_affects_inputs"]:
        return None
    return {"tolerances": ref["tolerances"], "values": ref["workloads"][name]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, expected: dict | None = None) -> dict:
    """Run one workload; returns the full result (metrics with sample counts).

    `tiny` switches to the smoke-test grids; `expected` overrides the check
    verdicts of one suite, `{suite: {check: verdict}}`.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "ssvortex", "cli.py")):
        raise BenchError(f"no ssvortex sources under {ROOT}/src")
    work = os.path.join(ROOT, ".bench_out", f"{name}-trace{int(trace)}" + ("-tiny" if tiny else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    invocations = write_configs(name, seed, work, tiny=tiny)
    for inv in invocations:
        inv["expected"] = (expected or {}).get(inv["suite"], inv["expected"])
    job = {"root": ROOT, "invocations": invocations, "mode": "measure", "trace": trace,
           "reference": _reference_for(name, seed, tiny)}
    workers, setups = [], []
    with HostSpeedProbe() as probe:
        start = time.monotonic()
        while True:   # one fresh worker per iteration until the time budget is spent
            i = len(workers)
            worker_job = dict(job, result=os.path.join(work, f"worker{i}.json"),
                              spans=os.path.join(work, f"spans{i}.json"))
            got, t0 = _spawn(worker_job, os.path.join(work, f"job{i}.json"), WORKER_TIMEOUT_S)
            workers.append(got)
            setups.append((t0, got["setup_s"]))
            now = time.monotonic()
            if got["failed"] or (now - start) + (now - t0) > seconds:
                break
        while not trace and len(setups) < MIN_SETUP_SAMPLES:
            i = len(setups)
            setup_job = dict(job, mode="setup", result=os.path.join(work, f"setup{i}.json"))
            got, t0 = _spawn(setup_job, os.path.join(work, f"setup{i}-job.json"),
                             PROBE_TIMEOUT_S)
            setups.append((t0, got["setup_s"]))
    speed = probe.samples

    with open(os.path.join(work, "hostspeed.json"), "w") as fh:
        json.dump(speed, fh)
    kernel = WORKLOADS[name]["speed_kernel"]

    def at_ref(a: float, b: float, seconds: float, kernel: str = kernel) -> float:
        """`seconds` measured inside the wall interval [a, b], at reference speed."""
        return seconds * at_reference_speed(speed, a, b, kernel) / (b - a)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    samples = {
        "wall_ref_s": [at_ref(w["t0"], w["t1"], w["wall_s"]) for w in workers],
        "setup_s": [at_ref(t, t + s, s, SETUP_KERNEL) for t, s in setups],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        "check_pass_ratio": [(attempted - failed) / attempted if attempted else 0.0],
        "raw.wall_s": [w["wall_s"] for w in workers],
        "raw.setup_s": [s for _, s in setups],
        "host_speed": [at_reference_speed(speed, w["t0"], w["t1"], kernel) / (w["t1"] - w["t0"])
                       for w in workers],
    }
    for w in workers:
        for suite, s in w["suite_s"].items():
            samples.setdefault(f"suite.{suite}.wall_ref_s", []).append(
                at_ref(w["t0"], w["t1"], s))
    if trace:
        missing = [m for m, _ in PER_LAYER if m not in workers[0]["layers"]]
        if missing:
            raise BenchError(f"traced run computed no value for {missing}")
        samples.update({m: [w["layers"][m] for w in workers] for m, _ in PER_LAYER})
    metrics = {m: {"value": statistics.median(samples[m]), "unit": unit,
                   "samples": len(samples[m])}
               for m, unit in (PER_LAYER if trace else END_TO_END)}
    unbounded = {m: {"value": statistics.median(v), "unit": "ratio" if m == "host_speed" else "s",
                     "samples": len(v)}
                 for m, v in samples.items() if m.startswith(("suite.", "raw.", "host_speed"))}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "seed_affects_inputs": WORKLOADS[name]["seed_affects_inputs"],
        "reference_compared": job["reference"] is not None,
        "correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
        "problems": [p for w in workers for p in w["problems"]],
        "metrics": metrics, "unbounded": unbounded, "samples": samples,
        "numbers": workers[-1]["numbers"],
        "env": {**environment(), **workers[0]["env"]},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def result_line(result: dict) -> str:
    """The machine-readable last line: correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    })


def report_lines(result: dict) -> list:
    head = (f"workload {result['workload']}  seed {result['seed']}"
            f"  trace {int(result['trace'])}  correct {result['correct']}"
            f"  checks {result['attempted'] - result['failed']}/{result['attempted']}"
            f"  reference compared {result['reference_compared']}"
            f"  seed affects inputs {result['seed_affects_inputs']}")
    lines = [head]
    rows = dict(result["metrics"])
    if not result["trace"]:
        rows.update(result["unbounded"])
    for name, m in rows.items():
        lines.append(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    if result["trace"]:
        wall = result["metrics"]["trace.wall_s"]["value"]
        lines.append(f"  traced wall time {wall:.6g} s = self times of the named spans"
                     f" + remainder {result['metrics']['trace.remainder_s']['value']:.3g} s"
                     f"; tracing overhead in it {result['metrics']['trace.overhead_s']['value']:.3g} s")
    lines.extend(f"  problem: {p}" for p in result["problems"])
    lines.append("  env " + json.dumps(result["env"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print("\n".join(report_lines(result)))
    if len(results) == 1:
        print(result_line(results[0]))
    else:
        combined = {"correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "metrics": {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                                for r in results for k, m in r["metrics"].items()}}
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
