"""Host-speed probe: how fast the benchmark's CPU runs, sampled through a run.

A shared host changes the speed of the virtual CPU the benchmark runs on, by
up to 2x and on time scales from a second to tens of minutes.  A run is too
short to average that out, so the benchmark divides it out instead.  The probe
is a separate process pinned to the same CPU as the measured processes.  Every
PERIOD_S it times three fixed library kernels, each the fastest of REPEATS
back-to-back calls so that a single interrupt does not count, and records each
kernel's speed, REFERENCE_S[kernel] / time (1 on a quiet reference host).  Its
duty cycle is about 2%, the same on every commit.

The slowdown is not the same for every kind of work, so each workload is
divided by the speed of the kernel of its own kind (`speed_kernel` in
`workloads.py`): `loop`, the interpreter alone; `ivp`, scipy's `solve_ivp`
calling a Python right-hand side; `eig`, a LAPACK eigensolve.  On 6-7 runs per
workload, its own kind's kernel cut the spread of the workload's wall time
between runs from 0.11-0.16 of the median to 0.01-0.07; kernels of other kinds,
a numpy array kernel, an FFT and geometric means of several, did worse.

`at_reference_speed(samples, a, b, kernel)` turns the wall interval [a, b]
into the seconds the same work takes at reference speed: (b - a) times the
mean speed of `kernel` over the samples inside the interval.  Work done is the
time integral of the speed, and the samples are evenly spaced in time, so the
mean is that integral's estimate.

Usage: python3 bench/hostspeed.py   # prints "ready", samples until stdin
                                    # closes, then prints the samples as JSON
"""

from __future__ import annotations

import json
import math
import select
import sys
import time

import numpy as np

PERIOD_S = 0.15
REPEATS = 3
# kernel time on this benchmark's reference host (2-vCPU Xeon VM, quiet)
REFERENCE_S = {"loop": 2.2e-4, "ivp": 3.0e-4, "eig": 2.0e-4}


def make_kernels() -> dict:
    """The probe's kernels, one of each kind of work the workloads do."""
    from scipy.integrate import solve_ivp

    mat = np.random.default_rng(0).standard_normal((32, 32))

    def loop() -> int:
        total = 0
        for i in range(4000):
            total += i * i
        return total

    def ivp():
        return solve_ivp(lambda t, y: np.array([y[1], -y[0]]), (0.0, 1.0), [1.0, 0.0],
                         rtol=1e-6)

    def eig():
        return np.linalg.eigvals(mat)

    return {"loop": loop, "ivp": ivp, "eig": eig}


def sample(kernels: dict) -> dict:
    """Speed of the CPU now for each kernel, relative to the reference host."""
    speeds = {}
    for name, kernel in kernels.items():
        best = math.inf
        for _ in range(REPEATS):
            t = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t)
        speeds[name] = REFERENCE_S[name] / best
    return speeds


def at_reference_speed(samples: list, a: float, b: float, kernel: str) -> float:
    """Seconds the work done in the wall interval [a, b] takes at the
    reference speed of `kernel`."""
    inside = [s[kernel] for t, s in samples if a <= t <= b]
    if len(inside) < 3:    # too short to sample: use the nearest samples
        nearest = sorted(samples, key=lambda x: abs(x[0] - 0.5 * (a + b)))[:3]
        inside = [s[kernel] for _, s in nearest]
    if not inside:
        raise ValueError("no host-speed samples")
    return (b - a) * sum(inside) / len(inside)


def main() -> int:
    kernels = make_kernels()
    for kernel in kernels.values():   # first calls warm caches and allocators
        kernel()
    samples = [(time.monotonic(), sample(kernels))]
    print("ready", flush=True)
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):   # stdin closed: stop
            break
        samples.append((time.monotonic(), sample(kernels)))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
