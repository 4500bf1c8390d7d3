"""Fixtures shared by several test modules."""

import os
import subprocess
import sys
import tracemalloc

import pytest

import ssvortex
from ssvortex.suites import RunConfig


@pytest.fixture
def small_all_config(tmp_path):
    """Criterion 10's config, every suite on small grids: ``make(name, **changes)``
    gives it with its reports written to ``tmp_path / name``."""

    def make(name, **changes):
        return RunConfig(**{
            "k_max": 1, "seed": 99, "out_dir": str(tmp_path / name),
            "young_batch": 2, "bound_batch": 1, "fine_n": 4097,
            "norm_n": 1025, "scan_n": 128, "scan_t": 8.0, "evolve_n": 256, "tau_end": 2.0,
            "lambda_offsets": (0.5, 1.0),
            "shoot_k": (1,), "shoot_offsets": (1.0,), "shoot_imags": (0.0,), **changes})

    return make


@pytest.fixture
def traced():
    """``traced(fn, *args)`` calls ``fn(*args)`` under tracemalloc, which numpy
    reports its buffers to, and returns ``(result, held, peak)``: the bytes the
    call allocated that are still live when it returns, and the most it held at
    once.  Arrays made before the call, its inputs among them, do not count."""

    def measure(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    return measure


@pytest.fixture
def isolated():
    """``isolated(code)`` runs ``code`` in a fresh interpreter at one OpenBLAS
    and OpenMP thread and returns its stdout."""

    def run(code: str) -> str:
        src = os.path.dirname(os.path.dirname(ssvortex.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    return run
