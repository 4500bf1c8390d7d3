"""Smoke test of the benchmark itself, at small grids (criterion 10's sizes).

Run with `python3 -m pytest bench/test_smoke.py` from the repository root;
it is not part of the tier-1 suite (`testpaths = tests`).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _emitted(result: dict) -> dict:
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line["metrics"]


def test_end_to_end_metrics_emitted_with_units():
    result = run.run_workload("shooting-default", seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = _emitted(result)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["unit"] and m["value"] > 0 for m in metrics.values())
    assert result["metrics"]["setup_s"]["samples"] == run.MIN_SETUP_SAMPLES


# the layer each workload must drive, so a wrapper that no longer binds shows
BUSY_LAYERS = {
    "resolvent-default": ("resolvent.solve_mode.calls", "modes.apply_phi1.calls"),
    "dense-generator": ("generator.eig_scan.modes", "modes.phi1_matrix.calls"),
    "shooting-default": ("homogeneous.solve_ivp.calls",),
}


@pytest.mark.parametrize("name", sorted(BUSY_LAYERS))
def test_traced_run_emits_every_layer_metric(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=True, tiny=True)
    assert result["correct"]
    metrics = _emitted(result)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["unit"] for m in metrics.values())
    assert all(metrics[m]["value"] > 0 for m in BUSY_LAYERS[name])
    assert metrics["trace.overhead_s"]["value"] > 0
    # the named spans cover all but a small share of the traced wall time
    assert metrics["trace.remainder_s"]["value"] < 0.05 * metrics["trace.wall_s"]["value"]


def test_flipped_verdict_counts_as_failed_check():
    flipped = {"shooting": {"no_integrable_homogeneous_solution": False}}
    result = run.run_workload("shooting-default", seed=3, seconds=0, trace=False,
                              tiny=True, expected=flipped)
    assert not result["correct"]
    assert result["failed"] == 2   # the verdict and the exit code
    assert _emitted(result)["check_pass_ratio"]["value"] < 1.0


def test_reference_speed_divides_out_a_slow_host():
    from hostspeed import at_reference_speed
    # 10 s at half the reference speed for "ivp", twice it for "loop"
    samples = [(0.1 * i, {"ivp": 0.5, "loop": 2.0}) for i in range(101)]
    assert at_reference_speed(samples, 2.0, 6.0, "ivp") == pytest.approx(2.0)
    assert at_reference_speed(samples, 2.0, 6.0, "loop") == pytest.approx(8.0)
    assert at_reference_speed(samples, 3.0, 3.05, "ivp") == pytest.approx(0.025)   # nearest samples
