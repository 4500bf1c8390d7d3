"""Fixtures shared by several test modules."""

import pytest

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
