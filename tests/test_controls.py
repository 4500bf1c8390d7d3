"""Negative controls: each verdict must fail on an operator known to violate it.

A case injects a known defect through monkeypatch, with no option or config
key, and asserts that the verdict flips.  It prints its margin, the smallest
defect that flips the verdict; run with `pytest -s` to see it.
"""

import pytest

from ssvortex.generator import EPS_DISC, GeneratorMatrix, eig_scan
from ssvortex.modes import LogGrid
from ssvortex.suites import DEFAULT_PARAMS

SCAN_GRID = LogGrid(-12.0, 12.0, 256)
# the K1 mode's matrix is far from normal: a shift by s moves its computed top
# eigenvalue by s only to within about 0.2 (less than 1e-13 at k = 0), so the
# verdict is checked this far either side of the margin
SHIFT_SLACK = 0.5


@pytest.mark.parametrize("k", [0, 1])
def test_spectrum_fails_once_the_generator_is_shifted_past_a0(monkeypatch, k):
    # adding s to the diagonal of the dense generator moves every eigenvalue
    # right by s; once the top one crosses a0 + EPS_DISC the scan must fail
    unshifted = GeneratorMatrix.dense

    def scan(s):
        def shifted(gen):
            A = unshifted(gen)
            A.flat[::A.shape[0] + 1] += s
            return A

        monkeypatch.setattr(GeneratorMatrix, "dense", shifted)
        return eig_scan([k], DEFAULT_PARAMS, SCAN_GRID)

    base = scan(0.0)
    assert base["passed"]
    margin = DEFAULT_PARAMS.a0 + EPS_DISC - base["modes"][0]["max_re"]
    print(f"spectrum control, k = {k}: the verdict flips at a diagonal shift of {margin:.3f}")
    assert scan(margin - SHIFT_SLACK)["passed"]
    shifted = scan(margin + SHIFT_SLACK)
    assert shifted["modes"][0]["n_flagged"] > 0
    assert not shifted["passed"]
