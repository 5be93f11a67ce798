import pytest

import reference


def test_reference_kernel_is_unchanged():
    # work_per_ref is measured in units of this kernel; editing it rescales the metric
    assert reference.chunk() == pytest.approx(4808076.020484406, rel=1e-9)


def test_reference_rate_is_positive():
    assert reference.rate(0.0) > 0
