"""The calibration kernel does fixed work and its helpers are reaped.

Run with ``python -m pytest perfbench/test_calibrate.py``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import Calibrator, kernel  # noqa: E402
from common import trimmed_mean  # noqa: E402


def test_kernel_does_the_same_work_every_time():
    assert kernel() == kernel()


@pytest.mark.parametrize("helpers", [0, 1, 2])
def test_calibrator_times_the_kernel_and_reaps_its_helpers(helpers):
    with Calibrator(helpers) as calibrator:
        pids = [pid for pid, _, _ in calibrator._helpers]
        assert len(pids) == helpers
        assert all(calibrator.seconds() > 0 for _ in range(3))
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_trimmed_mean_drops_the_extremes_from_four_values_on():
    assert trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    assert trimmed_mean([100.0, 2.0, 3.0, 0.0]) == 2.5
