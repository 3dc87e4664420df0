"""The engine, the service and the width pipeline import no third-party
numeric stack: numpy and scipy serve only the analysis code, the
experiments and the q-Horn test, and loading them would dominate every
``repro`` process's start-up time and memory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_modules_do_not_import_numpy_or_scipy():
    code = (
        "import sys\n"
        "import repro.service.server, repro.atpg.parallel\n"
        "import repro.core.width_pipeline\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"
