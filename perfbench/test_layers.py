"""The coverage check counts only time a declared layer metric reports.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_layers.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import coverage, undeclared  # noqa: E402
from tracer import self_times  # noqa: E402


def _spans(child: str):
    # (name, start, end, parent, request, pid): a 1 s job with a 0.6 s
    # solve, a 0.3 s call named ``child`` and 0.1 s of its own work.
    return [
        ("bench.job", 0.0, 1.0, -1, "c17", 1),
        ("sat.cdcl.solve", 0.0, 0.6, 0, "c17", 1),
        (child, 0.6, 0.9, 0, "c17", 1),
    ]


def test_declared_spans_cover_the_job():
    spans = _spans("atpg.fault_sim.fsim")
    assert abs(coverage(spans, self_times(spans)) - 0.9) < 1e-9


def test_an_undeclared_span_is_not_coverage():
    spans = _spans("atpg.mystery.call")
    assert abs(coverage(spans, self_times(spans)) - 0.6) < 1e-9
    assert undeclared(s[0] for s in spans) == ["atpg.mystery.call"]


def test_worker_roots_add_their_wall():
    spans = _spans("atpg.fault_sim.fsim") + [
        ("atpg.parallel.shard", 5.0, 7.0, -1, None, 2),
        ("atpg.engine.run", 5.0, 6.0, 3, None, 2),
    ]
    assert abs(coverage(spans, self_times(spans)) - (0.9 + 1.0) / 3.0) < 1e-9
