"""Shared helpers: locating the sources, timing loops, statistics."""

from __future__ import annotations

import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles tried for a ``_tail_`` metric, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def use_sources() -> None:
    """Put the repository's ``src`` on the import path, or exit 2 when
    the checkout has no sources to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the lowest and the highest one (of all
    of them when there are fewer than four)."""
    ordered = sorted(values)
    if len(ordered) >= 4:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond
    it among ``count`` samples (50 when there are too few for any)."""
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process or, with ``RUSAGE_CHILDREN``, of its
    largest waited-for descendant."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run_passes(seconds: float, one_pass) -> list:
    """Call ``one_pass(index)`` for index 0, 1, ... for about ``seconds``
    of measured time.

    ``one_pass`` returns (result, measured seconds); what it does outside
    its measured part (checking) does not count.  Stops before a pass that
    would end past ``seconds`` (judged by the mean pass so far), but
    always runs at least one.
    """
    passes = []
    measured = 0.0
    while True:
        result, seconds_taken = one_pass(len(passes))
        passes.append(result)
        measured += seconds_taken
        if measured + measured / len(passes) > seconds:
            return passes


class Report:
    """Named metrics with unit and sample count, as printed and emitted."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.values: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, samples: int,
            **extra) -> None:
        entry = {"value": float(value), "unit": unit, "samples": samples}
        entry.update(extra)
        self.values[name] = entry

    def latency(self, stem: str, samples: list[float], tail: bool = True) -> None:
        """``<stem>_p50_s`` and, with ``tail``, ``<stem>_tail_s``."""
        n = len(samples)
        if not n:
            return
        self.add(f"{stem}_p50_s", percentile(samples, 50.0), "s", n)
        if tail:
            pct = tail_percentile(n)
            self.add(f"{stem}_tail_s", percentile(samples, pct), "s", n,
                     percentile=pct)

    def lines(self) -> list[str]:
        out = []
        for name, entry in self.values.items():
            extra = "".join(f" {k}={v:g}" for k, v in entry.items()
                            if k not in ("value", "unit", "samples"))
            out.append(
                f"{self.workload:12s} {name:34s} {entry['value']:.6g} "
                f"{entry['unit']} (n={entry['samples']}{extra})"
            )
        return out
