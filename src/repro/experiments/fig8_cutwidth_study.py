"""Figures 8(a)/8(b): cut-width versus fault sub-circuit size.

For every potential fault ψ of every suite circuit, estimate the
cut-width of C_ψ^sub (via the recursive-bisection MLA) against the
sub-circuit's size, then fit linear / logarithmic / power curves and
report which wins the least-squares comparison.  The paper finds the log
curve best for both suites, supporting the log-bounded-width conjecture.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.analysis.fitting import FitResult, all_fits
from repro.core.width_pipeline import WidthAnalysisPipeline
from repro.gen.benchmarks import (
    array_multiplier_circuits,
    iter_suite,
    suite_names,
)


@dataclass
class Fig8Point:
    """One scatter point: a fault's sub-circuit size and cut-width.

    ``theorem_bound`` carries the point's Theorem 4.1 node-visit bound
    ``n · 2^(2·k_fo·W)`` when the study was run with ``bounds=True``.
    """

    circuit: str
    fault: str
    size: int
    cutwidth: int
    theorem_bound: int | None = None


@dataclass
class Fig8Report:
    """Aggregate reproduction of one Figure 8 panel.

    ``faults_per_circuit`` records exactly which (subsampled) faults each
    circuit contributed, so a run is auditable and reproducible.
    """

    suite: str
    points: list[Fig8Point] = field(default_factory=list)
    faults_per_circuit: dict[str, list[str]] = field(default_factory=dict)
    #: Suite circuits left out of the study (``skip_circuits``).
    skipped: list[str] = field(default_factory=list)
    #: True when a run-level ``deadline`` stopped the study early: some
    #: circuits were skipped entirely or swept partially, so the scatter
    #: (and any fits over it) is incomplete.
    deadline_hit: bool = False

    @property
    def n_usable(self) -> int:
        """Points with ``size >= 2`` — the fit's minimum admission."""
        return sum(1 for p in self.points if p.size >= 2)

    def fits(self) -> dict[str, FitResult]:
        """Linear/log/power fits over the scatter.

        Returns ``{}`` when fewer than 4 usable points exist (check
        :attr:`n_usable`; the CLI warns explicitly in that case).
        """
        usable = [p for p in self.points if p.size >= 2]
        x = [float(p.size) for p in usable]
        y = [float(p.cutwidth) for p in usable]
        if len(x) < 4:
            return {}
        return all_fits(x, y)

    def best_model(self) -> str:
        """The winning model name ('log' reproduces the paper)."""
        fits = self.fits()
        if not fits:
            return "none"
        return min(fits.values(), key=lambda f: f.sse).model

    def max_log_ratio(self) -> float:
        """max W / log2(size) — the Definition 5.1 diagnostic."""
        ratios = [
            p.cutwidth / max(1.0, math.log2(p.size))
            for p in self.points
            if p.size >= 2
        ]
        return max(ratios, default=0.0)

    def render(self) -> str:
        fits = self.fits()
        lines = [
            f"Figure 8 ({self.suite}) reproduction: cut-width vs |C_psi^sub|",
            f"  datapoints: {len(self.points)} ({self.n_usable} usable)",
        ]
        if self.skipped:
            lines.append(f"  skipped circuits: {', '.join(self.skipped)}")
        if not fits:
            lines.append(
                f"  warning: only {self.n_usable} usable points "
                "(need >= 4); no curve fits computed"
            )
        for name in ("linear", "log", "power"):
            if name in fits:
                fit = fits[name]
                lines.append(
                    f"  {name:<7} fit: a={fit.a:.3f} b={fit.b:.3f} "
                    f"sse={fit.sse:.1f} r2={fit.r_squared:.3f}"
                )
        lines.append(
            f"  best least-squares model: {self.best_model()} (paper: log)"
        )
        lines.append(
            f"  max W/log2(size) ratio: {self.max_log_ratio():.2f}"
        )
        if self.deadline_hit:
            lines.append(
                "  warning: deadline exceeded — study incomplete "
                "(circuits skipped or partially swept)"
            )
        return "\n".join(lines)

    def render_plot(self) -> str:
        """ASCII rendition of the Figure 8 scatter with the log fit."""
        from repro.analysis.ascii_plot import scatter

        usable = [p for p in self.points if p.size >= 2]
        if len(usable) < 4:
            return "(too few data points to plot)"
        fits = self.fits()
        overlay = fits["log"].predict if "log" in fits else None
        return scatter(
            [float(p.size) for p in usable],
            [float(p.cutwidth) for p in usable],
            log_x=True,
            overlay=overlay,
            x_label="|C_psi^sub|",
            y_label="cut-width",
            title=f"Figure 8 ({self.suite}, reproduced): "
            "cut-width vs sub-circuit size",
        )


#: Default exclusions, mirroring the paper's omission of C3540 and C6288
#: ("due to limitations in our min-cut linear arrangement procedure"):
#: array multipliers genuinely have Θ(√size) cut-width, so they fall
#: outside the log-bounded-width story in both the paper and here.  The
#: list is every suite circuit declared to contain one, bare
#: (``mult*``) or as the core of a larger unit (``rtail*``).
DEFAULT_SKIPS: dict[str, tuple[str, ...]] = {
    suite: array_multiplier_circuits(suite) for suite in suite_names()
}


def run_fig8(
    suite: str,
    *,
    max_faults_per_circuit: int | None = 60,
    skip_circuits: tuple[str, ...] | None = None,
    seed: int = 0,
    workers: int = 1,
    bounds: bool = False,
    deadline: float | None = None,
) -> Fig8Report:
    """Run the cut-width study over one suite.

    Args:
        suite: ``"mcnc"`` (Figure 8a) or ``"iscas"`` (Figure 8b).
        max_faults_per_circuit: subsample cap (the MLA estimate is the
            expensive step; the paper's figures plot every fault, which
            remains available with ``None`` — practical now that the
            width pipeline dedups shared sub-circuits and fans out).
        skip_circuits: circuits to exclude; defaults to the suite's
            circuits with an array multiplier (:data:`DEFAULT_SKIPS`),
            analogous to the paper's exclusion of C3540/C6288.  Pass
            ``()`` to include everything.
        seed: RNG seed for the partitioner.
        workers: worker processes per circuit sweep (1 = in-process).
        bounds: attach each point's Theorem 4.1 bound.
        deadline: run-level wall-clock budget in seconds.  The remaining
            budget is threaded into each circuit's width pipeline, and
            circuits the budget never reaches are skipped; either way
            the report comes back with ``deadline_hit=True``.
    """
    if skip_circuits is None:
        skip_circuits = DEFAULT_SKIPS.get(suite, ())
    deadline_at = None if deadline is None else time.monotonic() + deadline
    report = Fig8Report(suite=suite)
    for name, network in iter_suite(suite):
        if name in skip_circuits:
            report.skipped.append(name)
            continue
        remaining = None
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                report.deadline_hit = True
                break
        pipeline = WidthAnalysisPipeline(
            network,
            seed=seed,
            workers=workers,
            bounds=bounds,
            deadline=remaining,
        )
        study = pipeline.run(max_faults=max_faults_per_circuit)
        if study.stats.health.deadline_hit:
            report.deadline_hit = True
        report.faults_per_circuit[name] = [str(f) for f in study.faults]
        for sample in study.samples:
            report.points.append(
                Fig8Point(
                    circuit=name,
                    fault=str(sample.fault),
                    size=sample.sub_circuit_size,
                    cutwidth=sample.cutwidth,
                    theorem_bound=sample.theorem_bound,
                )
            )
    return report
