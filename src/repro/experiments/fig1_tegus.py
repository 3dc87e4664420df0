"""Figure 1: SAT solve time versus ATPG-SAT instance size.

The paper ran TEGUS on all faults of the MCNC91 and ISCAS85 suites
(~11,000 SAT instances, some over 15,000 variables) and observed that
over 90% solved in under 10 ms, with the remainder growing roughly
cubically.  This experiment reruns that study with our SAT-based engine
on the stand-in suites and reports the same two headline quantities:

* the fraction of instances solved below a fast threshold, and
* the exponent of a power fit to the upper envelope of the slow tail
  (the paper's "roughly cubic" claim; we use search *decisions* as the
  machine-independent effort measure alongside wall time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fitting import FitResult, all_fits
from repro.analysis.stats import fraction_below, summarize
from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.faults import collapse_faults
from repro.core.bounds import subsample_faults
from repro.gen.benchmarks import iter_suite


@dataclass
class Fig1Point:
    """One scatter point of Figure 1."""

    circuit: str
    fault: str
    num_variables: int
    solve_time: float
    decisions: int
    status: str


@dataclass
class Fig1Report:
    """Aggregate reproduction of Figure 1."""

    points: list[Fig1Point] = field(default_factory=list)
    fast_threshold: float = 0.01  # seconds, the paper's 1/100th s

    @property
    def fraction_fast(self) -> float:
        """Fraction of instances under the wall-clock fast threshold.

        Machine- and language-dependent (the paper measured 1999 C code);
        prefer :attr:`fraction_easy` for a hardware-independent claim.
        """
        return fraction_below(
            [p.solve_time for p in self.points], self.fast_threshold
        )

    @property
    def fraction_easy(self) -> float:
        """Fraction of instances solved with fewer decisions than
        variables — i.e. essentially by propagation, with no real search.
        This is the machine-independent counterpart of the paper's
        ">90% under 1/100th of a second"."""
        if not self.points:
            return 0.0
        easy = sum(
            1
            for p in self.points
            if p.decisions <= max(1, p.num_variables)
        )
        return easy / len(self.points)

    def tail_fits(self) -> dict[str, FitResult]:
        """Model fits of solve time vs size for the slow tail."""
        slow = [p for p in self.points if p.solve_time >= self.fast_threshold]
        if len(slow) < 8:
            slow = sorted(self.points, key=lambda p: -p.solve_time)[
                : max(8, len(self.points) // 10)
            ]
        x = [p.num_variables for p in slow]
        y = [p.solve_time for p in slow]
        return all_fits(x, y)

    def effort_fits(self) -> dict[str, FitResult]:
        """Model fits of decisions vs size over all instances."""
        x = [p.num_variables for p in self.points if p.decisions > 0]
        y = [p.decisions for p in self.points if p.decisions > 0]
        if len(x) < 4:
            return {}
        return all_fits(x, y)

    def render(self) -> str:
        times = summarize([p.solve_time for p in self.points])
        sizes = summarize([float(p.num_variables) for p in self.points])
        lines = [
            "Figure 1 reproduction: ATPG-SAT instance effort vs size",
            f"  instances: {len(self.points)}",
            f"  instance size (vars): median={sizes.median:.0f} "
            f"max={sizes.maximum:.0f}",
            f"  solve time: median={times.median*1e3:.2f}ms "
            f"p90={times.p90*1e3:.2f}ms max={times.maximum*1e3:.2f}ms",
            f"  fraction under {self.fast_threshold*1e3:.0f}ms wall clock: "
            f"{self.fraction_fast:.1%}",
            f"  fraction solved with < n decisions (no real search): "
            f"{self.fraction_easy:.1%} (paper: >90% near-instant)",
        ]
        fits = self.tail_fits()
        if "power" in fits:
            lines.append(
                f"  slow-tail power fit: time ~ size^{fits['power'].b:.2f} "
                f"(paper: roughly cubic upper envelope)"
            )
        return "\n".join(lines)

    def render_plot(self) -> str:
        """ASCII rendition of the Figure 1 scatter (decisions vs size)."""
        from repro.analysis.ascii_plot import scatter

        usable = [p for p in self.points if p.decisions > 0]
        if len(usable) < 4:
            return "(too few data points to plot)"
        return scatter(
            [float(p.num_variables) for p in usable],
            [float(p.decisions) for p in usable],
            log_x=True,
            x_label="instance size (vars)",
            y_label="decisions",
            title="Figure 1 (reproduced): search effort vs instance size",
        )


def run_fig1(
    suites: tuple[str, ...] = ("mcnc", "iscas"),
    *,
    solver: str = "cdcl",
    max_faults_per_circuit: int | None = None,
    skip_circuits: tuple[str, ...] = (),
) -> Fig1Report:
    """Run the Figure 1 study over the given suites.

    Args:
        suites: suite identifiers (see :mod:`repro.gen.benchmarks`).
        solver: ATPG SAT backend.
        max_faults_per_circuit: optional cap for quick runs, taken as
            an even stride over the collapsed faults
            (:func:`~repro.core.bounds.subsample_faults`).
        skip_circuits: circuit names to exclude (e.g. the largest ones
            for smoke runs).
    """
    report = Fig1Report()
    for suite in suites:
        for name, network in iter_suite(suite):
            if name in skip_circuits:
                continue
            engine = AtpgEngine(network, solver=solver)
            faults = None
            if max_faults_per_circuit is not None:
                faults = subsample_faults(
                    collapse_faults(network), max_faults_per_circuit
                )
            summary = engine.run(faults=faults, fault_dropping=False)
            for record in summary.records:
                if record.status in (
                    FaultStatus.TESTED,
                    FaultStatus.UNTESTABLE,
                    FaultStatus.ABORTED,
                ):
                    report.points.append(
                        Fig1Point(
                            circuit=f"{suite}/{name}",
                            fault=str(record.fault),
                            num_variables=record.num_variables,
                            solve_time=record.solve_time,
                            decisions=record.decisions,
                            status=record.status.value,
                        )
                    )
    return report
