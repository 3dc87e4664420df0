"""Per-circuit suite summary — the "Table 1" every ATPG paper carries.

For each benchmark circuit: size, fault statistics, ATPG outcome
(coverage, redundancies, effort), the measured cut-width W(C, H), and
the SCOAP-hardest fault — tying the experimental sections together in
one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import format_table
from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.faults import collapse_faults
from repro.atpg.scoap import hardest_faults
from repro.core.bounds import subsample_faults
from repro.core.cutwidth import multi_output_cutwidth
from repro.gen.benchmarks import iter_suite


@dataclass
class SuiteRow:
    """One circuit's summary line."""

    circuit: str
    gates: int
    inputs: int
    outputs: int
    faults: int
    tested: int
    dropped: int
    redundant: int
    aborted: int
    coverage: float
    cutwidth: int
    total_time: float
    hardest_fault: str


@dataclass
class SuiteTableReport:
    """The full per-suite table."""

    suite: str
    rows: list[SuiteRow] = field(default_factory=list)

    def render(self) -> str:
        headers = [
            "circuit",
            "gates",
            "PI/PO",
            "faults",
            "det",
            "drop",
            "red",
            "abort",
            "cov%",
            "W(C,H)",
            "time(s)",
            "hardest (SCOAP)",
        ]
        table_rows = [
            [
                row.circuit,
                row.gates,
                f"{row.inputs}/{row.outputs}",
                row.faults,
                row.tested,
                row.dropped,
                row.redundant,
                row.aborted,
                f"{row.coverage*100:.1f}",
                row.cutwidth,
                f"{row.total_time:.2f}",
                row.hardest_fault,
            ]
            for row in self.rows
        ]
        title = f"Suite summary ({self.suite})"
        return title + "\n" + format_table(headers, table_rows)


def run_suite_table(
    suite: str,
    *,
    solver: str = "cdcl",
    max_faults_per_circuit: int | None = None,
    skip_circuits: tuple[str, ...] = (),
    seed: int = 0,
) -> SuiteTableReport:
    """Build the summary table for one suite."""
    report = SuiteTableReport(suite=suite)
    for name, network in iter_suite(suite):
        if name in skip_circuits:
            continue
        faults = subsample_faults(
            collapse_faults(network), max_faults_per_circuit
        )
        engine = AtpgEngine(network, solver=solver)
        summary = engine.run(faults=faults, fault_dropping=True)
        cutwidth = multi_output_cutwidth(network, seed=seed).cutwidth
        hardest = hardest_faults(network, top=1)
        hardest_label = (
            f"{hardest[0][0]}/sa{hardest[0][1]}" if hardest else "-"
        )
        report.rows.append(
            SuiteRow(
                circuit=name,
                gates=network.num_gates(),
                inputs=len(network.inputs),
                outputs=len(network.outputs),
                faults=len(faults),
                tested=len(summary.by_status(FaultStatus.TESTED)),
                dropped=len(summary.by_status(FaultStatus.DROPPED)),
                redundant=len(summary.by_status(FaultStatus.UNTESTABLE)),
                aborted=len(summary.by_status(FaultStatus.ABORTED)),
                coverage=summary.fault_coverage,
                cutwidth=cutwidth,
                total_time=sum(r.solve_time for r in summary.records),
                hardest_fault=hardest_label,
            )
        )
    return report
