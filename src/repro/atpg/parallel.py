"""Parallel batched ATPG: shard the fault list across worker processes.

The paper's Figure-1 experiment is embarrassingly parallel — thousands
of independent ATPG-SAT instances — so the fan-out itself is easy.  The
two things worth being careful about are *cache locality* and
*determinism*:

* **Sharding by fanout cone.**  Faults whose fanout cones overlap build
  miters that share most of their gates, so a worker processing them
  back-to-back gets high hit rates from its per-process
  :class:`~repro.sat.tseitin.CnfEncodingCache`.  Faults are therefore
  grouped by the primary outputs that can observe them and whole groups
  are packed onto shards (greedy LPT on estimated cone work), instead of
  striping faults round-robin.

* **A class-level merge.**  An ATPG-SAT *verdict* depends only on
  (circuit, fault), never on dropping history, so the coordinator takes
  the union of the shard records in canonical fault order as they are.
  Each worker fault-drops only within its shard, so the test set is the
  union of the shards' tests and can be larger than a sequential run's;
  every fault's verdict class (detected, untestable, unobservable) and
  the coverage still match the sequential engine.  The coordinator never
  solves a fault: with fault dropping on, it only fault-simulates the
  ABORTED records against the union's tests.

Execution is *supervised* (:mod:`repro.atpg.supervisor`): shards run in
single-purpose forked workers with per-shard wall-clock timeouts, crash
detection, bounded retry with automatic shard splitting, and graceful
degradation to in-process execution when forking is unavailable or the
pool keeps dying.  Whatever happens, :meth:`ParallelAtpgEngine.run`
terminates with a *complete* :class:`AtpgSummary`: faults whose shards
could not be run are recorded ABORTED with a machine-readable reason
(``shard_timeout`` / ``shard_crashed`` / ``deadline_exceeded``) and the
supervision counters land in ``summary.stats.health``.  Per-fault
results can be journaled to a JSONL checkpoint as shards complete and a
killed run resumed from it (:mod:`repro.atpg.checkpoint`).

``ParallelAtpgEngine`` falls back to in-process execution when
``workers <= 1`` or the platform cannot fork, so results (and tests)
never depend on the platform.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.atpg.checkpoint import (
    CheckpointWriter,
    ResumeRejectedRecordsWarning,
    verified_resumable_records,
)
from repro.atpg.engine import (
    AtpgEngine,
    AtpgRecord,
    AtpgSummary,
    EngineStats,
    FaultStatus,
)
from repro.atpg.fault_sim import PatternBlockStore
from repro.atpg.faults import Fault
from repro.atpg.scoap import INFINITY, compute_scoap
from repro.atpg.supervisor import ShardSupervisor
from repro.circuits.network import Network
from repro.sat.tseitin import CnfEncodingCache

#: Never split below this many faults per shard: a small fault list
#: runs on fewer shards (often one, in process), because fork and merge
#: overhead would dominate.  Tests monkeypatch it to split tiny lists.
MIN_FAULTS_PER_SHARD = 32


@dataclass
class _ShardJob:
    """Everything a worker needs to run one shard (must pickle)."""

    network: Network
    faults: list[Fault]
    solver: str
    max_conflicts: Optional[int]
    validate: bool
    fault_dropping: bool
    encoding_cache: CnfEncodingCache
    deadline_at: Optional[float] = None
    certify: str = "off"
    mem_budget_mb: Optional[float] = None


def _run_shard(job: _ShardJob, on_record=None) -> AtpgSummary:
    """Worker entry point: sequential ATPG over one shard."""
    engine = AtpgEngine(
        job.network,
        solver=job.solver,
        max_conflicts=job.max_conflicts,
        validate=job.validate,
        encoding_cache=job.encoding_cache,
        # The coordinator validated the network once already.
        validate_network=False,
        certify=job.certify,
        mem_budget_mb=job.mem_budget_mb,
    )
    return engine.run(
        faults=job.faults,
        fault_dropping=job.fault_dropping,
        deadline_at=job.deadline_at,
        on_record=on_record,
    )


def _split_shard(job: _ShardJob) -> list[_ShardJob]:
    """Halve a failing shard (canonical fault order preserved) so the
    supervisor can isolate a poisonous fault by bisection."""
    if len(job.faults) < 2:
        return [job]
    mid = len(job.faults) // 2
    return [
        replace(job, faults=job.faults[:mid]),
        replace(job, faults=job.faults[mid:]),
    ]


def shard_faults_by_cone(
    network: Network,
    faults: Sequence[Fault],
    num_shards: int,
) -> list[list[Fault]]:
    """Partition ``faults`` into cone-coherent, load-balanced shards.

    Faults are grouped by the set of primary outputs observing them (a
    cheap proxy for "miters share gates"); groups are then packed onto
    shards greedily, heaviest first, by estimated work.  A fault's work
    estimate multiplies its SCOAP detection cost (how hard exciting and
    propagating it is — the per-fault *search* effort predictor) with
    the TFI size of its fanout cone (the per-fault *instance* size), so
    a group of few-but-hard faults weighs as much as one of
    many-but-trivial faults; weighting by fault count alone left a
    visible solve-time imbalance between workers.  Within each shard the
    original fault order is preserved, so workers process their slice in
    canonical order and the merged records come out the same on every
    run.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    rank = {fault: index for index, fault in enumerate(faults)}
    outputs = set(network.outputs)
    scoap = compute_scoap(network)
    # Finite stand-in for SCOAP's infinities (provably unexcitable /
    # unobservable under its approximation): costlier than any finite
    # fault, but not so large one such fault swamps the LPT packing.
    finite = [
        cost
        for fault in faults
        if (cost := scoap.detection_cost(fault.net, fault.value)) < INFINITY
    ]
    inf_cost = 2.0 * max(finite, default=1.0)

    groups: dict[tuple[str, ...], list[Fault]] = {}
    weights: dict[tuple[str, ...], float] = {}
    net_keys: dict[str, tuple[str, ...]] = {}
    net_sizes: dict[str, int] = {}
    for fault in faults:
        key = net_keys.get(fault.net)
        if key is None:
            cone = network.transitive_fanout([fault.net])
            key = tuple(sorted(out for out in cone if out in outputs))
            net_keys[fault.net] = key
            net_sizes[fault.net] = len(network.transitive_fanin(cone))
        cost = scoap.detection_cost(fault.net, fault.value)
        if cost >= INFINITY:
            cost = inf_cost
        groups.setdefault(key, []).append(fault)
        weights[key] = weights.get(key, 0.0) + cost * net_sizes[fault.net]

    shards: list[list[Fault]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    # Heaviest group first onto the least-loaded shard (LPT); ties break
    # on the group key so the sharding is deterministic.
    for key in sorted(groups, key=lambda k: (-weights[k], k)):
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        shards[target].extend(groups[key])
        loads[target] += weights[key]
    for shard in shards:
        shard.sort(key=lambda fault: rank[fault])
    return [shard for shard in shards if shard]


class ParallelAtpgEngine:
    """Fault-parallel ATPG with the sequential engine's verdict classes.

    Args:
        network: circuit under test.
        workers: worker process count; ``None`` uses the CPU count,
            ``1`` (or platforms without ``fork``) runs in-process.
        solver / max_conflicts / validate: forwarded to the per-worker
            :class:`AtpgEngine`.
        deadline: run-level wall-clock budget in seconds.  Past it, the
            supervisor stops dispatching, terminates running workers,
            and the remaining faults are recorded ABORTED with reason
            ``deadline_exceeded``.
        shard_timeout: per-shard wall-clock budget in seconds; a shard
            exceeding it is terminated, retried, and eventually split
            (``None`` = unlimited).
        certify / mem_budget_mb: forwarded to every per-worker (and
            the coordinator) :class:`AtpgEngine` — see its docstring.
            Each worker's engine keeps its own solver, so what one
            worker learns stays in its process.

    The coordinator fixes the canonical fault order of the merged
    records (:meth:`AtpgEngine.ordered_faults`), and workers process
    their shard slice as given.
    """

    def __init__(
        self,
        network: Network,
        workers: Optional[int] = None,
        solver: str = "cdcl",
        max_conflicts: Optional[int] = 100_000,
        validate: bool = True,
        deadline: Optional[float] = None,
        shard_timeout: Optional[float] = None,
        certify: str = "off",
        mem_budget_mb: Optional[float] = None,
    ) -> None:
        if workers is None:
            workers = multiprocessing.cpu_count()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 seconds")
        self.network = network
        self.workers = workers
        self.solver = solver
        self.max_conflicts = max_conflicts
        self.validate = validate
        self.deadline = deadline
        self.shard_timeout = shard_timeout
        self.certify = certify
        self.mem_budget_mb = mem_budget_mb
        #: Worker entry point; tests monkeypatch this with chaos
        #: variants (crashing / hanging shards) to exercise supervision.
        self._shard_runner = _run_shard
        # Coordinator-side engine, used only before dispatch: option and
        # network validation and the canonical fault order.  It never
        # solves a fault.
        self._coordinator = AtpgEngine(
            network,
            solver=solver,
            max_conflicts=max_conflicts,
            validate=validate,
            certify=certify,
            mem_budget_mb=mem_budget_mb,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def can_fork() -> bool:
        """True if this platform supports fork-based worker pools."""
        return "fork" in multiprocessing.get_all_start_methods()

    def _jobs(
        self,
        shards: list[list[Fault]],
        fault_dropping: bool,
        deadline_at: Optional[float] = None,
    ) -> list[_ShardJob]:
        # Encode every gate once here; each worker starts from a copy of
        # the warm cache instead of a cold Tseitin pass.
        cache = CnfEncodingCache()
        for gate in self.network.gates():
            cache.gate_clauses(gate)
        return [
            _ShardJob(
                network=self.network,
                faults=shard,
                solver=self.solver,
                max_conflicts=self.max_conflicts,
                validate=self.validate,
                fault_dropping=fault_dropping,
                encoding_cache=cache,
                deadline_at=deadline_at,
                certify=self.certify,
                mem_budget_mb=self.mem_budget_mb,
            )
            for shard in shards
        ]

    def run(
        self,
        faults: Optional[Sequence[Fault]] = None,
        fault_dropping: bool = True,
        resume_from: Optional[str | Path] = None,
        checkpoint_to: Optional[str | Path] = None,
        checkpoint_fence=None,
    ) -> AtpgSummary:
        """ATPG over a fault list, fanned out across supervised workers.

        Every fault gets the verdict class ``AtpgEngine.run`` gives it on
        the same arguments, and the coverage matches; test vectors and
        the TESTED/DROPPED split depend on the sharding (see the module
        docstring).

        Args:
            resume_from: JSONL checkpoint journal of an earlier
                (interrupted) run; faults with settled journaled
                verdicts are not re-dispatched and the final merge
                matches an uninterrupted run's verdict classes.
            checkpoint_to: journal per-fault records here as shards
                complete (may equal ``resume_from`` to continue the same
                journal).
            checkpoint_fence: optional write-side ownership guard for
                the journal (see
                :class:`~repro.atpg.checkpoint.CheckpointWriter`); the
                service passes its lease's
                :class:`~repro.service.lease.FenceGuard` so a run whose
                job was stolen dies at the next append instead of
                interleaving with the new owner's journal.

        The returned summary is always *complete*: every requested fault
        has a record, with orchestration casualties (crashed / timed-out
        shards, deadline) marked ABORTED and a machine-readable
        ``abort_reason``; supervision counters are in
        ``summary.stats.health``.
        """
        wall_start = time.perf_counter()
        deadline_at = (
            time.monotonic() + self.deadline
            if self.deadline is not None
            else None
        )
        ordered = self._coordinator.ordered_faults(faults)

        settled: dict[Fault, AtpgRecord] = {}
        resume_rejects: list[AtpgRecord] = []
        if resume_from is not None:
            settled, resume_rejects = verified_resumable_records(
                resume_from,
                self.network,
                ordered,
                circuit=self.network.name,
                certify=self.certify,
            )
            if resume_rejects:
                warnings.warn(
                    f"{len(resume_rejects)} journaled TESTED/DROPPED "
                    "record(s) failed the witness check at the resume "
                    "trust boundary and will be re-solved",
                    ResumeRejectedRecordsWarning,
                    stacklevel=2,
                )
        remaining = [fault for fault in ordered if fault not in settled]

        num_shards = max(
            1,
            min(
                self.workers,
                len(remaining),
                max(1, len(remaining) // MIN_FAULTS_PER_SHARD),
            ),
        )
        shards = (
            shard_faults_by_cone(self.network, remaining, num_shards)
            if remaining
            else []
        )
        jobs = self._jobs(shards, fault_dropping, deadline_at)
        use_pool = self.workers > 1 and self.can_fork() and len(jobs) > 1

        writer: Optional[CheckpointWriter] = None
        try:
            if checkpoint_to is not None:
                writer = CheckpointWriter(
                    checkpoint_to,
                    circuit=self.network.name,
                    fence=checkpoint_fence,
                    config={
                        "solver": self.solver,
                        "max_conflicts": self.max_conflicts,
                        "fault_dropping": fault_dropping,
                        "certify": self.certify,
                        "mem_budget_mb": self.mem_budget_mb,
                    },
                )
            report = self._supervise(jobs, use_pool, deadline_at, writer)
        finally:
            if writer is not None:
                writer.close()

        summary = self._merge(
            ordered,
            report.results,
            fault_dropping=fault_dropping,
            settled=settled,
            failed=report.failed,
        )
        summary.stats.health.merge(report.health)
        # A journaled detection the trust boundary refutes is a
        # cross-run disagreement, caught before it reaches the merge.
        summary.stats.health.disagreements += len(resume_rejects)
        summary.stats.health.count_aborts(summary.records)
        summary.stats.health.count_certification(summary.records)
        summary.stats.workers = self.workers if use_pool else 1
        summary.stats.shards = len(shards)
        summary.stats.wall_time = time.perf_counter() - wall_start
        return summary

    # ------------------------------------------------------------------
    def _supervise(
        self,
        jobs: list[_ShardJob],
        use_pool: bool,
        deadline_at: Optional[float],
        writer: Optional[CheckpointWriter],
    ):
        """Run the shard jobs under a :class:`ShardSupervisor`."""
        journaled: set[int] = set()

        def fallback(job: _ShardJob) -> AtpgSummary:
            # In-process execution journals per fault (there is no
            # shard-completion message to wait for), and marks its
            # summary so on_result does not journal it twice.
            on_record = writer.write_record if writer is not None else None
            shard_summary = self._shard_runner(job, on_record=on_record)
            journaled.add(id(shard_summary))
            return shard_summary

        def on_result(shard_summary: AtpgSummary) -> None:
            if writer is not None and id(shard_summary) not in journaled:
                writer.write_summary(shard_summary)

        supervisor = ShardSupervisor(
            self._shard_runner,
            fallback_fn=fallback,
            split_job=_split_shard,
            workers=min(self.workers, max(1, len(jobs))),
            shard_timeout=self.shard_timeout,
            deadline_at=deadline_at,
            use_processes=use_pool,
            mark_degraded=self.workers > 1 and not self.can_fork(),
            on_result=on_result,
        )
        return supervisor.run(jobs)

    # ------------------------------------------------------------------
    def _merge(
        self,
        ordered: Sequence[Fault],
        worker_summaries: Sequence[AtpgSummary],
        fault_dropping: bool,
        settled: Optional[dict[Fault, AtpgRecord]] = None,
        failed: Sequence = (),
    ) -> AtpgSummary:
        """Union the records in canonical order, by verdict class.

        ``settled`` records (from a resumed checkpoint), the shard
        records, and ABORTED placeholders for ``failed`` shards each
        keep the record they bring.  With ``fault_dropping``, an ABORTED
        record that one of the union's TESTED patterns detects becomes
        DROPPED, so a fault another shard's test covers still counts as
        detected; no other record is simulated again.
        """
        by_fault: dict[Fault, AtpgRecord] = dict(settled or {})
        stats = EngineStats()
        for worker_summary in worker_summaries:
            stats.merge(worker_summary.stats)
            for record in worker_summary.records:
                by_fault[record.fault] = record
        for failure in failed:
            for fault in failure.job.faults:
                if fault not in by_fault:
                    by_fault[fault] = AtpgRecord(
                        fault=fault,
                        status=FaultStatus.ABORTED,
                        abort_reason=failure.reason,
                    )

        summary = AtpgSummary(
            circuit=self.network.name,
            records=[by_fault[fault] for fault in ordered],
            stats=stats,
            worker_stats=[ws.stats for ws in worker_summaries],
        )
        if not fault_dropping or not summary.by_status(FaultStatus.ABORTED):
            return summary
        fsim_start = time.perf_counter()
        store = PatternBlockStore(self.network)
        store.extend(summary.tests())
        for index, record in enumerate(summary.records):
            if record.status is not FaultStatus.ABORTED:
                continue
            detected = store.first_detection(record.fault)
            if detected is not None:
                summary.records[index] = AtpgRecord(
                    fault=record.fault,
                    status=FaultStatus.DROPPED,
                    test=store.pattern(detected),
                    certified=True if self.certify != "off" else None,
                )
        stats.fsim_time += time.perf_counter() - fsim_start
        stats.good_sims += store.simulator.good_sims
        stats.cone_sims += store.cone_sims
        return summary
