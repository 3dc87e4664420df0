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

* **Deterministic reconciliation of fault dropping.**  Each worker
  fault-drops only within its shard, so the raw union of worker records
  depends on the sharding.  The coordinator fixes this with a *replay
  merge*: it walks the canonical sequential fault order, re-checking
  each fault against the tests kept so far (batched, via
  :class:`~repro.atpg.fault_sim.PatternBlockStore`) and taking the
  worker's SAT result otherwise.  An ATPG-SAT *verdict* depends only on
  (circuit, fault) — never on dropping history — so every fault's
  verdict class (detected, untestable, unobservable) and the coverage
  always match the sequential engine.  CDCL workers keep persistent
  per-cone solvers whose state depends on their shard, so test vectors
  (and hence the TESTED/DROPPED split) can differ from a sequential
  run.  Only for backends whose per-fault result does not depend on
  history (the cold non-CDCL backends) is the merge record-identical:
  same statuses, same tests, same drop attributions, regardless of
  worker count.  The only sequential SAT calls the coordinator ever
  redoes itself are for faults a worker dropped in-shard that the
  global replay does not drop (counted as ``replay_solves``; rare in
  practice).

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
    ABORT_DEADLINE,
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


@dataclass
class _ShardJob:
    """Everything a worker needs to run one shard (must pickle)."""

    network: Network
    faults: list[Fault]
    solver: str
    max_conflicts: Optional[int]
    validate: bool
    drop_block_size: int
    fault_dropping: bool
    encoding_cache: CnfEncodingCache
    deadline_at: Optional[float] = None
    certify: str = "off"
    mem_budget_mb: Optional[float] = None
    budget_policy: str = "fixed"
    #: The coordinator's resolved HardnessModel (a plain dataclass, so
    #: it pickles); workers must not re-load it from disk independently.
    hardness_model: Optional[object] = None


def _run_shard(job: _ShardJob, on_record=None) -> AtpgSummary:
    """Worker entry point: sequential ATPG over one shard."""
    engine = AtpgEngine(
        job.network,
        solver=job.solver,
        max_conflicts=job.max_conflicts,
        validate=job.validate,
        drop_block_size=job.drop_block_size,
        order="given",  # shards arrive pre-ordered canonically
        encoding_cache=job.encoding_cache,
        # The coordinator validated the network once already.
        validate_network=False,
        certify=job.certify,
        mem_budget_mb=job.mem_budget_mb,
        budget_policy=job.budget_policy,
        hardness_model=job.hardness_model,
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
    predictor=None,
) -> list[list[Fault]]:
    """Partition ``faults`` into cone-coherent, load-balanced shards.

    Faults are grouped by the set of primary outputs observing them (a
    cheap proxy for "miters share gates"); groups are then packed onto
    shards greedily, heaviest first, by estimated work.  Without a
    ``predictor``, a fault's work estimate multiplies its SCOAP
    detection cost (how hard exciting and propagating it is — the
    per-fault *search* effort predictor) with the TFI size of its fanout
    cone (the per-fault *instance* size), so a group of few-but-hard
    faults weighs as much as one of many-but-trivial faults; weighting
    by fault count alone left a visible solve-time imbalance between
    workers.  With a :class:`~repro.atpg.hardness.HardnessPredictor`,
    the learned per-fault conflict estimate replaces that product — it
    already folds instance size in through the cone features and,
    unlike SCOAP, prices the redundant tail correctly.  Within each
    shard the original fault order is preserved, so workers process
    their slice in canonical order, keeping the replay merge
    deterministic.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    rank = {fault: index for index, fault in enumerate(faults)}
    outputs = set(network.outputs)
    scoap = compute_scoap(network) if predictor is None else None
    inf_cost = 1.0
    if scoap is not None:
        # Finite stand-in for SCOAP's infinities (provably unexcitable /
        # unobservable under its approximation): costlier than any
        # finite fault, but not so large one such fault swamps the LPT
        # packing.
        finite = [
            cost
            for fault in faults
            if (cost := scoap.detection_cost(fault.net, fault.value))
            < INFINITY
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
        if predictor is not None:
            weight = predictor.cost(fault)
        else:
            cost = scoap.detection_cost(fault.net, fault.value)
            if cost >= INFINITY:
                cost = inf_cost
            weight = cost * net_sizes[fault.net]
        groups.setdefault(key, []).append(fault)
        weights[key] = weights.get(key, 0.0) + weight

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
    """Fault-parallel ATPG with sequential-identical verdicts.

    Args:
        network: circuit under test.
        workers: worker process count; ``None`` uses the CPU count,
            ``1`` (or platforms without ``fork``) runs in-process.
        solver / max_conflicts / validate / drop_block_size: forwarded
            to the per-worker :class:`AtpgEngine`.
        min_faults_per_shard: never split below this many faults per
            shard — small fault lists run on fewer shards (often one, in
            process) because fork/merge overhead would dominate.
        deadline: run-level wall-clock budget in seconds.  Past it, the
            supervisor stops dispatching, terminates running workers,
            and the remaining faults are recorded ABORTED with reason
            ``deadline_exceeded``.
        shard_timeout: per-shard wall-clock budget in seconds; a shard
            exceeding it is terminated, retried, and eventually split
            (``None`` = unlimited).
        max_shard_attempts: dispatch attempts per shard before the
            supervisor splits it (and, for single-fault shards, gives
            up and records the fault ABORTED).
        certify / mem_budget_mb: forwarded to every per-worker (and
            the coordinator) :class:`AtpgEngine` — see its docstring.
            Structural clause sharing is per-process: workers share
            across the cones of their own shard (cone grouping keeps
            sibling cones together, so locality is mostly preserved);
            nothing crosses process boundaries.
        order / budget_policy / hardness_model: hardness-guided
            scheduling knobs (see :class:`AtpgEngine`).  ``order``
            applies on the coordinator (it fixes the canonical fault
            order the replay merge reproduces; workers always process
            their shard slice as given); ``budget_policy`` is forwarded
            to every worker; with either hardness feature active, shard
            balancing weighs faults by predicted cost instead of
            SCOAP x cone size.
    """

    def __init__(
        self,
        network: Network,
        workers: Optional[int] = None,
        solver: str = "cdcl",
        max_conflicts: Optional[int] = 100_000,
        validate: bool = True,
        drop_block_size: int = 64,
        min_faults_per_shard: int = 32,
        deadline: Optional[float] = None,
        shard_timeout: Optional[float] = None,
        max_shard_attempts: int = 2,
        certify: str = "off",
        mem_budget_mb: Optional[float] = None,
        order: str = "auto",
        budget_policy: str = "fixed",
        hardness_model: Optional[object] = None,
    ) -> None:
        if workers is None:
            workers = multiprocessing.cpu_count()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_faults_per_shard < 1:
            raise ValueError("min_faults_per_shard must be >= 1")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 seconds")
        self.network = network
        self.workers = workers
        self.solver = solver
        self.max_conflicts = max_conflicts
        self.validate = validate
        self.drop_block_size = drop_block_size
        self.min_faults_per_shard = min_faults_per_shard
        self.deadline = deadline
        self.shard_timeout = shard_timeout
        self.max_shard_attempts = max_shard_attempts
        self.certify = certify
        self.mem_budget_mb = mem_budget_mb
        self.budget_policy = budget_policy
        #: Worker entry point; tests monkeypatch this with chaos
        #: variants (crashing / hanging shards) to exercise supervision.
        self._shard_runner = _run_shard
        # Coordinator-side engine: canonical ordering, replay fallback
        # SAT calls, and cone caching for the replay's drop checks.
        self._coordinator = AtpgEngine(
            network,
            solver=solver,
            max_conflicts=max_conflicts,
            validate=validate,
            drop_block_size=drop_block_size,
            certify=certify,
            mem_budget_mb=mem_budget_mb,
            order=order,
            budget_policy=budget_policy,
            hardness_model=hardness_model,
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
                drop_block_size=self.drop_block_size,
                fault_dropping=fault_dropping,
                encoding_cache=cache,
                deadline_at=deadline_at,
                certify=self.certify,
                mem_budget_mb=self.mem_budget_mb,
                budget_policy=self.budget_policy,
                hardness_model=(
                    self._coordinator.hardness_predictor().model
                    if self._coordinator.hardness_guided
                    else None
                ),
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
        the same arguments, and the coverage matches; test vectors can
        differ on CDCL, whose solver state depends on the shard (see the
        module docstring).  Cold backends reproduce the sequential
        records exactly.

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
            wanted = set(ordered)
            verified, resume_rejects = verified_resumable_records(
                resume_from,
                self.network,
                circuit=self.network.name,
                mark_certified=self.certify != "off",
            )
            settled = {
                fault: record
                for fault, record in verified.items()
                if fault in wanted
            }
            if resume_rejects:
                warnings.warn(
                    f"{len(resume_rejects)} journaled TESTED record(s) "
                    "failed witness replay at the resume trust boundary "
                    "and will be re-solved",
                    ResumeRejectedRecordsWarning,
                    stacklevel=2,
                )
        remaining = [fault for fault in ordered if fault not in settled]

        num_shards = max(
            1,
            min(
                self.workers,
                len(remaining),
                max(1, len(remaining) // self.min_faults_per_shard),
            ),
        )
        shards = (
            shard_faults_by_cone(
                self.network,
                remaining,
                num_shards,
                predictor=(
                    self._coordinator.hardness_predictor()
                    if self._coordinator.hardness_guided
                    else None
                ),
            )
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
            deadline_at=deadline_at,
        )
        summary.stats.health.merge(report.health)
        # A journaled TESTED verdict the simulator refutes is a
        # cross-run solver disagreement, caught at the trust boundary.
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
            max_attempts=self.max_shard_attempts,
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
        deadline_at: Optional[float] = None,
    ) -> AtpgSummary:
        """Replay the canonical order to reconcile cross-shard dropping.

        ``settled`` records (from a resumed checkpoint) and ABORTED
        placeholders for ``failed`` shards enter the replay exactly like
        worker records, so the merge stays deterministic no matter how
        the run was interrupted or degraded.
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
            stats=stats,
            worker_stats=[ws.stats for ws in worker_summaries],
        )
        store = PatternBlockStore(
            self.network, block_size=self.drop_block_size
        )
        coordinator = self._coordinator
        coordinator._deadline_at = deadline_at
        try:
            for fault in ordered:
                if fault_dropping and len(store):
                    fsim_start = time.perf_counter()
                    detected = store.first_detection(
                        fault, cone=coordinator.fault_cone(fault.net)
                    )
                    stats.fsim_time += time.perf_counter() - fsim_start
                    if detected is not None:
                        summary.records.append(
                            AtpgRecord(
                                fault=fault,
                                status=FaultStatus.DROPPED,
                                test=store.pattern(detected),
                                certified=(
                                    True if self.certify != "off" else None
                                ),
                            )
                        )
                        continue
                record = by_fault.get(fault)
                if record is None or record.status is FaultStatus.DROPPED:
                    # In-shard drop (or lost record) that the global
                    # replay does not drop: the sequential engine would
                    # have solved it, so solve it here — unless the run
                    # deadline already passed, in which case it is a
                    # deadline abort like any other undispatched fault.
                    if coordinator._past_deadline():
                        stats.health.deadline_hit = True
                        record = AtpgRecord(
                            fault=fault,
                            status=FaultStatus.ABORTED,
                            abort_reason=ABORT_DEADLINE,
                        )
                    else:
                        record = coordinator.generate_test(fault, stats=stats)
                        stats.replay_solves += 1
                summary.records.append(record)
                if fault_dropping and record.test is not None:
                    store.add(record.test)
        finally:
            coordinator._deadline_at = None

        stats.good_sims += store.good_sims
        stats.cone_sims += store.cone_sims
        return summary
