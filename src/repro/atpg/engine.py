"""SAT-based test pattern generation (the TEGUS stand-in).

The flow of Larrabee [18] / Stephan et al. [24]: for each fault build the
ATPG-SAT circuit (Figure 3), translate to CNF, and hand it to a SAT
solver.  A satisfying assignment restricted to the primary inputs is a
test; an UNSAT answer proves the fault untestable (redundant).

The engine amortises the embarrassing per-fault redundancy of that loop:

* faults are ordered easiest-first by SCOAP detection cost, so cheap
  tests are generated early and drop as much of the hard tail as
  possible;
* fault dropping is *batched* — generated tests accumulate in packed
  bit-parallel blocks of configurable width
  (:class:`~repro.atpg.fault_sim.PatternBlockStore`; Python's arbitrary
  -precision ints make the word width a free parameter) and each
  candidate fault is checked against whole blocks right before its SAT
  call, which is drop-for-drop equivalent to the classic
  re-simulate-everything-per-test pass at a fraction of the cost;
* CNF encoding is incremental — per-gate clause blocks are memoised
  across miters (:class:`~repro.sat.tseitin.CnfEncodingCache`), so
  faults with overlapping fanin cones reuse clauses instead of
  re-running Tseitin from zero;
* CDCL solving is incremental — one persistent assumption-based
  solver per observing-output cone
  (:class:`~repro.sat.incremental.IncrementalSatSolver`): the cone's
  good-circuit CNF is loaded once, each fault's miter delta is pushed
  as an activation-guarded clause group, and learned clauses, VSIDS
  activities, and saved phases survive across the fault batch (the
  non-CDCL backends solve every miter cold);
* learned clauses are shared *across* cones — low-LBD clauses over a
  cone's good-circuit variables alone are base-entailed structural
  facts, promoted to a :class:`~repro.atpg.sharing.StructuralClauseStore`
  and injected into every sibling solver whose cone subsumes the
  origin's fanin (``share_learned="off"`` disables it);
* fanout cones are cached per net (both polarities of a stem share one
  traversal) and reused by miter construction and certification.

Per-instance records (instance size, solve time, search effort) are kept
for every fault processed: they are exactly the data points of the
paper's Figure 1.  Per-stage timings and cache counters are aggregated
in :class:`EngineStats` for the perf trajectory.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.atpg.certify import (
    CERTIFY_MODES,
    RUNGS,
    CertificationError,
    EscalationLadder,
    witness_ok,
)
# ``fault_simulate`` is no longer called here; it stays importable
# because the benchmark's span table (perfbench/tracer.py) wraps it here.
from repro.atpg.fault_sim import (  # noqa: F401
    FaultSimulator,
    PatternBlockStore,
    fault_simulate,
)
from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.hardness import HardnessModel, HardnessPredictor
from repro.atpg.miter import (
    UnobservableFault,
    build_atpg_circuit,
    build_fault_delta,
)
from repro.atpg.scoap import order_faults
from repro.atpg.sharing import StructuralClauseStore
from repro.circuits.network import Network
from repro.circuits.validate import check_network
from repro.obs import Counters, counter
from repro.sat.caching import CachingBacktrackingSolver
from repro.sat.cdcl import CdclSolver
from repro.sat.dpll import DpllSolver
from repro.sat.incremental import IncrementalSatSolver
from repro.sat.result import SatResult, SatStatus
from repro.sat.tseitin import CnfEncodingCache


class FaultStatus(enum.Enum):
    """Classification of a fault after ATPG."""

    TESTED = "tested"  # SAT: test generated (and validated)
    UNTESTABLE = "untestable"  # UNSAT: provably redundant
    UNOBSERVABLE = "unobservable"  # no structural path to any output
    ABORTED = "aborted"  # resource limit
    DROPPED = "dropped"  # detected by an earlier pattern (fault dropping)


#: Machine-readable reasons attached to ABORTED records
#: (``AtpgRecord.abort_reason``) and the shared :class:`RunHealth`
#: telemetry — both live with the generic shard supervisor now
#: (:mod:`repro.atpg.supervisor`) and are re-exported here for
#: compatibility.  ``BUDGET`` is the per-fault conflict budget; the
#: others come from the run orchestration layer.
from repro.atpg.supervisor import (  # noqa: E402  (re-export)
    ABORT_BUDGET,
    ABORT_CERTIFICATION,
    ABORT_DEADLINE,
    ABORT_MEM,
    ABORT_SHARD_CRASHED,
    ABORT_SHARD_TIMEOUT,
    ABORT_SOLVER,
    RunHealth,
)


@dataclass
class AtpgRecord:
    """One Figure-1 data point: a single ATPG-SAT instance.

    ``solve_time`` is pure SAT search; miter construction and CNF
    encoding are reported separately so the perf trajectory can tell the
    stages apart.
    """

    fault: Fault
    status: FaultStatus
    num_variables: int = 0
    num_clauses: int = 0
    build_time: float = 0.0
    encode_time: float = 0.0
    solve_time: float = 0.0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    test: Optional[dict[str, int]] = None
    abort_reason: Optional[str] = None
    #: Certification outcome (:mod:`repro.atpg.certify`): ``True`` the
    #: verdict passed its witness replay / DRUP or agreement check,
    #: ``False`` certification was attempted and failed on every ladder
    #: rung, ``None`` certification was off or inapplicable.
    certified: Optional[bool] = None


@dataclass
class EngineStats(Counters):
    """Aggregate perf counters for one ATPG run.

    Stage times partition the hot path: ``build`` (miter construction),
    ``encode`` (CNF translation), ``solve`` (SAT search), ``fsim``
    (fault-dropping simulation).  Cache counters come from the
    per-engine :class:`~repro.sat.tseitin.CnfEncodingCache`;
    ``replay_solves`` always reads 0: the parallel engine's merge never
    solves a fault.  Merging and the JSON view (``repro atpg
    --bench-json``) derive from the fields (:mod:`repro.obs`).
    """

    build_time: float = counter(0.0, stage="build")
    encode_time: float = counter(0.0, stage="encode")
    solve_time: float = counter(0.0, stage="solve")
    fsim_time: float = counter(0.0, stage="fsim")
    # Wall time and topology are set by the coordinator, not summed.
    wall_time: float = counter(0.0, merge=False)
    sat_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Whole-circuit good simulations: one per new test pattern, shared
    #: by its witness check, phase seeding and fault dropping.
    good_sims: int = 0
    cone_sims: int = 0
    workers: int = counter(1, merge=False)
    shards: int = counter(1, merge=False)
    replay_solves: int = 0
    propagations: int = 0
    decisions: int = 0
    conflicts: int = 0
    #: Cross-fault structural clause sharing (:mod:`repro.atpg.sharing`):
    #: clauses promoted into the store, clause deliveries into sibling
    #: cone solvers, and SAT calls that ran with at least one shared
    #: clause active.
    shared_promoted: int = 0
    shared_injected: int = 0
    shared_active_solves: int = 0
    #: Hardness-guided scheduling (:mod:`repro.atpg.hardness`): SAT
    #: calls whose tight predicted conflict budget ran out and were
    #: re-solved at the full budget, and faults the predictor routed
    #: straight to a stronger escalation-ladder rung.
    budget_escalations: int = 0
    hard_routed: int = 0
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of gate encodings served from the CNF cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of SAT calls that ran with shared structural
        clauses active in their solver."""
        return (
            self.shared_active_solves / self.sat_calls
            if self.sat_calls
            else 0.0
        )

    def solver_rates(self) -> dict[str, float]:
        """Search throughput per second of SAT solve time (the baseline
        currency for future solver PRs)."""
        solve = self.solve_time
        return {
            "propagations_per_sec": self.propagations / solve if solve else 0.0,
            "decisions_per_sec": self.decisions / solve if solve else 0.0,
            "conflicts_per_sec": self.conflicts / solve if solve else 0.0,
        }

    def derived(self) -> dict[str, float]:
        return {
            "cache_hit_rate": self.cache_hit_rate,
            "shared_hit_rate": self.shared_hit_rate,
            **self.solver_rates(),
        }


@dataclass
class AtpgSummary:
    """Aggregate outcome of a full-circuit ATPG run.

    ``worker_stats`` holds the per-shard :class:`EngineStats` of a
    parallel run (stage timings included), so load imbalance and shard
    setup overhead are visible; empty for sequential runs.
    """

    circuit: str
    records: list[AtpgRecord] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    worker_stats: list[EngineStats] = field(default_factory=list)

    def by_status(self, status: FaultStatus) -> list[AtpgRecord]:
        return [r for r in self.records if r.status is status]

    def status_counts(self) -> dict[str, int]:
        """Record count per fault status (parity-test currency)."""
        return {
            status.value: len(self.by_status(status)) for status in FaultStatus
        }

    @property
    def fault_coverage(self) -> float:
        """Detected / total, counting untestable faults as excluded."""
        detected = sum(
            1
            for r in self.records
            if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
        )
        testable = sum(
            1
            for r in self.records
            if r.status
            in (FaultStatus.TESTED, FaultStatus.DROPPED, FaultStatus.ABORTED)
        )
        return detected / testable if testable else 1.0

    def tests(self) -> list[dict[str, int]]:
        """The generated test patterns, one per TESTED fault.

        DROPPED records reference the pattern that covered them, so they
        are excluded here to avoid duplicates.
        """
        return [
            r.test
            for r in self.records
            if r.test is not None and r.status is FaultStatus.TESTED
        ]


#: The SAT backends :func:`make_solver` builds.  ``cdcl`` solves on
#: persistent per-cone solvers; the others solve every miter cold.
SOLVERS = ("cdcl", "dpll", "caching")


def make_solver(
    name: str,
    max_conflicts: Optional[int] = None,
    deadline_at: Optional[float] = None,
    mem_budget_mb: Optional[float] = None,
):
    """The single SAT-backend factory shared by every ATPG engine.

    Args:
        name: one of :data:`SOLVERS`.
        max_conflicts: per-instance effort budget; scaled to the
            backend's native unit (decisions for DPLL, nodes for the
            caching solver).
        deadline_at: absolute ``time.monotonic()`` wall-clock cutoff for
            the search (CDCL only; the other backends rely on their
            node/decision budgets).
        mem_budget_mb: clause-database memory budget (CDCL only).

    Raises:
        ValueError: for unknown backend names.
    """
    if name == "cdcl":
        return CdclSolver(
            max_conflicts=max_conflicts,
            deadline_at=deadline_at,
            mem_budget_mb=mem_budget_mb,
        )
    if name == "dpll":
        return DpllSolver(
            dynamic=True,
            max_decisions=(
                None if max_conflicts is None else max_conflicts * 4
            ),
        )
    if name == "caching":
        return CachingBacktrackingSolver(max_nodes=max_conflicts)
    raise ValueError(f"unknown solver {name!r}")


#: LBD ceiling for promoting learned clauses into the shared structural
#: store.  Low-LBD ("glue") clauses are the ones worth transferring:
#: they encode tight cone facts, stay short, and survive DB reduction.
_STRUCTURAL_LBD_MAX = 4


@dataclass
class _ConeSolverEntry:
    """One persistent incremental solver per observing-output set.

    The base formula is the good-circuit CNF of ``relevant`` (the
    transitive fanin of the observing outputs); every fault observed by
    exactly these outputs pushes its miter delta onto this solver, so
    learned clauses, activities, and phases carry across the group.
    """

    solver: IncrementalSatSolver
    relevant: set[str]
    base_clauses: int


class AtpgEngine:
    """Test generator for single stuck-at faults on a circuit.

    Args:
        network: circuit under test (any gate alphabet the CNF encoder
            accepts; decompose first for the paper's exact setting).
        solver: one of :data:`SOLVERS`.  ``cdcl`` (default) keeps one
            persistent assumption-based CDCL solver per observing-output
            cone — each fault's miter is pushed as an activation-guarded
            delta and learned clauses/VSIDS activities/saved phases
            survive across the fault batch, so test *vectors* depend on
            the schedule while verdicts do not.  The other backends
            compile and solve every miter from scratch.
        max_conflicts: per-fault effort budget (CDCL) — aborted faults are
            reported, not silently dropped.
        validate: structurally validate the network at construction
            (cyclic or undriven-net netlists raise
            :class:`~repro.circuits.validate.ValidationError` up front
            instead of a deep ``KeyError`` mid-run) and fault-simulate
            every generated test (defensive; adds time but catches
            encoder bugs).  ``validate_network=False`` skips just the
            structural check (the parallel engine uses it for workers
            whose network the coordinator already validated).
        drop_block_size: patterns packed per fault-dropping block.
        order: ``auto`` (SCOAP-order the default collapsed list, keep
            explicit lists as given), ``scoap``, ``hardness`` (learned
            predictor ordering, :mod:`repro.atpg.hardness`), or
            ``given``.  Ordering only moves the *schedule*: per-fault
            verdicts and coverage are order-independent.
        encoding_cache: optional pre-warmed per-gate CNF cache to share
            (the parallel engine ships one to every worker).
        deadline: run-level wall-clock budget in seconds.  When a
            :meth:`run` exceeds it, remaining faults are recorded
            ABORTED with reason ``deadline_exceeded`` (periodic time
            checks inside the CDCL solve loop stop an in-flight search
            too) and the run returns cleanly with partial coverage.
        validate_network: override just the structural network check
            (defaults to ``validate``).
        certify: ``off`` (default), ``witness``, or ``full`` — route
            every verdict through the certification / self-healing
            escalation ladder (:mod:`repro.atpg.certify`): ``witness``
            certifies TESTABLE verdicts by fault-simulation replay,
            ``full`` additionally certifies REDUNDANT verdicts by a
            checked DRUP refutation (or cross-solver agreement).
            Certification failures, solver exceptions, and budget
            exhaustion re-solve on independent paths instead of
            crashing; disagreements land in ``stats.health``.
        mem_budget_mb: clause-database memory budget per SAT call
            (CDCL); an over-budget search aborts the fault with reason
            ``mem_budget_exceeded`` (and, under ``certify``, escalates).
        share_learned: ``cone`` (default) promotes guard-free low-LBD
            learned clauses — facts about the good circuit, valid for
            every fault — into a run-wide
            :class:`~repro.atpg.sharing.StructuralClauseStore` and
            pre-seeds sibling cones' solvers with the applicable ones
            (origin fanin ⊆ target fanin, see :mod:`repro.atpg.sharing`
            for the soundness argument).  ``off`` disables the exchange.
            Only the CDCL backend shares; verdicts are unaffected either
            way.
        budget_policy: ``fixed`` (default) gives every fault the full
            ``max_conflicts`` budget.  ``predicted`` gives each fault a
            tight budget derived from its predicted conflict count
            (:meth:`~repro.atpg.hardness.HardnessPredictor.budget`) and
            *escalates* to the full budget when the tight attempt comes
            back UNKNOWN — so a mispredicted fault costs one bounded
            extra solve while a genuinely hard fault can no longer pin a
            shard at the full budget repeatedly on doomed warm attempts.
            Escalation is budget-only (never applied to memory or
            deadline aborts), so final verdicts are identical to
            ``fixed``.
        hardness_model: the trained :class:`HardnessModel` (or a path to
            its JSON) used by ``order="hardness"``,
            ``budget_policy="predicted"``, and hard-fault ladder
            routing; ``None`` loads the shipped default model.
    """

    def __init__(
        self,
        network: Network,
        solver: str = "cdcl",
        max_conflicts: Optional[int] = 100_000,
        validate: bool = True,
        drop_block_size: int = 64,
        order: str = "auto",
        encoding_cache: Optional[CnfEncodingCache] = None,
        deadline: Optional[float] = None,
        validate_network: Optional[bool] = None,
        certify: str = "off",
        mem_budget_mb: Optional[float] = None,
        share_learned: str = "cone",
        budget_policy: str = "fixed",
        hardness_model: Optional["HardnessModel | str"] = None,
    ) -> None:
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
        if order not in ("auto", "scoap", "hardness", "given"):
            raise ValueError(f"unknown fault order {order!r}")
        if budget_policy not in ("fixed", "predicted"):
            raise ValueError(f"unknown budget policy {budget_policy!r}")
        if share_learned not in ("off", "cone"):
            raise ValueError(f"unknown share_learned mode {share_learned!r}")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        if certify not in CERTIFY_MODES:
            raise ValueError(f"unknown certify mode {certify!r}")
        if mem_budget_mb is not None and mem_budget_mb <= 0:
            raise ValueError("mem_budget_mb must be > 0")
        structural = validate if validate_network is None else validate_network
        if structural:
            check_network(network)
        self.network = network
        self.solver_name = solver
        self.max_conflicts = max_conflicts
        self.validate = validate
        self.drop_block_size = drop_block_size
        self.order = order
        self.deadline = deadline
        self.certify = certify
        self.mem_budget_mb = mem_budget_mb
        self.share_learned = share_learned
        self.budget_policy = budget_policy
        self.hardness_model = hardness_model
        self._hardness: Optional[HardnessPredictor] = None
        self._structural_store = (
            StructuralClauseStore() if share_learned == "cone" else None
        )
        self._ladder = (
            EscalationLadder(self, certify) if certify != "off" else None
        )
        self._deadline_at: Optional[float] = None
        self._encoding_cache = (
            encoding_cache if encoding_cache is not None else CnfEncodingCache()
        )
        self._cone_cache: dict[str, set[str]] = {}
        self._cone_solvers: dict[tuple[str, ...], _ConeSolverEntry] = {}
        self._topo: Optional[list[str]] = None
        #: Witness checks, phase seeding and fault dropping share it, so
        #: each new test is simulated once; it lowers nothing until used.
        self._simulator = FaultSimulator(network)

    @property
    def incremental(self) -> bool:
        """True when faults are solved on persistent per-cone solvers."""
        return self.solver_name == "cdcl"

    @property
    def hardness_guided(self) -> bool:
        """True when any scheduling decision consults the predictor."""
        return self.order == "hardness" or self.budget_policy == "predicted"

    def hardness_predictor(self) -> HardnessPredictor:
        """The per-network hardness predictor (built on first use)."""
        if self._hardness is None:
            model = self.hardness_model
            if model is None:
                model = HardnessModel.default()
            elif not isinstance(model, HardnessModel):
                model = HardnessModel.load(model)
            self._hardness = HardnessPredictor(self.network, model=model)
        return self._hardness

    def _fault_budget(self, fault: Fault) -> tuple[Optional[int], bool]:
        """(first-attempt conflict budget, whether escalation remains).

        Under the ``fixed`` policy every fault gets the full budget and
        there is nothing to escalate to.  Under ``predicted`` the first
        attempt runs on the predictor's tight budget; the second element
        says a full-budget retry is still meaningful if it aborts.
        """
        if self.budget_policy != "predicted":
            return self.max_conflicts, False
        budget = self.hardness_predictor().budget(fault, self.max_conflicts)
        escalatable = budget is not None and (
            self.max_conflicts is None or budget < self.max_conflicts
        )
        return budget, escalatable

    def _route_start_rung(self, fault: Fault) -> int:
        """The escalation-ladder rung this fault should start on.

        The cheap full-mode UNSAT certification is two *warm* rungs
        agreeing (primary + core-replay), so routing past them only pays
        when those rungs are doomed to burn their whole conflict budget
        and abort anyway.  That is exactly the faults the predictor
        prices above the configured ``max_conflicts``: for them the
        ladder starts at the proof-logged ``fresh-cdcl`` rung, replacing
        two full-budget warm aborts with the one cold solve the fault
        was always going to need.  Only the schedule moves — every rung
        agrees on verdicts, and a fresh-cdcl abort still climbs on to
        the DPLL reference exactly as an escalated one would.
        """
        if (
            self.certify == "full"
            and self.hardness_guided
            and self.max_conflicts is not None
        ):
            predictor = self.hardness_predictor()
            if predictor.conflicts(fault) > self.max_conflicts:
                return RUNGS.index("fresh-cdcl")
        return 0

    # ------------------------------------------------------------------
    def fault_cone(self, net: str) -> set[str]:
        """Cached transitive fanout of ``net`` (shared by both polarities
        of a stem fault, miter construction, and certification)."""
        cone = self._cone_cache.get(net)
        if cone is None:
            cone = self.network.transitive_fanout([net])
            self._cone_cache[net] = cone
        return cone

    def generate_test(
        self, fault: Fault, stats: Optional[EngineStats] = None
    ) -> AtpgRecord:
        """Run ATPG-SAT for a single fault.

        With certification on, the verdict is produced (and on failure
        healed) by the escalation ladder; otherwise by the configured
        primary path directly.
        """
        stats = stats if stats is not None else EngineStats()
        if self._ladder is not None:
            return self._ladder.process(fault, stats)
        return self._primary_record(fault, stats)

    def _primary_record(self, fault: Fault, stats: EngineStats) -> AtpgRecord:
        """The engine's configured solve path (ladder rung 0)."""
        if self.incremental:
            return self._generate_test_incremental(fault, stats)
        return self._generate_test_fresh(fault, stats)

    def _generate_test_fresh(
        self, fault: Fault, stats: EngineStats
    ) -> AtpgRecord:
        """Cold-start path of the non-CDCL backends: build miter,
        compile, solve from scratch."""
        start = time.perf_counter()
        try:
            atpg = build_atpg_circuit(
                self.network, fault, tfo=self.fault_cone(fault.net)
            )
        except UnobservableFault:
            stats.build_time += time.perf_counter() - start
            return AtpgRecord(fault=fault, status=FaultStatus.UNOBSERVABLE)
        built = time.perf_counter()

        formula = atpg.formula(cache=self._encoding_cache)
        encoded = time.perf_counter()

        calls = self._solve_escalating(
            fault,
            stats,
            lambda budget: make_solver(
                self.solver_name,
                budget,
                deadline_at=self._deadline_at,
                mem_budget_mb=self.mem_budget_mb,
            ).solve(formula),
        )
        return self._solved_record(
            fault, stats, calls, (start, built, encoded),
            formula.num_variables(), formula.num_clauses(),
        )

    def _generate_test_incremental(
        self, fault: Fault, stats: EngineStats
    ) -> AtpgRecord:
        """Hot path: push the fault's miter delta onto the persistent
        solver of its observing-output cone and solve under the delta's
        activation assumption."""
        start = time.perf_counter()
        tfo = self.fault_cone(fault.net)
        observing = tuple(
            out for out in self.network.outputs if out in tfo
        )
        if not observing:
            stats.build_time += time.perf_counter() - start
            return AtpgRecord(fault=fault, status=FaultStatus.UNOBSERVABLE)
        entry = self._cone_solver(observing, stats)
        delta = build_fault_delta(
            self.network,
            fault,
            tfo=tfo,
            relevant=entry.relevant,
            topo_order=self._topo_order(),
            cache=self._encoding_cache,
        )
        built = time.perf_counter()

        group = entry.solver.push_group(delta.clauses)
        num_variables = entry.solver.num_vars
        encoded = time.perf_counter()

        # Sharing work is billed to the solve stage on purpose: the
        # injection/drain cost is part of what the sharing trade buys.
        store = self._structural_store
        if store is not None:
            fresh = store.fresh_for(observing)
            if fresh:
                entry.solver.push_shared(fresh)
            if entry.solver.num_shared_clauses:
                stats.shared_active_solves += 1
        # A predicted-budget escalation re-solves on the still-warm
        # solver: the group is still active and the first attempt's
        # learned clauses carry over.
        calls = self._solve_escalating(
            fault,
            stats,
            lambda budget: entry.solver.solve(
                group,
                max_conflicts=budget,
                deadline_at=self._deadline_at,
                mem_budget_mb=self.mem_budget_mb,
                model_names=self.network.inputs,
            ),
        )
        entry.solver.retire(group)
        if store is not None:
            # Drain *after* retire: the delta's variable names are
            # released by then, so clauses mentioning fault-specific
            # miter variables fail name translation and are filtered —
            # only clauses over the cone's good-circuit nets promote.
            drained = entry.solver.drain_structural()
            if drained:
                store.promote(observing, drained)
        record = self._solved_record(
            fault, stats, calls, (start, built, encoded),
            num_variables, entry.base_clauses + group.num_clauses,
        )
        if record.test is not None:
            # Seed the cone's saved phases from the simulated net values
            # of the test just found: nearby faults need assignments that
            # differ only around the new fault site, so the next search
            # starts close to a known-good model.
            simulator = self._simulator
            values = simulator.pattern_values(record.test)
            entry.solver.seed_phases(dict(zip(simulator.nets, values)))
        return record

    def _solve_escalating(
        self,
        fault: Fault,
        stats: EngineStats,
        solve: Callable[[Optional[int]], SatResult],
    ) -> list[SatResult]:
        """Solve ``fault`` under its budget; returns every call's result.

        When a tight predicted budget runs out, the fault is re-solved
        once at the full budget, so final verdicts match the fixed
        policy exactly.
        """
        budget, escalatable = self._fault_budget(fault)
        calls = [solve(budget)]
        first = calls[0]
        if (
            escalatable
            and first.status is SatStatus.UNKNOWN
            and not first.stats.mem_limit_hit
            and not self._past_deadline()
        ):
            stats.budget_escalations += 1
            calls.append(solve(self.max_conflicts))
        return calls

    def _solved_record(
        self,
        fault: Fault,
        stats: EngineStats,
        calls: list[SatResult],
        stamps: tuple[float, float, float],
        num_variables: int,
        num_clauses: int,
    ) -> AtpgRecord:
        """The finished record of a solved fault, its stage times (from
        the start/built/encoded ``stamps`` to now) and search effort
        charged to ``stats``; the last call carries the verdict."""
        start, built, encoded = stamps
        solved = time.perf_counter()
        record = AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            num_variables=num_variables,
            num_clauses=num_clauses,
            build_time=built - start,
            encode_time=encoded - built,
            solve_time=solved - encoded,
        )
        for result in calls:
            record.decisions += result.stats.decisions
            record.conflicts += result.stats.conflicts
            record.propagations += result.stats.propagations
        stats.build_time += record.build_time
        stats.encode_time += record.encode_time
        stats.solve_time += record.solve_time
        stats.sat_calls += len(calls)
        stats.propagations += record.propagations
        stats.decisions += record.decisions
        stats.conflicts += record.conflicts
        self._finish_record(record, calls[-1])
        return record

    def _finish_record(self, record: AtpgRecord, result: SatResult) -> None:
        """Map the SAT outcome onto the record (shared by both paths)."""
        if result.status is SatStatus.UNKNOWN:
            if result.stats.mem_limit_hit:
                record.abort_reason = ABORT_MEM
            elif self._past_deadline():
                record.abort_reason = ABORT_DEADLINE
            else:
                record.abort_reason = ABORT_BUDGET
        if result.status is SatStatus.UNSAT:
            record.status = FaultStatus.UNTESTABLE
        elif result.status is SatStatus.SAT:
            assert result.assignment is not None
            test = self._extract_test(result.assignment)
            # With certification on the ladder replays the witness
            # itself (and heals failures instead of raising).
            if (
                self.validate
                and self._ladder is None
                and not witness_ok(self._simulator, record.fault, test)
            ):
                raise CertificationError(
                    record.fault,
                    "witness",
                    "SAT model failed fault simulation — encoder or "
                    "solver bug",
                )
            record.status = FaultStatus.TESTED
            record.test = test

    def _topo_order(self) -> list[str]:
        """The network's topological net order, computed once."""
        if self._topo is None:
            self._topo = self.network.topological_order()
        return self._topo

    def _cone_solver(
        self, observing: tuple[str, ...], stats: EngineStats
    ) -> _ConeSolverEntry:
        """Persistent solver for the faults observed by ``observing``,
        its base loaded with the good-circuit CNF of their fanin."""
        entry = self._cone_solvers.get(observing)
        if entry is None:
            setup_start = time.perf_counter()
            relevant = self.network.transitive_fanin(observing)
            clauses = []
            encode = self._encoding_cache.gate_clauses
            gate = self.network.gate
            for net in self._topo_order():
                if net in relevant:
                    clauses.extend(encode(gate(net)))
            solver = IncrementalSatSolver()
            solver.add_base(clauses)
            store = self._structural_store
            if store is not None:
                solver.enable_structural(_STRUCTURAL_LBD_MAX)
                store.register_cone(observing, frozenset(relevant))
            entry = _ConeSolverEntry(
                solver=solver, relevant=relevant, base_clauses=len(clauses)
            )
            self._cone_solvers[observing] = entry
            stats.encode_time += time.perf_counter() - setup_start
        return entry

    def _past_deadline(self) -> bool:
        """True when the active run deadline has expired."""
        return (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        )

    def _extract_test(self, assignment: dict[str, int]) -> dict[str, int]:
        """Project a miter model onto the circuit's primary inputs.

        Inputs outside the miter (don't-cares) default to 0.
        """
        return {
            net: assignment.get(net, 0) & 1 for net in self.network.inputs
        }

    # ------------------------------------------------------------------
    def ordered_faults(
        self, faults: Optional[Sequence[Fault]] = None
    ) -> list[Fault]:
        """The fault list :meth:`run` would process, in processing order.

        The parallel engine merges its shard records in this canonical
        order.
        """
        explicit = faults is not None
        fault_list = list(faults) if explicit else collapse_faults(self.network)
        if self.order == "hardness":
            return self.hardness_predictor().order(fault_list)
        if self.order == "scoap" or (self.order == "auto" and not explicit):
            return order_faults(self.network, fault_list)
        return fault_list

    def run(
        self,
        faults: Optional[Sequence[Fault]] = None,
        fault_dropping: bool = True,
        deadline_at: Optional[float] = None,
        on_record: Optional[Callable[[AtpgRecord], None]] = None,
    ) -> AtpgSummary:
        """ATPG over a fault list (collapsed list by default).

        With ``fault_dropping``, each fault is checked against every
        previously generated test (packed into blocks) immediately
        before its SAT call; faults already covered are recorded as
        DROPPED with the earliest detecting test.  This drops exactly
        the faults the classic re-simulate-after-every-test pass would
        drop, without its per-test sweep over the remaining list.

        Args:
            deadline_at: absolute ``time.monotonic()`` deadline imposed
                by an orchestrator; defaults to the engine's own
                ``deadline`` budget counted from this call.  Once
                passed, every remaining fault is recorded ABORTED with
                reason ``deadline_exceeded`` and the run returns.
            on_record: per-record callback fired as each record is
                finalised (the checkpoint journal hook).
        """
        wall_start = time.perf_counter()
        if deadline_at is None and self.deadline is not None:
            deadline_at = time.monotonic() + self.deadline
        self._deadline_at = deadline_at
        ordered = self.ordered_faults(faults)
        summary = AtpgSummary(circuit=self.network.name)
        stats = summary.stats
        store = PatternBlockStore(
            self.network,
            block_size=self.drop_block_size,
            simulator=self._simulator,
        )
        sims0 = self._simulator.good_sims
        cache = self._encoding_cache
        hits0, misses0 = cache.hits, cache.misses
        share = self._structural_store
        promoted0 = share.stats.promoted if share is not None else 0
        injected0 = share.stats.injected if share is not None else 0

        try:
            for fault in ordered:
                if self._past_deadline():
                    stats.health.deadline_hit = True
                    record = AtpgRecord(
                        fault=fault,
                        status=FaultStatus.ABORTED,
                        abort_reason=ABORT_DEADLINE,
                    )
                    summary.records.append(record)
                    if on_record is not None:
                        on_record(record)
                    continue
                if fault_dropping and len(store):
                    fsim_start = time.perf_counter()
                    detected = store.first_detection(fault)
                    stats.fsim_time += time.perf_counter() - fsim_start
                    if detected is not None:
                        record = AtpgRecord(
                            fault=fault,
                            status=FaultStatus.DROPPED,
                            test=store.pattern(detected),
                            # The drop *is* a fault-simulation detection
                            # of this fault by this pattern.
                            certified=(
                                True if self.certify != "off" else None
                            ),
                        )
                        summary.records.append(record)
                        if on_record is not None:
                            on_record(record)
                        continue
                record = self.generate_test(fault, stats=stats)
                summary.records.append(record)
                if on_record is not None:
                    on_record(record)
                if fault_dropping and record.test is not None:
                    store.add(record.test)
        finally:
            self._deadline_at = None

        stats.cache_hits = cache.hits - hits0
        stats.cache_misses = cache.misses - misses0
        stats.good_sims = self._simulator.good_sims - sims0
        stats.cone_sims = store.cone_sims
        if share is not None:
            stats.shared_promoted = share.stats.promoted - promoted0
            stats.shared_injected = share.stats.injected - injected0
        stats.health.count_aborts(summary.records)
        stats.health.count_certification(summary.records)
        stats.wall_time = time.perf_counter() - wall_start
        return summary
