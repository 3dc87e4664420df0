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
  bit-parallel 64-pattern blocks
  (:class:`~repro.atpg.fault_sim.PatternBlockStore`) and each
  candidate fault is checked against whole blocks right before its SAT
  call, which is drop-for-drop equivalent to the classic
  re-simulate-everything-per-test pass at a fraction of the cost;
* CNF encoding is incremental — on the CDCL path the good circuit is
  encoded once per solver, and each fault's miter delta
  (:func:`~repro.atpg.miter.build_fault_delta`) instantiates per-gate
  clause templates over the fault's cone only, directly in solver
  literals; per-gate clause blocks are memoised
  (:class:`~repro.sat.tseitin.CnfEncodingCache`) for that base load and
  for the cold backends' whole miters;
* CDCL solving is incremental — one persistent assumption-based
  solver per engine (:class:`~repro.sat.incremental.IncrementalSatSolver`):
  the whole good circuit's CNF is loaded once, on the first SAT call,
  each fault's miter delta is pushed as an activation-guarded clause
  group, and learned clauses, VSIDS activities, and saved phases
  survive across the fault list (the non-CDCL backends solve every
  miter cold).  What the solver learns about the good circuit serves
  every later fault, whichever outputs observe it;
* each SAT call branches only on the fault's relevant variables — the
  transitive fanin of its observing outputs plus its delta — so a fault
  searches no more of the circuit than its own miter holds (the
  soundness argument is in :mod:`repro.sat.incremental`);
* each fault site's fanout cone is walked once, by the engine's fault
  simulator (:meth:`~repro.atpg.fault_sim.FaultSimulator.cone`), and
  serves fault dropping, miter construction and certification.

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
from itertools import chain
from typing import Optional

from repro.atpg.certify import (
    CERTIFY_MODES,
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
from repro.atpg.miter import (
    FaultDelta,
    UnobservableFault,
    build_atpg_circuit,
    build_fault_delta,
)
from repro.atpg.scoap import order_faults
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
    #: Always 0: the engine's one solver shares what it learns by
    #: construction, and no clause store is left to count.  The fields
    #: stay because the stats JSON still carries them.
    shared_promoted: int = 0
    shared_injected: int = 0
    shared_active_solves: int = 0
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of gate encodings served from the CNF cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def shared_hit_rate(self) -> float:
        """Always 0.0 (see ``shared_promoted``)."""
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


#: The SAT backends :func:`make_solver` builds.  ``cdcl`` solves on the
#: engine's persistent solver; the others solve every miter cold.
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


@dataclass
class _ConeView:
    """What the faults observed by one observing-output set see of the
    engine's solvers.

    ``relevant`` masks the topological positions of the transitive
    fanin of the observing outputs (the nets the fault's miter holds of
    the good circuit), ``size`` counts them, ``base_clauses`` counts
    their gate clauses, and ``decidable`` is the solvers' decision mask
    over their base variables: 1 for the variables of ``relevant``.
    """

    relevant: bytes
    size: int
    base_clauses: int
    decidable: bytes


def _instance_vars(view: _ConeView, delta: FaultDelta) -> int:
    """Variable count of the fault's own instance: the nets of the
    relevant set plus the delta's faulty-cone copies and XOR outputs
    (what the fault's miter holds, not what the solver holds)."""
    return view.size + len(delta.cone) + len(delta.observing)


class AtpgEngine:
    """Test generator for single stuck-at faults on a circuit.

    Args:
        network: circuit under test (any gate alphabet the CNF encoder
            accepts; decompose first for the paper's exact setting).
        solver: one of :data:`SOLVERS`.  ``cdcl`` (default) keeps one
            persistent assumption-based CDCL solver that holds the whole
            good circuit — each fault's miter is pushed as an
            activation-guarded delta, decisions stay on the fault's
            relevant variables, and learned clauses/VSIDS
            activities/saved phases survive across the fault list, so
            test *vectors* depend on the schedule while verdicts do not.
            The other backends compile and solve every miter from
            scratch.
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
            (CDCL).  It counts the clause database of the solver the
            call runs on: the whole good circuit's clauses, the fault's
            delta and everything learned so far.  An over-budget search
            aborts the fault with reason ``mem_budget_exceeded`` (and,
            under ``certify``, escalates).
    """

    def __init__(
        self,
        network: Network,
        solver: str = "cdcl",
        max_conflicts: Optional[int] = 100_000,
        validate: bool = True,
        encoding_cache: Optional[CnfEncodingCache] = None,
        deadline: Optional[float] = None,
        validate_network: Optional[bool] = None,
        certify: str = "off",
        mem_budget_mb: Optional[float] = None,
    ) -> None:
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
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
        self.deadline = deadline
        self.certify = certify
        self.mem_budget_mb = mem_budget_mb
        self._ladder = (
            EscalationLadder(self, certify) if certify != "off" else None
        )
        self._deadline_at: Optional[float] = None
        self._encoding_cache = (
            encoding_cache if encoding_cache is not None else CnfEncodingCache()
        )
        #: The CDCL solver and the certify ladder's replay solver, each
        #: loaded on first use (so construction stays cheap).
        self._solver: Optional[IncrementalSatSolver] = None
        self._replay_solver: Optional[IncrementalSatSolver] = None
        self._views: dict[tuple[int, ...], _ConeView] = {}
        #: Set by the first base load (both solvers number the base
        #: alike): each topological position's solver variable (None
        #: for a net no base clause mentions), each position's base
        #: clause count, each base variable's position, and the
        #: ``(input, variable)`` pairs a SAT model is read from.
        self._base_vars: list[Optional[int]] = []
        self._base_clauses: list[int] = []
        self._var_positions: list[int] = []
        self._input_vars: list[tuple[str, int]] = []
        #: The last delta built: the certify ladder's replay rung pushes
        #: it again rather than building its own.
        self._delta: Optional[FaultDelta] = None
        #: Witness checks, phase seeding, fault dropping and every
        #: fanout walk share it, so each new test is simulated once and
        #: each site's cone walked once; it lowers nothing until used.
        self._simulator = FaultSimulator(network)

    @property
    def incremental(self) -> bool:
        """True when faults are solved on the persistent solver."""
        return self.solver_name == "cdcl"

    # ------------------------------------------------------------------
    def fault_cone(self, net: str) -> set[str]:
        """Transitive fanout of ``net``, from the simulator's per-site
        cache (shared by both polarities of a stem fault, fault
        dropping, miter construction, and certification)."""
        return self._simulator.cone(net).nets

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

        result = make_solver(
            self.solver_name,
            self.max_conflicts,
            deadline_at=self._deadline_at,
            mem_budget_mb=self.mem_budget_mb,
        ).solve(formula)
        return self._solved_record(
            fault, stats, result, (start, built, encoded),
            formula.num_variables(), formula.num_clauses(),
        )

    def _generate_test_incremental(
        self, fault: Fault, stats: EngineStats, replay: bool = False
    ) -> AtpgRecord:
        """Hot path: push the fault's miter delta onto the engine's
        solver and solve under the delta's activation assumption,
        deciding only the fault's relevant variables.

        ``replay`` solves on the certify ladder's replay solver instead
        and pushes the delta the primary path built for the fault; it
        seeds no phases.
        """
        simulator = self._simulator
        observing = simulator.cone(fault.net).outputs
        if not observing:
            return AtpgRecord(fault=fault, status=FaultStatus.UNOBSERVABLE)
        solver, view = self._cone_solver(observing, stats, replay)
        # The solver's load and the view are encode time (charged by
        # _cone_solver), so the build clock starts once they are ready.
        start = time.perf_counter()
        delta = self._delta
        if not replay or delta is None or delta.fault != fault:
            delta = self._delta = build_fault_delta(
                simulator, fault, view.relevant, self._base_vars
            )
        built = time.perf_counter()

        group = solver.push_group(delta.clauses, delta.num_locals)
        encoded = time.perf_counter()

        model_vars = self._input_vars
        if delta.free_inputs:
            nets = simulator.nets
            model_vars = model_vars + [
                (nets[pos], group.variables[local])
                for pos, local in delta.free_inputs
            ]
        result = solver.solve(
            group,
            max_conflicts=self.max_conflicts,
            deadline_at=self._deadline_at,
            mem_budget_mb=self.mem_budget_mb,
            model_vars=model_vars,
            decidable=view.decidable,
        )
        solver.retire(group)
        record = self._solved_record(
            fault, stats, result, (start, built, encoded),
            _instance_vars(view, delta), view.base_clauses + group.num_clauses,
        )
        if record.test is not None and not replay:
            # Seed the saved phases from the simulated net values of the
            # test just found: nearby faults need assignments that
            # differ only around the new fault site, so the next search
            # starts close to a known-good model.
            solver.seed_phases(
                simulator.pattern_values(record.test), self._var_positions
            )
        return record

    def _solved_record(
        self,
        fault: Fault,
        stats: EngineStats,
        result: SatResult,
        stamps: tuple[float, float, float],
        num_variables: int,
        num_clauses: int,
    ) -> AtpgRecord:
        """The finished record of a solved fault, its stage times (from
        the start/built/encoded ``stamps`` to now) and search effort
        charged to ``stats``."""
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
            decisions=result.stats.decisions,
            conflicts=result.stats.conflicts,
            propagations=result.stats.propagations,
        )
        stats.build_time += record.build_time
        stats.encode_time += record.encode_time
        stats.solve_time += record.solve_time
        stats.sat_calls += 1
        stats.propagations += record.propagations
        stats.decisions += record.decisions
        stats.conflicts += record.conflicts
        self._finish_record(record, result)
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

    def _cone_solver(
        self,
        observing: tuple[int, ...],
        stats: EngineStats,
        replay: bool = False,
    ) -> tuple[IncrementalSatSolver, _ConeView]:
        """The solver and the view for the faults observed by the
        outputs at the topological positions ``observing``, the
        solver's base loaded on its first call.

        ``replay`` selects the certify ladder's replay solver instead of
        the engine's own: the same base, loaded the same way, with
        independent search state.  Both solvers intern the base in the
        same order, so one view's mask serves either.  Loading and view
        construction are charged to encode time.
        """
        solver = self._replay_solver if replay else self._solver
        view = self._views.get(observing)
        if solver is not None and view is not None:
            return solver, view
        setup_start = time.perf_counter()
        if solver is None:
            solver = self._load_solver()
            if replay:
                self._replay_solver = solver
            else:
                self._solver = solver
        if view is None:
            view = self._views[observing] = self._view(
                observing, solver.num_base_vars
            )
        stats.encode_time += time.perf_counter() - setup_start
        return solver, view

    def _view(
        self, observing: tuple[int, ...], num_base_vars: int
    ) -> _ConeView:
        """The view of the outputs at ``observing``: their transitive
        fanin, walked over the simulator's lowered records."""
        records = self._simulator.records
        relevant = bytearray(len(records))
        members = list(dict.fromkeys(observing))
        for pos in members:
            relevant[pos] = 1
        for pos in members:  # grows while it is walked
            record = records[pos]
            if record is not None:
                for src in record[2]:
                    if not relevant[src]:
                        relevant[src] = 1
                        members.append(src)
        base_vars = self._base_vars
        counts = self._base_clauses
        decidable = bytearray(num_base_vars)
        base_clauses = 0
        for pos in members:
            base_clauses += counts[pos]
            var = base_vars[pos]
            if var is not None:
                decidable[var] = 1
        return _ConeView(
            bytes(relevant), len(members), base_clauses, bytes(decidable)
        )

    def _load_solver(self) -> IncrementalSatSolver:
        """A solver whose base is the whole good circuit: each gate's
        clauses once, in topological order.  The first load also maps
        topological positions to the base's variables."""
        encode = self._encoding_cache.gate_clauses
        gate = self.network.gate
        nets = self._simulator.nets
        blocks = [encode(gate(net)) for net in nets]
        solver = IncrementalSatSolver()
        solver.add_base(chain.from_iterable(blocks))
        if not self._base_vars:
            lookup = solver.compiler.lookup
            base_vars = self._base_vars = [lookup(net) for net in nets]
            self._base_clauses = [len(block) for block in blocks]
            positions = [0] * solver.num_base_vars
            for pos, var in enumerate(base_vars):
                if var is not None:
                    positions[var] = pos
            self._var_positions = positions
            index = self._simulator.positions
            self._input_vars = [
                (net, var)
                for net in self.network.inputs
                if (var := base_vars[index[net]]) is not None
            ]
        return solver

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

        The default collapsed list is SCOAP-ordered easiest first; an
        explicit list is kept as given.  Ordering only moves the
        schedule: per-fault verdicts and coverage do not depend on it.
        The parallel engine merges its shard records in this canonical
        order.
        """
        if faults is not None:
            return list(faults)
        return order_faults(self.network, collapse_faults(self.network))

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
        store = PatternBlockStore(self.network, simulator=self._simulator)
        sims0 = self._simulator.good_sims
        cache = self._encoding_cache
        hits0, misses0 = cache.hits, cache.misses

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
        stats.health.count_aborts(summary.records)
        stats.health.count_certification(summary.records)
        stats.wall_time = time.perf_counter() - wall_start
        return summary
