"""Result certification and the self-healing solver escalation ladder.

The whole reproduction rests on trusting per-fault SAT verdicts (the
paper's Figure 1 / Algorithm 1), yet every verdict is produced by a
hand-rolled CDCL core with learned-clause deletion, variable recycling,
and an incremental assumption layer — exactly the machinery where silent
wrong answers hide.  This module makes verdicts *checkable* and solver
failures *survivable*:

* **Witness certification** — a TESTABLE verdict is only accepted after
  its test pattern is replayed through the independent fault simulator
  (:mod:`repro.atpg.fault_sim`).  The simulator shares no code with the
  CNF encoder or any SAT solver, so a passing replay certifies the
  verdict end to end.
* **UNSAT certification** — a REDUNDANT verdict is certified by an
  independently *checked* DRUP refutation (:mod:`repro.sat.drup`),
  produced by re-solving the fault's miter on a fresh proof-logged
  :class:`~repro.sat.cdcl.CdclCore`.  Incremental-mode UNSATs cannot be
  proof-logged in place (variable recycling re-binds indices), which is
  why certification replays them on a fresh solver; when even the proof
  check fails, agreement of two *independent* solve paths (e.g. the
  incremental claim plus the DPLL reference) still certifies.
* **Self-healing escalation** — instead of crashing (or worse, silently
  journaling a wrong answer), a certification failure, solver exception,
  or memory/conflict budget exhaustion climbs an escalation ladder of
  independent solve paths: the engine's configured primary path → an
  assumption-core replay on the ladder's own fresh per-cone solvers →
  a fresh cold-start proof-logged CDCL → the DPLL reference.  Cross-path
  verdict disagreements are recorded in
  :class:`~repro.atpg.supervisor.RunHealth` (``disagreements``) and the
  healed verdict wins; only a fault that defeats *every* rung is
  recorded ABORTED with reason ``certification_failed``.

The ladder is deliberately conservative about what counts as certified:

==============  ========================================================
final verdict   certified when
==============  ========================================================
TESTED          witness replay detects the fault (both modes)
UNTESTABLE      ``full`` mode: checked DRUP proof, or two independent
                rungs agree UNSAT; ``witness`` mode: not certified
                (``certified is None`` — UNSAT checking is out of scope)
DROPPED         by construction (the drop *is* a fault-simulation hit)
others          nothing to certify (``certified is None``)
==============  ========================================================
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.atpg.fault_sim import fault_simulate
from repro.atpg.faults import Fault
from repro.atpg.miter import (
    UnobservableFault,
    build_atpg_circuit,
    build_fault_delta,
)
from repro.atpg.supervisor import (
    ABORT_BUDGET,
    ABORT_CERTIFICATION,
    ABORT_DEADLINE,
    ABORT_MEM,
    ABORT_SOLVER,
)
from repro.circuits.network import Network
from repro.sat.cdcl import CdclCore
from repro.sat.compile import compile_formula
from repro.sat.drup import DrupLog, check_drup
from repro.sat.incremental import IncrementalSatSolver
from repro.sat.result import SatStatus

if TYPE_CHECKING:  # circular at runtime: engine imports this module
    from repro.atpg.engine import AtpgEngine, AtpgRecord, EngineStats

#: Valid values for the engine/CLI ``certify`` knob.
CERTIFY_MODES = ("off", "witness", "full")

#: Ladder rungs, in escalation order.  ``primary`` is whatever the
#: engine is configured to run (incremental per-cone solvers for
#: CDCL).  ``core-replay`` re-solves the fault's assumption core on
#: the ladder's *own* per-cone solvers — fresh solver state (separate
#: learned database, activity, recycling history) over the same cone
#: encoding, which is exactly the cheap certification the incremental
#: path needs: its dominant risk is state corruption (clause-DB
#: reduction, variable recycling, stale activation groups), and an
#: independent-state replay agreeing UNSAT rules that out at roughly the
#: cost of one warm incremental solve.  The rungs above it are also
#: *code*-independent of the primary path: ``fresh-cdcl`` is a
#: cold-start proof-logged core whose UNSATs carry a DRUP refutation
#: checked by :mod:`repro.sat.drup`, and ``dpll`` shares no CDCL code at
#: all.
RUNGS = ("primary", "core-replay", "fresh-cdcl", "dpll")


class CertificationError(RuntimeError):
    """A verdict failed certification (and could not be healed).

    Subclasses ``RuntimeError`` so callers that guarded against the
    engine's historical validation raise keep working.
    """

    def __init__(self, fault: Fault, kind: str, detail: str = "") -> None:
        self.fault = fault
        self.kind = kind
        self.detail = detail
        message = f"certification failed for {fault} ({kind})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


def witness_ok(network: Network, fault: Fault, test: dict) -> bool:
    """True when ``test`` provably detects ``fault`` by fault simulation.

    This is the ground truth for TESTABLE verdicts: the simulator is
    independent of the CNF encoder and of every SAT solver.
    """
    return fault in fault_simulate(network, [fault], [test]).detected


class EscalationLadder:
    """Certify one fault's verdict, re-solving on failure (see module doc).

    Args:
        engine: the owning :class:`~repro.atpg.engine.AtpgEngine` —
            supplies the network, cone/encoding caches, budgets, and the
            primary solve path.
        mode: ``witness`` (certify TESTABLE only) or ``full`` (also
            certify REDUNDANT via DRUP / cross-solver agreement).
    """

    def __init__(self, engine: "AtpgEngine", mode: str) -> None:
        if mode not in ("witness", "full"):
            raise ValueError(f"unknown certify mode {mode!r}")
        self.engine = engine
        self.mode = mode
        #: observing-output cone -> (solver, relevant nets, base clauses)
        #: for the ``core-replay`` rung.  Never shared with the engine's
        #: own cone solvers: independent state is the entire point.
        self._replay_cones: dict[
            tuple[str, ...], tuple[IncrementalSatSolver, set[str], int]
        ] = {}

    # ------------------------------------------------------------------
    def process(self, fault: Fault, stats: "EngineStats") -> "AtpgRecord":
        """Solve + certify ``fault``, climbing the ladder as needed.

        Never raises for solver failures: the worst outcome is an
        ABORTED record with a machine-readable reason
        (``certification_failed`` / ``solver_error`` / budget reasons).
        """
        from repro.atpg.engine import AtpgRecord, FaultStatus

        engine = self.engine
        health = stats.health
        sat_claims = 0  # rungs that answered SAT (incl. bad witnesses)
        unsat_claims = 0  # rungs that answered UNSAT
        unsat_record: Optional["AtpgRecord"] = None
        aborted_record: Optional["AtpgRecord"] = None
        solver_error = False
        #: Whether advancing to the next rung is a failure-triggered
        #: escalation (counted) or routine UNSAT certification (not).
        failure_climb = False
        # Predicted-hard faults may be routed past the rungs that are
        # empirically doomed for them (engine._route_start_rung); the
        # skipped rungs are a scheduling choice, not escalations.
        start_rung = engine._route_start_rung(fault)
        if start_rung > 0:
            stats.hard_routed += 1

        for rung_index in range(start_rung, len(RUNGS)):
            rung = RUNGS[rung_index]
            if rung_index > start_rung:
                if engine._past_deadline():
                    break
                if failure_climb:
                    health.escalations += 1
            failure_climb = True
            try:
                record, proof_status = self._solve_rung(rung, fault, stats)
            except Exception:
                solver_error = True
                continue

            if record.status is FaultStatus.UNOBSERVABLE:
                return record  # structural fact, nothing to certify
            if record.status is FaultStatus.ABORTED:
                if record.abort_reason == ABORT_DEADLINE:
                    return record  # no time left to escalate
                aborted_record = record  # budget/mem: try the next rung
                continue

            if record.status is FaultStatus.TESTED:
                sat_claims += 1
                if record.test is not None and witness_ok(
                    engine.network, fault, record.test
                ):
                    record.certified = True
                    if unsat_claims:
                        health.disagreements += 1
                    return record
                continue  # invalid witness: escalate

            # UNTESTABLE
            unsat_claims += 1
            unsat_record = record
            if self.mode != "full":
                record.certified = None
                if sat_claims:
                    health.disagreements += 1
                return record
            if proof_status == "checked":
                record.certified = True
                if sat_claims:
                    health.disagreements += 1
                return record
            if unsat_claims >= 2:
                # Two independent solve paths agree UNSAT: certified by
                # agreement (the proof-logged rung's check failing on
                # the way here was already counted as an escalation).
                record.certified = True
                if sat_claims:
                    health.disagreements += 1
                return record
            # A lone unproved UNSAT claim: climb for corroboration.
            # Routine when coming from the primary path (its UNSATs are
            # never proof-logged); a failure when a proof check refused
            # this rung's own refutation.
            failure_climb = proof_status == "failed"
            continue

        # Ladder exhausted without a certified verdict.
        if unsat_record is not None:
            unsat_record.certified = False
            if sat_claims:
                health.disagreements += 1
            return unsat_record
        if sat_claims:
            # SAT answers whose witnesses all failed replay: journaling
            # any of them would be a silent wrong answer, so abort the
            # fault explicitly instead.
            record = AtpgRecord(
                fault=fault,
                status=FaultStatus.ABORTED,
                abort_reason=ABORT_CERTIFICATION,
            )
            record.certified = False
            return record
        if aborted_record is not None:
            return aborted_record
        if solver_error:
            return AtpgRecord(
                fault=fault,
                status=FaultStatus.ABORTED,
                abort_reason=ABORT_SOLVER,
            )
        if engine._past_deadline():
            return AtpgRecord(
                fault=fault,
                status=FaultStatus.ABORTED,
                abort_reason=ABORT_DEADLINE,
            )
        return AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            abort_reason=ABORT_SOLVER,
        )

    # ------------------------------------------------------------------
    def _solve_rung(
        self, rung: str, fault: Fault, stats: "EngineStats"
    ) -> tuple["AtpgRecord", Optional[str]]:
        """Run one ladder rung.

        Returns (record, proof_status) where proof_status is ``None``
        (no proof attempted), ``"checked"`` (UNSAT with a DRUP proof the
        checker accepted), or ``"failed"`` (UNSAT whose proof was
        rejected — treat with suspicion).
        """
        if rung == "primary":
            return self.engine._primary_record(fault, stats), None
        if rung == "core-replay":
            return self._replay_record(fault, stats)
        if rung == "fresh-cdcl":
            return self._fresh_record(
                fault, stats, with_proof=self.mode == "full"
            )
        return self._reference_record(fault, stats)

    def _replay_record(
        self, fault: Fault, stats: "EngineStats"
    ) -> tuple["AtpgRecord", Optional[str]]:
        """Assumption-core replay on the ladder's own per-cone solver.

        Same CDCL code as the primary incremental path, deliberately
        *different state*: a separate solver per observing cone with its
        own learned database, activities, and recycling history.  The
        incremental path's dominant failure mode is state corruption
        (clause-DB reduction, variable recycling, stale activation
        groups), so an independent-state replay agreeing UNSAT certifies
        against it at warm-solve cost — the checked-proof rung stays in
        reserve for disagreements and code-level bugs.
        """
        from repro.atpg.engine import AtpgRecord, FaultStatus

        engine = self.engine
        start = time.perf_counter()
        tfo = engine.fault_cone(fault.net)
        observing = tuple(
            out for out in engine.network.outputs if out in tfo
        )
        if not observing:
            stats.build_time += time.perf_counter() - start
            return (
                AtpgRecord(fault=fault, status=FaultStatus.UNOBSERVABLE),
                None,
            )
        solver, relevant, base_clauses = self._replay_solver(
            observing, stats
        )
        delta = build_fault_delta(
            engine.network,
            fault,
            tfo=tfo,
            relevant=relevant,
            topo_order=engine._topo_order(),
            cache=engine._encoding_cache,
        )
        built = time.perf_counter()

        group = solver.push_group(delta.clauses)
        num_variables = solver.num_vars
        encoded = time.perf_counter()

        result = solver.solve(
            group,
            max_conflicts=engine.max_conflicts,
            deadline_at=engine._deadline_at,
            mem_budget_mb=engine.mem_budget_mb,
            model_names=engine.network.inputs,
        )
        solver.retire(group)
        solved = time.perf_counter()

        stats.build_time += built - start
        stats.encode_time += encoded - built
        stats.solve_time += solved - encoded
        stats.sat_calls += 1
        stats.propagations += result.stats.propagations
        stats.decisions += result.stats.decisions
        stats.conflicts += result.stats.conflicts

        record = AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            num_variables=num_variables,
            num_clauses=base_clauses + group.num_clauses,
            build_time=built - start,
            encode_time=encoded - built,
            solve_time=solved - encoded,
            decisions=result.stats.decisions,
            conflicts=result.stats.conflicts,
            propagations=result.stats.propagations,
        )
        if result.status is SatStatus.SAT:
            assert result.assignment is not None
            record.status = FaultStatus.TESTED
            record.test = engine._extract_test(result.assignment)
        elif result.status is SatStatus.UNSAT:
            record.status = FaultStatus.UNTESTABLE
        else:
            record.abort_reason = self._unknown_reason(result.stats)
        return record, None

    def _replay_solver(
        self, observing: tuple[str, ...], stats: "EngineStats"
    ) -> tuple[IncrementalSatSolver, set[str], int]:
        """The ladder's persistent replay solver for one observing cone
        (built exactly like the engine's, but never shared with it)."""
        entry = self._replay_cones.get(observing)
        if entry is None:
            engine = self.engine
            setup_start = time.perf_counter()
            relevant = engine.network.transitive_fanin(observing)
            clauses = []
            encode = engine._encoding_cache.gate_clauses
            gate = engine.network.gate
            for net in engine._topo_order():
                if net in relevant:
                    clauses.extend(encode(gate(net)))
            solver = IncrementalSatSolver()
            solver.add_base(clauses)
            entry = (solver, relevant, len(clauses))
            self._replay_cones[observing] = entry
            stats.encode_time += time.perf_counter() - setup_start
        return entry

    def _miter_formula(self, fault: Fault, stats: "EngineStats"):
        """Build + encode the fault's miter (UnobservableFault passes
        through); returns (formula, compiled CNF, build_t, encode_t)."""
        engine = self.engine
        start = time.perf_counter()
        atpg = build_atpg_circuit(
            engine.network, fault, tfo=engine.fault_cone(fault.net)
        )
        built = time.perf_counter()
        formula = atpg.formula(cache=engine._encoding_cache)
        compiled = compile_formula(formula)
        encoded = time.perf_counter()
        stats.build_time += built - start
        stats.encode_time += encoded - built
        return formula, compiled, built - start, encoded - built

    def _fresh_record(
        self, fault: Fault, stats: "EngineStats", with_proof: bool
    ) -> tuple["AtpgRecord", Optional[str]]:
        """Independent re-solve on a cold proof-logged CDCL core."""
        from repro.atpg.engine import AtpgRecord, FaultStatus

        engine = self.engine
        try:
            _, compiled, build_time, encode_time = self._miter_formula(
                fault, stats
            )
        except UnobservableFault:
            return (
                AtpgRecord(fault=fault, status=FaultStatus.UNOBSERVABLE),
                None,
            )

        solve_start = time.perf_counter()
        proof = DrupLog() if with_proof else None
        core = CdclCore(proof=proof)
        for _ in range(compiled.num_vars):
            core.new_var()
        for clause in compiled.clauses:
            # Copy: the core permutes clause lists in place, and the
            # compiled clauses double as the checker's formula.
            if not core.add_clause(list(clause)):
                break
        if core.root_failed:
            status = SatStatus.UNSAT
            solver_stats = None
        else:
            status, solver_stats = core.solve(
                max_conflicts=engine.max_conflicts,
                deadline_at=engine._deadline_at,
                mem_budget_mb=engine.mem_budget_mb,
            )
        solve_time = time.perf_counter() - solve_start
        stats.solve_time += solve_time
        stats.sat_calls += 1
        if solver_stats is not None:
            stats.propagations += solver_stats.propagations
            stats.decisions += solver_stats.decisions
            stats.conflicts += solver_stats.conflicts

        record = AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            num_variables=compiled.num_vars,
            num_clauses=len(compiled.clauses),
            build_time=build_time,
            encode_time=encode_time,
            solve_time=solve_time,
            decisions=solver_stats.decisions if solver_stats else 0,
            conflicts=solver_stats.conflicts if solver_stats else 0,
            propagations=solver_stats.propagations if solver_stats else 0,
        )
        proof_status: Optional[str] = None
        if status is SatStatus.SAT:
            record.status = FaultStatus.TESTED
            record.test = engine._extract_test(
                compiled.decode_assignment(core.values)
            )
        elif status is SatStatus.UNSAT:
            record.status = FaultStatus.UNTESTABLE
            if with_proof:
                outcome = check_drup(compiled.clauses, proof)
                proof_status = "checked" if outcome.ok else "failed"
        else:
            record.abort_reason = self._unknown_reason(solver_stats)
        return record, proof_status

    def _reference_record(
        self, fault: Fault, stats: "EngineStats"
    ) -> tuple["AtpgRecord", Optional[str]]:
        """Last rung: the DPLL reference solver (no shared CDCL code)."""
        from repro.atpg.engine import AtpgRecord, FaultStatus, make_solver

        engine = self.engine
        try:
            formula, _, build_time, encode_time = self._miter_formula(
                fault, stats
            )
        except UnobservableFault:
            return (
                AtpgRecord(fault=fault, status=FaultStatus.UNOBSERVABLE),
                None,
            )
        solver = make_solver("dpll", engine.max_conflicts)
        solve_start = time.perf_counter()
        result = solver.solve(formula)
        solve_time = time.perf_counter() - solve_start
        stats.solve_time += solve_time
        stats.sat_calls += 1
        stats.propagations += result.stats.propagations
        stats.decisions += result.stats.decisions
        stats.conflicts += result.stats.conflicts

        record = AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            num_variables=formula.num_variables(),
            num_clauses=formula.num_clauses(),
            build_time=build_time,
            encode_time=encode_time,
            solve_time=solve_time,
            decisions=result.stats.decisions,
            conflicts=result.stats.conflicts,
            propagations=result.stats.propagations,
        )
        if result.status is SatStatus.SAT:
            record.status = FaultStatus.TESTED
            record.test = engine._extract_test(result.assignment or {})
        elif result.status is SatStatus.UNSAT:
            record.status = FaultStatus.UNTESTABLE
        else:
            record.abort_reason = self._unknown_reason(result.stats)
        return record, None

    def _unknown_reason(self, solver_stats) -> str:
        """Map an UNKNOWN answer to its machine-readable abort reason."""
        if solver_stats is not None and getattr(
            solver_stats, "mem_limit_hit", False
        ):
            return ABORT_MEM
        if self.engine._past_deadline():
            return ABORT_DEADLINE
        return ABORT_BUDGET
