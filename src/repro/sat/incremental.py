"""Incremental assumption-based SAT solving with activation literals.

The TEGUS observation (and the GRASP lineage the paper cites): ATPG
solves thousands of SAT instances that share almost all of their
clauses, so solving them as one incremental sequence — learned clauses,
VSIDS activities, and saved phases carried over — beats thousands of
cold starts.  :class:`IncrementalSatSolver` packages the MiniSat-style
recipe over the persistent :class:`~repro.sat.cdcl.CdclCore`:

* a permanent *base* formula is loaded once, before any group (for
  ATPG: the whole good circuit's CNF, each gate's clauses once);
* each per-instance delta (a fault's miter clauses) is pushed as a
  *clause group* guarded by a fresh activation variable ``t``: every
  clause ``C`` is stored as ``(¬t ∨ C)``, so the group is inert until
  ``t`` is assumed at solve time;
* solving under assumption ``t`` activates exactly that group.  Any
  clause learned from the group's clauses necessarily contains ``¬t``
  (``t`` never occurs positively, so resolution cannot eliminate it);
* retiring the group adds the root unit ``¬t``, which permanently
  satisfies the group's clauses *and* every learned clause derived from
  them.  They become inert immediately and are physically swept by
  :meth:`CdclCore.collect`, which also recycles the group's activation
  variables.  A sweep walks the whole clause database, so it runs once
  the retired groups' clauses make up half of it: the sweeps' total
  cost stays proportional to the clauses they remove, however large
  the base.

Clause groups use named clauses (:data:`repro.sat.cnf.Clause`); names
are interned on first sight by :class:`~repro.sat.compile.IncrementalCompiler`
and released again when their group retires.

Restricted decisions, and why they are sound
--------------------------------------------

The base is loaded first and never released, so its variables occupy
the index prefix ``[0, B)`` (:attr:`IncrementalSatSolver.num_base_vars`);
every delta variable, activation variable and recycled index is ``>= B``.
:meth:`IncrementalSatSolver.solve` takes a ``decidable`` mask over that
prefix, and the core then branches only on the base variables the mask
allows plus every variable ``>= B``.  For a fault, the ATPG engine
allows its relevant set R: the transitive fanin of the primary outputs
that observe it.  The rest of the good circuit is never decided.  A SAT
answer is still a test:

* R is closed under fanin, and every clause of the fault's delta
  mentions only nets of R and the delta's own variables.
* The call answers SAT at a conflict-free fixpoint that assigns all of
  those variables, so it satisfies every clause over them: the gate
  clauses of R and the whole active delta.
* Simulating the rest of the circuit from the assigned inputs, with any
  values for the inputs outside R, extends the assignment to a model of
  the whole good circuit.  It keeps the trail's values on R, because
  R's gate clauses fix each net of R as a function of its inputs.
* The clauses of retired groups are satisfied by their root unit
  ``¬t``, and every learned clause follows from the base and the
  deltas, so that model satisfies every clause the solver holds.
  Every trail literal follows from the decisions by unit propagation
  over those clauses, so the model agrees with the trail.
* Its projection onto the primary inputs is therefore a test: inputs
  the search left unassigned may take any value.

UNSAT answers need no argument: restricting decisions never adds a
clause.  The engine's witness check and the certify ladder's witness
replay still fault-simulate every SAT answer.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from typing import Optional

from repro.sat.cdcl import CdclCore
from repro.sat.cnf import Clause
from repro.sat.compile import IncrementalCompiler, lit_of, negate
from repro.sat.result import SatResult, SatStatus


class ClauseGroup:
    """Handle for a pushed clause group (one activation literal).

    Attributes:
        activation_var: the guard variable ``t``.
        assumption: the literal to assume to activate the group.
        names: variable names first interned by this group (released on
            retirement).
        num_clauses: clauses actually attached (tautologies dropped).
    """

    __slots__ = ("activation_var", "assumption", "names", "num_clauses", "retired")

    def __init__(
        self, activation_var: int, names: list[str], num_clauses: int
    ) -> None:
        self.activation_var = activation_var
        self.assumption = lit_of(activation_var, True)
        self.names = names
        self.num_clauses = num_clauses
        self.retired = False


class IncrementalSatSolver:
    """Persistent named-CNF solver: base formula + activatable deltas.

    Args:
        restart_interval / decay: forwarded to :class:`CdclCore`.
    """

    def __init__(
        self, restart_interval: int = 128, decay: float = 0.95
    ) -> None:
        self.core = CdclCore(restart_interval=restart_interval, decay=decay)
        self.compiler = IncrementalCompiler(allocate=self.core.new_var)
        self.num_base_clauses = 0
        #: Variables the base occupies: the index prefix a ``decidable``
        #: mask covers (see the module docstring).
        self.num_base_vars = 0
        #: Clauses of the groups retired since the last sweep.
        self._dead_clauses = 0

    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Live named variables (excludes activation literals)."""
        return len(self.compiler)

    def add_base(self, clauses: Iterable[Clause]) -> None:
        """Append permanent clauses (never retired).  Load the base
        before pushing any group, so that its variables form the prefix
        ``[0, num_base_vars)``."""
        core = self.core
        core.backjump(0)
        compiler = self.compiler
        for named in clauses:
            ints = compiler.clause_ints(named)
            if ints is None:
                continue
            core.add_clause(ints)
            self.num_base_clauses += 1
        core.propagate_root()
        self.num_base_vars = core.num_vars

    def push_group(self, clauses: Iterable[Clause]) -> ClauseGroup:
        """Append a clause group guarded by a fresh activation literal."""
        core = self.core
        core.backjump(0)
        activation = core.new_var()
        guard = lit_of(activation, False)
        new_names: list[str] = []
        count = 0
        for named in clauses:
            ints = self._compile_clause(named, new_names)
            if ints is None:
                continue
            core.add_clause([guard] + ints)
            count += 1
        return ClauseGroup(activation, new_names, count)

    def _compile_clause(
        self, named: Clause, new_names: list[str]
    ) -> Optional[list[int]]:
        """Like ``IncrementalCompiler.clause_ints`` but records which
        names this group interned for the first time."""
        compiler = self.compiler
        seen: set[int] = set()
        for literal in named:
            index = compiler.lookup(literal.variable)
            if index is None:
                new_names.append(literal.variable)
                index = compiler.var(literal.variable)
            lit = lit_of(index, literal.positive)
            if negate(lit) in seen:
                return None
            seen.add(lit)
        return sorted(seen)

    # ------------------------------------------------------------------
    def solve(
        self,
        group: Optional[ClauseGroup] = None,
        max_conflicts: Optional[int] = None,
        deadline_at: Optional[float] = None,
        mem_budget_mb: Optional[float] = None,
        model_names: Optional[Iterable[str]] = None,
        decidable: Optional[bytes] = None,
    ) -> SatResult:
        """Solve base ∧ (group's clauses, if given) under the group's
        activation assumption.  Learned clauses, activities, and saved
        phases persist into the next call.  ``deadline_at`` is an
        absolute ``time.monotonic()`` cutoff and ``mem_budget_mb`` a
        clause-database budget, both forwarded to the core's periodic
        in-search checks.  ``model_names`` restricts the SAT model to
        those variables (callers that only read e.g. circuit inputs
        skip materialising the full named assignment).  ``decidable``
        restricts decisions to the base variables it allows, plus every
        variable above the base (see the module docstring); the SAT
        model then omits the variables left unassigned."""
        start = time.perf_counter()
        status, stats = self.core.solve(
            assumptions=() if group is None else (group.assumption,),
            max_conflicts=max_conflicts,
            deadline_at=deadline_at,
            mem_budget_mb=mem_budget_mb,
            decidable=decidable,
        )
        stats.time_seconds = time.perf_counter() - start
        if status is SatStatus.SAT:
            values = self.core.values
            if model_names is None:
                pairs = self.compiler.items()
            else:
                lookup = self.compiler.lookup
                pairs = (
                    (name, index)
                    for name in model_names
                    if (index := lookup(name)) is not None
                )
            model = {
                name: values[index]
                for name, index in pairs
                if values[index] in (0, 1)
            }
            return SatResult(SatStatus.SAT, assignment=model, stats=stats)
        return SatResult(status, stats=stats)

    def retire(self, group: ClauseGroup) -> None:
        """Permanently deactivate ``group`` and recycle its variables.

        The root unit ``¬t`` satisfies the group's clauses and every
        learned clause derived from them (all contain ``¬t``), so the
        group's variable indices can be recycled immediately: any stale
        clause still mentioning them is root-satisfied and can never
        propagate or conflict again.  The activation variable itself
        stays root-assigned until the next :meth:`CdclCore.collect`
        sweep physically removes the dead clauses, which runs once they
        make up half of the clause database.
        """
        if group.retired:
            return
        group.retired = True
        core = self.core
        core.backjump(0)
        core.add_clause([negate(group.assumption)])
        core.propagate_root()
        for index in self.compiler.release(group.names):
            core.release_var(index)
        core.release_var(group.activation_var, defer=True)
        self._dead_clauses += group.num_clauses
        if 2 * self._dead_clauses >= len(core.base) + len(core.learned):
            self._dead_clauses = 0
            core.collect()

    # ------------------------------------------------------------------
    def seed_phases(self, hints: Mapping[str, int]) -> None:
        """Seed saved phases from named value hints (e.g. the net values
        of the last successful test's simulation)."""
        core = self.core
        lookup = self.compiler.lookup
        for name, value in hints.items():
            index = lookup(name)
            if index is not None:
                core.saved_phase[index] = value & 1
