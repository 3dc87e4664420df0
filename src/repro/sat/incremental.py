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

Only the base load names variables: :meth:`IncrementalSatSolver.add_base`
takes named clauses (:data:`repro.sat.cnf.Clause`) and interns each name
once, through :class:`~repro.sat.compile.IncrementalCompiler`.  A group
is integer clauses over that numbering plus *local* variables: a
literal ``>= 0`` is a solver literal, and a literal ``< 0`` is ``~lit``
for the literal ``lit`` of a local variable.  :meth:`push_group` binds
each local variable to a fresh solver variable (recycling indices of
retired groups), and :meth:`retire` releases them again, in the same
order.  Nothing per group is looked up by name, so a group's cost
follows its own size, not the base's.

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
from collections.abc import Iterable, Sequence
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
        variables: the solver variable bound to each local variable
            (released on retirement).
        num_clauses: clauses pushed.
    """

    __slots__ = (
        "activation_var", "assumption", "variables", "num_clauses", "retired"
    )

    def __init__(
        self, activation_var: int, variables: list[int], num_clauses: int
    ) -> None:
        self.activation_var = activation_var
        self.assumption = lit_of(activation_var, True)
        self.variables = variables
        self.num_clauses = num_clauses
        self.retired = False


class IncrementalSatSolver:
    """Persistent CDCL solver: a named base formula + activatable
    integer deltas (see the module docstring).

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
        """Variables the base load named (group variables are unnamed)."""
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

    def push_group(
        self, clauses: Sequence[Sequence[int]], num_locals: int = 0
    ) -> ClauseGroup:
        """Append a clause group guarded by a fresh activation literal.

        ``clauses`` are integer clauses over the base numbering and
        ``num_locals`` local variables (see the module docstring), with
        no duplicate literal and no tautology.  The activation variable
        is allocated first, then one solver variable per local variable,
        in order.  Each clause is sorted once bound, because literal
        order picks the watched literals.
        """
        core = self.core
        core.backjump(0)
        activation = core.new_var()
        guard = lit_of(activation, False)
        new_var = core.new_var
        variables = [new_var() for _ in range(num_locals)]
        bound = [lit for var in variables for lit in (2 * var, 2 * var + 1)]
        add = core.add_clause
        for clause in clauses:
            ints = sorted([lit if lit >= 0 else bound[~lit] for lit in clause])
            ints.insert(0, guard)
            add(ints)
        return ClauseGroup(activation, variables, len(clauses))

    # ------------------------------------------------------------------
    def solve(
        self,
        group: Optional[ClauseGroup] = None,
        max_conflicts: Optional[int] = None,
        deadline_at: Optional[float] = None,
        mem_budget_mb: Optional[float] = None,
        model_vars: Optional[Iterable[tuple[str, int]]] = None,
        decidable: Optional[bytes] = None,
    ) -> SatResult:
        """Solve base ∧ (group's clauses, if given) under the group's
        activation assumption.  Learned clauses, activities, and saved
        phases persist into the next call.  ``deadline_at`` is an
        absolute ``time.monotonic()`` cutoff and ``mem_budget_mb`` a
        clause-database budget, both forwarded to the core's periodic
        in-search checks.  The SAT model names the ``(name, solver
        variable)`` pairs of ``model_vars`` (every interned base name by
        default), reading only those variables.  ``decidable`` restricts
        decisions to the base variables it allows, plus every variable
        above the base (see the module docstring); the SAT model then
        omits the variables left unassigned."""
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
            truth = self.core.lit_truth
            model = {
                name: value
                for name, var in (
                    self.compiler.items() if model_vars is None else model_vars
                )
                if (value := truth[2 * var]) >= 0
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
        for var in group.variables:
            core.release_var(var)
        core.release_var(group.activation_var, defer=True)
        self._dead_clauses += group.num_clauses
        if 2 * self._dead_clauses >= len(core.base) + len(core.learned):
            self._dead_clauses = 0
            core.collect()

    # ------------------------------------------------------------------
    def seed_phases(
        self, values: Sequence[int], positions: Sequence[int]
    ) -> None:
        """Seed the saved phase of each base variable ``var`` from the
        0/1 value ``values[positions[var]]`` (e.g. the net values of the
        last successful test's simulation, by topological position)."""
        self.core.saved_phase[: len(positions)] = [
            values[pos] for pos in positions
        ]
