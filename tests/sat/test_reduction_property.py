"""Property: clause-DB reduction and variable recycling never change a
verdict.

The CDCL core deletes learned clauses (``reduce_learned``) and recycles
variable indices (``release_var`` + ``collect``) for memory hygiene.
Both are *logically invisible* operations — learned clauses are
consequences, retired groups are guarded — so under any schedule of
reductions and recycling the SAT/UNSAT answer must match an independent
reference solver (DPLL), and every SAT model must satisfy the formula.

Hypothesis drives random formulas through pathologically aggressive
settings (reduce after a couple of learned clauses, garbage-collect
after every retired group) that real runs never use, precisely to
surface schedule-dependent bugs.
"""

import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need the hypothesis package"
)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cdcl import CdclCore
from repro.sat.dpll import solve_dpll
from repro.sat.incremental import IncrementalSatSolver
from repro.sat.cnf import formula_from_ints
from repro.sat.result import SatStatus
from tests.sat.test_incremental import push_named


def _dedupe(lits):
    # One literal per variable (last wins): no duplicates, no tautologies.
    return list({abs(l): l for l in lits}.values())


literals = st.builds(
    lambda v, neg: -v if neg else v,
    st.integers(min_value=1, max_value=7),
    st.booleans(),
)
clauses_strategy = st.lists(
    st.lists(literals, min_size=1, max_size=4).map(_dedupe),
    min_size=1,
    max_size=28,
)


def to_core_lits(ints):
    return [2 * (abs(v) - 1) + (1 if v < 0 else 0) for v in ints]


def reference_verdict(int_clauses):
    return solve_dpll(formula_from_ints(int_clauses)).status


def model_satisfies(int_clauses, values):
    def lit_true(v):
        return values[abs(v) - 1] == (1 if v > 0 else 0)

    return all(any(lit_true(v) for v in cl) for cl in int_clauses)


@settings(max_examples=80, deadline=None)
@given(clauses_strategy)
def test_aggressive_reduction_preserves_verdict(int_clauses):
    core = CdclCore(
        restart_interval=4, learned_db_min=2, learned_db_factor=0.1
    )
    num_vars = max(abs(v) for cl in int_clauses for v in cl)
    for _ in range(num_vars):
        core.new_var()
    ok = True
    for cl in int_clauses:
        ok = core.add_clause(to_core_lits(cl)) and ok
    status = SatStatus.UNSAT
    if ok:
        status, _ = core.solve()
    assert status is reference_verdict(int_clauses)
    if status is SatStatus.SAT:
        assert model_satisfies(int_clauses, core.values)


@settings(max_examples=60, deadline=None)
@given(clauses_strategy, clauses_strategy)
def test_recycling_after_retired_group_preserves_verdict(junk, int_clauses):
    """Push a throwaway group, solve it, retire it, sweep it with
    ``collect`` (recycling its variables), then solve the real formula
    through a second group on the same core."""
    solver = IncrementalSatSolver()
    solver.core.restart_interval = 4
    solver.core.learned_db_min = 2
    solver.core.learned_db_factor = 0.1

    junk_formula = formula_from_ints(junk)
    group, _ = push_named(solver, junk_formula.clauses)
    solver.solve(group)
    solver.retire(group)
    solver.core.collect()

    formula = formula_from_ints(int_clauses)
    group, names = push_named(solver, formula.clauses)
    result = solver.solve(group, model_vars=names)
    assert result.status is reference_verdict(int_clauses)
    if result.status is SatStatus.SAT:
        assert formula.is_satisfied_by(result.assignment)
