"""Compilation of named-variable CNF into integer-indexed form.

The exploratory solvers (:mod:`repro.sat.backtracking`,
:mod:`repro.sat.caching`) work directly on frozenset clauses because they
need hashable sub-formulas.  The performance solvers (DPLL, CDCL) instead
compile the formula once into dense integer literals:

* variable ``i`` (0-based) has positive literal ``2*i`` and negative
  literal ``2*i + 1`` (LSB = polarity, MiniSat convention);
* a clause is a list of literal ints.

:func:`compile_formula` is the whole-formula batch path.
:class:`IncrementalCompiler` is the append path the incremental SAT
layer (:mod:`repro.sat.incremental`) loads its base through: clauses
arrive one at a time and new names are interned against a live
variable allocator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.sat.cnf import Clause, CnfFormula


def lit_of(var_index: int, positive: bool) -> int:
    """Encode a literal."""
    return 2 * var_index + (0 if positive else 1)


def var_of(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1

def is_positive(lit: int) -> bool:
    """True for positive literals."""
    return (lit & 1) == 0


def negate(lit: int) -> int:
    """Complement literal."""
    return lit ^ 1


@dataclass
class CompiledCnf:
    """Integer form of a CNF formula plus the name mapping."""

    num_vars: int
    clauses: list[list[int]]
    index_of: dict[str, int]
    name_of: list[str]

    def decode_assignment(self, values: list[int]) -> dict[str, int]:
        """Map internal 0/1 values back to variable names."""
        return {
            self.name_of[i]: values[i]
            for i in range(self.num_vars)
            if values[i] in (0, 1)
        }


def compile_formula(formula: CnfFormula) -> CompiledCnf:
    """Compile ``formula`` into integer-literal clause lists.

    Tautological clauses (containing x and ~x) are dropped; duplicate
    literals within a clause are merged.  Variable indices follow sorted
    name order for determinism.
    """
    names = list(formula.variables)
    index_of = {name: i for i, name in enumerate(names)}
    clauses: list[list[int]] = []
    for clause in formula.clauses:
        seen: set[int] = set()
        tautology = False
        for literal in clause:
            lit = lit_of(index_of[literal.variable], literal.positive)
            if negate(lit) in seen:
                tautology = True
                break
            seen.add(lit)
        if not tautology:
            clauses.append(sorted(seen))
    # The formula stores clauses in a frozenset, so iteration order above
    # follows per-process hash randomisation.  Sorting the compiled
    # clause list pins the solver's trajectory (watch order, learned
    # clauses, work counters) to the formula alone — reproducible across
    # processes, which certification replays and benchmarks rely on.
    clauses.sort()
    return CompiledCnf(
        num_vars=len(names),
        clauses=clauses,
        index_of=index_of,
        name_of=names,
    )


class IncrementalCompiler:
    """Interns variable names to solver indices, one clause at a time.

    Unlike :func:`compile_formula`, which needs the whole formula up
    front to fix a dense index range, this compiler allocates indices
    on first sight of a name via the ``allocate`` callback (normally
    the persistent solver's ``new_var``), so clauses can be appended to
    a live solver without recompiling anything.
    """

    def __init__(self, allocate: Callable[[], int]) -> None:
        self._allocate = allocate
        self._index_of: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._index_of)

    def var(self, name: str) -> int:
        """Index of ``name``, allocating a fresh variable on first use."""
        index = self._index_of.get(name)
        if index is None:
            index = self._allocate()
            self._index_of[name] = index
        return index

    def lookup(self, name: str) -> int | None:
        """Index of ``name`` if interned, else ``None`` (no allocation)."""
        return self._index_of.get(name)

    def clause_ints(self, clause: Clause) -> list[int] | None:
        """Integer form of a named clause, or ``None`` for a tautology.

        Duplicate literals are merged, mirroring :func:`compile_formula`.
        Literals are interned in name order: clauses are frozensets, so
        raw iteration order follows per-process hash randomisation, and
        allocation order decides variable indices — sorting keeps the
        solver's trajectory reproducible across processes.
        """
        seen: set[int] = set()
        for literal in sorted(clause, key=lambda l: (l.variable, l.positive)):
            lit = lit_of(self.var(literal.variable), literal.positive)
            if negate(lit) in seen:
                return None
            seen.add(lit)
        return sorted(seen)

    def items(self) -> Iterable[tuple[str, int]]:
        """Live ``(name, index)`` pairs (model decoding)."""
        return self._index_of.items()
