"""Common result and statistics types shared by all SAT solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class SatStatus(enum.Enum):
    """Outcome of a satisfiability check."""

    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"  # resource limit reached

    def __bool__(self) -> bool:
        return self is SatStatus.SAT


@dataclass
class SolverStats:
    """Search-effort counters, comparable across solver variants."""

    decisions: int = 0
    nodes: int = 0  # backtracking tree nodes visited
    propagations: int = 0
    conflicts: int = 0
    cache_hits: int = 0
    cache_insertions: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    time_seconds: float = 0.0
    #: True when an UNKNOWN answer was caused by the clause-database
    #: memory budget (vs. a conflict budget or deadline).
    mem_limit_hit: bool = False


@dataclass
class SatResult:
    """Status plus (for SAT) a witness assignment and effort statistics."""

    status: SatStatus
    assignment: Optional[dict[str, int]] = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT


class ResourceLimitExceeded(RuntimeError):
    """Raised internally when a node/conflict budget is exhausted."""
