"""Tenant budgets and the backpressure/degradation admission ladder.

HybMT and DEFT (PAPERS.md) both observe that a small hard-to-detect
tail dominates ATPG runtime — for a shared service that tail is the
noisy-neighbour problem: one pathological submission must not starve
the queue.  Three mechanisms bound it, applied in order at admission:

1. **Tenant clamps** — a tenant's requested per-fault conflict budget
   and run deadline are clamped to the tenant policy's ceilings (they
   map directly onto the engine's ``--max-conflicts-per-fault`` /
   ``--deadline`` knobs), and each tenant holds at most
   ``max_queued`` queue slots, so no tenant can occupy the queue alone.
2. **Degradation before refusal** — past the *soft* queue threshold the
   job is still accepted but its conflict budget is clamped down to
   ``degraded_max_conflicts``: hard faults abort
   (``budget_exhausted``) instead of consuming a saturated server's
   time.  The job is marked ``degraded`` so the caller knows.
3. **Refusal with Retry-After** — past the *hard* queue limit (or the
   tenant's slot quota) the submission is refused with HTTP 429 and a
   ``Retry-After`` hint, the only honest answer left.

Degraded admissions keep their *own* job identity: the clamped
conflict budget enters the canonical job key, so a degraded result
never masquerades as the full-budget result for the same netlist (and
a result with budget aborts never enters the result cache at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant ceilings (None = unlimited)."""

    max_conflicts: Optional[int] = None
    max_deadline_s: Optional[float] = None
    max_queued: Optional[int] = None


@dataclass(frozen=True)
class BackpressureConfig:
    """Queue-level load-shedding thresholds.

    ``soft_limit`` starts budget degradation; ``hard_limit`` starts
    refusals; ``retry_after_s`` is the refusal hint.
    """

    hard_limit: int = 64
    soft_limit: int = 16
    degraded_max_conflicts: int = 4_000
    retry_after_s: float = 5.0

    def __post_init__(self) -> None:
        if self.hard_limit < 1:
            raise ValueError("hard_limit must be >= 1")
        if not 0 < self.soft_limit <= self.hard_limit:
            raise ValueError("need 0 < soft_limit <= hard_limit")
        if self.degraded_max_conflicts < 1:
            raise ValueError("degraded_max_conflicts must be >= 1")


@dataclass
class Admission:
    """The admission verdict for one submission."""

    accepted: bool
    options: dict
    degraded: bool = False
    retry_after_s: Optional[float] = None
    reason: str = ""


class AdmissionController:
    """Applies the ladder above to one submission at a time."""

    def __init__(
        self,
        backpressure: BackpressureConfig,
        default_policy: TenantPolicy = TenantPolicy(),
        tenant_policies: Optional[dict[str, TenantPolicy]] = None,
    ) -> None:
        self.backpressure = backpressure
        self.default_policy = default_policy
        self.tenant_policies = dict(tenant_policies or {})

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.tenant_policies.get(tenant, self.default_policy)

    def admit(
        self,
        options: dict,
        tenant: str,
        queue_depth: int,
        tenant_queued: int,
    ) -> Admission:
        """Run the ladder for one submission.

        Args:
            options: canonical options (see
                :func:`repro.service.hashing.canonical_options`); the
                returned admission carries the clamped copy.
            queue_depth: jobs currently queued or running server-wide.
            tenant_queued: of those, how many belong to ``tenant``.
        """
        bp = self.backpressure
        policy = self.policy_for(tenant)

        if queue_depth >= bp.hard_limit:
            return Admission(
                accepted=False,
                options=dict(options),
                retry_after_s=bp.retry_after_s,
                reason="queue_full",
            )
        if policy.max_queued is not None and tenant_queued >= policy.max_queued:
            return Admission(
                accepted=False,
                options=dict(options),
                retry_after_s=bp.retry_after_s,
                reason="tenant_quota",
            )

        clamped = dict(options)
        degraded = False
        if policy.max_conflicts is not None:
            clamped["max_conflicts"] = min(
                clamped["max_conflicts"], policy.max_conflicts
            )
        if queue_depth >= bp.soft_limit:
            shed = min(clamped["max_conflicts"], bp.degraded_max_conflicts)
            degraded = shed < clamped["max_conflicts"]
            clamped["max_conflicts"] = shed
        return Admission(
            accepted=True,
            options=clamped,
            degraded=degraded,
            reason="degraded_budget" if degraded else "",
        )

    def clamp_deadline(
        self, requested_s: Optional[float], tenant: str
    ) -> Optional[float]:
        """The effective run deadline for a tenant's job (engine
        ``deadline`` seconds; None = no deadline)."""
        ceiling = self.policy_for(tenant).max_deadline_s
        if ceiling is None:
            return requested_s
        if requested_s is None:
            return ceiling
        return min(requested_s, ceiling)
