"""Fast cut-width analysis: dedup, warm-start MLA, supervised fan-out.

The Figure-8 experiment (Section 5.2.2) measures, for every fault ψ, the
cut-width of its relevant sub-circuit C_ψ^sub.  Computed naively — one
sub-circuit extraction, one hypergraph build, and one full recursive
min-cut-bisection MLA per fault — large circuits must be subsampled with
``max_faults`` just to terminate.  This module amortises that work the
same way the SAT path amortises encoding work across a fault batch:

* **Sub-circuit dedup.**  C_ψ^sub depends on ψ only through the set of
  relevant nets and observing outputs, and faults cluster heavily: the
  two polarities of a net always share a sub-circuit, and in practice so
  do most faults observed by the same output group (the bench circuit
  has 548 collapsed faults but only 38 distinct sub-circuits).  Each
  fault is keyed by its *signature* — (observing outputs, relevant net
  set) — and the arrangement runs once per signature.

* **Warm-start MLA** (``mode="warm"``).  A fault's sub-circuit is
  covered by the cones of its observing outputs, so a cached per-cone
  arrangement restricted to the sub-circuit's nets is a strong seed
  order — Lemma 4.2's interleave argument is exactly why a good
  enclosing order stays good on a subset.  The recursive bisection is
  then skipped entirely in favour of best-of-pool selection plus the
  sliding-window polish (:func:`repro.core.mla.warm_min_cut_arrangement`).

* **Cold parity mode** (``mode="cold"``, the default).  Each distinct
  signature is analysed exactly as the historical sequential estimator
  did (same ``estimate_cutwidth`` call, same DFS-cone candidate, same
  seed), so results are bit-identical to the pre-pipeline
  ``fault_width_samples`` — just deduplicated and parallelisable.

* **Supervised parallel sweep.**  Faults are sharded by observing-output
  cone (:func:`repro.atpg.parallel.shard_faults_by_cone`, which keeps
  every signature on a single worker so dedup survives sharding) and run
  under a :class:`~repro.atpg.supervisor.ShardSupervisor`: per-shard
  timeouts, retry with bisection splitting, degradation to in-process
  execution, and a run deadline.  Because every per-fault result is a
  pure function of (network, signature, seed), the merged sweep is
  bit-identical to a sequential one regardless of worker count or how
  shards were split.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.supervisor import RunHealth, ShardSupervisor
from repro.circuits.network import Network
from repro.core.bounds import FaultWidthSample, subsample_faults, theorem_4_1_bound
from repro.core.cutwidth import mla_ordering
from repro.core.hypergraph import circuit_hypergraph
from repro.core.mla import estimate_cutwidth, warm_min_cut_arrangement
from repro.core.ordering import dfs_cone_ordering
from repro.obs import Counters, counter

#: A fault's sub-circuit signature: (observing outputs, relevant nets).
#: Two faults with equal signatures have identical C_ψ^sub up to naming.
Signature = tuple[tuple[str, ...], frozenset[str]]


@dataclass
class WidthStudyStats(Counters):
    """Aggregate perf counters for one width study, mirroring
    :class:`~repro.atpg.engine.EngineStats`.

    Stage times partition the hot path: ``signature`` (fanout/fanin
    traversals and signature lookup), ``cone`` (per-output cone
    arrangements feeding the warm-start cache), ``arrange`` (per-
    signature sub-circuit extraction, hypergraph build and MLA), and
    ``merge`` (coordinator-side deterministic merge).  Cache counters
    distinguish the two caches: ``sub_cache_*`` for the per-signature
    sample memo, ``cone_cache_*`` for the warm-start cone arrangements.
    """

    signature_time: float = counter(0.0, stage="signature")
    cone_time: float = counter(0.0, stage="cone")
    arrange_time: float = counter(0.0, stage="arrange")
    merge_time: float = counter(0.0, stage="merge")
    # Wall time and topology are set by the coordinator, not summed.
    wall_time: float = counter(0.0, merge=False)
    sub_cache_hits: int = 0
    sub_cache_misses: int = 0
    cone_cache_hits: int = 0
    cone_cache_misses: int = 0
    warm_starts: int = 0
    cold_runs: int = 0
    workers: int = counter(1, merge=False)
    shards: int = counter(1, merge=False)
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of faults served from the sub-circuit memo."""
        total = self.sub_cache_hits + self.sub_cache_misses
        return self.sub_cache_hits / total if total else 0.0

    def derived(self) -> dict[str, float]:
        return {"cache_hit_rate": self.cache_hit_rate}


@dataclass
class WidthStudyReport:
    """Outcome of one width study over a fault list.

    Attributes:
        circuit: network name.
        mode: ``"cold"`` (parity with the historical estimator) or
            ``"warm"`` (cone-seeded arrangements).
        seed: MLA seed used for every arrangement.
        faults: the chosen fault list, in canonical (net, value) order —
            exactly the faults the sweep attempted, after subsampling.
        samples: one sample per analysed observable fault, in canonical
            fault order.
        unobservable: faults with no path to any primary output.
        skipped: (fault, reason) pairs for faults whose shard the
            supervisor gave up on (timeout / crash / deadline).
    """

    circuit: str
    mode: str
    seed: int
    faults: list[Fault] = field(default_factory=list)
    samples: list[FaultWidthSample] = field(default_factory=list)
    unobservable: list[Fault] = field(default_factory=list)
    skipped: list[tuple[Fault, str]] = field(default_factory=list)
    stats: WidthStudyStats = field(default_factory=WidthStudyStats)

    @property
    def max_cutwidth(self) -> int:
        return max((s.cutwidth for s in self.samples), default=0)

    def as_dict(self) -> dict:
        """JSON-ready summary (samples abbreviated to plot columns)."""
        return {
            "circuit": self.circuit,
            "mode": self.mode,
            "seed": self.seed,
            "n_faults": len(self.faults),
            "n_samples": len(self.samples),
            "n_unobservable": len(self.unobservable),
            "n_skipped": len(self.skipped),
            "max_cutwidth": self.max_cutwidth,
            "stats": self.stats.as_dict(),
        }


@dataclass
class _WidthShardJob:
    """Everything a worker needs to run one width shard (must pickle)."""

    network: Network
    faults: list[Fault]
    seed: int
    mode: str
    leaf_size: int
    bounds: bool


@dataclass
class _WidthShardResult:
    """One shard's samples plus its local perf counters."""

    samples: list[FaultWidthSample]
    unobservable: list[Fault]
    stats: WidthStudyStats


class _ShardAnalyzer:
    """Per-worker analysis state: signature memo + cone arrangement cache.

    One instance lives for the duration of a shard (or the whole run, in
    sequential mode), so every cache is per-process — nothing needs to
    cross the fork boundary except the job in and the samples out.
    """

    def __init__(
        self,
        network: Network,
        *,
        seed: int,
        mode: str,
        leaf_size: int,
        bounds: bool,
    ) -> None:
        self.network = network
        self.seed = seed
        self.mode = mode
        self.leaf_size = leaf_size
        self.bounds = bounds
        self.stats = WidthStudyStats()
        # fault.net -> signature (None = unobservable); both stuck-at
        # polarities of a net share one fanout traversal.
        self._net_sigs: dict[str, Optional[Signature]] = {}
        # signature -> (size, cutwidth, k_fo, theorem_bound)
        self._memo: dict[
            Signature, tuple[int, int, Optional[int], Optional[int]]
        ] = {}
        # primary output -> cached cone arrangement order (warm mode).
        self._cone_orders: dict[str, list[str]] = {}

    def run(self, faults: Sequence[Fault]) -> _WidthShardResult:
        samples: list[FaultWidthSample] = []
        unobservable: list[Fault] = []
        for fault in faults:
            start = time.perf_counter()
            signature = self._signature(fault)
            self.stats.signature_time += time.perf_counter() - start
            if signature is None:
                unobservable.append(fault)
                continue
            cached = self._memo.get(signature)
            if cached is None:
                self.stats.sub_cache_misses += 1
                cached = self._analyse(signature)
                self._memo[signature] = cached
            else:
                self.stats.sub_cache_hits += 1
            size, width, k_fo, bound = cached
            samples.append(
                FaultWidthSample(
                    fault=fault,
                    sub_circuit_size=size,
                    cutwidth=width,
                    k_fo=k_fo,
                    theorem_bound=bound,
                )
            )
        return _WidthShardResult(
            samples=samples, unobservable=unobservable, stats=self.stats
        )

    # ------------------------------------------------------------------
    def _signature(self, fault: Fault) -> Optional[Signature]:
        if fault.net in self._net_sigs:
            return self._net_sigs[fault.net]
        tfo = self.network.transitive_fanout([fault.net])
        observing = tuple(
            out for out in self.network.outputs if out in tfo
        )
        signature: Optional[Signature] = None
        if observing:
            relevant = frozenset(self.network.transitive_fanin(tfo))
            signature = (observing, relevant)
        self._net_sigs[fault.net] = signature
        return signature

    def _analyse(
        self, signature: Signature
    ) -> tuple[int, int, Optional[int], Optional[int]]:
        """One arrangement for one distinct sub-circuit."""
        observing, relevant = signature
        seeds: list[list[str]] = []
        if self.mode == "warm":
            seeds = [self._warm_seed_order(observing, relevant)]

        start = time.perf_counter()
        sub = self.network.subnetwork(
            set(relevant),
            outputs=list(observing),
            name=f"{self.network.name}.sub({','.join(observing)})",
        )
        graph = circuit_hypergraph(sub)
        candidates = [dfs_cone_ordering(sub)]
        if self.mode == "warm":
            vertex_set = set(graph.vertices)
            restricted = [
                [net for net in order if net in vertex_set] for order in seeds
            ]
            result = warm_min_cut_arrangement(
                graph,
                restricted,
                seed=self.seed,
                leaf_size=self.leaf_size,
                candidate_orders=candidates,
            )
            width = result.cutwidth
            if any(len(order) == graph.num_vertices for order in restricted):
                self.stats.warm_starts += 1
            else:
                self.stats.cold_runs += 1
        else:
            # Parity path: the exact historical estimator call, so the
            # deduplicated sweep is bit-identical to the old per-fault loop.
            width = estimate_cutwidth(
                graph,
                seed=self.seed,
                leaf_size=self.leaf_size,
                candidate_orders=candidates,
            )
            self.stats.cold_runs += 1
        self.stats.arrange_time += time.perf_counter() - start

        k_fo: Optional[int] = None
        bound: Optional[int] = None
        if self.bounds:
            k_fo = max(1, sub.max_fanout())
            bound = theorem_4_1_bound(graph.num_vertices, k_fo, width)
        return graph.num_vertices, width, k_fo, bound

    def _warm_seed_order(
        self, observing: tuple[str, ...], relevant: frozenset[str]
    ) -> list[str]:
        """Seed order from the enclosing cones' cached arrangements.

        Concatenates the observing cones' arrangements (first occurrence
        wins), keeping only relevant nets; relevant nets outside every
        observing cone — dead fanout branches — go first, matching the
        DFS-cone idiom of placing out-of-cone nets up front.
        """
        start = time.perf_counter()
        merged: dict[str, None] = {}
        for output in observing:
            order = self._cone_orders.get(output)
            if order is None:
                self.stats.cone_cache_misses += 1
                cone = self.network.output_cone(output)
                order = mla_ordering(cone, seed=self.seed).order
                self._cone_orders[output] = order
            else:
                self.stats.cone_cache_hits += 1
            for net in order:
                merged[net] = None
        self.stats.cone_time += time.perf_counter() - start
        outside = [
            net
            for net in self.network.topological_order()
            if net in relevant and net not in merged
        ]
        return outside + [net for net in merged if net in relevant]


def _run_width_shard(job: _WidthShardJob) -> _WidthShardResult:
    """Worker entry point: analyse one shard with per-process caches."""
    analyzer = _ShardAnalyzer(
        job.network,
        seed=job.seed,
        mode=job.mode,
        leaf_size=job.leaf_size,
        bounds=job.bounds,
    )
    return analyzer.run(job.faults)


def _split_width_shard(job: _WidthShardJob) -> list[_WidthShardJob]:
    """Halve a failing shard (canonical fault order preserved)."""
    if len(job.faults) < 2:
        return [job]
    mid = len(job.faults) // 2
    return [
        replace(job, faults=job.faults[:mid]),
        replace(job, faults=job.faults[mid:]),
    ]


class WidthAnalysisPipeline:
    """Deduplicated, optionally parallel Figure-8 width sweeps.

    Args:
        network: the (decomposed) circuit.
        seed: MLA seed for every arrangement.
        mode: ``"cold"`` (default) reproduces the historical estimator
            bit-for-bit per distinct sub-circuit; ``"warm"`` seeds each
            arrangement from cached enclosing-cone orders and skips the
            recursive bisection.
        workers: worker process count; ``1`` (or platforms without
            ``fork``) runs in-process.
        leaf_size: MLA exact-leaf size (forwarded to the estimator).
        bounds: also evaluate each sample's Theorem 4.1 bound
            ``n · 2^(2·k_fo·W)`` with the sub-circuit's own k_fo.
        shards_per_worker: shard granularity multiplier.
        shard_timeout: per-shard wall-clock budget in seconds.
        deadline: run-level wall-clock budget in seconds; faults not
            analysed in time are reported in ``report.skipped``.
    """

    def __init__(
        self,
        network: Network,
        *,
        seed: int = 0,
        mode: str = "cold",
        workers: int = 1,
        leaf_size: int = 12,
        bounds: bool = False,
        shards_per_worker: int = 2,
        shard_timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        if mode not in ("cold", "warm"):
            raise ValueError(f"mode must be 'cold' or 'warm', got {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shards_per_worker < 1:
            raise ValueError("shards_per_worker must be >= 1")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 seconds")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        self.network = network
        self.seed = seed
        self.mode = mode
        self.workers = workers
        self.leaf_size = leaf_size
        self.bounds = bounds
        self.shards_per_worker = shards_per_worker
        self.shard_timeout = shard_timeout
        self.deadline = deadline
        #: Worker entry point; tests monkeypatch this with chaos
        #: variants (crashing / hanging shards) to exercise supervision.
        self._shard_runner = _run_width_shard

    @staticmethod
    def can_fork() -> bool:
        """True if this platform supports fork-based worker pools."""
        return "fork" in multiprocessing.get_all_start_methods()

    def run(
        self,
        faults: Optional[Sequence[Fault]] = None,
        *,
        max_faults: Optional[int] = None,
    ) -> WidthStudyReport:
        """Sweep the fault list; every requested fault is accounted for.

        Args:
            faults: fault list; collapsed list by default.  Always
                canonicalised to (net, value) order first, so results do
                not depend on caller ordering.
            max_faults: optional deterministic subsample cap (see
                :func:`repro.core.bounds.subsample_faults`).

        Returns:
            A :class:`WidthStudyReport`; ``samples + unobservable +
            skipped`` partition the chosen fault list exactly.
        """
        wall_start = time.perf_counter()
        if faults is None:
            faults = collapse_faults(self.network)
        chosen = subsample_faults(faults, max_faults)
        deadline_at = (
            time.monotonic() + self.deadline
            if self.deadline is not None
            else None
        )

        num_shards = max(
            1, min(self.workers * self.shards_per_worker, len(chosen))
        )
        if num_shards > 1:
            from repro.atpg.parallel import shard_faults_by_cone

            shards = shard_faults_by_cone(self.network, chosen, num_shards)
        else:
            shards = [list(chosen)] if chosen else []
        jobs = [
            _WidthShardJob(
                network=self.network,
                faults=shard,
                seed=self.seed,
                mode=self.mode,
                leaf_size=self.leaf_size,
                bounds=self.bounds,
            )
            for shard in shards
        ]
        use_pool = self.workers > 1 and self.can_fork() and len(jobs) > 1
        supervisor = ShardSupervisor(
            self._shard_runner,
            split_job=_split_width_shard,
            workers=min(self.workers, max(1, len(jobs))),
            shard_timeout=self.shard_timeout,
            deadline_at=deadline_at,
            use_processes=use_pool,
            mark_degraded=(
                self.workers > 1 and len(jobs) > 1 and not use_pool
            ),
        )
        report = supervisor.run(jobs)
        return self._merge(chosen, report, len(jobs), use_pool, wall_start)

    # ------------------------------------------------------------------
    def _merge(
        self,
        chosen: list[Fault],
        report,
        num_shards: int,
        use_pool: bool,
        wall_start: float,
    ) -> WidthStudyReport:
        """Deterministic merge: canonical fault order, sharding-invariant.

        Each per-fault sample is a pure function of (network, signature,
        seed), so sorting the union of shard results by the canonical
        fault rank reproduces the sequential sweep bit-for-bit no matter
        how shards were packed, split, or retried.
        """
        merge_start = time.perf_counter()
        rank = {fault: index for index, fault in enumerate(chosen)}
        stats = WidthStudyStats()
        samples: list[FaultWidthSample] = []
        unobservable: list[Fault] = []
        for result in report.results:
            samples.extend(result.samples)
            unobservable.extend(result.unobservable)
            stats.merge(result.stats)
        samples.sort(key=lambda sample: rank[sample.fault])
        unobservable.sort(key=lambda fault: rank[fault])

        skipped: list[tuple[Fault, str]] = []
        for failed in report.failed:
            for fault in failed.job.faults:
                skipped.append((fault, failed.reason))
        skipped.sort(key=lambda pair: rank[pair[0]])

        stats.health.merge(report.health)
        reasons: dict[str, int] = {}
        for _, reason in skipped:
            reasons[reason] = reasons.get(reason, 0) + 1
        stats.health.abort_reasons = reasons
        stats.workers = self.workers if use_pool else 1
        stats.shards = num_shards
        stats.merge_time = time.perf_counter() - merge_start
        stats.wall_time = time.perf_counter() - wall_start
        return WidthStudyReport(
            circuit=self.network.name,
            mode=self.mode,
            seed=self.seed,
            faults=chosen,
            samples=samples,
            unobservable=unobservable,
            skipped=skipped,
            stats=stats,
        )
