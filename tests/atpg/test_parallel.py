"""Tests for the parallel batched ATPG engine.

The replay merge's headline property is *exact parity* on a backend
whose per-fault result does not depend on history (the cold DPLL
backend): ``ParallelAtpgEngine`` must reproduce the sequential engine's
records bit-for-bit (statuses, tests, drop attributions) for any worker
count, because such an ATPG-SAT call depends only on (circuit, fault)
and the coordinator replays the canonical fault order when merging
shards.

On incremental CDCL (the default) each worker's persistent solver
state depends on its shard, so test *vectors* may differ from a
sequential run; coverage, UNSAT verdicts, and the covered fault set
must still match exactly (``TestIncrementalParallel``).

Parity tests pass ``min_faults_per_shard=1`` so the small test circuits
actually split across shards instead of collapsing to one.
"""

import pytest

from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.faults import collapse_faults
from repro.atpg.parallel import ParallelAtpgEngine, shard_faults_by_cone
from repro.circuits.decompose import tech_decompose
from repro.gen.benchmarks import c17
from tests.conftest import make_random_network


def _essence(summary):
    """The platform-independent content of a summary's records."""
    return [(r.fault, r.status, r.test) for r in summary.records]


def _parity_circuits():
    return [
        tech_decompose(c17()),
        make_random_network(3, num_inputs=5, num_gates=14),
        make_random_network(11, num_inputs=4, num_gates=18),
    ]


def _dpll_parallel(net, workers):
    return ParallelAtpgEngine(
        net, workers=workers, solver="dpll", min_faults_per_shard=1
    )


class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_sequential_exactly(self, workers):
        for net in _parity_circuits():
            seq = AtpgEngine(net, solver="dpll").run()
            par = _dpll_parallel(net, workers).run()
            assert _essence(par) == _essence(seq), net.name
            assert par.fault_coverage == seq.fault_coverage
            assert par.status_counts() == seq.status_counts()

    def test_matches_sequential_without_dropping(self):
        net = tech_decompose(c17())
        seq = AtpgEngine(net, solver="dpll").run(fault_dropping=False)
        par = _dpll_parallel(net, 2).run(fault_dropping=False)
        assert _essence(par) == _essence(seq)
        assert not par.by_status(FaultStatus.DROPPED)

    def test_explicit_fault_list(self):
        net = tech_decompose(c17())
        faults = collapse_faults(net)[:6]
        seq = AtpgEngine(net, solver="dpll").run(faults=faults)
        par = _dpll_parallel(net, 2).run(faults=faults)
        assert _essence(par) == _essence(seq)

    def test_in_process_fallback_matches_pool(self, monkeypatch):
        """Platforms without fork must produce identical results."""
        net = make_random_network(7, num_inputs=4, num_gates=12)
        pooled = ParallelAtpgEngine(
            net, workers=2, min_faults_per_shard=1
        ).run()
        monkeypatch.setattr(
            ParallelAtpgEngine, "can_fork", staticmethod(lambda: False)
        )
        fallback = ParallelAtpgEngine(
            net, workers=2, min_faults_per_shard=1
        ).run()
        assert _essence(fallback) == _essence(pooled)
        assert fallback.stats.workers == 1  # recorded as in-process


class TestIncrementalParallel:
    """Default-mode parallel runs: semantic (not bit-exact) parity."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_coverage_and_verdicts_match_sequential(self, workers):
        for net in _parity_circuits():
            seq = AtpgEngine(net).run()
            par = ParallelAtpgEngine(
                net, workers=workers, min_faults_per_shard=1
            ).run()
            assert par.fault_coverage == seq.fault_coverage, net.name
            untestable = lambda s: {
                r.fault for r in s.by_status(FaultStatus.UNTESTABLE)
            }
            covered = lambda s: {
                r.fault
                for r in s.records
                if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
            }
            assert untestable(par) == untestable(seq), net.name
            assert covered(par) == covered(seq), net.name

    def test_parallel_tests_are_valid(self):
        from repro.atpg.fault_sim import fault_simulate

        net = make_random_network(6, num_inputs=5, num_gates=16)
        par = ParallelAtpgEngine(
            net, workers=2, min_faults_per_shard=1
        ).run()
        for record in par.records:
            if record.test is not None:
                outcome = fault_simulate(net, [record.fault], [record.test])
                assert record.fault in outcome.detected

    def test_small_fault_lists_collapse_to_one_shard(self):
        net = tech_decompose(c17())
        faults = collapse_faults(net)[:8]
        summary = ParallelAtpgEngine(net, workers=4).run(faults=faults)
        assert summary.stats.shards == 1  # min_faults_per_shard=32 default

    def test_worker_stats_recorded(self):
        net = tech_decompose(c17())
        summary = ParallelAtpgEngine(
            net, workers=2, min_faults_per_shard=1
        ).run()
        assert summary.worker_stats
        assert len(summary.worker_stats) == summary.stats.shards
        assert all(ws.sat_calls >= 0 for ws in summary.worker_stats)
        assert sum(ws.sat_calls for ws in summary.worker_stats) > 0


class TestStats:
    def test_parallel_counters_populated(self):
        net = tech_decompose(c17())
        summary = ParallelAtpgEngine(net, workers=2).run()
        stats = summary.stats
        assert stats.shards >= 1
        assert stats.sat_calls > 0
        assert stats.cache_hits + stats.cache_misses > 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert stats.wall_time > 0

    def test_deterministic_across_runs(self):
        net = make_random_network(5, num_inputs=4, num_gates=12)
        first = ParallelAtpgEngine(net, workers=3).run()
        second = ParallelAtpgEngine(net, workers=3).run()
        assert _essence(first) == _essence(second)


class TestSharding:
    def test_shards_partition_the_fault_list(self):
        net = tech_decompose(c17())
        faults = collapse_faults(net)
        shards = shard_faults_by_cone(net, faults, 3)
        flattened = [fault for shard in shards for fault in shard]
        assert sorted(flattened) == sorted(faults)
        assert len(shards) <= 3
        assert all(shard for shard in shards)

    def test_single_shard_is_whole_list_in_order(self):
        net = tech_decompose(c17())
        faults = collapse_faults(net)
        (shard,) = shard_faults_by_cone(net, faults, 1)
        assert shard == faults

    def test_cone_groups_stay_together(self):
        """Both polarities of a stem land in the same shard."""
        net = make_random_network(9, num_inputs=4, num_gates=12)
        faults = collapse_faults(net)
        shards = shard_faults_by_cone(net, faults, 4)
        location = {}
        for index, shard in enumerate(shards):
            for fault in shard:
                location[fault] = index
        for fault in faults:
            sibling = type(fault)(fault.net, 1 - fault.value)
            if sibling in location:
                assert location[sibling] == location[fault]

    def test_sharding_is_deterministic(self):
        net = make_random_network(2, num_inputs=5, num_gates=16)
        faults = collapse_faults(net)
        assert shard_faults_by_cone(net, faults, 4) == shard_faults_by_cone(
            net, faults, 4
        )

    def test_invalid_shard_count(self):
        net = tech_decompose(c17())
        with pytest.raises(ValueError):
            shard_faults_by_cone(net, collapse_faults(net), 0)


class TestValidation:
    def test_invalid_workers(self):
        net = tech_decompose(c17())
        with pytest.raises(ValueError):
            ParallelAtpgEngine(net, workers=0)

    def test_tests_detect_their_faults(self):
        net = make_random_network(4, num_inputs=4, num_gates=10)
        summary = ParallelAtpgEngine(net, workers=2).run()
        from repro.atpg.fault_sim import fault_simulate

        for record in summary.by_status(FaultStatus.TESTED):
            outcome = fault_simulate(net, [record.fault], [record.test])
            assert record.fault in outcome.detected
        for record in summary.by_status(FaultStatus.DROPPED):
            outcome = fault_simulate(net, [record.fault], [record.test])
            assert record.fault in outcome.detected
