"""Tests for the deduplicated, supervised width-analysis pipeline.

The contracts under test:

* **Parity** — the pipeline's cold mode is bit-identical, per fault, to
  the historical from-scratch estimator loop (dedup is lossless).
* **Determinism** — the parallel sweep merges bit-identically to the
  sequential sweep (blocking: this is what makes ``workers=N`` safe to
  use for the paper's Figure-8 data), and subsampling does not depend on
  caller ordering.
* **Resilience** — worker crashes degrade or skip cleanly; every
  requested fault is accounted for in samples/unobservable/skipped.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro.atpg.faults import collapse_faults
from repro.atpg.miter import UnobservableFault, sub_circuit
from repro.atpg.supervisor import ABORT_SHARD_CRASHED
from repro.core.bounds import fault_width_samples, subsample_faults
from repro.core.hypergraph import circuit_hypergraph
from repro.core.mla import estimate_cutwidth
from repro.core.ordering import dfs_cone_ordering
from repro.core.width_pipeline import WidthAnalysisPipeline, _run_width_shard
from repro.gen.benchmarks import load_circuit
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit

_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def _reference_samples(network, faults, seed=0):
    """The historical per-fault loop: no dedup, no caching."""
    reference = []
    for fault in faults:
        try:
            sub = sub_circuit(network, fault)
        except UnobservableFault:
            continue
        graph = circuit_hypergraph(sub)
        width = estimate_cutwidth(
            graph, seed=seed, candidate_orders=[dfs_cone_ordering(sub)]
        )
        reference.append((fault, graph.num_vertices, width))
    return reference


@pytest.fixture(scope="module")
def multi_out_net():
    return random_circuit(
        RandomCircuitSpec(num_inputs=10, num_gates=70, num_outputs=4, seed=9)
    )


class TestDedupParity:
    def test_matches_reference_loop(self, multi_out_net):
        """Dedup is lossless: every sample equals the from-scratch one."""
        faults = collapse_faults(multi_out_net)
        reference = _reference_samples(multi_out_net, faults)
        samples = fault_width_samples(multi_out_net, seed=0)
        assert len(samples) == len(reference)
        for sample, (fault, size, width) in zip(samples, reference):
            assert sample.fault == fault
            assert sample.sub_circuit_size == size
            assert sample.cutwidth == width

    def test_memo_actually_hits(self, multi_out_net):
        report = WidthAnalysisPipeline(multi_out_net, seed=0).run()
        stats = report.stats
        assert stats.sub_cache_hits + stats.sub_cache_misses == len(
            report.samples
        )
        # Both stuck-at polarities of a net always share a signature,
        # and most faults here share one with others (0.945 measured).
        assert stats.sub_cache_hits > 0
        assert stats.cache_hit_rate > 0.5

    def test_report_partitions_fault_list(self, multi_out_net):
        report = WidthAnalysisPipeline(multi_out_net, seed=0).run()
        accounted = (
            [s.fault for s in report.samples]
            + report.unobservable
            + [fault for fault, _ in report.skipped]
        )
        assert sorted(accounted) == sorted(report.faults)


class TestParallelDeterminism:
    """Blocking: parallel sweeps must merge bit-identically."""

    @pytest.mark.skipif(not _CAN_FORK, reason="needs fork")
    def test_parallel_matches_sequential_on_suite_circuit(self):
        net = load_circuit("mcnc", "cmp8")
        sequential = WidthAnalysisPipeline(net, seed=0).run()
        parallel = WidthAnalysisPipeline(net, seed=0, workers=2).run()
        assert parallel.samples == sequential.samples
        assert parallel.unobservable == sequential.unobservable
        assert parallel.skipped == sequential.skipped
        assert parallel.stats.workers == 2
        assert parallel.stats.health.clean, parallel.stats.health.as_dict()

    @pytest.mark.skipif(not _CAN_FORK, reason="needs fork")
    def test_shard_count_does_not_matter(self, multi_out_net):
        sequential = WidthAnalysisPipeline(multi_out_net, seed=0).run()
        sharded = WidthAnalysisPipeline(
            multi_out_net, seed=0, workers=2, shards_per_worker=4
        ).run()
        assert sharded.samples == sequential.samples

    def test_subsample_is_caller_order_insensitive(self, multi_out_net):
        faults = collapse_faults(multi_out_net)
        shuffled = list(faults)
        random.Random(3).shuffle(shuffled)
        assert subsample_faults(shuffled, 11) == subsample_faults(faults, 11)
        a = fault_width_samples(multi_out_net, faults=shuffled, max_faults=11)
        b = fault_width_samples(
            multi_out_net, faults=list(faults), max_faults=11
        )
        assert a == b
        assert len(a) <= 11

    def test_chosen_faults_exposed(self, multi_out_net):
        report = WidthAnalysisPipeline(multi_out_net, seed=0).run(
            max_faults=7
        )
        assert len(report.faults) == 7
        assert report.faults == sorted(report.faults)


class TestBoundsWiring:
    def test_theorem_bound_per_sample(self, multi_out_net):
        report = WidthAnalysisPipeline(multi_out_net, seed=0, bounds=True).run(
            max_faults=6
        )
        assert report.samples
        for sample in report.samples:
            assert sample.k_fo is not None and sample.k_fo >= 1
            assert sample.theorem_bound == sample.sub_circuit_size * (
                1 << (2 * sample.k_fo * sample.cutwidth)
            )

    def test_bounds_off_by_default(self, multi_out_net):
        report = WidthAnalysisPipeline(multi_out_net, seed=0).run(max_faults=4)
        assert all(s.theorem_bound is None for s in report.samples)


def _crash_in_child(job):
    """Chaos worker: dies in forked children, works in-process."""
    if os.environ.get("_WIDTH_TEST_PARENT_PID") == str(os.getpid()):
        return _run_width_shard(job)
    os._exit(13)


def _always_fail(job):
    raise ValueError("poisoned shard")


@pytest.mark.skipif(not _CAN_FORK, reason="needs fork")
class TestResilience:
    def test_crashing_workers_degrade_to_correct_results(
        self, multi_out_net, monkeypatch
    ):
        monkeypatch.setenv("_WIDTH_TEST_PARENT_PID", str(os.getpid()))
        clean = WidthAnalysisPipeline(multi_out_net, seed=0).run()
        pipeline = WidthAnalysisPipeline(multi_out_net, seed=0, workers=2)
        pipeline._shard_runner = _crash_in_child
        report = pipeline.run()
        assert report.samples == clean.samples
        assert report.stats.health.crashed_shards > 0
        assert report.stats.health.degraded

    def test_unrunnable_shards_are_skipped_with_reason(self, multi_out_net):
        pipeline = WidthAnalysisPipeline(multi_out_net, seed=0, workers=2)
        pipeline._shard_runner = _always_fail
        report = pipeline.run()
        assert not report.samples
        skipped_faults = [fault for fault, _ in report.skipped]
        assert sorted(skipped_faults) == sorted(report.faults)
        assert all(
            reason == ABORT_SHARD_CRASHED for _, reason in report.skipped
        )
        assert (
            report.stats.health.abort_reasons[ABORT_SHARD_CRASHED]
            == len(report.skipped)
        )
