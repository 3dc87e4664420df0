"""Chaos tests for the supervised shard-execution layer.

The contract under test: no matter what the workers do — crash, hang,
die repeatedly — :class:`ShardSupervisor` (and through it
``ParallelAtpgEngine.run``) terminates with an answer for every fault,
reports what happened in ``RunHealth``, and leaves no orphan processes.

Chaos worker functions are pid-aware where needed: a function meant to
simulate a *worker* crash must not fire when the supervisor runs it
in-process in degraded mode (``os._exit`` in the parent would take the
test runner down with it).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import pytest

from repro.atpg import supervisor
from repro.atpg.engine import (
    ABORT_DEADLINE,
    ABORT_SHARD_CRASHED,
    ABORT_SHARD_TIMEOUT,
    FaultStatus,
)
from repro.atpg.parallel import ParallelAtpgEngine, _run_shard
from repro.atpg.supervisor import ShardSupervisor
from tests.conftest import claim_marker, make_random_network, verdict_classes

pytestmark = [
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="supervisor chaos tests need fork",
    ),
    pytest.mark.usefixtures("small_shards"),
]


def _essence(summary):
    return [(r.fault, r.status, r.test) for r in summary.records]


def _engine(net, **kwargs):
    kwargs.setdefault("workers", 2)
    # Cold DPLL: its per-fault result does not depend on history, so a
    # retried shard reproduces the clean records, and splits and
    # degradation reproduce the clean verdict classes.
    kwargs.setdefault("solver", "dpll")
    return ParallelAtpgEngine(net, **kwargs)


@pytest.fixture
def net():
    return make_random_network(3, num_inputs=5, num_gates=14)


@pytest.fixture
def clean(net):
    return _engine(net).run()


def _crash_once(marker):
    """Worker fn: kill the first dispatched worker, then behave."""

    def runner(job, on_record=None):
        if claim_marker(marker):
            os._exit(13)
        return _run_shard(job, on_record=on_record)

    return runner


def _hang_once(marker, seconds=60.0):
    """Worker fn: hang the first dispatched worker, then behave."""

    def runner(job, on_record=None):
        if claim_marker(marker):
            time.sleep(seconds)
        return _run_shard(job, on_record=on_record)

    return runner


class TestEngineChaos:
    """ParallelAtpgEngine survives worker failures (acceptance tests)."""

    def test_killed_worker_recovers_and_matches(self, net, clean, tmp_path):
        engine = _engine(net)
        engine._shard_runner = _crash_once(tmp_path / "crashed")
        summary = engine.run()
        assert _essence(summary) == _essence(clean)
        assert summary.fault_coverage == clean.fault_coverage
        health = summary.stats.health
        assert health.crashed_shards == 1
        assert health.retries == 1
        assert not health.degraded

    def test_hung_shard_times_out_and_matches(self, net, clean, tmp_path):
        engine = _engine(net, shard_timeout=0.5)
        engine._shard_runner = _hang_once(tmp_path / "hung")
        summary = engine.run()
        assert _essence(summary) == _essence(clean)
        health = summary.stats.health
        assert health.timed_out_shards == 1
        assert health.retries == 1

    def test_dying_pool_degrades_to_in_process(self, net, clean):
        parent = os.getpid()

        def crash_in_child(job, on_record=None):
            if os.getpid() != parent:
                os._exit(13)
            return _run_shard(job, on_record=on_record)

        engine = _engine(net)
        engine._shard_runner = crash_in_child
        summary = engine.run()
        # Graceful degradation: the run still completes every fault.
        assert verdict_classes(summary) == verdict_classes(clean)
        health = summary.stats.health
        assert health.degraded
        assert health.crashed_shards >= 3

    def test_no_orphan_processes_after_chaos(self, net, tmp_path):
        engine = _engine(net, shard_timeout=0.5)
        engine._shard_runner = _hang_once(tmp_path / "hung")
        engine.run()
        assert multiprocessing.active_children() == []

    def test_deadline_zero_aborts_everything(self, net):
        summary = _engine(net, deadline=0.0).run()
        assert len(summary.records) == len(_engine(net).run().records)
        assert all(
            r.status is FaultStatus.ABORTED
            and r.abort_reason == ABORT_DEADLINE
            for r in summary.records
        )
        health = summary.stats.health
        assert health.deadline_hit
        assert health.abort_reasons == {ABORT_DEADLINE: len(summary.records)}

    def test_clean_run_has_clean_health(self, clean):
        assert clean.stats.health.clean


# ----------------------------------------------------------------------
# Supervisor-level chaos with synthetic jobs.
# ----------------------------------------------------------------------
@dataclass
class _Job:
    faults: list
    tag: str = ""


def _split(job: _Job) -> list[_Job]:
    if len(job.faults) < 2:
        return [job]
    mid = len(job.faults) // 2
    return [_Job(job.faults[:mid], job.tag), _Job(job.faults[mid:], job.tag)]


def _ok(job: _Job):
    return ("done", sorted(job.faults))


class TestShardSupervisor:
    def test_all_success(self):
        sup = ShardSupervisor(_ok, split_job=_split, workers=2)
        report = sup.run([_Job([1, 2]), _Job([3])])
        assert sorted(r[1] for r in report.results) == [[1, 2], [3]]
        assert not report.failed
        assert report.health.clean

    def test_poisoned_fault_is_isolated_by_splitting(self, monkeypatch):
        """A fault that always kills its worker ends up alone in a
        single-fault shard and aborted; every other fault completes."""

        def poisoned(job: _Job):
            if 3 in job.faults:
                os._exit(13)
            return _ok(job)

        monkeypatch.setattr(supervisor, "MAX_ATTEMPTS", 1)
        # Degraded mode would die too: never degrade.
        monkeypatch.setattr(supervisor, "MAX_CONSECUTIVE_FAILURES", 1_000_000)
        sup = ShardSupervisor(
            poisoned, fallback_fn=poisoned, split_job=_split, workers=2
        )
        report = sup.run([_Job([1, 2, 3, 4])])
        completed = sorted(f for r in report.results for f in r[1])
        assert completed == [1, 2, 4]
        assert len(report.failed) == 1
        failure = report.failed[0]
        assert failure.job.faults == [3]
        assert failure.reason == ABORT_SHARD_CRASHED
        assert report.health.shard_splits >= 1

    def test_timeout_reason_is_machine_readable(self, monkeypatch):
        def hang(job: _Job):
            time.sleep(60)

        monkeypatch.setattr(supervisor, "MAX_ATTEMPTS", 1)
        sup = ShardSupervisor(
            hang, split_job=None, workers=1, shard_timeout=0.3
        )
        report = sup.run([_Job([1])])
        assert len(report.failed) == 1
        assert report.failed[0].reason == ABORT_SHARD_TIMEOUT
        assert report.health.timed_out_shards == 1

    def test_in_process_exception_is_contained(self):
        def boom(job: _Job):
            raise RuntimeError("bad shard")

        sup = ShardSupervisor(boom, use_processes=False)
        report = sup.run([_Job([1]), _Job([2])])
        assert not report.results
        assert [f.reason for f in report.failed] == [ABORT_SHARD_CRASHED] * 2
        assert "bad shard" in report.failed[0].detail

    def test_deadline_reports_undispatched_jobs(self):
        sup = ShardSupervisor(
            _ok, workers=1, deadline_at=time.monotonic() - 1.0
        )
        report = sup.run([_Job([1]), _Job([2, 3])])
        assert not report.results
        assert {f.reason for f in report.failed} == {ABORT_DEADLINE}
        assert sorted(f for fail in report.failed for f in fail.job.faults) == [1, 2, 3]
        assert report.health.deadline_hit

    def test_exception_mid_run_leaves_no_orphans(self):
        """Interrupt-style teardown: an exception raised in the parent
        (here from the on_result hook) terminates workers, then
        propagates."""

        def slow_ok(job: _Job):
            time.sleep(0.1)
            return _ok(job)

        def explode(result):
            raise KeyboardInterrupt

        sup = ShardSupervisor(
            slow_ok, workers=2, on_result=explode
        )
        with pytest.raises(KeyboardInterrupt):
            sup.run([_Job([n]) for n in range(6)])
        assert multiprocessing.active_children() == []

    def test_mark_degraded_flag(self):
        sup = ShardSupervisor(
            _ok, use_processes=False, mark_degraded=True
        )
        report = sup.run([_Job([1])])
        assert report.health.degraded
        assert report.results


class TestRetryBackoff:
    """Failed shards are re-dispatched after jittered exponential
    backoff, with the chosen delays surfaced in RunHealth."""

    @staticmethod
    def _crash_once_fn(marker):
        def runner(job: _Job):
            if claim_marker(marker):
                os._exit(13)
            return _ok(job)

        return runner

    def test_delay_surfaced_and_actually_waited(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_BASE", 0.3)
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_CAP", 0.3)
        sup = ShardSupervisor(
            self._crash_once_fn(tmp_path / "crashed"), workers=1
        )
        start = time.monotonic()
        report = sup.run([_Job([1])])
        elapsed = time.monotonic() - start
        assert report.results
        delays = report.health.backoff_delays
        assert len(delays) == 1
        # Jitter scales the capped 0.3s delay into [0.15, 0.3].
        assert 0.15 <= delays[0] <= 0.3
        assert elapsed >= delays[0]
        assert report.health.retries == 1

    def test_delays_grow_exponentially(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashes"
        marker.write_text("")

        def crash_twice(job: _Job):
            crashes = len(marker.read_text())
            if crashes < 2:
                marker.write_text("x" * (crashes + 1))
                os._exit(13)
            return _ok(job)

        monkeypatch.setattr(supervisor, "MAX_ATTEMPTS", 3)
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_CAP", 10.0)
        sup = ShardSupervisor(crash_twice, workers=1)
        report = sup.run([_Job([1])])
        assert report.results
        delays = report.health.backoff_delays
        assert len(delays) == 2
        assert 0.025 <= delays[0] <= 0.05  # base * [0.5, 1.0]
        assert 0.05 <= delays[1] <= 0.10  # 2 * base * [0.5, 1.0]

    def test_zero_base_restores_immediate_retry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_BASE", 0.0)
        sup = ShardSupervisor(
            self._crash_once_fn(tmp_path / "crashed"), workers=1
        )
        report = sup.run([_Job([1])])
        assert report.results
        assert report.health.backoff_delays == [0.0]

    def test_two_supervisors_draw_identical_delays(self):
        def delays():
            sup = ShardSupervisor(_ok)
            return [sup._backoff_delay(n) for n in (1, 2, 3)]

        assert delays() == delays()

    def test_backoff_delays_survive_health_merge(self):
        from repro.atpg.supervisor import RunHealth

        a, b = RunHealth(backoff_delays=[0.1]), RunHealth(backoff_delays=[0.2])
        a.merge(b)
        assert a.backoff_delays == [0.1, 0.2]
        assert a.as_dict()["backoff_delays"] == [0.1, 0.2]
