"""Lease protocol, fencing-token, and torn-file tests.

The torn-file classes extend the byte-granular crash contract of
``tests/atpg/test_torn_journal.py`` to the two other documents a
multi-node deployment reads after a crash: ``lease.json`` (truncated at
**every byte offset**, it must never crash a reader, never report a
live foreign lease it cannot prove, and never let the fencing token
regress) and ``job.json`` (truncated at every byte offset, the store
must treat it as absent rather than raise).
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
from pathlib import Path

import pytest

from repro.gen.benchmarks import c17
from repro.io.bench import dumps_bench
from repro.service.hashing import (
    canonical_circuit_hash,
    canonical_job_key,
    canonical_options,
)
from repro.service.jobs import JobState, JobStore, job_id_for_key
from repro.service.lease import (
    FenceGuard,
    LeaseFile,
    LeaseHeldError,
    LeaseLostError,
    StaleTokenError,
)
from repro.service.runner import execute_job
from repro.service.store import ResultStore


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _lease(path, owner, clock, ttl=10.0) -> LeaseFile:
    return LeaseFile(path, owner, ttl_s=ttl, clock=clock)


class TestProtocol:
    def test_fresh_acquire_grants_token_one(self, tmp_path):
        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock)
        granted = a.acquire()
        assert granted.token == 1
        assert granted.owner == "a"
        assert a.peek().token == 1

    def test_reacquire_by_same_owner_always_bumps(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        assert _lease(path, "a", clock).acquire().token == 1
        # Same node, lease still live: re-acquisition is allowed (it is
        # how a restarted node fences its own orphaned runner) and must
        # bump the token so that orphan's guard goes stale.
        assert _lease(path, "a", clock).acquire().token == 2

    def test_live_foreign_lease_refuses_acquisition(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        _lease(path, "a", clock).acquire()
        b = _lease(path, "b", clock)
        with pytest.raises(LeaseHeldError):
            b.acquire()
        assert b.held_by_other()

    def test_expired_lease_is_stolen_with_token_bump(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        a = _lease(path, "a", clock, ttl=5.0)
        granted_a = a.acquire()
        clock.advance(5.1)  # past the deadline: "a" stopped heartbeating
        b = _lease(path, "b", clock)
        assert not b.held_by_other()
        granted_b = b.acquire()
        assert granted_b.token == granted_a.token + 1
        assert b.peek().owner == "b"

    def test_renew_extends_deadline_keeps_token(self, tmp_path):
        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock, ttl=5.0)
        granted = a.acquire()
        clock.advance(3.0)
        renewed = a.renew()
        assert renewed.token == granted.token
        assert renewed.deadline == clock.now + 5.0

    def test_renew_after_steal_raises_lease_lost(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        a = _lease(path, "a", clock, ttl=5.0)
        a.acquire()
        clock.advance(5.1)
        _lease(path, "b", clock).acquire()
        with pytest.raises(LeaseLostError):
            a.renew()
        assert a.token is None  # a knows it lost

    def test_release_makes_lease_immediately_acquirable(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        a = _lease(path, "a", clock)
        granted = a.acquire()
        a.release()
        assert a.token is None
        b = _lease(path, "b", clock)
        assert not b.held_by_other()
        assert b.acquire().token == granted.token + 1

    def test_token_floor_is_respected(self, tmp_path):
        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock)
        # The floor models job.json's persisted fence_token surviving a
        # destroyed lease file: tokens must not regress below it.
        assert a.acquire(token_floor=41).token == 42

    def test_steal_floors_over_destroyed_lease_file(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        a = _lease(path, "a", clock, ttl=5.0)
        granted = a.acquire()
        path.unlink()  # disk corruption ate the lease entirely
        b = _lease(path, "b", clock)
        regranted = b.acquire(token_floor=granted.token)
        assert regranted.token > granted.token


class TestFencing:
    def test_guard_passes_while_owned(self, tmp_path):
        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock)
        a.acquire()
        a.guard().check()  # must not raise

    def test_guard_survives_renewal(self, tmp_path):
        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock)
        a.acquire()
        guard = a.guard()
        a.renew()
        guard.check()  # renewals keep the token: still the owner

    def test_guard_stale_after_steal(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        a = _lease(path, "a", clock, ttl=5.0)
        a.acquire()
        guard = a.guard()
        clock.advance(5.1)
        _lease(path, "b", clock).acquire()
        with pytest.raises(StaleTokenError):
            guard.check()

    def test_guard_refuses_missing_lease(self, tmp_path):
        guard = FenceGuard(tmp_path / "lease.json", "a", 1)
        with pytest.raises(StaleTokenError):
            guard.check()

    def test_guard_is_picklable(self, tmp_path):
        import pickle

        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock)
        a.acquire()
        guard = pickle.loads(pickle.dumps(a.guard()))
        guard.check()

    def test_zombie_writer_rejected_without_touching_job_state(
        self, tmp_path
    ):
        """The acceptance scenario, distilled: a runner whose lease was
        stolen must die on StaleTokenError at its next write and must
        NOT mark the job FAILED — the job belongs to the new owner."""
        store = JobStore(tmp_path)
        network = c17()
        options = canonical_options(None)
        key = canonical_job_key(network, options)
        job_id = job_id_for_key(key)
        store.create(
            job_id,
            job_key=key,
            circuit_hash=canonical_circuit_hash(network),
            circuit_name=network.name,
            netlist_text=dumps_bench(network),
            options=options,
            tenant="t",
        )
        clock = FakeClock()
        zombie_lease = _lease(store.lease_path(job_id), "old", clock, ttl=5.0)
        zombie_lease.acquire()
        zombie_guard = zombie_lease.guard()
        store.set_state(job_id, JobState.RUNNING, fence=zombie_guard)
        # The old node pauses (GC, SIGSTOP, VM migration); its lease
        # expires and a new node takes over.
        clock.advance(5.1)
        _lease(store.lease_path(job_id), "new", clock).acquire()
        # The zombie resumes and tries to run the job to completion:
        # the very first fenced write must reject it.
        results = ResultStore(tmp_path / "cas")
        with pytest.raises(StaleTokenError):
            execute_job(store, results, job_id, fence=zombie_guard)
        meta = store.load_meta(job_id)
        assert meta["state"] == JobState.RUNNING.value  # untouched
        assert meta["error"] is None
        assert (tmp_path / "cas").exists() is True
        assert list((tmp_path / "cas").glob("*.json")) == []

    def test_fenced_journal_lines_carry_token(self, tmp_path):
        from repro.atpg.checkpoint import CheckpointWriter
        from repro.atpg.parallel import ParallelAtpgEngine

        clock = FakeClock()
        a = _lease(tmp_path / "lease.json", "a", clock)
        granted = a.acquire()
        journal = tmp_path / "journal.jsonl"
        summary = ParallelAtpgEngine(c17(), workers=1, certify="witness").run(
            checkpoint_to=journal, checkpoint_fence=a.guard()
        )
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line
        ]
        records = [l for l in lines if l.get("type") == "record"]
        assert len(records) == len(summary.records)
        assert all(l["fence"] == granted.token for l in records)


def _acquire_contender(path: str, owner: str, queue) -> None:
    lease = LeaseFile(path, owner, ttl_s=30.0)
    try:
        granted = lease.acquire()
        queue.put((owner, granted.token))
    except LeaseHeldError:
        queue.put((owner, None))


class TestConcurrentArbitration:
    def test_exactly_one_winner_per_round(self, tmp_path):
        """N processes race one expired lease; exactly one may win."""
        path = str(tmp_path / "lease.json")
        ctx = multiprocessing.get_context("fork")
        last_token = 0
        for _round in range(6):
            queue = ctx.Queue()
            procs = [
                ctx.Process(
                    target=_acquire_contender, args=(path, f"n{i}", queue)
                )
                for i in range(6)
            ]
            for p in procs:
                p.start()
            for p in procs:
                p.join(timeout=30)
            outcomes = [queue.get(timeout=10) for _ in procs]
            winners = [(o, t) for o, t in outcomes if t is not None]
            assert len(winners) == 1, f"split brain: {winners}"
            token = winners[0][1]
            assert token > last_token, "token regressed across rounds"
            last_token = token
            # Expire the winner so the next round is a steal.
            payload = json.loads(Path(path).read_text())
            payload["deadline"] = 0.0
            Path(path).write_text(json.dumps(payload))


def _every_truncation(data: bytes):
    for offset in range(len(data) + 1):
        yield offset, data[:offset]


class TestTornLease:
    @pytest.fixture()
    def held(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "lease.json"
        a = _lease(path, "a", clock, ttl=5.0)
        granted = a.acquire()
        return path, granted, clock

    def test_every_truncation_never_crashes_reader(self, held):
        path, granted, clock = held
        data = path.read_bytes()
        b = _lease(path, "b", clock)
        for offset, prefix in _every_truncation(data):
            path.write_bytes(prefix)
            lease = b.peek()
            if offset == len(data):
                assert lease is not None and lease.token == granted.token
            elif lease is not None:
                # A parseable strict prefix of a JSON document does not
                # exist, but be explicit about the invariant we need:
                # never a live foreign verdict from torn bytes.
                assert lease.token <= granted.token
            assert isinstance(b.held_by_other(), bool)

    def test_every_truncation_keeps_token_monotonic(self, held, tmp_path):
        """Acquiring over any torn lease, with job.json's fence_token as
        the floor, always grants a strictly newer token."""
        path, granted, clock = held
        data = path.read_bytes()
        for offset, prefix in _every_truncation(data):
            work = tmp_path / f"at-{offset}" / "lease.json"
            work.parent.mkdir()
            work.write_bytes(prefix)
            b = LeaseFile(work, "b", ttl_s=5.0, clock=clock)
            if offset == len(data):
                # Intact file: a *live* foreign lease correctly refuses.
                with pytest.raises(LeaseHeldError):
                    b.acquire(token_floor=granted.token)
                continue
            regranted = b.acquire(token_floor=granted.token)
            assert regranted.token > granted.token, (
                f"token regressed at truncation offset {offset}"
            )

    def test_every_truncation_fences_the_old_guard(self, held):
        """A torn lease file must reject the old owner's writes: a
        writer that cannot prove ownership must not write."""
        path, granted, clock = held
        guard = FenceGuard(path, "a", granted.token)
        data = path.read_bytes()
        for offset, prefix in _every_truncation(data[:-1]):  # strict tears
            path.write_bytes(prefix)
            with pytest.raises(StaleTokenError):
                guard.check()
        path.write_bytes(data)
        guard.check()  # intact again: still the owner


class TestTornJobMeta:
    def test_every_truncation_loads_as_absent_never_raises(self, tmp_path):
        store = JobStore(tmp_path)
        network = c17()
        options = canonical_options(None)
        key = canonical_job_key(network, options)
        job_id = job_id_for_key(key)
        store.create(
            job_id,
            job_key=key,
            circuit_hash=canonical_circuit_hash(network),
            circuit_name=network.name,
            netlist_text=dumps_bench(network),
            options=options,
            tenant="t",
        )
        meta_path = store.meta_path(job_id)
        data = meta_path.read_bytes()
        reference = json.loads(data)
        for offset, prefix in _every_truncation(data):
            meta_path.write_bytes(prefix)
            meta = store.load_meta(job_id)
            if offset == len(data.rstrip()):
                # Only the trailing newline is torn off: the document
                # content is complete (same contract as a journal line
                # missing only its newline).
                assert meta == reference
            elif offset == len(data):
                assert meta == reference
            else:
                assert meta is None  # torn = absent, never an exception
            # The listing and recovery paths skip it without raising.
            listed = {m["id"] for m in store.list_jobs()}
            assert (job_id in listed) == (meta is not None)
            store.recover()
