"""Two-node chaos: lease takeover over one shared store, zombie fencing.

The blocking acceptance scenario for the multi-node work: two real
``repro serve`` processes share one ``--data-dir``; the node that owns
a running job is SIGKILLed (whole process group — server *and* its
forked runner, the closest userspace model of the machine dying); the
survivor's scan loop steals the expired lease, re-adopts the job, and
finishes it with the ``verdict_digest`` (every fault's verdict class) of
an uninterrupted single-node run.  Separately, a zombie runner whose lease was stolen is
rejected at its next fenced write (exit code 2, journal untouched).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.gen.structured import array_multiplier
from repro.io.bench import dumps_bench
from repro.service.hashing import (
    canonical_circuit_hash,
    canonical_job_key,
    canonical_options,
)
from repro.service.jobs import (
    MAX_ADOPTIONS,
    JobState,
    JobStore,
    job_id_for_key,
)
from repro.service.lease import LeaseFile
from repro.service.runner import execute_job, spawn_runner
from repro.service.server import AtpgService, ServiceConfig
from repro.service.store import ResultStore

from tests.service.test_chaos import TIMEOUT, ServerProcess

#: Fast-takeover tuning for the two-node tests: short TTL, tight scan.
NODE_FLAGS = ("--lease-ttl", "1.5", "--scan-interval", "0.2")


@pytest.fixture(scope="module")
def big_bench() -> str:
    return dumps_bench(array_multiplier(8))


@pytest.fixture(scope="module")
def reference_digest(big_bench, tmp_path_factory) -> str:
    """Digest of an uninterrupted single-node run of the circuit."""
    root = tmp_path_factory.mktemp("ref")
    server = ServerProcess(root / "data", root / "server.log")
    try:
        status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
        assert status == 202, doc
        return server.wait_done(doc["job"]["id"])["result"]["verdict_digest"]
    finally:
        if server.process.poll() is None:
            server.sigterm()


def _wait_journal_lines(journal: Path, n: int) -> None:
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        if journal.exists() and journal.read_bytes().count(b"\n") >= n:
            return
        time.sleep(0.005)
    pytest.fail(f"journal {journal} never reached {n} lines")


class TestTwoNodeTakeover:
    def test_kill9_owner_survivor_steals_and_matches(
        self, big_bench, reference_digest, tmp_path
    ):
        data = tmp_path / "data"
        node_a = ServerProcess(
            data, tmp_path / "a.log",
            "--node-id", "node-a", *NODE_FLAGS,
            new_session=True,
        )
        node_b = ServerProcess(
            data, tmp_path / "b.log",
            "--node-id", "node-b", *NODE_FLAGS,
        )
        try:
            status, doc = node_a.request(
                "POST", "/jobs", {"netlist": big_bench}
            )
            assert status == 202, doc
            job_id = doc["job"]["id"]

            # Node A's runner makes real progress, then the whole node
            # (server + forked runner) dies without a syscall of notice.
            _wait_journal_lines(data / "jobs" / job_id / "journal.jsonl", 4)
            node_a.sigkill_group()

            # Node B's scan loop finds the expired lease, steals it
            # (token bump), re-adopts, resumes from A's journal, and
            # finishes with the same verdict classes.
            doc = node_b.wait_done(job_id)
            assert doc["result"]["verdict_digest"] == reference_digest
            assert doc["job"]["adoptions"] == 1
            # The fencing token moved past A's generation.
            assert doc["job"]["fence_token"] >= 2

            _, health = node_b.request("GET", "/healthz")
            assert health["node_id"] == "node-b"
            assert health["totals"]["lease_steals"] >= 1
            assert health["totals"]["completed"] >= 1

            # One settled line per fault even though two nodes wrote
            # the journal (resume does not re-journal settled faults).
            faults = {}
            journal = data / "jobs" / job_id / "journal.jsonl"
            for line in journal.read_bytes().splitlines():
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if payload.get("type") == "record":
                    key = (payload["net"], payload["value"])
                    faults[key] = faults.get(key, 0) + 1
            assert set(faults.values()) == {1}
            assert len(faults) == doc["result"]["faults"]
        finally:
            if node_a.process.poll() is None:
                node_a.sigkill_group()
            if node_b.process.poll() is None:
                node_b.sigterm()

    def test_peer_with_live_lease_is_left_alone(self, big_bench, tmp_path):
        """While node A heartbeats, node B must not steal its job."""
        data = tmp_path / "data"
        node_a = ServerProcess(
            data, tmp_path / "a.log", "--node-id", "node-a", *NODE_FLAGS,
        )
        node_b = ServerProcess(
            data, tmp_path / "b.log", "--node-id", "node-b", *NODE_FLAGS,
        )
        try:
            status, doc = node_a.request(
                "POST", "/jobs", {"netlist": big_bench}
            )
            assert status == 202, doc
            job_id = doc["job"]["id"]
            doc = node_a.wait_done(job_id)
            assert doc["job"]["adoptions"] == 0, (
                "job was stolen despite a live heartbeat"
            )
            _, health = node_b.request("GET", "/healthz")
            assert health["totals"]["lease_steals"] == 0
        finally:
            node_a.sigterm()
            node_b.sigterm()


def _make_job(root: Path, network) -> tuple[JobStore, str]:
    store = JobStore(root)
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
    return store, job_id


class TestZombieRunnerFencing:
    def test_stolen_runner_exits_2_and_writes_nothing(self, tmp_path):
        """A real forked runner whose lease is stolen mid-run dies on
        the fencing check (exit 2) and never touches the store again;
        the new owner finishes to the correct digest."""
        network = array_multiplier(6)
        store, job_id = _make_job(tmp_path, network)
        results = ResultStore(tmp_path / "cas")

        lease_a = LeaseFile(store.lease_path(job_id), "node-a", ttl_s=60.0)
        lease_a.acquire()
        store.set_state(
            job_id, JobState.RUNNING, fence=lease_a.guard(), fence_token=1
        )
        process = spawn_runner(store, job_id, fence=lease_a.guard())
        try:
            _wait_journal_lines(store.journal_path(job_id), 2)
            # Steal while the zombie is mid-run (its lease is *live* —
            # modelling a paused owner — so stealing is a same-host
            # takeover by the rightful arbitration: expire it first).
            payload = json.loads(store.lease_path(job_id).read_text())
            payload["deadline"] = 0.0
            store.lease_path(job_id).write_text(json.dumps(payload))
            lease_b = LeaseFile(
                store.lease_path(job_id), "node-b", ttl_s=60.0
            )
            granted = lease_b.acquire(token_floor=1)
            assert granted.token >= 2

            process.join(TIMEOUT)
            assert process.exitcode == 2, (
                "zombie runner must exit 2 on StaleTokenError"
            )
            journal_after_fence = store.journal_path(job_id).read_bytes()

            # The zombie must not have marked the job FAILED: the job
            # belongs to node B now.
            meta = store.load_meta(job_id)
            assert meta["state"] == JobState.RUNNING.value
            assert meta["error"] is None

            # Node B re-adopts and finishes; every journal line the
            # zombie settled carries the old token, B's lines the new.
            meta = store.set_state(
                job_id,
                JobState.QUEUED,
                fence=lease_b.guard(),
                adoptions=1,
                runner_pid=None,
                fence_token=granted.token,
            )
            doc = execute_job(store, results, job_id, fence=lease_b.guard())
            assert store.load_meta(job_id)["state"] == JobState.DONE.value
            tokens = set()
            for line in store.journal_path(job_id).read_bytes().splitlines():
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if payload.get("type") == "record":
                    tokens.add(payload["fence"])
            assert tokens == {1, granted.token}

            # And the zombie added nothing after it was fenced.
            assert store.journal_path(job_id).read_bytes().startswith(
                journal_after_fence
            )

            # Digest parity with an uninterrupted run of the same job.
            ref_root = tmp_path / "ref"
            ref_store, ref_id = _make_job(ref_root, network)
            ref_doc = execute_job(
                ref_store, ResultStore(ref_root / "cas"), ref_id
            )
            assert doc["verdict_digest"] == ref_doc["verdict_digest"]
        finally:
            if process.is_alive():
                process.kill()
                process.join()


class TestAdoptionExhaustion:
    def test_exhausted_job_fails_with_reason_and_counter(self, tmp_path):
        """A job past MAX_ADOPTIONS lands in FAILED with
        ``abort_reason="adoption_exhausted"`` and shows up in the
        service totals — never stalls in QUEUED."""
        network = array_multiplier(2)
        store, job_id = _make_job(tmp_path / "data", network)
        store.set_state(
            job_id,
            JobState.RUNNING,
            adoptions=MAX_ADOPTIONS,
            runner_pid=None,
        )
        service = AtpgService(
            ServiceConfig(data_dir=tmp_path / "data", node_id="survivor")
        )
        assert service.recover() == 0  # not re-queued: budget burned
        meta = service.store.load_meta(job_id)
        assert meta["state"] == JobState.FAILED.value
        assert meta["abort_reason"] == "adoption_exhausted"
        assert "re-adoptions" in meta["error"]
        assert service.totals.adoption_exhausted == 1
        health = service.healthz()
        assert health["totals"]["adoption_exhausted"] == 1
        assert health["node_id"] == "survivor"
