"""Chaos tests: the running service subprocess is killed with SIGKILL
mid-job and must recover to the uninterrupted run's verdict digest
(every fault's verdict class), per the crash contract in
:mod:`repro.service.server`.

These spawn real ``repro serve`` subprocesses (ephemeral ports, temp
data dirs), so they are slower than the unit tests — each scenario is
a few seconds of real ATPG work.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.gen.structured import array_multiplier
from repro.io.bench import dumps_bench

REPO = Path(__file__).resolve().parent.parent.parent
TIMEOUT = 90.0


class ServerProcess:
    def __init__(
        self,
        data_dir: Path,
        log_path: Path,
        *extra_args: str,
        new_session: bool = False,
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(data_dir), "--port", "0",
                *extra_args,
            ],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=REPO,
            # new_session puts the server (and the runners it forks) in
            # their own process group so sigkill_group() can model a
            # whole-machine crash.
            start_new_session=new_session,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            assert self.process.poll() is None, (
                f"server died at startup: {self.log_path.read_text()}"
            )
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
            time.sleep(0.02)
        pytest.fail(f"server never bound: {self.log_path.read_text()}")

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def stream_events(self, job_id: str) -> list[dict]:
        """Consume /jobs/<id>/events to the end marker (chunked ndjson;
        http.client de-chunks transparently)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            resp = conn.getresponse()
            assert resp.status == 200
            events = []
            for line in resp.read().splitlines():
                if line.strip():
                    events.append(json.loads(line))
            return events
        finally:
            conn.close()

    def wait_done(self, job_id: str) -> dict:
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            status, doc = self.request("GET", f"/jobs/{job_id}")
            assert status == 200, doc
            state = doc["job"]["state"]
            assert state != "failed", doc["job"].get("error")
            if state == "done":
                return doc
            time.sleep(0.05)
        pytest.fail(f"job {job_id} never finished: {self.log_path.read_text()}")

    def sigterm(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=TIMEOUT)
        self._log.close()
        return code

    def sigkill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=TIMEOUT)
        self._log.close()

    def sigkill_group(self) -> None:
        """SIGKILL the server *and* its forked runners (requires
        ``new_session=True``): the closest userspace model of the whole
        node dying at once."""
        os.killpg(os.getpgid(self.process.pid), signal.SIGKILL)
        self.process.wait(timeout=TIMEOUT)
        self._log.close()


@pytest.fixture(scope="module")
def big_bench() -> str:
    return dumps_bench(array_multiplier(8))


@pytest.fixture(scope="module")
def reference_digest(big_bench, tmp_path_factory) -> str:
    """Verdict digest of an uninterrupted service run of the circuit."""
    root = tmp_path_factory.mktemp("ref")
    server = ServerProcess(root / "data", root / "server.log")
    try:
        status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
        assert status == 202, doc
        return server.wait_done(doc["job"]["id"])["result"]["verdict_digest"]
    finally:
        if server.process.poll() is None:
            server.sigterm()


class TestKill9Recovery:
    def test_kill9_midjob_recovers_bit_identical(
        self, big_bench, reference_digest, tmp_path
    ):
        data = tmp_path / "data"
        server = ServerProcess(data, tmp_path / "before.log")
        status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
        assert status == 202, doc
        job_id = doc["job"]["id"]

        # Let the journal accumulate a few settled faults, then murder
        # the server (SIGKILL: no handlers, no drain, no flush beyond
        # the per-record flush the journal already guarantees).
        journal = data / "jobs" / job_id / "journal.jsonl"
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_bytes().count(b"\n") >= 4:
                break
            time.sleep(0.005)
        else:
            pytest.fail("journal never grew")
        server.sigkill()

        restarted = ServerProcess(data, tmp_path / "after.log")
        try:
            _, health = restarted.request("GET", "/healthz")
            assert health["totals"]["recovered"] == 1
            doc = restarted.wait_done(job_id)
            assert doc["job"]["adoptions"] == 1
            assert doc["result"]["verdict_digest"] == reference_digest
            # The journal holds exactly one settled line per fault even
            # though two runs wrote it (resume does not re-journal).
            faults = {}
            for line in journal.read_bytes().splitlines():
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if payload.get("type") == "record":
                    key = (payload["net"], payload["value"])
                    faults[key] = faults.get(key, 0) + 1
            assert len(faults) == doc["result"]["faults"]
        finally:
            restarted.sigterm()

    def test_duplicate_served_from_cache_zero_solver_calls(
        self, big_bench, reference_digest, tmp_path
    ):
        data = tmp_path / "data"
        server = ServerProcess(data, tmp_path / "first.log")
        status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
        assert status == 202, doc
        server.wait_done(doc["job"]["id"])
        assert server.sigterm() == 0

        # New process, job history wiped, CAS kept: the duplicate must
        # be served entirely from the certified cache.
        import shutil

        shutil.rmtree(data / "jobs")
        server = ServerProcess(data, tmp_path / "second.log")
        try:
            status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
            assert status == 200, doc
            assert doc["cache_hit"]
            result = server.wait_done(doc["job"]["id"])["result"]
            assert result["verdict_digest"] == reference_digest
            _, health = server.request("GET", "/healthz")
            assert health["totals"]["solver_sat_calls"] == 0
            assert health["cache"]["hits"] == 1
            # The event stream replays the cached records.
            events = server.stream_events(doc["job"]["id"])
            assert events[-1]["type"] == "end"
            assert len(events) - 1 == result["faults"]
        finally:
            server.sigterm()


class TestEventStream:
    def test_events_follow_live_job_to_completion(self, big_bench, tmp_path):
        server = ServerProcess(tmp_path / "data", tmp_path / "server.log")
        try:
            status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
            assert status == 202, doc
            job_id = doc["job"]["id"]
            # Stream while the job runs: every settled fault arrives as
            # one record event, then the end marker.
            events = server.stream_events(job_id)
            assert events[-1]["type"] == "end"
            assert events[-1]["state"] == "done"
            records = [e for e in events if e.get("type") == "record"]
            result = server.wait_done(job_id)["result"]
            assert len(records) == result["faults"]
            keys = {(r["net"], r["value"]) for r in records}
            assert len(keys) == len(records)
        finally:
            server.sigterm()


class TestDrain:
    def test_sigterm_midjob_drains_and_resumes(self, big_bench, tmp_path):
        data = tmp_path / "data"
        server = ServerProcess(data, tmp_path / "drain.log")
        status, doc = server.request("POST", "/jobs", {"netlist": big_bench})
        assert status == 202, doc
        job_id = doc["job"]["id"]
        journal = data / "jobs" / job_id / "journal.jsonl"
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            if journal.exists() and journal.stat().st_size > 0:
                break
            time.sleep(0.005)
        # SIGTERM mid-job: exit 0, job persisted back to the queue
        # (terminal or queued, never stuck RUNNING).
        assert server.sigterm() == 0
        meta = json.loads((data / "jobs" / job_id / "job.json").read_text())
        assert meta["state"] in ("queued", "done")

        restarted = ServerProcess(data, tmp_path / "resumed.log")
        try:
            doc = restarted.wait_done(job_id)
            assert doc["result"]["fault_coverage"] == 1.0
        finally:
            restarted.sigterm()
