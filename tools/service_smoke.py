#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` (used by CI and humans).

Scenario, in order:

1. start the server on an ephemeral port with a fresh data dir;
2. submit a netlist, wait for DONE, record its verdict digest;
3. submit the *identical* netlist again and assert it is served without
   any new solver work (dedupe against the existing job, 0 additional
   ``solver_sat_calls`` at /healthz);
4. restart the server (clean SIGTERM) and submit the same netlist a
   third time: the job store was kept, so it still dedupes; then wipe
   the jobs directory but keep the CAS and assert the submission is
   served from the *certified result cache* with the same verdict
   digest (verdict classes, every vector witness-replayed on read) and
   still 0 solver calls;
5. chaos: submit a bigger netlist, ``kill -9`` the server mid-job (once
   the journal holds a few records), restart, and assert recovery
   re-adopts the job, finishes it, and the verdict digest equals an
   uninterrupted run's digest: the warm solvers may find other vectors
   after the resume, never another verdict class;
6. drain: SIGTERM the running server and assert exit code 0.

Exits non-zero on the first failed assertion.  On failure the data
directories are left in place and their paths printed, so CI can upload
them as artifacts.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STEP_TIMEOUT = 120.0


def log(message: str) -> None:
    print(f"[smoke] {message}", flush=True)


def fail(message: str) -> None:
    print(f"[smoke] FAIL: {message}", file=sys.stderr, flush=True)
    raise SystemExit(1)


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir: Path, log_path: Path, extra=()) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        self.log_path = log_path
        self.log_file = open(log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", str(data_dir), "--port", "0", *extra,
            ],
            stdout=self.log_file,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=REPO,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + STEP_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                fail(
                    f"server exited early ({self.process.returncode}); "
                    f"log: {self.log_path}"
                )
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
            time.sleep(0.05)
        fail(f"server never came up; log: {self.log_path}")
        raise AssertionError  # unreachable

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=body, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=STEP_TIMEOUT) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def wait_done(self, job_id: str) -> dict:
        deadline = time.monotonic() + STEP_TIMEOUT
        while time.monotonic() < deadline:
            status, doc = self.request("GET", f"/jobs/{job_id}")
            if status != 200:
                fail(f"GET /jobs/{job_id} -> {status}: {doc}")
            if doc["job"]["state"] == "failed":
                fail(f"job {job_id} failed: {doc['job'].get('error')}")
            if doc["job"]["state"] == "done":
                return doc
            time.sleep(0.1)
        fail(f"job {job_id} never finished; log: {self.log_path}")
        raise AssertionError  # unreachable

    def sigterm_and_wait(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=STEP_TIMEOUT)
        self.log_file.close()
        return code

    def kill9(self) -> None:
        self.process.kill()  # SIGKILL
        self.process.wait(timeout=STEP_TIMEOUT)
        self.log_file.close()


def make_netlists() -> tuple[str, str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro.gen.benchmarks import C17_BENCH
    from repro.gen.structured import array_multiplier
    from repro.io.bench import dumps_bench

    return C17_BENCH, dumps_bench(array_multiplier(8))


def main() -> int:
    small, big = make_netlists()
    root = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    data = root / "data"
    log(f"work dir {root}")

    # -- 1-2: first submission computes ---------------------------------
    server = Server(data, root / "server1.log")
    status, doc = server.request("POST", "/jobs", {"netlist": small})
    if status != 202:
        fail(f"first submit -> {status}: {doc}")
    job_id = doc["job"]["id"]
    result = server.wait_done(job_id)["result"]
    digest = result["verdict_digest"]
    # The monitor task books the runner's solver calls a beat after the
    # job's meta flips to done — poll until the totals settle.
    deadline = time.monotonic() + STEP_TIMEOUT
    while time.monotonic() < deadline:
        _, health = server.request("GET", "/healthz")
        calls_after_first = health["totals"]["solver_sat_calls"]
        if calls_after_first > 0:
            break
        time.sleep(0.1)
    else:
        fail("first run reported zero solver calls")
    log(f"first run done: {result['faults']} faults, digest {digest[:12]}")

    # -- 3: identical submission dedupes, zero new solver work ----------
    status, doc = server.request("POST", "/jobs", {"netlist": small})
    if status != 200 or not doc.get("deduped"):
        fail(f"duplicate submit not deduped: {status} {doc}")
    _, health = server.request("GET", "/healthz")
    if health["totals"]["solver_sat_calls"] != calls_after_first:
        fail("duplicate submission triggered solver work")
    log("duplicate submission deduped with 0 new solver calls")

    # -- 4: restart; then cache-only serve ------------------------------
    if server.sigterm_and_wait() != 0:
        fail("SIGTERM drain did not exit 0")
    server = Server(data, root / "server2.log")
    status, doc = server.request("POST", "/jobs", {"netlist": small})
    if status != 200:
        fail(f"post-restart duplicate not served: {status} {doc}")
    server.sigterm_and_wait()

    shutil.rmtree(data / "jobs")  # drop job history, keep the CAS
    server = Server(data, root / "server3.log")
    status, doc = server.request("POST", "/jobs", {"netlist": small})
    if status != 200 or not doc.get("cache_hit"):
        fail(f"CAS submission not a cache hit: {status} {doc}")
    cached = server.wait_done(doc["job"]["id"])["result"]
    if cached["verdict_digest"] != digest:
        fail("cached verdict digest differs from computed run")
    _, health = server.request("GET", "/healthz")
    if health["totals"]["solver_sat_calls"] != 0:
        fail("cache-served submission triggered solver work")
    if health["cache"]["hits"] != 1:
        fail(f"expected 1 CAS hit, saw {health['cache']}")
    server.sigterm_and_wait()
    log("restart + cache-only serve: same digest, 0 solver calls")

    # -- 5: chaos — kill -9 mid-job, recover, compare digests -----------
    ref_data = root / "ref-data"
    server = Server(ref_data, root / "server-ref.log")
    status, doc = server.request("POST", "/jobs", {"netlist": big})
    ref_digest = server.wait_done(doc["job"]["id"])["result"]["verdict_digest"]
    server.sigterm_and_wait()
    log(f"uninterrupted reference digest {ref_digest[:12]}")

    chaos_data = root / "chaos-data"
    server = Server(chaos_data, root / "server-chaos.log")
    status, doc = server.request("POST", "/jobs", {"netlist": big})
    if status != 202:
        fail(f"chaos submit -> {status}: {doc}")
    chaos_job = doc["job"]["id"]
    journal = chaos_data / "jobs" / chaos_job / "journal.jsonl"
    deadline = time.monotonic() + STEP_TIMEOUT
    while time.monotonic() < deadline:
        if journal.exists() and journal.read_bytes().count(b"\n") >= 5:
            break
        time.sleep(0.01)
    else:
        fail("journal never accumulated records to kill over")
    server.kill9()
    lines_at_kill = journal.read_bytes().count(b"\n")
    log(f"killed -9 mid-job with {lines_at_kill} journal lines")

    server = Server(chaos_data, root / "server-recover.log")
    _, health = server.request("GET", "/healthz")
    if health["totals"]["recovered"] != 1:
        fail(f"restart did not re-adopt the job: {health['totals']}")
    recovered = server.wait_done(chaos_job)["result"]
    if recovered["verdict_digest"] != ref_digest:
        fail("recovered digest differs from uninterrupted run")
    meta = server.request("GET", f"/jobs/{chaos_job}")[1]["job"]
    if meta["adoptions"] != 1:
        fail(f"expected adoptions=1, saw {meta['adoptions']}")
    log("recovery verdict digest equals the uninterrupted run's")

    # -- 6: drain exits 0 ------------------------------------------------
    if server.sigterm_and_wait() != 0:
        fail("final drain did not exit 0")
    log("drain exited 0")

    shutil.rmtree(root, ignore_errors=True)
    log("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
