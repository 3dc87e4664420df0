"""The service-mix workload: ``repro serve`` under one closed-loop client.

Set-up computes the cache-only netlists on a first server, stops it,
removes ``jobs/`` (keeping ``cas/``) and restarts, the way
``tools/service_smoke.py`` does.  The measured loop then cycles: one
cold submission (a new netlist), one dedupe submission (the netlist that
finished in the previous cycle) and, every third cycle, one cache-only
submission (a netlist whose result exists only in ``cas/``).  Each
submission is timed from POST start until the result document is in
hand: POST, follow ``/jobs/<id>/events`` to its end record, GET the job.
Every result is checked after the loop, outside the timed region.  Peak
RSS is that of the server processes and their runners, not the client's.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from statistics import median

from common import SRC, peak_rss_mb, Report
from engines import Outcome
from verify import CheckResult, check_records

from repro.io.bench import loads_bench

STEP_TIMEOUT = 120.0
#: One cache-only submission every this many cycles.
CACHE_EVERY = 3
#: Server starts whose time to ``serving on`` is measured (median kept).
SERVER_STARTS = 5
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, data_dir: Path, span_dir: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(span_dir)]
        cmd += ["serve", "--data-dir", str(data_dir), "--port", "0"]
        self.log = open(data_dir.parent / f"{data_dir.name}.log", "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=env
        )
        line = self.process.stdout.readline().decode(errors="replace")
        self.setup_s = time.perf_counter() - start
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=body, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=STEP_TIMEOUT) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, {"error": exc.read().decode(errors="replace")}

    def follow(self, job_id: str) -> float:
        """Read the event stream to its end record; returns the wall
        clock when the end record arrived."""
        url = f"http://127.0.0.1:{self.port}/jobs/{job_id}/events"
        with urllib.request.urlopen(url, timeout=STEP_TIMEOUT) as resp:
            for raw in resp:
                if json.loads(raw).get("type") == "end":
                    break
        return time.time()

    def stop(self) -> None:
        """SIGTERM, wait for the drain, reap the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STEP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.log.close()


def submit(server: Server, netlist) -> dict:
    """One closed-loop submission; returns what the client saw."""
    start = time.perf_counter()
    status, doc = server.request("POST", "/jobs", {"netlist": netlist.text})
    if status not in (200, 202):
        return {"ok": False, "error": f"POST -> {status}: {doc}"}
    job_id = doc["job"]["id"]
    seen_at = server.follow(job_id)
    status, view = server.request("GET", f"/jobs/{job_id}")
    latency = time.perf_counter() - start
    if status != 200 or view.get("job", {}).get("state") != "done":
        return {"ok": False, "error": f"job {job_id}: {status} {view.get('job', {}).get('state')}"}
    meta = view["job"]
    return {
        "ok": True, "latency": latency, "job": meta, "result": view["result"],
        "notify": seen_at - (meta.get("finished_at") or seen_at),
    }


def _check_result(netlist, outcome, expected_digest=None, checked=None) -> CheckResult:
    """Check one submission; any wrong verdict fails the submission."""
    result = CheckResult(attempted=1)
    if not outcome["ok"]:
        result.fail(1, f"{netlist.name}: {outcome['error']}")
        return result
    doc = outcome["result"]
    network = loads_bench(netlist.text, name=netlist.name)
    faults = check_records(network, doc["records"], None, checked)
    if faults.failed:
        result.fail(1, f"{netlist.name}: " + "; ".join(faults.problems[:3]))
    elif expected_digest is not None and doc["verdict_digest"] != expected_digest:
        result.fail(1, f"{netlist.name}: hit digest differs from its cold run")
    return result


def _healthz(server: Server) -> dict:
    return server.request("GET", "/healthz")[1]


def _settled_sat_calls(server: Server, expected: int) -> int:
    """/healthz solver_sat_calls once the monitor has booked every job
    (it lags a job's DONE flip by a poll tick)."""
    deadline = time.monotonic() + 10.0
    while True:
        calls = _healthz(server)["totals"]["solver_sat_calls"]
        if calls >= expected or time.monotonic() > deadline:
            return calls
        time.sleep(0.05)


def run_service(rounds, cached, seconds, data_dir: Path,
                span_dir: Path | None = None) -> Outcome:
    """Run the loop; with ``span_dir`` the measured server is traced."""
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    check = CheckResult()
    starts = []

    # -- set-up: results that exist only in cas/ ---------------------
    checked: set = set()  # detected (fault, vector) pairs already proven
    server = Server(data_dir)
    starts.append(server.setup_s)
    cache_digest = {}
    try:
        for netlist in cached:
            outcome = submit(server, netlist)
            check.add(_check_result(netlist, outcome, checked=checked))
            if outcome["ok"]:
                cache_digest[netlist.name] = outcome["result"]["verdict_digest"]
    finally:
        server.stop()
    shutil.rmtree(data_dir / "jobs")
    for _ in range(SERVER_STARTS - 2):
        server = Server(data_dir)
        starts.append(server.setup_s)
        server.stop()

    # -- the measured closed loop; checks run after it ---------------
    server = Server(data_dir, span_dir)
    starts.append(server.setup_s)
    submissions = []  # (kind, netlist, what the client saw, expected digest)
    finished = []  # (netlist, digest) of cold jobs done in this run
    cycle_walls = []
    loop_start = time.perf_counter()
    try:
        cycle = 0
        cold = [netlist for one_round in rounds for netlist in one_round]
        per_round = len(rounds[0])
        while cycle < len(cold):
            if cycle and cycle % per_round == 0:
                # Whole rounds only: stop before one that would overrun.
                elapsed = time.perf_counter() - loop_start
                if elapsed * (1 + per_round / cycle) > seconds:
                    break
            plan = [("cold", cold[cycle], None)]
            if finished:
                # The previous cycle's netlist: every cold size is deduped
                # once, so the mix of work does not depend on chance.
                netlist, digest = finished[-1]
                plan.append(("dedupe", netlist, digest))
            if cycle % CACHE_EVERY == 0 and cycle // CACHE_EVERY < len(cached):
                netlist = cached[cycle // CACHE_EVERY]
                plan.append(("cache", netlist, cache_digest.get(netlist.name)))
            cycle_start = time.perf_counter()
            for kind, netlist, digest in plan:
                outcome = submit(server, netlist)
                submissions.append((kind, netlist, outcome, digest))
                if kind == "cold" and outcome["ok"]:
                    finished.append((netlist, outcome["result"]["verdict_digest"]))
            cycle_walls.append(time.perf_counter() - cycle_start)
            cycle += 1
        loop_wall = time.perf_counter() - loop_start
        cold_sat_calls = sum(outcome["result"]["stats"]["sat_calls"]
                             for kind, _, outcome, _ in submissions
                             if kind == "cold" and outcome["ok"])
        sat_calls = _settled_sat_calls(server, cold_sat_calls)
        health = _healthz(server)
    finally:
        server.stop()
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    shutil.rmtree(data_dir, ignore_errors=True)

    samples = {"cold": [], "dedupe": [], "cache": []}
    runner = {"engine": [], "solve": [], "other": [], "queue": [], "notify": []}
    faults_delivered = 0
    digests = []
    for kind, netlist, outcome, digest in submissions:
        check.add(_check_result(netlist, outcome, digest, checked))
        if not outcome["ok"]:
            continue
        samples[kind].append(outcome["latency"])
        faults_delivered += outcome["result"]["faults"]
        meta, stats = outcome["job"], outcome["result"]["stats"]
        if kind == "cold":
            digests.append((netlist.name, outcome["result"]["verdict_digest"]))
            run_s = meta["finished_at"] - meta["started_at"]
            runner["engine"].append(stats["wall_time"])
            runner["solve"].append(stats["stage_times"]["solve"])
            runner["other"].append(run_s - stats["wall_time"])
            runner["queue"].append(meta["started_at"] - meta["submitted_at"])
            runner["notify"].append(outcome["notify"])
        elif kind == "cache" and not meta.get("cache_hit"):
            check.fail(1, f"{netlist.name}: cache-only submission not served from cas/")
    if sat_calls != cold_sat_calls:
        check.fail(1, f"/healthz solver_sat_calls {sat_calls} != cold runs' "
                      f"{cold_sat_calls}: a hit did solver work")
    if not check.failed:
        Path(f"{data_dir}.log").unlink(missing_ok=True)

    report = Report("service-mix")
    report.add("setup_s", median(starts), "s", len(starts))
    report.add("faults_per_s", faults_delivered / loop_wall, "faults/s", faults_delivered)
    report.latency("job_latency", samples["cold"])
    report.add("peak_rss_mb", rss, "MB", 1)
    report.latency("hit_latency", samples["dedupe"])
    report.latency("cache_latency", samples["cache"], tail=False)
    report.add("fail_rate", check.failed / max(1, check.attempted), "ratio", check.attempted)

    cache = health["cache"]
    med = lambda xs: median(xs) if xs else 0.0  # noqa: E731
    layer = {
        "service.server.notify_s": (med(runner["notify"]), "s"),
        "service.jobs.queue_s": (med(runner["queue"]), "s"),
        "service.runner.engine_s": (med(runner["engine"]), "s"),
        "service.runner.solve_s": (med(runner["solve"]), "s"),
        "service.runner.other_s": (med(runner["other"]), "s"),
        "service.store.hit_rate": (
            cache["hits"] / max(1, cache["hits"] + cache["misses"]), "ratio"),
        "sat.cdcl.sat_calls": (cold_sat_calls, "count"),
    }
    return Outcome(report, check, layer, cycle_walls, tuple(digests[:len(rounds[0])]))
