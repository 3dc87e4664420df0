"""Unit tests for the service subsystem (hashing, cache, jobs, budgets,
admission) — everything in-process; the subprocess chaos scenarios live
in test_chaos.py."""

from __future__ import annotations

import asyncio
import copy
import json
import multiprocessing

import pytest

from repro.atpg.checkpoint import record_to_dict
from repro.atpg.engine import AtpgEngine
from repro.gen.benchmarks import C17_BENCH, c17
from repro.io.bench import dumps_bench, loads_bench
from repro.service import server as server_module
from repro.service.budgets import (
    AdmissionController,
    BackpressureConfig,
    TenantPolicy,
)
from repro.service.hashing import (
    RESULT_OPTIONS,
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
from repro.service.runner import execute_job, result_document
from repro.service.server import AtpgService, ServiceConfig, ServiceHttp
from repro.service.store import ResultStore, cacheable, verdict_digest


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
class TestHashing:
    def test_hash_invariant_under_presentation(self):
        net = c17()
        reordered = "\n".join(
            sorted(C17_BENCH.strip().splitlines(), reverse=True)
        )
        assert canonical_circuit_hash(net) == canonical_circuit_hash(
            loads_bench(reordered, name="other-name")
        )

    def test_hash_sensitive_to_structure(self):
        net = c17()
        text = C17_BENCH.replace("NAND(1, 3)", "NAND(2, 3)")
        assert canonical_circuit_hash(net) != canonical_circuit_hash(
            loads_bench(text)
        )

    def test_options_enter_job_key(self):
        net = c17()
        base = canonical_job_key(net, canonical_options(None))
        degraded = canonical_job_key(
            net, canonical_options({"max_conflicts": 4_000})
        )
        assert base != degraded

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown job option"):
            canonical_options({"frobnicate": True})

    def test_defaults_are_service_defaults(self):
        opts = canonical_options(None)
        assert opts == dict(RESULT_OPTIONS)
        assert set(opts) == {
            "solver",
            "max_conflicts",
            "fault_dropping",
            "certify",
            "drop_block_size",
        }
        assert opts["solver"] == "cdcl"
        assert opts["certify"] == "witness"


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def completed_doc():
    """A real completed c17 result document (computed once)."""
    import tempfile
    from pathlib import Path

    network = c17()
    root = Path(tempfile.mkdtemp(prefix="svc-store-"))
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
        tenant="default",
    )
    doc = execute_job(store, ResultStore(root / "cas"), job_id)
    return {"network": network, "key": key, "doc": doc}


class TestResultStore:
    def test_put_get_roundtrip_serves_verified(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put(completed_doc["key"], completed_doc["doc"])
        served = store.get(completed_doc["key"], completed_doc["network"])
        assert served is not None
        assert served["verdict_digest"] == completed_doc["doc"]["verdict_digest"]
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["evictions"] == 0
        assert stats["size_evictions"] == 0
        assert stats["max_bytes"] is None
        assert stats["current_bytes"] > 0

    def test_miss_on_absent_key(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32, completed_doc["network"]) is None
        assert store.stats()["misses"] == 1

    def test_tampered_verdict_evicted(self, completed_doc, tmp_path):
        """Flipping one cached test-vector bit must fail witness replay
        (after re-stamping the digest, so only the replay can catch it)."""
        from repro.atpg.certify import witness_ok
        from repro.atpg.faults import Fault

        store = ResultStore(tmp_path)
        doc = copy.deepcopy(completed_doc["doc"])
        # Find a single-bit corruption that genuinely defeats detection
        # (not every flip does — patterns over-specify some inputs).
        network = completed_doc["network"]
        victim = None
        for record in doc["records"]:
            if record["status"] != "tested" or not record["test"]:
                continue
            fault = Fault(record["net"], record["value"])
            for net in record["test"]:
                flipped = dict(record["test"], **{net: record["test"][net] ^ 1})
                if not witness_ok(network, fault, flipped):
                    record["test"] = flipped
                    victim = record
                    break
            if victim:
                break
        assert victim is not None, "no single-bit corruption broke detection"
        doc["verdict_digest"] = verdict_digest(doc["records"])
        store.put(completed_doc["key"], doc)
        assert store.get(completed_doc["key"], completed_doc["network"]) is None
        assert store.stats()["evictions"] == 1
        assert not store._path(completed_doc["key"]).exists()

    @pytest.mark.parametrize(
        "malformed", ("list", "string", "unknown net", "value 2", "float")
    )
    def test_malformed_cached_pattern_evicted(
        self, completed_doc, tmp_path, malformed
    ):
        """A cached ``test`` that is not an object of input nets to 0/1
        fails replay: the document is evicted and the read misses."""
        store = ResultStore(tmp_path)
        doc = copy.deepcopy(completed_doc["doc"])
        victim = next(r for r in doc["records"] if r["status"] == "tested")
        first = next(iter(victim["test"]))
        victim["test"] = {
            "list": list(victim["test"].values()),
            "string": "0101",
            "unknown net": dict(victim["test"], no_such_net=1),
            "value 2": dict(victim["test"], **{first: 2}),
            "float": dict(victim["test"], **{first: 1.0}),
        }[malformed]
        store.put(completed_doc["key"], doc)
        network = completed_doc["network"]
        assert store.get(completed_doc["key"], network) is None
        assert store.stats()["evictions"] == 1
        assert not store._path(completed_doc["key"]).exists()

    def test_digest_mismatch_evicted(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        store.put(completed_doc["key"], completed_doc["doc"])
        path = store._path(completed_doc["key"])
        raw = json.loads(path.read_text())
        raw["verdict_digest"] = "0" * 64
        path.write_text(json.dumps(raw))
        assert store.get(completed_doc["key"], completed_doc["network"]) is None
        assert store.stats()["evictions"] == 1

    def test_orchestration_aborts_not_cacheable(self, completed_doc, tmp_path):
        doc = copy.deepcopy(completed_doc["doc"])
        doc["records"][0].update(
            status="aborted", abort_reason="deadline_exceeded", test=None
        )
        assert not cacheable(doc)
        store = ResultStore(tmp_path)
        assert not store.put(completed_doc["key"], doc)
        assert not store._path(completed_doc["key"]).exists()

    def test_budget_aborts_are_not_cacheable(self, completed_doc, tmp_path):
        """Which faults exhaust a budget depends on the warm solvers'
        schedule, so a budget abort keeps a result out of the cache."""
        doc = copy.deepcopy(completed_doc["doc"])
        doc["records"][0].update(
            status="aborted", abort_reason="budget_exhausted", test=None,
            certified=None,
        )
        assert not cacheable(doc)
        store = ResultStore(tmp_path)
        assert not store.put(completed_doc["key"], doc)
        assert not store._path(completed_doc["key"]).exists()

    def test_budget_aborted_job_not_promoted(self, tmp_path):
        """A real run with budget aborts completes and dedupes through
        the job store, but never enters cas/."""
        from repro.circuits.decompose import tech_decompose
        from tests.conftest import make_random_network

        network = tech_decompose(
            make_random_network(13, num_inputs=5, num_gates=16)
        )
        text = dumps_bench(network)
        # Without certification no ladder rung re-solves the aborts.
        options = {"max_conflicts": 1, "certify": "off"}
        svc = AtpgService(ServiceConfig(data_dir=tmp_path))
        status, doc = svc.submit(text, options=options)
        assert status == 202
        job_id = doc["job"]["id"]
        result = execute_job(svc.store, svc.results, job_id)
        assert any(
            r["status"] == "aborted"
            and r["abort_reason"] == "budget_exhausted"
            for r in result["records"]
        )
        assert svc.store.load_meta(job_id)["state"] == JobState.DONE.value
        assert list(svc.results.root.glob("*.json")) == []
        status, again = svc.submit(text, options=options)
        assert status == 200 and again["deduped"]
        assert again["job"]["id"] == job_id
        assert svc.totals.cache_hits == 0

    def test_cache_hit_replays_every_vector(
        self, completed_doc, tmp_path, monkeypatch
    ):
        import repro.service.store as store_module

        replayed = []
        real = store_module.witness_ok

        def counting(network, fault, test):
            replayed.append(fault)
            return real(network, fault, test)

        monkeypatch.setattr(store_module, "witness_ok", counting)
        store = ResultStore(tmp_path)
        store.put(completed_doc["key"], completed_doc["doc"])
        assert store.get(completed_doc["key"], completed_doc["network"])
        detected = [
            r
            for r in completed_doc["doc"]["records"]
            if r["status"] in ("tested", "dropped")
        ]
        assert detected
        assert len(replayed) == len(detected)

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store._path("../../etc/passwd")


class TestSizeBoundedEviction:
    """LRU eviction of the CAS when ``max_bytes`` is set."""

    KEYS = ["aa", "bb", "cc"]

    def _filled_store(self, completed_doc, tmp_path, max_bytes):
        """A store holding all KEYS with strictly increasing mtimes.

        Filled unbounded so no eviction fires during setup, then
        re-opened with the budget (the directory is the only state;
        counters are per-process telemetry starting at zero).
        """
        import os

        unbounded = ResultStore(tmp_path)
        for index, key in enumerate(self.KEYS):
            assert unbounded.put(key, completed_doc["doc"])
            # Coarse-mtime filesystems would otherwise tie; pin a
            # deterministic recency order: aa oldest, cc newest.
            os.utime(unbounded._path(key), (1000.0 + index, 1000.0 + index))
        return ResultStore(tmp_path, max_bytes=max_bytes)

    def _doc_size(self, completed_doc, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        probe.put("aa", completed_doc["doc"])
        return probe._path("aa").stat().st_size

    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=-1)

    def test_unbounded_store_never_size_evicts(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        for key in self.KEYS:
            store.put(key, completed_doc["doc"])
        assert store.size_evictions == 0
        assert all(store._path(k).exists() for k in self.KEYS)

    def test_oldest_evicted_first(self, completed_doc, tmp_path):
        size = self._doc_size(completed_doc, tmp_path)
        store = self._filled_store(completed_doc, tmp_path, max_bytes=2 * size)
        # Budget fits two docs; a fourth promotion must evict aa (oldest).
        assert store.put("dd", completed_doc["doc"])
        assert not store._path("aa").exists()
        assert not store._path("bb").exists()
        assert store._path("cc").exists()
        assert store._path("dd").exists()
        assert store.size_evictions == 2
        assert store.current_bytes() <= 2 * size

    def test_just_written_doc_survives_tiny_budget(
        self, completed_doc, tmp_path
    ):
        # A budget smaller than one document: the promotion still lands
        # (keep= is exempt) and everything else is reclaimed.
        store = self._filled_store(completed_doc, tmp_path, max_bytes=1)
        assert store.put("dd", completed_doc["doc"])
        assert store._path("dd").exists()
        for key in self.KEYS:
            assert not store._path(key).exists()

    def test_served_read_refreshes_recency(self, completed_doc, tmp_path):
        size = self._doc_size(completed_doc, tmp_path)
        store = self._filled_store(completed_doc, tmp_path, max_bytes=2 * size)
        # Serving aa must move it to the MRU end: the next promotion
        # then reclaims bb (now the oldest) instead.
        assert store.get("aa", completed_doc["network"]) is not None
        assert store.put("dd", completed_doc["doc"])
        assert store._path("aa").exists()
        assert not store._path("bb").exists()
        assert not store._path("cc").exists()

    def test_stats_reflect_size_eviction(self, completed_doc, tmp_path):
        size = self._doc_size(completed_doc, tmp_path)
        store = self._filled_store(completed_doc, tmp_path, max_bytes=2 * size)
        assert store.stats()["current_bytes"] == 3 * size
        assert store.put("dd", completed_doc["doc"])
        stats = store.stats()
        assert stats["max_bytes"] == 2 * size
        assert stats["size_evictions"] == 2  # aa and bb reclaimed
        assert stats["evictions"] == 0  # no verification failures
        assert stats["current_bytes"] <= 2 * size
        # An evicted document reads as a plain miss, never an error.
        assert store.get("aa", completed_doc["network"]) is None
        assert store.stats()["misses"] == 1

    def test_service_config_wires_cache_budget(self, tmp_path):
        service = AtpgService(
            ServiceConfig(data_dir=tmp_path, cache_max_mb=0.25)
        )
        assert service.results.max_bytes == int(0.25 * 1024 * 1024)
        assert service.healthz()["cache"]["max_bytes"] == int(
            0.25 * 1024 * 1024
        )


# ----------------------------------------------------------------------
# job store lifecycle + recovery
# ----------------------------------------------------------------------
def _make_job(root, network=None) -> tuple[JobStore, str]:
    network = network or c17()
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
        tenant="default",
    )
    return store, job_id


#: Starts ``sleep 60`` as a stand-in orphan runner, prints its pid and
#: exits with the number of the signal that ended it (0 otherwise).
ORPHAN_WRAPPER = """
import subprocess, sys
child = subprocess.Popen(["sleep", "60"])
print(child.pid, flush=True)
sys.exit(max(0, -child.wait()))
"""


class TestJobStore:
    def test_running_jobs_readopted_queued_jobs_kept(self, tmp_path):
        store, job_id = _make_job(tmp_path)
        store.set_state(job_id, JobState.RUNNING, runner_pid=None)
        adopted = store.recover()
        assert [m["id"] for m in adopted] == [job_id]
        meta = store.load_meta(job_id)
        assert meta["state"] == JobState.QUEUED.value
        assert meta["adoptions"] == 1

    def test_terminal_jobs_not_readopted(self, tmp_path):
        store, job_id = _make_job(tmp_path)
        store.set_state(job_id, JobState.DONE)
        assert store.recover() == []

    def test_adoption_budget_exhaustion_fails_job(self, tmp_path):
        store, job_id = _make_job(tmp_path)
        store.set_state(
            job_id, JobState.RUNNING, adoptions=MAX_ADOPTIONS, runner_pid=None
        )
        assert store.recover() == []
        meta = store.load_meta(job_id)
        assert meta["state"] == JobState.FAILED.value
        assert "re-adoptions" in meta["error"]

    def test_orphan_runner_killed_on_recovery(self, tmp_path):
        import signal
        import subprocess
        import sys

        # The orphan runs under a wrapper that waits on it and exits with
        # the number of the signal that killed it.  Recovery's kill may
        # reap a child of this process before a Popen.poll() sees its
        # status, so the orphan must not be our child.
        wrapper = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_WRAPPER],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            orphan_pid = int(wrapper.stdout.readline())
            store, job_id = _make_job(tmp_path)
            store.set_state(job_id, JobState.RUNNING, runner_pid=orphan_pid)
            store.recover()
            assert wrapper.wait(timeout=10) == signal.SIGKILL
        finally:
            wrapper.kill()
            wrapper.wait()
            wrapper.stdout.close()

    def test_malformed_job_id_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        for bad in ("", "../x", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.job_dir(bad)


# ----------------------------------------------------------------------
# admission ladder
# ----------------------------------------------------------------------
class TestAdmission:
    def _controller(self, **tenants):
        return AdmissionController(
            BackpressureConfig(
                hard_limit=4, soft_limit=2, degraded_max_conflicts=1_000
            ),
            tenant_policies=tenants,
        )

    def test_hard_limit_refuses_with_retry_after(self):
        adm = self._controller().admit(canonical_options(None), "t", 4, 0)
        assert not adm.accepted
        assert adm.reason == "queue_full"
        assert adm.retry_after_s == 5.0

    def test_tenant_quota_refuses(self):
        ctl = self._controller(t=TenantPolicy(max_queued=1))
        adm = ctl.admit(canonical_options(None), "t", 1, 1)
        assert not adm.accepted
        assert adm.reason == "tenant_quota"

    def test_soft_limit_degrades_budget(self):
        adm = self._controller().admit(canonical_options(None), "t", 2, 0)
        assert adm.accepted and adm.degraded
        assert adm.options["max_conflicts"] == 1_000

    def test_below_soft_limit_untouched(self):
        opts = canonical_options(None)
        adm = self._controller().admit(opts, "t", 1, 0)
        assert adm.accepted and not adm.degraded
        assert adm.options == opts

    def test_tenant_conflict_clamp(self):
        ctl = self._controller(t=TenantPolicy(max_conflicts=500))
        adm = ctl.admit(canonical_options(None), "t", 0, 0)
        assert adm.options["max_conflicts"] == 500

    def test_deadline_clamp(self):
        ctl = self._controller(t=TenantPolicy(max_deadline_s=10.0))
        assert ctl.clamp_deadline(None, "t") == 10.0
        assert ctl.clamp_deadline(3.0, "t") == 3.0
        assert ctl.clamp_deadline(60.0, "t") == 10.0
        assert ctl.clamp_deadline(60.0, "other") == 60.0


# ----------------------------------------------------------------------
# service front-door behaviour (in-process)
# ----------------------------------------------------------------------
#: ``options`` values a submission may not carry: non-objects, retired
#: option names, and out-of-range values for every result option.
MALFORMED_OPTIONS = [
    5,
    "cdcl",
    [],
    {"share_learned": "off"},
    {"solver": "bogus"},
    {"solver": "dpll-static"},
    {"certify": "bogus"},
    {"drop_block_size": 0},
    {"drop_block_size": "64"},
    {"fault_dropping": "no"},
    {"max_conflicts": "abc"},
    {"max_conflicts": 0},
    {"max_conflicts": None},
    {"max_conflicts": True},
]


def _post_jobs(service: AtpgService, body) -> tuple[int, dict]:
    """One ``POST /jobs`` through the service's HTTP framing on an
    ephemeral localhost port; returns (status, response document)."""

    async def roundtrip():
        server = await asyncio.start_server(
            ServiceHttp(service).handle, "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            data = json.dumps(body).encode("utf-8")
            writer.write(
                b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(data)
                + data
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
        finally:
            server.close()
            await server.wait_closed()
        head, _, payload = response.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(payload)

    return asyncio.run(roundtrip())


class TestServiceSubmit:
    def _service(self, tmp_path, **kwargs) -> AtpgService:
        return AtpgService(ServiceConfig(data_dir=tmp_path, **kwargs))

    def test_submit_queues_and_dedupes(self, tmp_path):
        svc = self._service(tmp_path)
        status, doc = svc.submit(C17_BENCH)
        assert status == 202
        assert doc["job"]["state"] == JobState.QUEUED.value
        status, doc2 = svc.submit(C17_BENCH)
        assert status == 200 and doc2["deduped"]
        assert doc2["job"]["id"] == doc["job"]["id"]
        assert svc.totals.deduped == 1

    def test_invalid_netlist_400(self, tmp_path):
        svc = self._service(tmp_path)
        for netlist in (
            "this is not bench",
            # A net driven twice, and an input declared twice.
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nz = OR(a, b)\n",
            "INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
        ):
            status, doc = _post_jobs(svc, {"netlist": netlist})
            assert status == 400, (netlist, doc)
            assert "invalid netlist" in doc["error"]
        assert svc.queue == []

    def test_unknown_option_400(self, tmp_path):
        status, doc = self._service(tmp_path).submit(
            C17_BENCH, options={"nope": 1}
        )
        assert status == 400

    @pytest.mark.parametrize("ceiling", [None, 500], ids=["open", "ceiling"])
    def test_malformed_option_values_400_over_http(self, tmp_path, ceiling):
        """Every malformed ``options`` value is a 400 at the real HTTP
        front door, never a 202 or a 500 — also when a tenant ceiling
        clamps ``max_conflicts``."""
        policies = (
            {} if ceiling is None
            else {"default": TenantPolicy(max_conflicts=ceiling)}
        )
        svc = self._service(tmp_path, tenant_policies=policies)
        for options in MALFORMED_OPTIONS:
            status, doc = _post_jobs(
                svc, {"netlist": C17_BENCH, "options": options}
            )
            assert status == 400, (options, doc)
            assert "error" in doc
        assert svc.queue == []
        # A well-formed submission is still admitted.
        status, _ = _post_jobs(
            svc, {"netlist": C17_BENCH, "options": {"max_conflicts": 900}}
        )
        assert status == 202

    def test_draining_503(self, tmp_path):
        svc = self._service(tmp_path)
        svc.draining = True
        assert svc.submit(C17_BENCH)[0] == 503

    def test_queue_full_429(self, tmp_path):
        svc = self._service(tmp_path)
        svc.admission.backpressure = BackpressureConfig(
            hard_limit=1, soft_limit=1
        )
        assert svc.submit(C17_BENCH)[0] == 202
        other = C17_BENCH.replace("NAND(1, 3)", "NAND(2, 3)")
        status, doc = svc.submit(other)
        assert status == 429
        assert doc["retry_after_s"] == 5.0
        assert svc.totals.refused == 1

    def test_degraded_admission_distinct_identity(self, tmp_path):
        svc = self._service(tmp_path)
        svc.admission.backpressure = BackpressureConfig(
            hard_limit=8, soft_limit=1, degraded_max_conflicts=1_000
        )
        assert svc.submit(C17_BENCH)[0] == 202
        other = C17_BENCH.replace("NAND(1, 3)", "NAND(2, 3)")
        status, doc = svc.submit(other)
        assert status == 202
        assert doc["job"]["degraded"]
        assert doc["job"]["options"]["max_conflicts"] == 1_000
        # The same netlist at full budget is a different job identity.
        full = canonical_job_key(
            loads_bench(other), canonical_options(None)
        )
        assert doc["job"]["job_key"] != full
        assert svc.totals.degraded_admissions == 1

    def test_cache_hit_creates_done_job(self, tmp_path, completed_doc):
        svc = self._service(tmp_path)
        svc.results.put(completed_doc["key"], completed_doc["doc"])
        status, doc = svc.submit(dumps_bench(completed_doc["network"]))
        assert status == 200 and doc["cache_hit"]
        meta = doc["job"]
        assert meta["state"] == JobState.DONE.value
        assert meta["cache_hit"]
        served = svc.store.load_result(meta["id"])
        assert served["verdict_digest"] == completed_doc["doc"]["verdict_digest"]
        assert svc.totals.cache_hits == 1
        assert svc.totals.solver_sat_calls == 0

    def test_recover_requeues(self, tmp_path):
        svc = self._service(tmp_path)
        svc.submit(C17_BENCH)
        job_id = svc.queue[0]
        svc.store.set_state(job_id, JobState.RUNNING, runner_pid=None)
        svc2 = self._service(tmp_path)
        assert svc2.recover() == 1
        assert svc2.queue == [job_id]
        assert svc2.totals.recovered == 1


# ----------------------------------------------------------------------
# result document shape
# ----------------------------------------------------------------------
class TestResultDocument:
    def test_document_digest_matches_records(self, completed_doc):
        doc = completed_doc["doc"]
        assert doc["verdict_digest"] == verdict_digest(doc["records"])
        assert doc["faults"] == len(doc["records"])
        assert doc["fault_coverage"] == 1.0
        assert doc["stats"]["sat_calls"] > 0

    def test_runner_runs_one_in_process_shard(self, tmp_path, rand_i14_g120):
        """A runner forks no shard workers, so a SIGKILLed runner leaves
        none behind: even a job.json that still asks for 4 workers runs
        as one in-process shard, with the sequential run's verdict
        classes."""
        network = rand_i14_g120
        store, job_id = _make_job(tmp_path, network)
        meta = store.load_meta(job_id)
        meta["workers"] = 4
        store.write_meta(meta)
        doc = execute_job(store, ResultStore(tmp_path / "cas"), job_id)
        assert doc["faults"] == 168
        assert doc["stats"]["workers"] == 1
        assert doc["stats"]["shards"] == 1
        options = dict(doc["options"])
        fault_dropping = options.pop("fault_dropping")
        sequential = AtpgEngine(
            loads_bench(dumps_bench(network), name=network.name), **options
        ).run(fault_dropping=fault_dropping)
        assert doc["verdict_digest"] == verdict_digest(
            [record_to_dict(r) for r in sequential.records]
        )


# ----------------------------------------------------------------------
# job lifecycle: dispatch, runner exit and event stream wake on events
# ----------------------------------------------------------------------
async def _http(port: int, method: str, path: str, body=None) -> bytes:
    """One raw HTTP/1.1 exchange; returns every byte the server sent."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write(
        f"{method} {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n\r\n"
        .encode("latin-1")
        + data
    )
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def _event_stream(response: bytes) -> list[dict]:
    """Decode a ``/events`` response, insisting on exactly one
    well-formed chunked 200 response and nothing after it."""
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 "), head
    assert b"Transfer-Encoding: chunked" in head
    events = []
    while True:
        size_line, _, body = body.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            assert body == b"\r\n", f"bytes after the stream: {body[:80]!r}"
            return events
        events.append(json.loads(body[:size]))
        assert body[size:size + 2] == b"\r\n"
        body = body[size + 2:]


async def _serving(service: AtpgService):
    server = await asyncio.start_server(
        ServiceHttp(service).handle, "127.0.0.1", 0
    )
    return server, server.sockets[0].getsockname()[1]


class TestEventDrivenLifecycle:
    def test_cold_job_streams_to_its_end_without_a_clock(
        self, tmp_path, monkeypatch
    ):
        """With the follow interval stretched to a minute, a cold job
        still streams to its end record at once, and a finished job's
        stream ends immediately: dispatch, the runner monitor and the
        stream all wake on events."""
        monkeypatch.setattr(server_module, "_TICK", 30.0)
        svc = AtpgService(ServiceConfig(data_dir=tmp_path))

        async def scenario():
            server, port = await _serving(svc)
            dispatcher = asyncio.create_task(svc.dispatch_loop())
            try:
                response = await _http(
                    port, "POST", "/jobs", {"netlist": C17_BENCH}
                )
                job = json.loads(response.partition(b"\r\n\r\n")[2])["job"]
                events = f"/jobs/{job['id']}/events"
                cold = await asyncio.wait_for(_http(port, "GET", events), 10)
                again = await asyncio.wait_for(_http(port, "GET", events), 1)
            finally:
                dispatcher.cancel()
                await svc.drain()
                server.close()
                await server.wait_closed()
            return _event_stream(cold), _event_stream(again)

        cold, again = asyncio.run(scenario())
        assert cold[-1] == {"type": "end", "state": JobState.DONE.value}
        assert [e["type"] for e in cold[:-1]] == ["record"] * 16
        assert again == cold
        assert svc.totals.completed == 1
        assert not svc.running and not svc.monitors

    def test_drain_returns_when_the_last_runner_exits(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_TICK", 30.0)
        svc = AtpgService(ServiceConfig(data_dir=tmp_path))
        _, doc = svc.submit(C17_BENCH)
        job_id = doc["job"]["id"]

        async def scenario():
            svc._start_runner(svc.queue.pop(0))
            await asyncio.wait_for(svc.drain(), 5)

        asyncio.run(scenario())
        # The runner finished on its own; drain killed nothing.
        assert svc.store.load_meta(job_id)["state"] == JobState.DONE.value
        assert svc.totals.completed == 1
        assert not svc.running

    def test_vanished_journal_keeps_one_well_formed_stream(
        self, tmp_path, monkeypatch
    ):
        """A journal that disappears between the follower's check and
        its read (a resuming runner unlinks an unloadable one) is no
        data: the response stays one chunked stream with its end record,
        never followed by a second response."""
        svc = AtpgService(ServiceConfig(data_dir=tmp_path))
        _, doc = svc.submit(C17_BENCH)
        job_id = doc["job"]["id"]
        svc.store.set_state(job_id, JobState.DONE)
        journal = svc.store.journal_path(job_id)
        exists = type(journal).exists
        monkeypatch.setattr(
            type(journal),
            "exists",
            lambda path: path == journal or exists(path),
        )

        async def scenario():
            server, port = await _serving(svc)
            try:
                return await _http(port, "GET", f"/jobs/{job_id}/events")
            finally:
                server.close()
                await server.wait_closed()

        events = _event_stream(asyncio.run(scenario()))
        assert events == [{"type": "end", "state": JobState.DONE.value}]

    def test_failed_monitor_is_logged_with_its_job(
        self, tmp_path, monkeypatch, caplog
    ):
        svc = AtpgService(ServiceConfig(data_dir=tmp_path))
        _, doc = svc.submit(C17_BENCH)
        job_id = doc["job"]["id"]

        # A runner that exits at once, and a store that fails the
        # monitor's bookkeeping after the job started.
        def spawn(*args, **kwargs):
            process = multiprocessing.get_context("fork").Process(target=int)
            process.start()
            return process

        def broken(_job_id):
            raise RuntimeError("store unreadable")

        monkeypatch.setattr(server_module, "spawn_runner", spawn)

        async def scenario():
            svc._start_runner(svc.queue.pop(0))
            monkeypatch.setattr(svc.store, "load_meta", broken)
            await asyncio.wait_for(
                asyncio.gather(*svc.monitors, return_exceptions=True), 10
            )

        with caplog.at_level("ERROR", logger="repro.service.server"):
            asyncio.run(scenario())
        assert f"monitor of job {job_id} failed" in caplog.text
        assert "store unreadable" in caplog.text
        assert not svc.monitors
