"""The asyncio HTTP front end: ``repro serve``.

Pure stdlib: ``asyncio.start_server`` plus a ~100-line HTTP/1.1 subset
(request line, headers, Content-Length bodies, chunked responses for
the event stream).  Every connection is handled close-on-response; the
service's durability never depends on connection state.

API contract (documented in README § Service):

========  ======================  =======================================
method    path                    behaviour
========  ======================  =======================================
POST      /jobs                   submit ``{"netlist": <bench text>,
                                  "options": {...}, "tenant": "...",
                                  "deadline_s": <float>}``; 202 queued /
                                  200 deduped or served from cache /
                                  400 bad input / 413 too large /
                                  429 + Retry-After refused /
                                  503 draining
GET       /jobs                   job listing (metas only)
GET       /jobs/<id>              job meta, result inline when DONE
GET       /jobs/<id>/events       ndjson stream of per-fault records as
                                  they settle (chunked; replays the
                                  journal, then follows it live)
GET       /healthz                liveness + queue depth + totals
========  ======================  =======================================

Event model: a queue append, a freed runner slot and a runner exit
(seen through the runner's process sentinel) each wake whoever waits on
the service's change signal (:meth:`AtpgService.change_event`).  Only
the journal of a live job (every ``2 * _TICK``) and the shared store
(every ``scan_interval_s``, for work from other nodes) are read on a
clock.

Crash model: all job state lives in the on-disk job store; the process
holds only caches of it.  ``kill -9`` at any instant loses at most the
journal line being written (tolerated by the torn-line reader); on
restart :meth:`AtpgService.recover` kills orphaned runner processes,
re-queues in-flight jobs, and resumes them from their journals.
SIGTERM/SIGINT drain gracefully: stop accepting (503), give running
runners ``drain_timeout_s`` to finish, SIGKILL the stragglers (their
journals are flushed per record, so nothing settled is lost), re-queue
their jobs on disk, exit 0.

Multi-node model: several ``repro serve`` processes may point at one
shared ``--data-dir``.  Ownership of a dispatched job is a lease
(:mod:`repro.service.lease`): acquired before the runner forks, renewed
by this server's heartbeat task, stolen (with a fencing-token bump) by
any peer once the heartbeat stops.  The scan loop polls the shared
store for work this node does not own — freshly submitted jobs from
peers, and RUNNING jobs whose lease expired because their owner died —
and the fencing token stamped into every journal append / CAS
promotion / ``job.json`` transition guarantees a paused-then-resumed
zombie owner is rejected at its next write (see the multi-node runbook
in the README).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.io.atomic import StorageError
from repro.io.bench import BenchFormatError, loads_bench
from repro.circuits.network import NetworkError
from repro.circuits.validate import check_network
from repro.obs import Counters
from repro.service.budgets import (
    AdmissionController,
    BackpressureConfig,
    TenantPolicy,
)
from repro.service.hashing import (
    canonical_circuit_hash,
    canonical_job_key,
    canonical_options,
)
from repro.service.jobs import (
    MAX_ADOPTIONS,
    JobState,
    JobStore,
    _kill_if_alive,
    job_id_for_key,
)
from repro.service.lease import (
    LeaseFile,
    LeaseHeldError,
    LeaseLostError,
    StaleTokenError,
)
from repro.service.runner import spawn_runner
from repro.service.store import ResultStore

#: Half the follow interval of a live job's journal, and the floor of
#: the lease heartbeat interval.
_TICK = 0.05

log = logging.getLogger(__name__)

#: Hard ceiling on request head (request line + headers).
_MAX_HEAD_BYTES = 32 * 1024


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    data_dir: str | Path = "atpg-service-data"
    host: str = "127.0.0.1"
    port: int = 8321
    max_concurrent_jobs: int = 1
    workers_per_job: int = 1
    max_body_bytes: int = 8 * 1024 * 1024
    drain_timeout_s: float = 10.0
    #: This node's identity for lease ownership.  Defaults to the
    #: hostname, so a single-node restart re-adopts its own leases
    #: immediately; multiple nodes on one host (tests, containers
    #: sharing a volume) must pass distinct ``--node-id`` values.
    node_id: Optional[str] = None
    #: Lease time-to-live.  A dead node's jobs become stealable this
    #: many seconds after its last heartbeat; the heartbeat renews at
    #: a third of it.  Lower = faster takeover, more lease traffic.
    lease_ttl_s: float = 10.0
    #: How often the scan loop polls the shared store for foreign work
    #: (peer submissions, expired leases).
    scan_interval_s: float = 1.0
    #: Size bound for the certified result cache (LRU-evicted past it);
    #: ``None`` = unbounded (the pre-eviction behaviour).
    cache_max_mb: Optional[float] = None
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    tenant_policies: dict[str, TenantPolicy] = field(default_factory=dict)


@dataclass
class ServiceTotals(Counters):
    """Monotonic per-process counters surfaced at /healthz.

    ``solver_sat_calls`` sums the ``sat_calls`` of every result produced
    by a runner this process started — a cache-served submission adds
    exactly zero, which is how the smoke/chaos tests verify "served
    entirely from cache" instead of trusting a boolean.
    """

    submitted: int = 0
    deduped: int = 0
    cache_hits: int = 0
    refused: int = 0
    degraded_admissions: int = 0
    completed: int = 0
    failed: int = 0
    recovered: int = 0
    runner_crashes: int = 0
    solver_sat_calls: int = 0
    #: Multi-node / robustness counters: RUNNING jobs taken over from
    #: another node's expired lease; leases this node lost mid-run;
    #: jobs FAILED for burning their adoption budget; jobs FAILED on a
    #: disk fault (ENOSPC/EIO).
    lease_steals: int = 0
    lease_lost: int = 0
    adoption_exhausted: int = 0
    storage_errors: int = 0


async def _exited(process) -> None:
    """Return once the runner ``process`` has exited.

    Its sentinel is the read end of a pipe whose write end only the
    child holds, so it turns readable at exit and the loop wakes on it.
    (A runner's own shard workers inherit that write end: a runner
    killed mid-shard counts as running until they finish too.)  Waiting
    in a thread instead would make every later runner fork from a
    threaded process.
    """
    loop = asyncio.get_running_loop()
    exited = loop.create_future()

    def on_readable() -> None:
        if not exited.done():
            exited.set_result(None)

    loop.add_reader(process.sentinel, on_readable)
    try:
        await exited
    finally:
        loop.remove_reader(process.sentinel)


class AtpgService:
    """The service core: admission, queueing, dispatch, recovery.

    Owns no HTTP state — :class:`ServiceHttp` below is a thin codec over
    this object, and tests drive it directly.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = Path(config.data_dir)
        self.store = JobStore(root)
        self.results = ResultStore(
            root / "cas",
            max_bytes=(
                int(config.cache_max_mb * 1024 * 1024)
                if config.cache_max_mb is not None
                else None
            ),
        )
        self.admission = AdmissionController(
            config.backpressure,
            default_policy=config.default_policy,
            tenant_policies=config.tenant_policies,
        )
        self.queue: list[str] = []
        self.running: dict[str, object] = {}  # job_id -> runner process
        self.node_id = config.node_id or socket.gethostname()
        #: Leases this node currently holds, job_id -> LeaseFile.  The
        #: heartbeat task renews these; the monitor releases them.
        self.leases: dict[str, LeaseFile] = {}
        #: One monitor task per running job (see ``_start_runner``).
        self.monitors: set[asyncio.Task] = set()
        self.totals = ServiceTotals()
        self.draining = False
        self.started_at = time.time()
        # The change signal: the event the next notify() sets, and the
        # loop it belongs to.  Built lazily inside a running loop, since
        # one service may outlive several (each ``asyncio.run`` in tests).
        self._change: Optional[asyncio.Event] = None
        self._change_loop: Optional[asyncio.AbstractEventLoop] = None

    # -- change signal --------------------------------------------------
    def change_event(self) -> asyncio.Event:
        """The event the next local change sets.

        Take it *before* checking the state it guards: a change between
        the check and the wait then still wakes the waiter.
        """
        loop = asyncio.get_running_loop()
        if self._change is None or self._change_loop is not loop:
            self._change = asyncio.Event()
            self._change_loop = loop
        return self._change

    def notify(self) -> None:
        """Wake every waiter: a queue append, a freed runner slot or a
        runner exit happened.  The next waiter gets a fresh event."""
        if self._change is not None:
            self._change.set()
            self._change = None

    def _enqueue(self, job_id: str) -> None:
        self.queue.append(job_id)
        self.notify()

    # -- leases ---------------------------------------------------------
    def _lease_for(self, job_id: str) -> LeaseFile:
        return LeaseFile(
            self.store.lease_path(job_id),
            self.node_id,
            ttl_s=self.config.lease_ttl_s,
        )

    def _adopt_running(self, meta: dict) -> Optional[dict]:
        """Take over a RUNNING job whose lease is not live-and-foreign.

        This is both the restart path (re-adopting our own jobs) and
        the takeover path (stealing a dead peer's).  Acquiring bumps
        the fencing token, so the previous owner's runner — if it is a
        paused zombie rather than a corpse — is rejected at its next
        write.  Returns the re-queued meta, or ``None`` when the job
        was not adoptable (live foreign lease, lost race, exhausted
        adoption budget, or a faulting disk).
        """
        job_id = meta["id"]
        lease = self._lease_for(job_id)
        previous = lease.newest()
        try:
            granted = lease.acquire(
                token_floor=meta.get("fence_token") or 0
            )
        except LeaseHeldError:
            return None  # owner is alive (or a peer beat us to it)
        except StorageError:
            return None  # disk fault: retry on the next scan tick
        stolen = previous is not None and previous.owner != self.node_id
        try:
            _kill_if_alive(meta.get("runner_pid"))
            if meta["adoptions"] + 1 > MAX_ADOPTIONS:
                self.store.fail_exhausted(meta)
                self.totals.adoption_exhausted += 1
                self.totals.failed += 1
                return None
            meta = self.store.set_state(
                job_id,
                JobState.QUEUED,
                fence=lease.guard(),
                adoptions=meta["adoptions"] + 1,
                runner_pid=None,
                fence_token=granted.token,
            )
        except (StaleTokenError, LeaseLostError, StorageError):
            return None
        finally:
            try:
                lease.release()
            except (LeaseLostError, StorageError):
                pass
        if stolen:
            self.totals.lease_steals += 1
        return meta

    # -- startup recovery ----------------------------------------------
    def recover(self) -> int:
        """Re-adopt persisted queue state after a restart.

        RUNNING jobs owned by a *live* lease of another node are left
        strictly alone — their owner is healthy, and the scan loop will
        steal them if its heartbeat ever stops.
        """
        self.store.sweep_temps()
        adopted = []
        for meta in self.store.list_jobs():
            state = JobState(meta["state"])
            if state.terminal:
                continue
            if state is JobState.RUNNING:
                meta = self._adopt_running(meta)
                if meta is None:
                    continue
            adopted.append(meta)
        for meta in adopted:
            self._enqueue(meta["id"])
        self.totals.recovered = len(adopted)
        return len(adopted)

    # -- shared-store scan ----------------------------------------------
    def scan_store(self) -> int:
        """One pass over the shared store for work this node does not
        track: QUEUED jobs a peer submitted, and RUNNING jobs whose
        lease expired because their owner died.  Returns how many jobs
        entered the local queue."""
        tracked = set(self.queue) | set(self.running.keys())
        picked = 0
        for meta in self.store.list_jobs():
            job_id = meta["id"]
            if job_id in tracked:
                continue
            state = JobState(meta["state"])
            if state.terminal:
                continue
            if state is JobState.RUNNING:
                meta = self._adopt_running(meta)
                if meta is None:
                    continue
            self._enqueue(job_id)
            picked += 1
        return picked

    async def scan_loop(self) -> None:
        """Poll the shared store on ``scan_interval_s``, forever."""
        try:
            while True:
                await asyncio.sleep(self.config.scan_interval_s)
                if not self.draining:
                    self.scan_store()
        except asyncio.CancelledError:
            return

    # -- heartbeat ------------------------------------------------------
    def renew_leases(self) -> None:
        """Renew every held lease; a lease someone stole out from under
        us means *they* own the job now — kill our runner immediately
        (two writers on one journal is the unrecoverable topology) and
        leave the job's state strictly alone."""
        for job_id, lease in list(self.leases.items()):
            if lease.token is None:
                self.leases.pop(job_id, None)
                continue
            try:
                lease.renew()
            except LeaseLostError:
                self.totals.lease_lost += 1
                self.leases.pop(job_id, None)
                process = self.running.get(job_id)
                if process is not None and process.is_alive():
                    process.kill()
            except StorageError:
                pass  # disk fault: the lease stays valid until TTL

    async def heartbeat_loop(self) -> None:
        interval = max(self.config.lease_ttl_s / 3.0, _TICK)
        try:
            while True:
                await asyncio.sleep(interval)
                self.renew_leases()
        except asyncio.CancelledError:
            return

    # -- admission ------------------------------------------------------
    def _queue_depth(self) -> int:
        return len(self.queue) + len(self.running)

    def _tenant_queued(self, tenant: str) -> int:
        count = 0
        for job_id in list(self.queue) + list(self.running):
            meta = self.store.load_meta(job_id)
            if meta is not None and meta.get("tenant") == tenant:
                count += 1
        return count

    def submit(
        self,
        netlist_text: str,
        options: Optional[dict] = None,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
    ) -> tuple[int, dict]:
        """Admit one submission; returns (http_status, response_doc)."""
        self.totals.submitted += 1
        if self.draining:
            return 503, {"error": "draining"}
        try:
            opts = canonical_options(options)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        try:
            network = loads_bench(netlist_text, name="submission")
            check_network(network)
        except (BenchFormatError, NetworkError) as exc:
            return 400, {"error": f"invalid netlist: {exc}"}

        # Tenant conflict-budget ceilings apply before the cache lookup:
        # they are deterministic per tenant, so they belong to the job's
        # cache identity.
        policy = self.admission.policy_for(tenant)
        if policy.max_conflicts is not None:
            opts["max_conflicts"] = min(
                opts["max_conflicts"], policy.max_conflicts
            )

        hit = self._serve_existing(network, opts, tenant)
        if hit is not None:
            return hit

        admission = self.admission.admit(
            opts, tenant, self._queue_depth(), self._tenant_queued(tenant)
        )
        if not admission.accepted:
            self.totals.refused += 1
            return 429, {
                "error": admission.reason,
                "retry_after_s": admission.retry_after_s,
            }
        if admission.degraded:
            self.totals.degraded_admissions += 1
            # The shed budget changes the cache identity: re-check for
            # an existing degraded twin before creating one.
            hit = self._serve_existing(
                network, admission.options, tenant, degraded=True
            )
            if hit is not None:
                return hit

        meta = self._create_job(
            network, netlist_text, admission.options, tenant,
            deadline_s=self.admission.clamp_deadline(deadline_s, tenant),
            degraded=admission.degraded,
        )
        self._enqueue(meta["id"])
        return 202, {"job": meta}

    def _serve_existing(
        self,
        network,
        opts: dict,
        tenant: str,
        degraded: bool = False,
    ) -> Optional[tuple[int, dict]]:
        """Dedupe against live jobs and the certified result cache."""
        key = canonical_job_key(network, opts)
        job_id = job_id_for_key(key)
        meta = self.store.load_meta(job_id)
        if meta is not None:
            self.totals.deduped += 1
            return 200, {"job": meta, "deduped": True}
        doc = self.results.get(key, network)
        if doc is not None:
            # Materialise a DONE job so /jobs/<id> and /events work
            # identically for cached and computed results.
            self.totals.cache_hits += 1
            meta = self._create_job(
                network, "", opts, tenant, deadline_s=None, degraded=degraded,
                job_key=key,
            )
            from repro.io.atomic import atomic_write_json

            atomic_write_json(self.store.result_path(job_id), doc)
            meta = self.store.set_state(
                job_id,
                JobState.DONE,
                cache_hit=True,
                finished_at=time.time(),
            )
            return 200, {"job": meta, "cache_hit": True}
        return None

    def _create_job(
        self,
        network,
        netlist_text: str,
        opts: dict,
        tenant: str,
        deadline_s: Optional[float],
        degraded: bool,
        job_key: Optional[str] = None,
    ) -> dict:
        key = job_key or canonical_job_key(network, opts)
        meta = self.store.create(
            job_id_for_key(key),
            job_key=key,
            circuit_hash=canonical_circuit_hash(network),
            circuit_name=network.name,
            netlist_text=netlist_text,
            options=opts,
            tenant=tenant,
            degraded=degraded,
        )
        meta["workers"] = self.config.workers_per_job
        meta["deadline_s"] = deadline_s
        self.store.write_meta(meta)
        return meta

    # -- dispatch & supervision ----------------------------------------
    async def dispatch_loop(self) -> None:
        """Pull queued jobs into runner processes, forever; between
        dispatches, wait for a queue append or a freed slot."""
        try:
            while True:
                changed = self.change_event()
                if (
                    not self.draining
                    and self.queue
                    and len(self.running) < self.config.max_concurrent_jobs
                ):
                    job_id = self.queue.pop(0)
                    self._start_runner(job_id)
                    continue
                await changed.wait()
        except asyncio.CancelledError:
            return

    def _start_runner(self, job_id: str) -> None:
        meta = self.store.load_meta(job_id)
        if meta is None or JobState(meta["state"]).terminal:
            return
        if JobState(meta["state"]) is JobState.RUNNING:
            # Raced a peer between scan and dispatch: adoptable only if
            # its lease is dead, and then with the adoption bump.
            meta = self._adopt_running(meta)
            if meta is None:
                return
        lease = self._lease_for(job_id)
        try:
            granted = lease.acquire(token_floor=meta.get("fence_token") or 0)
        except (LeaseHeldError, StorageError):
            return  # a peer owns it (or the disk faulted): not ours
        guard = lease.guard()
        self.leases[job_id] = lease
        try:
            self.store.set_state(
                job_id,
                JobState.RUNNING,
                fence=guard,
                started_at=time.time(),
                fence_token=granted.token,
            )
            process = spawn_runner(self.store, job_id, fence=guard)
            # Recorded before any await: crash recovery kills this pid
            # if the server dies while the runner is still going.
            self.store.set_state(
                job_id, JobState.RUNNING, fence=guard, runner_pid=process.pid
            )
        except (StaleTokenError, StorageError):
            self.leases.pop(job_id, None)
            try:
                lease.release()
            except (LeaseLostError, StorageError):
                pass
            return
        self.running[job_id] = process
        monitor = asyncio.get_running_loop().create_task(
            self._monitor_runner(job_id, process), name=job_id
        )
        self.monitors.add(monitor)
        monitor.add_done_callback(self._monitor_done)

    def _monitor_done(self, monitor: asyncio.Task) -> None:
        self.monitors.discard(monitor)
        error = None if monitor.cancelled() else monitor.exception()
        if error is not None:
            log.error(
                "monitor of job %s failed", monitor.get_name(), exc_info=error
            )

    async def _monitor_runner(self, job_id: str, process) -> None:
        await _exited(process)
        process.join()
        self.running.pop(job_id, None)
        lease = self.leases.pop(job_id, None)
        owned = lease is not None and lease.token is not None
        try:
            meta = self.store.load_meta(job_id)
            if meta is None:
                return
            state = JobState(meta["state"])
            if state is JobState.DONE:
                self.totals.completed += 1
                doc = self.store.load_result(job_id)
                if doc is not None:
                    self.totals.solver_sat_calls += (
                        doc.get("stats", {}).get("sat_calls", 0)
                    )
            elif state is JobState.FAILED:
                self.totals.failed += 1
                if meta.get("abort_reason") == "storage_error":
                    self.totals.storage_errors += 1
                elif meta.get("abort_reason") == "adoption_exhausted":
                    self.totals.adoption_exhausted += 1
            elif not owned or process.exitcode == 2:
                # exit 2 = the runner fenced itself out; a missing
                # lease = the heartbeat already saw the steal.  Either
                # way the job belongs to its new owner — touch nothing.
                if owned:
                    self.totals.lease_lost += 1
            else:
                # Runner died without reaching a terminal state (OOM
                # kill, segfault, drain SIGKILL): same re-adoption path
                # a restart takes, with the same bounded attempts.
                self.totals.runner_crashes += 1
                try:
                    if meta["adoptions"] + 1 > MAX_ADOPTIONS:
                        self.store.set_state(
                            job_id,
                            JobState.FAILED,
                            fence=lease.guard(),
                            finished_at=time.time(),
                            abort_reason="adoption_exhausted",
                            error=(
                                f"runner died (exit {process.exitcode}) "
                                f"after {meta['adoptions']} re-adoptions"
                            ),
                        )
                        self.totals.failed += 1
                        self.totals.adoption_exhausted += 1
                    else:
                        self.store.set_state(
                            job_id,
                            JobState.QUEUED,
                            fence=lease.guard(),
                            adoptions=meta["adoptions"] + 1,
                            runner_pid=None,
                        )
                        if not self.draining:
                            self._enqueue(job_id)
                except (StaleTokenError, StorageError):
                    pass  # stolen (or disk fault) mid-bookkeeping
        finally:
            if owned:
                try:
                    lease.release()
                except (LeaseLostError, StorageError):
                    pass
            # A runner exited and its slot is free.
            self.notify()

    async def drain(self) -> None:
        """SIGTERM/SIGINT path: persist the queue, bound the wait, exit
        clean (see module docstring)."""
        self.draining = True
        deadline = time.monotonic() + self.config.drain_timeout_s
        while True:
            changed = self.change_event()
            remaining = deadline - time.monotonic()
            if not self.running or remaining <= 0:
                break
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(changed.wait(), remaining)
        for job_id, process in list(self.running.items()):
            if process.is_alive():
                process.kill()
            process.join()
            lease = self.leases.pop(job_id, None)
            owned = lease is not None and lease.token is not None
            meta = self.store.load_meta(job_id)
            if (
                owned
                and meta is not None
                and not JobState(meta["state"]).terminal
            ):
                # Planned interruption, not a runner fault: re-queue
                # without burning the job's re-adoption budget.
                try:
                    self.store.set_state(
                        job_id,
                        JobState.QUEUED,
                        fence=lease.guard(),
                        runner_pid=None,
                    )
                except (StaleTokenError, StorageError):
                    pass  # stolen or faulting disk: leave it be
            if owned:
                try:
                    lease.release()
                except (LeaseLostError, StorageError):
                    pass
            self.running.pop(job_id, None)

    # -- views ----------------------------------------------------------
    def healthz(self) -> dict:
        return {
            "state": "draining" if self.draining else "serving",
            "node_id": self.node_id,
            "queue_depth": len(self.queue),
            "running": len(self.running),
            "held_leases": sorted(
                job_id
                for job_id, lease in self.leases.items()
                if lease.token is not None
            ),
            "lease_ttl_s": self.config.lease_ttl_s,
            "uptime_s": time.time() - self.started_at,
            "totals": self.totals.as_dict(),
            "cache": self.results.stats(),
        }

    def job_view(self, job_id: str) -> Optional[dict]:
        meta = self.store.load_meta(job_id)
        if meta is None:
            return None
        view = {"job": meta}
        if JobState(meta["state"]) is JobState.DONE:
            view["result"] = self.store.load_result(job_id)
        return view


# ----------------------------------------------------------------------
# HTTP codec
# ----------------------------------------------------------------------
_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message


class ServiceHttp:
    """Request framing + routing over one :class:`AtpgService`."""

    def __init__(self, service: AtpgService) -> None:
        self.service = service

    async def handle(self, reader, writer) -> None:
        try:
            try:
                method, target, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
                await self._route(writer, method, target, headers, body)
            except _HttpError as exc:
                self._respond(writer, exc.status, {"error": exc.message})
            except Exception as exc:  # noqa: BLE001 — top-level guard
                self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader):
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEAD_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def _read_body(self, reader, headers) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > self.service.config.max_body_bytes:
            raise _HttpError(413, "body too large")
        if length == 0:
            return b""
        return await reader.readexactly(length)

    async def _route(self, writer, method, target, headers, body) -> None:
        path = target.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            self._respond(writer, 200, self.service.healthz())
            return
        if path == "/jobs" and method == "POST":
            self._handle_submit(writer, headers, body)
            return
        if path == "/jobs" and method == "GET":
            self._respond(
                writer, 200, {"jobs": self.service.store.list_jobs()}
            )
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if method != "GET":
                raise _HttpError(405, "method not allowed")
            if rest.endswith("/events"):
                await self._stream_events(writer, rest[: -len("/events")])
                return
            view = self.service.job_view(rest)
            if view is None:
                raise _HttpError(404, f"no such job {rest!r}")
            self._respond(writer, 200, view)
            return
        raise _HttpError(404, f"no route for {method} {path}")

    def _handle_submit(self, writer, headers, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HttpError(400, "body must be a JSON object") from None
        if not isinstance(payload, dict) or "netlist" not in payload:
            raise _HttpError(400, 'body must contain "netlist"')
        tenant = payload.get("tenant") or headers.get("x-tenant") or "default"
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None and (
            not isinstance(deadline_s, (int, float)) or deadline_s < 0
        ):
            raise _HttpError(400, "deadline_s must be a non-negative number")
        status, doc = self.service.submit(
            payload["netlist"],
            options=payload.get("options"),
            tenant=str(tenant),
            deadline_s=deadline_s,
        )
        extra = {}
        if status == 429 and doc.get("retry_after_s") is not None:
            extra["Retry-After"] = str(int(doc["retry_after_s"]) or 1)
        self._respond(writer, status, doc, extra)

    # -- event streaming ------------------------------------------------
    async def _stream_events(self, writer, job_id: str) -> None:
        store = self.service.store
        meta = store.load_meta(job_id)
        if meta is None:
            raise _HttpError(404, f"no such job {job_id!r}")
        self._start_chunked(writer, 200)
        try:
            if meta.get("cache_hit"):
                # Cached jobs have no journal of their own: replay the
                # cached records as the event stream.
                doc = store.load_result(job_id) or {}
                for record in doc.get("records", []):
                    await self._chunk(writer, record)
            else:
                await self._follow_journal(writer, job_id)
            meta = store.load_meta(job_id) or meta
            await self._chunk(
                writer, {"type": "end", "state": meta["state"]}
            )
        except ConnectionError:
            raise
        except Exception:  # noqa: BLE001 — the response has begun
            # A second response cannot follow the first: cut the stream
            # short instead (a client sees no end record).
            log.exception("event stream of job %s failed", job_id)
        finally:
            await self._end_chunked(writer)

    async def _follow_journal(self, writer, job_id: str) -> None:
        """Replay the journal, then follow it until the job settles.

        Reads in byte offsets and only emits complete lines, so a
        record mid-write is picked up on the next read rather than
        served torn.

        Once a pass has read a terminal state, its journal read that
        follows ends the stream: every record was appended before that
        state was written.  The runner closes its journal before it
        writes the result and the terminal ``job.json`` state, and a
        runner fenced out by a lease steal dies at its next append.
        Until then a local runner's exit wakes the stream at once, and
        the journal is re-read every ``2 * _TICK`` for records that
        settle while the job runs, here or on another node.
        """
        store = self.service.store
        path = store.journal_path(job_id)
        offset = 0
        pending = b""
        while True:
            changed = self.service.change_event()
            meta = store.load_meta(job_id)
            state = JobState(meta["state"]) if meta else JobState.FAILED
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    data = fh.read()
            except FileNotFoundError:
                # Not written yet, or unlinked by a runner that restarts
                # an unloadable journal: no new data.
                data = b""
            offset += len(data)
            pending += data
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if payload.get("type") == "record":
                    await self._chunk(writer, payload)
            if state.terminal:
                return
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(changed.wait(), 2 * _TICK)

    # -- response plumbing ----------------------------------------------
    def _respond(
        self, writer, status: int, payload: dict, extra: dict | None = None
    ) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close",
        }
        headers.update(extra or {})
        writer.write(self._head(status, headers) + body)

    def _start_chunked(self, writer, status: int) -> None:
        writer.write(
            self._head(
                status,
                {
                    "Content-Type": "application/x-ndjson",
                    "Transfer-Encoding": "chunked",
                    "Connection": "close",
                },
            )
        )

    async def _chunk(self, writer, payload: dict) -> None:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    async def _end_chunked(self, writer) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    def _head(status: int, headers: dict) -> bytes:
        text = _STATUS_TEXT.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {text}"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
async def _serve_async(config: ServiceConfig) -> int:
    service = AtpgService(config)
    recovered = service.recover()
    http = ServiceHttp(service)
    server = await asyncio.start_server(
        http.handle, host=config.host, port=config.port
    )
    host, port = server.sockets[0].getsockname()[:2]
    # The smoke/chaos harnesses parse this line for the bound port.
    print(f"serving on {host}:{port} (recovered {recovered} jobs)", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    dispatcher = loop.create_task(service.dispatch_loop())
    heartbeat = loop.create_task(service.heartbeat_loop())
    scanner = loop.create_task(service.scan_loop())
    await stop.wait()
    print("drain: stopping intake", flush=True)
    server.close()
    await server.wait_closed()
    dispatcher.cancel()
    scanner.cancel()
    await service.drain()
    heartbeat.cancel()
    print(
        f"drained: {len(service.queue)} queued job(s) persisted; exit 0",
        flush=True,
    )
    return 0


def serve(config: ServiceConfig) -> int:
    """Run the service until SIGTERM/SIGINT; returns the exit code."""
    return asyncio.run(_serve_async(config))
