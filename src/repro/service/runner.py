"""Job execution: one forked runner process per job.

The server forks a runner per dispatched job (same isolation argument
as :class:`~repro.atpg.supervisor.ShardSupervisor`, one level up): a
runner that segfaults, gets OOM-killed, or is SIGKILLed at drain time
takes nothing down with it — the journal already holds every settled
fault, and re-adoption resumes the remainder.  Inside the runner the
job runs on :class:`~repro.atpg.parallel.ParallelAtpgEngine` with one
worker, which owns the journal, the resume and the deadline.  One
worker means one in-process shard: the runner forks nothing, so a
runner killed mid-job leaves no shard worker behind.

:func:`execute_job` is deliberately a plain synchronous function over
the on-disk job store — the forked child, the in-process test path, and
a future standalone worker fleet all call the same code.

**Fencing.**  In a multi-node deployment the runner carries the
:class:`~repro.service.lease.FenceGuard` its server acquired: every
journal append, the result write, the CAS promotion, and the terminal
``job.json`` transition prove ownership first.  A runner whose lease
was stolen dies on :class:`~repro.service.lease.StaleTokenError`
*without* writing anything further — in particular it must NOT mark the
job FAILED, because the job now belongs to the new owner.

**Disk faults.**  An injected or real ``ENOSPC``/``EIO``
(:class:`~repro.io.atomic.StorageError`) lands the job in FAILED with
``abort_reason="storage_error"`` — a reasoned verdict the operator can
see at ``/healthz``, never a bare traceback.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Optional

from repro.atpg.checkpoint import (
    CheckpointError,
    load_checkpoint,
    record_to_dict,
)
from repro.atpg.parallel import ParallelAtpgEngine
from repro.io.bench import loads_bench
from repro.io.atomic import StorageError, atomic_write_json
from repro.service.jobs import JobState, JobStore
from repro.service.lease import FenceGuard, StaleTokenError
from repro.service.store import ResultStore, cacheable, verdict_digest


def result_document(meta: dict, summary) -> dict:
    """The result.json / cache document for a completed run."""
    records = [record_to_dict(r) for r in summary.records]
    return {
        "job_id": meta["id"],
        "job_key": meta["job_key"],
        "circuit_hash": meta["circuit_hash"],
        "circuit": summary.circuit,
        "options": meta["options"],
        "faults": len(summary.records),
        "status_counts": summary.status_counts(),
        "fault_coverage": summary.fault_coverage,
        "records": records,
        "verdict_digest": verdict_digest(records),
        "stats": summary.stats.as_dict(),
    }


def execute_job(
    store: JobStore,
    results: ResultStore,
    job_id: str,
    fence: Optional[FenceGuard] = None,
) -> dict:
    """Run ``job_id`` to completion against the on-disk job store.

    Resumes from the job's journal when one exists (the re-adoption
    path), journals every record as it settles, writes ``result.json``
    atomically, promotes cacheable results into the content-addressed
    store, and transitions the job to DONE.  With ``fence`` set, every
    one of those writes is fenced (see module docstring).  Exceptions
    propagate after the job is marked FAILED — except
    :class:`StaleTokenError`, which propagates *without* a FAILED mark
    (the new owner's job state is not ours to touch).
    """
    meta = store.load_meta(job_id)
    if meta is None:
        raise KeyError(f"no such job {job_id!r}")
    options = meta["options"]
    try:
        network = loads_bench(
            store.circuit_path(job_id).read_text(encoding="utf-8"),
            name=meta["circuit_name"],
        )
        journal = store.journal_path(job_id)
        resume_from = journal if journal.exists() else None
        if resume_from is not None:
            try:
                load_checkpoint(journal, circuit=meta["circuit_name"])
            except (CheckpointError, OSError):
                # A journal killed before its header line completed
                # holds no settled records (appends are strictly
                # ordered), so an unloadable journal is an empty one:
                # restart fresh instead of crash-looping on resume.
                journal.unlink(missing_ok=True)
                resume_from = None
        engine = ParallelAtpgEngine(
            network,
            workers=1,
            solver=options["solver"],
            max_conflicts=options["max_conflicts"],
            certify=options["certify"],
            deadline=meta.get("deadline_s"),
        )
        summary = engine.run(
            fault_dropping=options["fault_dropping"],
            resume_from=resume_from,
            checkpoint_to=journal,
            checkpoint_fence=fence,
        )
        doc = result_document(meta, summary)
        if fence is not None:
            fence()
            doc["fence_token"] = fence.token
        atomic_write_json(store.result_path(job_id), doc, fp="job.result")
        if cacheable(doc):
            results.put(meta["job_key"], doc, fence=fence)
    except StaleTokenError:
        # Fenced out: the job was stolen.  Die without another write.
        raise
    except StorageError as exc:
        store.set_state(
            job_id,
            JobState.FAILED,
            fence=fence,
            finished_at=time.time(),
            abort_reason="storage_error",
            error=f"storage: {exc}",
        )
        raise
    except Exception as exc:
        store.set_state(
            job_id,
            JobState.FAILED,
            fence=fence,
            finished_at=time.time(),
            error=f"{type(exc).__name__}: {exc}",
        )
        raise
    store.set_state(job_id, JobState.DONE, fence=fence, finished_at=time.time())
    return doc


def _runner_child_main(root: str, job_id: str, fence_args) -> None:
    """Forked runner body: execute the job, exit 0/1 (2 = fenced out)."""
    store = JobStore(root)
    results = ResultStore(JobStore(root).root / "cas")
    fence = FenceGuard(*fence_args) if fence_args is not None else None
    try:
        execute_job(store, results, job_id, fence=fence)
    except StaleTokenError:
        raise SystemExit(2)
    except Exception:
        raise SystemExit(1)


def spawn_runner(store: JobStore, job_id: str, fence: Optional[FenceGuard] = None):
    """Fork a runner process for ``job_id``; returns the live process.

    The caller must record ``process.pid`` into the job meta (so crash
    recovery can kill an orphaned runner) and join the process.  The
    fence guard (if any) is re-materialised inside the child, so the
    runner's writes stay token-stamped even though the server keeps the
    lease heartbeat.
    """
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(
        target=_runner_child_main,
        args=(
            str(store.root),
            job_id,
            None
            if fence is None
            else (fence.lease_path, fence.owner, fence.token),
        ),
        daemon=False,
    )
    process.start()
    return process
