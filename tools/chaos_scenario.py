#!/usr/bin/env python3
"""One deterministic pass over every persistence layer, for chaos sweeps.

The scenario exercises each registered failpoint at least once:
job-meta writes (create, RUNNING, DONE), lease acquire / renew /
release / re-acquire-over-released (the tombstone arbitration path),
per-fault journal appends, the final result.json write, CAS promotion,
and size-bounded CAS eviction.  ``tests/service/test_failpoints.py``
proves that coverage by running it under hit counting and asserting
every manifest entry fired.

It is written to be **idempotent over a wounded store**: re-running it
on a directory a killed or disk-faulted previous run left behind
re-adopts the unfinished jobs (resuming their journals) and completes
them to the same verdict digests.  That property is exactly what the
failpoint sweep asserts, for every crash point, in both the
error-injection and the process-kill variant:

* in-process (tier-1): arm ``raise:ENOSPC`` per failpoint, run, reset,
  re-run, compare digests — ``tests/service/test_failpoints.py``;
* subprocess (CI chaos matrix): ``REPRO_FAILPOINTS="<name>=kill"
  python tools/chaos_scenario.py <root>`` SIGKILLs this process at the
  exact syscall boundary, then a clean re-run must converge —
  ``tools/chaos_matrix.py``.

Usage::

    python tools/chaos_scenario.py <store-root>

Prints one JSON object: ``{"digests": [...], "jobs": [...]}``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.gen.benchmarks import c17  # noqa: E402
from repro.io.bench import dumps_bench  # noqa: E402
from repro.service.hashing import (  # noqa: E402
    canonical_circuit_hash,
    canonical_job_key,
    canonical_options,
)
from repro.service.jobs import JobState, JobStore, job_id_for_key  # noqa: E402
from repro.service.lease import LeaseFile  # noqa: E402
from repro.service.runner import execute_job  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402

#: The node id every scenario pass uses.  Re-running over a wounded
#: store must use the same id: a kill between tombstone and link leaves
#: a *live* tombstone, which only its own owner may bump past before
#: the TTL expires.
NODE_ID = "chaos-node"

#: Two option sets -> two distinct job keys over one tiny circuit; the
#: second promotion overflows the 1-byte CAS budget and triggers the
#: eviction failpoint.
JOB_OPTION_SETS = (None, {"certify": "full"})

LEASE_TTL_S = 30.0


def run_scenario(root: str | Path) -> dict:
    """Run (or finish) the scenario against ``root``; returns
    ``{"digests": [...], "jobs": [...]}`` in job-option order."""
    store = JobStore(root)
    store.recover()
    results = ResultStore(Path(root) / "cas", max_bytes=1)
    network = c17()
    digests, jobs = [], []
    for raw_options in JOB_OPTION_SETS:
        options = canonical_options(raw_options)
        key = canonical_job_key(network, options)
        job_id = job_id_for_key(key)
        meta = store.load_meta(job_id)
        if meta is not None and meta.get("abort_reason") == "storage_error":
            # The disk "healed" between passes: a resubmission of the
            # same job key reuses the directory with a fresh meta.
            meta = None
        if meta is None:
            meta = store.create(
                job_id,
                job_key=key,
                circuit_hash=canonical_circuit_hash(network),
                circuit_name=network.name,
                netlist_text=dumps_bench(network),
                options=options,
                tenant="chaos",
            )
        if not JobState(meta["state"]).terminal:
            lease = LeaseFile(
                store.lease_path(job_id), NODE_ID, ttl_s=LEASE_TTL_S
            )
            granted = lease.acquire(
                token_floor=meta.get("fence_token") or 0
            )
            store.set_state(
                job_id,
                JobState.RUNNING,
                fence=lease.guard(),
                fence_token=granted.token,
            )
            lease.renew()
            execute_job(store, results, job_id, fence=lease.guard())
            lease.release()
            # Re-acquire over the released lease: covers the tombstone
            # arbitration path (lease.acquire.pre_tomb) every pass.
            again = LeaseFile(
                store.lease_path(job_id), NODE_ID, ttl_s=LEASE_TTL_S
            )
            again.acquire(token_floor=granted.token)
            again.release()
        doc = store.load_result(job_id)
        if doc is None:
            raise RuntimeError(f"job {job_id} finished without a result")
        digests.append(doc["verdict_digest"])
        jobs.append(job_id)
    return {"digests": digests, "jobs": jobs}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: chaos_scenario.py <store-root>", file=sys.stderr)
        return 2
    print(json.dumps(run_scenario(argv[1])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
