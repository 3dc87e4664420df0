"""ATPG-as-a-service: a crash-safe async job server over the engine.

The paper's thesis — practical ATPG instances are easy — pays off
operationally when one engine serves many netlists: a fault's verdict
class depends only on (circuit, fault, options), and every cached test
vector is witness-replayed on read, so a *content-addressed* result
cache can safely share results across tenants, turning the engine's
intra-circuit cache hit rates into cross-request hit rates.

Layers (each importable and testable without the HTTP server):

* :mod:`repro.service.hashing` — canonical circuit/job hashing (the
  content address);
* :mod:`repro.service.store` — the certified result cache (witness
  replay on read is the trust boundary);
* :mod:`repro.service.jobs` — the on-disk job store and crash
  recovery (journal-backed re-adoption of in-flight jobs);
* :mod:`repro.service.budgets` — tenant budget clamps and the
  backpressure/degradation admission ladder;
* :mod:`repro.service.runner` — the child-process job executor
  (ParallelAtpgEngine with checkpoint journaling);
* :mod:`repro.service.server` — the stdlib-asyncio HTTP front end
  (``repro serve``).
"""

from repro.service.hashing import canonical_circuit_hash, canonical_job_key
from repro.service.jobs import JobState, JobStore
from repro.service.store import ResultStore

__all__ = [
    "canonical_circuit_hash",
    "canonical_job_key",
    "JobState",
    "JobStore",
    "ResultStore",
]
