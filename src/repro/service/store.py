"""Content-addressed certified result cache.

One file per job key under ``<root>/cas/<key>.json``, written atomically
(:func:`repro.io.atomic.atomic_write_json`) so a crash mid-promotion
never leaves a torn document.

The cache is a *trust boundary*, exactly like the checkpoint journal's
resume path: a cached record may come from an older build, a corrupted
disk, or a malicious tenant who wrote into the data directory.  A read
therefore never returns records on faith — every TESTED record's
pattern is replayed through the independent fault simulator
(:func:`repro.atpg.certify.witness_ok`) against the *requesting*
submission's network before the document is served.  A document that
fails replay (or structural sanity) is evicted and the caller falls
through to a real solve.  UNSAT records carry no replayable witness;
they are covered by only caching documents whose run certified them
upstream and whose verdict digest matches on re-serve.

The service's promise is *class-identical* results: across resumes,
worker counts and node takeovers every fault gets the same verdict
class, while the warm CDCL solvers may find different (equally valid,
witness-replayed) test vectors.  The verdict digest therefore covers
verdict classes, not vectors.

Only results that every schedule reproduces are cacheable, so a
document with any ABORTED record is rejected at :func:`cacheable`:
orchestration aborts (deadline, crashed shard) reflect the outage that
produced them, and which faults exhaust a conflict budget depends on
the warm solvers' history, that is, on the resume point and the worker
count.  Such jobs still dedupe through the job store.

With ``max_bytes`` set the store is additionally *size-bounded*: every
promotion evicts least-recently-used documents (file mtime, refreshed on
every served read) until the cache fits the budget again.  Eviction is a
plain ``unlink`` of whole atomically-written documents, so a concurrent
reader sees either the full document or a miss — never a torn one — and
a cache wiped by eviction only costs re-solving, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.atpg.certify import witness_ok
from repro.atpg.checkpoint import record_from_dict
from repro.atpg.engine import FaultStatus
from repro.atpg.fault_sim import FaultSimulator
from repro.circuits.network import Network
from repro.io.atomic import StorageError, atomic_write_json
from repro.service.failpoints import failpoint

RESULT_SCHEMA_VERSION = 1

#: Record statuses that fold into the one ``detected`` verdict class:
#: whether a detected fault got its own test or was dropped by an
#: earlier one depends on which vectors the solver happened to find.
_DETECTED = frozenset({FaultStatus.TESTED.value, FaultStatus.DROPPED.value})


def verdict_projection(record_dict: dict) -> list:
    """The verdict class of one journaled/cached record.

    Timing, search effort and test vectors vary with the schedule; the
    verdict class — fault, detected/untestable/unobservable/aborted,
    abort reason, certification outcome — does not.  The digest below
    is computed over exactly this.
    """
    status = record_dict["status"]
    return [
        record_dict["net"],
        record_dict["value"],
        "detected" if status in _DETECTED else status,
        record_dict.get("abort_reason"),
        record_dict.get("certified"),
    ]


def verdict_digest(record_dicts: list[dict]) -> str:
    """SHA-256 over the ordered verdict projections of a result."""
    payload = json.dumps(
        [verdict_projection(r) for r in record_dicts], sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cacheable(result_doc: dict) -> bool:
    """True when a result document may enter the cache: it has no
    ABORTED record (see the module docstring)."""
    return all(
        record.get("status") != FaultStatus.ABORTED.value
        for record in result_doc.get("records", ())
    )


class ResultStore:
    """The on-disk content-addressed store (see module docstring)."""

    def __init__(
        self, root: str | Path, max_bytes: Optional[int] = None
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # A SIGKILL mid-promotion leaks one uncommitted temp sibling;
        # sweep them at open so the store never accretes litter.
        for tmp in self.root.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass
        self.max_bytes = max_bytes
        #: Read-side telemetry: served / missed / evicted-on-read
        #: (verification failures) / evicted-for-size (LRU).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.size_evictions = 0
        #: Promotions skipped because the disk faulted (ENOSPC/EIO):
        #: the cache degrades to a bypass, never to a traceback.
        self.write_errors = 0

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed result key {key!r}")
        return self.root / f"{key}.json"

    def put(self, key: str, result_doc: dict, fence=None) -> bool:
        """Promote a completed result; returns False (and skips the
        write) for documents :func:`cacheable` rejects and for
        promotions the disk refused (``ENOSPC``/``EIO`` degrade to a
        cache bypass — the job's own result.json is the durable copy).

        ``fence`` (a :class:`~repro.service.lease.FenceGuard`) makes
        promotion an owner write: a zombie runner whose lease was stolen
        raises :class:`~repro.service.lease.StaleTokenError` *before*
        touching the shared CAS, and the promoted document records the
        fencing token that produced it.
        """
        if not cacheable(result_doc):
            return False
        doc = dict(result_doc)
        doc["schema"] = RESULT_SCHEMA_VERSION
        doc["verdict_digest"] = verdict_digest(doc.get("records", []))
        if fence is not None:
            fence()
            doc["fence_token"] = fence.token
        path = self._path(key)
        try:
            atomic_write_json(path, doc, fp="cas.promote")
        except StorageError:
            self.write_errors += 1
            return False
        if self.max_bytes is not None:
            self._evict_lru(keep=path)
        return True

    def _evict_lru(self, keep: Path) -> None:
        """Unlink least-recently-used documents until the cache fits
        ``max_bytes``.  The just-written ``keep`` document is never
        evicted, so a promotion always lands even on a tiny budget."""
        entries = []
        total = 0
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted
            total += stat.st_size
            if path != keep:
                entries.append((stat.st_mtime, path.name, stat.st_size, path))
        if total <= self.max_bytes:
            return
        # Oldest access first; name tie-break keeps the order stable on
        # filesystems with coarse mtime granularity.
        entries.sort(key=lambda e: (e[0], e[1]))
        for _, _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                failpoint("cas.evict.pre_unlink")
                path.unlink(missing_ok=True)
            except OSError:
                continue  # a faulting unlink only delays eviction
            self.size_evictions += 1
            total -= size

    def get(self, key: str, network: Network) -> Optional[dict]:
        """Fetch the certified result for ``key``, or None.

        Every TESTED record is witness-replayed against ``network``
        before the document is trusted; a failing document is evicted.
        """
        path = self._path(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not self._verify(doc, network):
            self.evictions += 1
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        if self.max_bytes is not None:
            # Refresh the LRU clock: a served document is the last one
            # size-bounded eviction should reclaim.
            try:
                os.utime(path)
            except OSError:
                pass  # concurrently evicted; the served doc is still good
        return doc

    def _verify(self, doc: dict, network: Network) -> bool:
        """The read-side trust boundary (see module docstring)."""
        if doc.get("schema") != RESULT_SCHEMA_VERSION:
            return False
        records = doc.get("records")
        if not isinstance(records, list):
            return False
        if doc.get("verdict_digest") != verdict_digest(records):
            return False
        replay = []
        for payload in records:
            try:
                record = record_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                return False
            # DROPPED records claim detection by an earlier pattern, so
            # they carry a replayable witness exactly like TESTED ones.
            if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
                replay.append(record)
        # Records sharing a pattern replay back to back, so one simulator
        # simulates each distinct pattern once.
        simulator = FaultSimulator(network)
        replay.sort(key=lambda r: repr(r.test))
        return all(
            witness_ok(simulator, record.fault, record.test)
            for record in replay
        )

    def current_bytes(self) -> int:
        """Total on-disk size of the cached documents."""
        total = 0
        for path in self.root.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size_evictions": self.size_evictions,
            "write_errors": self.write_errors,
            "max_bytes": self.max_bytes,
            "current_bytes": self.current_bytes(),
        }
