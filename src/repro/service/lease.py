"""Lease-fenced job ownership for multi-node deployments.

Several ``repro serve`` nodes may share one job store (a shared
directory).  Safe failover then needs exactly one primitive: a way for
a node to *own* a job such that (a) a dead owner's jobs are adoptable
after a bounded delay, and (b) a paused-then-resumed zombie owner can
never clobber the adopter's work.  The classic answer is a lease with a
**monotonic fencing token** (Gray & Cheriton leases + the fencing rule
popularised by distributed-lock literature): every acquisition bumps an
integer token, every durable write by a runner is stamped and checked
against the current token, and a stale writer is rejected with
:class:`StaleTokenError`.

Why this is *safe* here and not merely probabilistic: the service's
verdict trust boundary (PR 5) means a takeover can never silently
change an answer — witness replay and DRUP checking certify whatever
node finishes the job, and the paper's cheap-to-check property is what
makes that affordable.  The lease only has to protect *liveness* and
the journal/CAS from interleaved writers; correctness never rests on
the lock.

On-disk protocol (one ``lease.json`` per job directory, plus transient
``lease.json.tomb.*`` arbitration files):

* **The file is the lock.**  Creation uses write-temp + ``link(2)``
  (atomic, fails ``EEXIST`` if a lease exists) — the ``O_EXCL``-class
  exclusivity the lock needs, with the content already complete when
  the name appears.
* **Mutation is rename-arbitrated.**  To steal, renew, or release, a
  node first ``rename(2)``-s ``lease.json`` to a *unique* tombstone
  name.  Rename of one source succeeds for exactly one caller (the
  rest get ENOENT), so concurrent stealers serialise without any
  in-memory lock.  The winner inspects the tombstone, writes the
  successor lease via ``link``, then removes tombstones.
* **Tokens never regress.**  A successor token is ``1 + max(observed
  lease token, every tombstone token, the caller's floor)``.  The job
  store additionally persists the last granted token in ``job.json``
  (``fence_token``) and callers pass it back as ``token_floor``, so
  even a lease file destroyed by disk corruption cannot reissue an old
  token.
* **Crash-safe at every instant.**  Killed between rename and link,
  the store holds no lease file and one tombstone; the next acquirer
  treats a *live* tombstone as a held lease (closing the
  steal-during-renew window) and an expired one as history to bump
  past.  The failpoint sweep (``lease.*`` in
  :mod:`repro.service.failpoints`) kills at each of these boundaries
  and asserts re-acquirability.

Expiry uses wall-clock deadlines (``time.time``) because they must be
comparable across hosts; pick a TTL comfortably above worst-case clock
skew plus heartbeat jitter (see the multi-node runbook in the README).
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.service.failpoints import failpoint

LEASE_SCHEMA_VERSION = 1

#: Bounded retries for acquisition races (each iteration re-reads the
#: lease; losing every round means a live competitor, not livelock).
_ACQUIRE_ATTEMPTS = 8


class LeaseError(Exception):
    """Base class for lease protocol failures."""


class LeaseHeldError(LeaseError):
    """Acquisition failed: another node holds a live lease."""


class LeaseLostError(LeaseError):
    """Renew/release found the lease no longer ours (stolen/expired)."""


class StaleTokenError(LeaseError):
    """A write stamped with a superseded fencing token was rejected.

    Raised at the fencing boundary (journal append, CAS promotion,
    job.json transition) by a writer whose lease was stolen — the
    zombie must die without touching the store again."""


@dataclass(frozen=True)
class Lease:
    """One decoded lease document."""

    owner: str
    token: int
    deadline: float
    released: bool = False

    def live(self, now: float) -> bool:
        return not self.released and self.deadline > now

    def to_payload(self) -> dict:
        return {
            "schema": LEASE_SCHEMA_VERSION,
            "owner": self.owner,
            "token": self.token,
            "deadline": self.deadline,
            "released": self.released,
        }

    @staticmethod
    def from_payload(payload: dict) -> "Lease":
        if payload.get("schema") != LEASE_SCHEMA_VERSION:
            raise ValueError(f"unsupported lease schema {payload.get('schema')!r}")
        return Lease(
            owner=str(payload["owner"]),
            token=int(payload["token"]),
            deadline=float(payload["deadline"]),
            released=bool(payload.get("released", False)),
        )


def _read_lease(path: Path) -> Optional[Lease]:
    """Decode a lease file; ``None`` for absent *or torn/corrupt* (a
    torn lease is unreadable evidence, never a crash — token safety
    against it comes from tombstones and the caller's floor)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return Lease.from_payload(payload)
    except (OSError, ValueError, TypeError, KeyError):
        return None


_tomb_seq = itertools.count()


class LeaseFile:
    """One job's lease, as manipulated by one node (see module docs).

    Args:
        path: the ``lease.json`` path inside the job directory.
        owner: this node's id; uniqueness across nodes is the
            deployment contract (``serve --node-id``).
        ttl_s: heartbeat deadline horizon; :meth:`renew` must run more
            often than this or the lease becomes stealable.
        clock: injectable wall clock (tests).
    """

    def __init__(
        self,
        path: str | Path,
        owner: str,
        ttl_s: float,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl must be > 0")
        self.path = Path(path)
        self.owner = str(owner)
        self.ttl_s = float(ttl_s)
        self.clock = clock
        #: The token this node was granted at the last successful
        #: acquire/renew; ``None`` before acquisition.
        self.token: Optional[int] = None

    # -- read side ------------------------------------------------------
    def peek(self) -> Optional[Lease]:
        """The current lease document, or ``None`` (absent/torn)."""
        return _read_lease(self.path)

    def newest(self) -> Optional[Lease]:
        """The current lease or, while its path is vacant because a
        renew or steal stopped between its rename and its link, the
        newest lease buried in a tombstone; ``None`` when neither
        exists."""
        current = self.peek()
        if current is not None:
            return current
        buried = [
            lease
            for tomb in self._tombstones()
            if (lease := _read_lease(tomb)) is not None
        ]
        return max(buried, key=lambda lease: lease.token, default=None)

    def held_by_other(self) -> bool:
        """True when a *live* lease (or live tombstone — a renew in
        flight) belongs to a different owner."""
        now = self.clock()
        current = self.peek()
        if current is not None and current.owner != self.owner and current.live(now):
            return True
        for tomb in self._tombstones():
            lease = _read_lease(tomb)
            if lease is not None and lease.owner != self.owner and lease.live(now):
                return True
        return False

    # -- mutation -------------------------------------------------------
    def acquire(self, token_floor: int = 0) -> Lease:
        """Acquire (fresh, re-acquire, or steal) and return the lease.

        Always bumps the fencing token — re-acquiring a job fences any
        straggler runner this node itself left behind.  Raises
        :class:`LeaseHeldError` when a different owner's lease is live
        or every arbitration round is lost to live competitors.
        """
        for _ in range(_ACQUIRE_ATTEMPTS):
            now = self.clock()
            current = self.peek()
            if (
                current is not None
                and current.owner != self.owner
                and current.live(now)
            ):
                raise LeaseHeldError(
                    f"{self.path}: lease held by {current.owner!r} "
                    f"(token {current.token}) for another "
                    f"{current.deadline - now:.2f}s"
                )
            tomb_floor = self._tombstone_floor(
                guard_live=current is None, now=now
            )
            if tomb_floor < 0:
                # A live foreign tombstone with the lease path vacant:
                # that owner's renew/steal is mid-flight — back off.
                raise LeaseHeldError(f"{self.path}: live tombstone in flight")
            floor = max(
                token_floor,
                current.token if current is not None else 0,
                tomb_floor,
            )
            if self.path.exists():
                tomb = self._tomb_name()
                try:
                    failpoint("lease.acquire.pre_tomb")
                    os.rename(self.path, tomb)
                except FileNotFoundError:
                    continue  # lost the arbitration; re-read and retry
                except OSError as exc:
                    self._raise_storage("lease steal", exc)
                buried = _read_lease(tomb)
                if (
                    buried is not None
                    and buried.owner != self.owner
                    and buried.live(self.clock())
                ):
                    # The liveness check above raced a concurrent
                    # (re)acquisition: what we tombed is someone else's
                    # *live* lease.  The rename was atomic, so we own
                    # the evidence — put it back and yield.
                    self._publish_tomb_back(tomb)
                    raise LeaseHeldError(
                        f"{self.path}: lease held by {buried.owner!r} "
                        f"(token {buried.token}; observed post-arbitration)"
                    )
                if buried is not None:
                    floor = max(floor, buried.token)
            granted = Lease(
                owner=self.owner,
                token=floor + 1,
                deadline=self.clock() + self.ttl_s,
            )
            if self._publish(granted, "lease.acquire.pre_link"):
                try:
                    failpoint("lease.acquire.post_link")
                except OSError as exc:
                    # The link is already durable: surface the fault
                    # typed; the next acquire re-bumps past this token.
                    self._raise_storage("lease acquire", exc)
                self._sweep_tombstones()
                self.token = granted.token
                return granted
            # Someone linked first; loop re-reads their lease.
        raise LeaseHeldError(f"{self.path}: lost every acquisition round")

    def renew(self) -> Lease:
        """Heartbeat: extend the deadline, keeping the token.

        Raises :class:`LeaseLostError` if the lease is absent, torn, or
        no longer carries this node's owner+token (stolen)."""
        if self.token is None:
            raise LeaseLostError(f"{self.path}: never acquired")
        return self._replace_own(
            lambda mine: Lease(
                owner=self.owner,
                token=mine.token,
                deadline=self.clock() + self.ttl_s,
            ),
            "lease.renew.pre_link",
        )

    def release(self) -> Lease:
        """Mark the lease released (token preserved for monotonicity)."""
        if self.token is None:
            raise LeaseLostError(f"{self.path}: never acquired")
        lease = self._replace_own(
            lambda mine: Lease(
                owner=self.owner,
                token=mine.token,
                deadline=self.clock(),
                released=True,
            ),
            "lease.release.pre_link",
        )
        self.token = None
        return lease

    def guard(self) -> "FenceGuard":
        """A :class:`FenceGuard` for the currently held token."""
        if self.token is None:
            raise LeaseLostError(f"{self.path}: never acquired")
        return FenceGuard(self.path, self.owner, self.token)

    # -- internals ------------------------------------------------------
    def _replace_own(self, successor, fp_name: str) -> Lease:
        """Rename-arbitrated in-place update of a lease we believe is
        ours; restores the tombstone if it turns out not to be."""
        tomb = self._tomb_name()
        try:
            os.rename(self.path, tomb)
        except FileNotFoundError:
            self.token = None
            raise LeaseLostError(f"{self.path}: lease gone") from None
        except OSError as exc:
            self._raise_storage("lease update", exc)
        buried = _read_lease(tomb)
        if (
            buried is None
            or buried.owner != self.owner
            or buried.token != self.token
        ):
            # Not ours (stolen, or torn beyond recognition): put the
            # evidence back for the rightful owner and report the loss.
            self._publish_tomb_back(tomb)
            self.token = None
            raise LeaseLostError(
                f"{self.path}: lease is {buried.owner!r}/"
                f"{buried.token if buried else '?'}, not "
                f"{self.owner!r}/{self.token}"
            )
        updated = successor(buried)
        if not self._publish(updated, fp_name):
            # A competitor linked while the path was vacant; whoever it
            # is scanned our tombstone, so their token is higher.
            os.unlink(tomb)
            self.token = None
            raise LeaseLostError(f"{self.path}: superseded during update")
        self._sweep_tombstones()
        return updated

    def _publish(self, lease: Lease, fp_name: str) -> bool:
        """Write ``lease`` and atomically link it at the lease path;
        False when the path is already (re)occupied."""
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(lease.to_payload(), fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                failpoint(fp_name)
                os.link(tmp_name, self.path)
                return True
            except FileExistsError:
                return False
            except OSError as exc:
                self._raise_storage("lease publish", exc)
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    def _publish_tomb_back(self, tomb: Path) -> None:
        """Best-effort restoration of a tombstone we had no right to
        take; EEXIST means someone already published a successor."""
        try:
            os.link(tomb, self.path)
        except OSError:
            pass
        try:
            os.unlink(tomb)
        except OSError:
            pass

    def _tomb_name(self) -> Path:
        return self.path.with_name(
            f"{self.path.name}.tomb.{os.getpid()}.{next(_tomb_seq)}"
        )

    def _tombstones(self) -> list[Path]:
        return sorted(self.path.parent.glob(self.path.name + ".tomb.*"))

    def _tombstone_floor(self, guard_live: bool, now: float) -> int:
        """Highest token buried in tombstones.  With ``guard_live``
        (the lease path is vacant), a *live foreign* tombstone means a
        renew/steal is mid-flight: report -1 so acquisition backs off
        instead of racing it."""
        floor = 0
        for tomb in self._tombstones():
            lease = _read_lease(tomb)
            if lease is None:
                continue
            if guard_live and lease.owner != self.owner and lease.live(now):
                return -1
            floor = max(floor, lease.token)
        return floor

    def _sweep_tombstones(self) -> None:
        for tomb in self._tombstones():
            try:
                os.unlink(tomb)
            except OSError:
                pass

    @staticmethod
    def _raise_storage(op: str, exc: OSError) -> None:
        from repro.io.atomic import STORAGE_ERRNOS, StorageError

        if exc.errno in STORAGE_ERRNOS:
            raise StorageError(op, "lease", exc) from exc
        raise exc


class FenceGuard:
    """The write-side fencing check a runner carries.

    ``check()`` re-reads the lease file and raises
    :class:`StaleTokenError` unless it still shows exactly this
    owner and token — renewals keep the token, steals bump it, so
    equality is the ownership predicate.  A missing or torn lease also
    rejects: a writer that cannot *prove* ownership must not write.

    Picklable on purpose: the server builds it, the forked runner
    carries it, and every journal append / CAS promotion / job.json
    transition calls it at the write boundary.
    """

    def __init__(self, lease_path: str | Path, owner: str, token: int) -> None:
        self.lease_path = str(lease_path)
        self.owner = str(owner)
        self.token = int(token)

    def _mine(self, lease: Optional[Lease]) -> bool:
        return (
            lease is not None
            and lease.owner == self.owner
            and lease.token == self.token
        )

    def check(self) -> None:
        path = Path(self.lease_path)
        lease = _read_lease(path)
        if lease is not None:
            if self._mine(lease):
                return
            # A present lease with a different owner/token is a
            # completed steal: reject unconditionally.  (This ordering
            # matters — once the new owner has *linked*, the tombstone
            # fallback below must never resurrect the old token.)
            raise StaleTokenError(
                f"{self.lease_path}: fencing token {self.token} "
                f"({self.owner!r}) superseded by {lease.token} "
                f"({lease.owner!r})"
            )
        # The path is vacant: a renew/steal arbitration is mid-flight
        # (rename-to-tombstone happens before the successor is linked).
        # If the buried document is still exactly ours, this write
        # linearizes before any successor grant — the heartbeat
        # renewing our own lease must not fence out our own runner.
        for tomb in sorted(path.parent.glob(path.name + ".tomb.*")):
            if self._mine(_read_lease(tomb)):
                return
        # The arbitration may have completed (tombstones swept) between
        # our two reads: give the main path one more look.
        if self._mine(_read_lease(path)):
            return
        raise StaleTokenError(
            f"{self.lease_path}: lease missing/unreadable; refusing to "
            f"write with unproven token {self.token}"
        )

    def __call__(self) -> None:
        self.check()

    def __repr__(self) -> str:
        return (
            f"FenceGuard({self.lease_path!r}, owner={self.owner!r}, "
            f"token={self.token})"
        )
