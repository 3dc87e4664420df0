"""Conflict-driven clause learning (CDCL) SAT solver.

A reference solver in the GRASP lineage the paper cites ([23], Silva &
Sakallah): unit propagation with watched literals, first-UIP conflict
analysis, non-chronological backjumping, VSIDS-style activities and
geometric restarts.  The paper models conflict learning abstractly via
the sub-formula cache of Algorithm 1; this solver is the concrete modern
counterpart and serves as a cross-check oracle and an ablation point.

The solver is split in two layers:

* :class:`CdclCore` — a *persistent* integer-level engine.  Variables
  and clauses are appended over its lifetime, ``solve(assumptions)``
  can be called any number of times, and learned clauses, VSIDS
  activities, and saved phases survive between calls.  This is the
  substrate of the incremental ATPG path
  (:mod:`repro.sat.incremental`), which solves a whole fault list as
  one incremental sequence instead of thousands of cold starts.
* :class:`CdclSolver` — the formula-level wrapper with the classic
  one-shot ``solve(formula)`` API.  It compiles the formula (cached,
  so repeated solves on the same formula skip recompilation) and runs
  a fresh core per call.

Storage layout (the flat-array kernel)
--------------------------------------

All per-variable and per-literal state lives in flat parallel *lists*
of small ints, indexed by variable or literal — no objects, no dicts,
no attribute loads on the hot paths.  Plain lists, not ``array``-typed
arenas, and deliberately so: on CPython, ``array('q')``/``array('b')``
element reads construct a fresh ``int`` object for every value outside
the small-int cache (clause refs and literals routinely exceed 256),
and measured propagation throughput is *lower* than with lists, whose
elements are already boxed once and shared.  Lists also grow by
doubling inside the allocator, so bulk extension via
:meth:`CdclCore.new_vars` already avoids per-variable rebuilds; the
arenas' win on a C backend (contiguity, no pointer chase) simply does
not materialise under the CPython object model.

Truth values are stored per *literal* (``lit_truth[lit]``, with
``lit_truth[lit ^ 1]`` kept complementary) so the propagation loop
needs no shift/xor per probe; there is no separate per-variable value
array at all — ``lit_truth[2 * var]`` *is* the variable's value, and
the public :attr:`CdclCore.values` view is derived from it as a
stride-2 slice snapshot on demand.

Clauses of three or more literals live in a single packed integer
arena: a clause reference ``ref`` is an index into ``arena`` where the
clause's literals start, with the clause length at ``arena[ref - 1]``.
Watch lists are flat lists of refs, and the implication graph
(``reason``) is a parallel per-variable list (-1 = decision).

**Binary clauses** (exactly two literals after root simplification) are
kept out of the watch lists entirely.  Each literal owns a flat
successor array ``bin_others[lit]`` — the implication edges
``¬lit → other`` — with the owning clause refs in a parallel
``bin_refs[lit]`` array, and propagation runs a tight pre-pass over the
successors before touching the long-clause watch lists: a binary clause
needs no replacement-watch search, no literal permutation, and its
reason is encoded directly in the ``reason`` array
(``reason[var] = -2 - falsified_lit``) so conflict analysis resolves it
without an arena read.  Splitting the successors from the refs keeps
the pre-pass a bare C-speed iteration (one list read and one truth
probe per edge); the parallel ref is only consulted on the rare
conflict.  Tseitin CNF of AND/OR netlists is roughly two-thirds binary
clauses, which makes this the propagation fast path.  The clauses
themselves still occupy the arena (for proofs, analysis of binary
*conflicts*, and :meth:`CdclCore.read_clause`); only their watch
plumbing is special.

Long-clause watch entries carry a **blocker literal** (MiniSat 2.2
style) in a parallel ``blockers[lit]`` array: the last literal of the
clause observed true.  While the blocker holds, a watch visit is two
list reads and a compare — no arena access, no literal swap.

The kernel is required to stay **bit-identical** to the object-graph
reference implementation (:mod:`repro.sat.cdcl_ref`) — same verdicts,
same propagation/decision/conflict/restart counters, same DRUP proofs —
because both perform the same binary-first propagation and the same
in-place literal permutations in the same order;
``tests/sat/test_kernel_parity.py`` enforces this over the fuzz corpus.

Dead arena space (detached learned clauses, swept groups) is reclaimed
by :meth:`CdclCore.collect`, which compacts the arena while preserving
watch-list and binary-edge order so the search trajectory is
unaffected.

Restricted decisions
--------------------

``solve(decidable=mask)`` branches only on the variables the mask
allows: a ``bytes`` over the index prefix ``[0, len(mask))`` says which
of those may be decided, and every variable at or above ``len(mask)``
may always be decided.  The incremental ATPG layer loads the whole good
circuit first and never releases it, so the good-circuit variables are
exactly that prefix, and each fault's mask allows its relevant set
(the soundness argument is in :mod:`repro.sat.incremental`).  A popped
ineligible variable just leaves the branching heap, and a call under
a new mask refills the heap with exactly the variables that mask
allows, at their current activities: one pass over the variables per
change of mask, nothing per call under an unchanged one.  Activities,
learned clauses and saved phases carry over from call to call.  The
call answers SAT at a conflict-free fixpoint in which every decidable
variable is assigned; ineligible ones may stay unassigned.  A core
never given a mask never refills its heap, so its trajectory is the
reference core's.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from typing import Optional

from repro.sat.cnf import CnfFormula
from repro.sat.compile import compile_formula, negate
from repro.sat.drup import DrupLog
from repro.sat.result import SatResult, SatStatus, SolverStats

_UNASSIGNED = -1

#: Rescale threshold for VSIDS activities (MiniSat's 1e100 scheme).
_ACTIVITY_CAP = 1e100


class CdclCore:
    """Persistent CDCL engine over integer literals (flat-array kernel).

    State (assignment trail, watches, learned-clause database, VSIDS
    activities, saved phases) lives across :meth:`solve` calls.  New
    variables and clauses may be appended between calls; callers that
    append guarded clause groups (activation literals) can release the
    group's variables back for recycling once the group is retired and
    trigger :meth:`collect` to sweep root-satisfied clauses.

    Clauses are stored in a packed integer arena (see the module
    docstring); ``base`` and ``learned`` hold arena refs, and the
    solver may permute a long clause's literal order in place during
    watch maintenance (the literal *set* is never changed; binary
    clauses are never permuted).

    Args:
        restart_interval: conflicts before the first restart (grows 1.5x).
        decay: VSIDS activity decay factor per conflict.
        proof: optional :class:`~repro.sat.drup.DrupLog` to record a
            DRUP proof into — every learned clause, every root-level
            simplification, every clause discarded by
            :meth:`reduce_learned` / :meth:`collect`, and the final
            empty clause on a root refutation.  Proof logging is sound
            for the one-shot lifecycle (build formula, then solve);
            variable recycling re-binds indices, so incremental UNSATs
            certify via assumption-core replay on a fresh proof-logged
            core instead (see :mod:`repro.atpg.certify`).
        learned_db_min: learned-clause count floor before DB reduction
            triggers (lower it in tests to force reduction traffic).
        learned_db_factor: reduction also waits for the learned DB to
            outgrow ``factor * len(base)``.
    """

    def __init__(
        self,
        restart_interval: int = 128,
        decay: float = 0.95,
        proof: Optional["DrupLog"] = None,
        learned_db_min: int = 1000,
        learned_db_factor: float = 2.0,
    ) -> None:
        self.restart_interval = restart_interval
        self.decay = decay
        self.proof = proof
        self.learned_db_min = learned_db_min
        self.learned_db_factor = learned_db_factor

        self.level: list[int] = []
        #: Implication-graph edge per variable: an arena ref (>= 0) for
        #: long-clause reasons, -1 for decisions/none, and ``-2 - lit``
        #: for binary reasons where ``lit`` is the falsified literal of
        #: the binary clause (conflict analysis resolves a binary
        #: reason with just that literal, no arena access).
        self.reason: list[int] = []
        #: VSIDS activity per var, stored *negated* (always <= 0.0):
        #: heap entries are ``(activity[var], var)`` directly, so the
        #: hot requeue paths build no negated copy per push.
        self.activity: list[float] = []
        self.saved_phase: list[int] = []
        self.released = bytearray()
        #: Per-literal truth: lit_truth[lit] is -1 unassigned, else the
        #: truth value (0/1) of the *literal* under the assignment.
        self.lit_truth: list[int] = []
        #: Watch lists (long clauses only): per-literal lists of refs,
        #: with a parallel blocker literal per entry (clause skipped
        #: without arena access while the blocker is true).
        self.watches: list[list[int]] = []
        self.blockers: list[list[int]] = []
        #: Binary implication edges: bin_others[lit] holds the successor
        #: literals (one per binary clause {lit, other}), bin_refs[lit]
        #: the owning clause refs at matching indices.
        self.bin_others: list[list[int]] = []
        self.bin_refs: list[list[int]] = []

        #: Packed clause storage: a clause ref points at its first
        #: literal; arena[ref - 1] holds the clause length.
        self.arena: list[int] = []
        self.base: list[int] = []
        self.learned: list[int] = []
        self._lbd: dict[int, int] = {}  # ref -> literal block distance

        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.root_failed = False

        self._var_inc = 1.0
        #: Lazy-deletion branching heap.  Entries are (activity, var)
        #: (activities are stored negated, so min-heap order is
        #: highest-activity-first)
        #: tuples under C-implemented heapq: pops depend only on the
        #: entry multiset, never on internal layout, so bulk heap
        #: construction (new_vars, backjump batching) cannot change the
        #: search trajectory.
        self._heap: list[tuple[float, int]] = []
        #: cur_in_heap[var] == 1 while the heap holds an entry whose key
        #: matches the var's *current* activity.  ``_pick_branch`` only
        #: accepts current-key entries, so the pick is a pure function
        #: of (values, released, activity) — suppressing duplicate
        #: pushes here cannot change the search trajectory, it only
        #: keeps the lazy-deletion heap free of redundant entries.
        self._cur_in_heap = bytearray()
        #: Count of vars that are unassigned and not released — the
        #: SAT-detection counter.  When it hits zero the model is total
        #: over live vars, and solve() concludes SAT without draining
        #: the lazy-deletion heap's stale entries one pop at a time.
        self._active_unassigned = 0
        self._free: list[int] = []
        #: Vars released while still root-assigned (activation literals);
        #: recycled by :meth:`collect` once their clauses are swept.
        self._zombie: list[int] = []
        self._seen = bytearray()  # reusable conflict-analysis scratch
        #: The decision mask of the last call (None: decide any var;
        #: see "Restricted decisions").
        self._decidable: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Allocated variable count (including recyclable slots)."""
        return len(self.level)

    @property
    def values(self) -> list[int]:
        """Per-variable truth values (-1 unassigned, else 0/1).

        Derived from ``lit_truth`` by a C-level stride-2 slice —
        ``lit_truth[2 * var]`` is exactly the truth value of ``var``, so
        the kernel keeps no separate per-variable value array (one
        fewer store per enqueue and per unwind).  Callers get a fresh
        snapshot list; mutations to it do not touch solver state.
        """
        return self.lit_truth[::2]

    def new_var(self) -> int:
        """Allocate a variable index (recycling released ones)."""
        if self._free:
            var = self._free.pop()
            self.released[var] = 0
            self.activity[var] = 0.0
            self.saved_phase[var] = 0
            self._active_unassigned += 1
            heappush(self._heap, (0.0, var))
            self._cur_in_heap[var] = 1
            return var
        var = len(self.level)
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.saved_phase.append(0)
        self.released.append(0)
        self.lit_truth.append(_UNASSIGNED)
        self.lit_truth.append(_UNASSIGNED)
        for _ in range(2):
            self.watches.append([])
            self.blockers.append([])
            self.bin_others.append([])
            self.bin_refs.append([])
        self._seen.append(0)
        self._cur_in_heap.append(1)
        self._active_unassigned += 1
        heappush(self._heap, (0.0, var))
        return var

    def new_vars(self, count: int) -> None:
        """Bulk-allocate ``count`` fresh variables.

        Semantically identical to ``count`` calls of :meth:`new_var`
        (the branching heap receives the same entry multiset, and heap
        pops depend only on the multiset, so the trajectory is
        unchanged), but the flat state arrays are extended in one shot —
        this is how one-shot solves avoid a per-variable core rebuild.
        """
        if count <= 0:
            return
        if self._free:
            # Recycling in play: take the exact scalar path.
            for _ in range(count):
                self.new_var()
            return
        start = len(self.level)
        self.level.extend([0] * count)
        self.reason.extend([-1] * count)
        self.activity.extend([0.0] * count)
        self.saved_phase.extend([0] * count)
        self.released.extend(bytes(count))
        self.lit_truth.extend([_UNASSIGNED] * (2 * count))
        self._seen.extend(bytes(count))
        self._cur_in_heap.extend(b"\x01" * count)
        self._active_unassigned += count
        watches = self.watches
        blockers = self.blockers
        bin_others = self.bin_others
        bin_refs = self.bin_refs
        for _ in range(2 * count):
            watches.append([])
            blockers.append([])
            bin_others.append([])
            bin_refs.append([])
        entries = [(0.0, var) for var in range(start, start + count)]
        if self._heap:
            for entry in entries:
                heappush(self._heap, entry)
        else:
            # Strictly increasing keys form a valid heap as-is.
            self._heap = entries

    def release_var(self, var: int, defer: bool = False) -> None:
        """Mark ``var`` dead.  Immediately recyclable unless ``defer``
        (for vars still root-assigned, e.g. activation literals, which
        :meth:`collect` recycles after sweeping their clauses)."""
        self.released[var] = 1
        unassigned = self.lit_truth[var << 1] == _UNASSIGNED
        if unassigned:
            self._active_unassigned -= 1
        if defer or not unassigned:
            self._zombie.append(var)
        else:
            self._free.append(var)

    def set_activity(self, var: int, value: float) -> None:
        """Seed a variable's activity (static-order tie-breaking)."""
        self.activity[var] = -value
        self._cur_in_heap[var] = 0  # any in-heap entry is now stale
        if self.lit_truth[var << 1] == _UNASSIGNED and not self.released[var]:
            heappush(self._heap, (-value, var))
            self._cur_in_heap[var] = 1

    # ------------------------------------------------------------------
    # Clauses
    # ------------------------------------------------------------------
    def read_clause(self, ref: int) -> list[int]:
        """The literals of the clause at ``ref`` (a copy)."""
        return self.arena[ref : ref + self.arena[ref - 1]]

    def _alloc(self, lits: list[int]) -> int:
        """Store ``lits`` in the arena and return the clause ref."""
        arena = self.arena
        arena.append(len(lits))
        ref = len(arena)
        arena.extend(lits)
        return ref

    def _attach_binary(self, a: int, b: int, ref: int) -> None:
        """Record the implication edges ``¬a → b`` and ``¬b → a``."""
        self.bin_others[a].append(b)
        self.bin_refs[a].append(ref)
        self.bin_others[b].append(a)
        self.bin_refs[b].append(ref)

    def add_clause(self, lits: list[int]) -> bool:
        """Append a problem clause (root simplified).

        Must be called at decision level 0.  The literals are copied
        into the arena (the caller's list is never retained or
        mutated).  Returns ``False`` when the database became
        root-inconsistent.
        """
        if self.root_failed:
            return False
        lit_truth = self.lit_truth
        kept: Optional[list[int]] = None  # lazily copied on simplification
        for index, lit in enumerate(lits):
            value = lit_truth[lit]
            if value == 1:
                return True  # satisfied at root: never attach
            if value == 0:
                if kept is None:
                    kept = lits[:index]
                continue
            if kept is not None:
                kept.append(lit)
        clause = lits if kept is None else kept
        if self.proof is not None and kept is not None:
            # A root-simplified clause differs from the caller's input
            # (which the checker sees as part of the formula), so it is
            # a derived clause the proof must justify: it is RUP because
            # the dropped literals are root-false by unit propagation.
            if clause:
                self.proof.add(clause)
            else:
                self.proof.add_empty()
        if not clause:
            self.root_failed = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                if self.proof is not None:
                    self.proof.add_empty()
                self.root_failed = True
                return False
            return True
        ref = self._alloc(clause)
        self.base.append(ref)
        if len(clause) == 2:
            self._attach_binary(clause[0], clause[1], ref)
        else:
            self.watches[clause[0]].append(ref)
            self.blockers[clause[0]].append(clause[1])
            self.watches[clause[1]].append(ref)
            self.blockers[clause[1]].append(clause[0])
        return True

    def _detach(self, ref: int) -> None:
        """Remove the clause at ``ref`` from its watch structures."""
        arena = self.arena
        if arena[ref - 1] == 2:
            for lit in (arena[ref], arena[ref + 1]):
                refs = self.bin_refs[lit]
                others = self.bin_others[lit]
                j = refs.index(ref)
                refs[j] = refs[-1]
                refs.pop()
                others[j] = others[-1]
                others.pop()
            return
        for lit in (arena[ref], arena[ref + 1]):
            watching = self.watches[lit]
            blks = self.blockers[lit]
            i = watching.index(ref)
            watching[i] = watching[-1]
            watching.pop()
            blks[i] = blks[-1]
            blks.pop()

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------
    def current_level(self) -> int:
        return len(self.trail_lim)

    def _lit_value(self, lit: int) -> int:
        return self.lit_truth[lit]

    def _enqueue(self, lit: int, reason_ref: int = -1) -> bool:
        lit_truth = self.lit_truth
        value = lit_truth[lit]
        if value != _UNASSIGNED:
            return value == 1
        var = lit >> 1
        if not self.released[var]:
            self._active_unassigned -= 1
        lit_truth[lit] = 1
        lit_truth[lit ^ 1] = 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_ref
        self.trail.append(lit)
        return True

    def _propagate(self, stats: SolverStats) -> int:
        """Unit propagation.  Returns a conflicting clause ref, or -1.

        Each dequeued literal first walks its flat binary-implication
        edges (no watch surgery, no replacement search, reason encoded
        as ``-2 - falsified_lit``), then the long-clause watch list.
        """
        arena = self.arena
        lit_truth = self.lit_truth
        watches = self.watches
        blockers = self.blockers
        bin_others = self.bin_others
        trail = self.trail
        level = self.level
        reason = self.reason
        current = len(self.trail_lim)
        qhead = self.qhead
        # Every trail append inside this call is one propagation, so the
        # counter is derived from trail growth instead of maintained in
        # the hot enqueue bodies.
        entry_len = len(trail)
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            # Binary fast path: every edge is ¬false_lit → other.  A
            # bare C-iterator loop: one list read and one truth probe
            # per already-satisfied edge.
            others = bin_others[false_lit]
            for other in others:
                ov = lit_truth[other]
                if ov == 1:
                    continue
                if ov == 0:  # both literals false: conflict
                    self.qhead = qhead
                    delta = len(trail) - entry_len
                    stats.propagations += delta
                    self._active_unassigned -= delta
                    # The conflicting edge is the *first* edge carrying
                    # this successor value: an earlier duplicate would
                    # itself have conflicted (or enqueued the literal)
                    # first.  ``.index`` therefore recovers its ref.
                    return self.bin_refs[false_lit][others.index(other)]
                var = other >> 1
                lit_truth[other] = 1
                lit_truth[other ^ 1] = 0
                level[var] = current
                reason[var] = -2 - false_lit
                trail.append(other)
            # Long clauses (size >= 3) via two watched literals.  Each
            # entry carries a blocker literal; while it holds true the
            # clause is satisfied and skipped without arena access.
            watching = watches[false_lit]
            blks = blockers[false_lit]
            i = 0
            end_w = len(watching)
            while i < end_w:
                if lit_truth[blks[i]] == 1:
                    i += 1
                    continue
                ref = watching[i]
                first = arena[ref]
                if first == false_lit:
                    first = arena[ref + 1]
                    arena[ref] = first
                    arena[ref + 1] = false_lit
                fv = lit_truth[first]
                if fv == 1:
                    blks[i] = first
                    i += 1
                    continue
                size = arena[ref - 1]
                found = False
                for k in range(ref + 2, ref + size):
                    other = arena[k]
                    if lit_truth[other] != 0:
                        arena[ref + 1] = other
                        arena[k] = false_lit
                        watches[other].append(ref)
                        blockers[other].append(first)
                        end_w -= 1
                        watching[i] = watching[end_w]
                        watching.pop()
                        blks[i] = blks[end_w]
                        blks.pop()
                        found = True
                        break
                if found:
                    continue
                if fv == 0:  # first is false: conflict
                    self.qhead = qhead
                    delta = len(trail) - entry_len
                    stats.propagations += delta
                    self._active_unassigned -= delta
                    return ref
                # first is the implied literal: inlined _enqueue.
                var = first >> 1
                lit_truth[first] = 1
                lit_truth[first ^ 1] = 0
                level[var] = current
                reason[var] = ref
                trail.append(first)
                blks[i] = first
                i += 1
        self.qhead = qhead
        delta = len(trail) - entry_len
        stats.propagations += delta
        self._active_unassigned -= delta
        return -1

    def propagate_root(self, stats: Optional[SolverStats] = None) -> bool:
        """Settle root-level units (after appends).  False on conflict."""
        if self.root_failed:
            return False
        if self._propagate(stats or SolverStats()) >= 0:
            if self.proof is not None:
                self.proof.add_empty()
            self.root_failed = True
            return False
        return True

    def backjump(self, target_level: int) -> None:
        """Undo assignments above ``target_level``, saving phases.

        Re-inserted branching candidates are heapified in bulk when the
        batch is large: ``heappop`` always returns the smallest entry of
        the heap's multiset and entries are totally ordered tuples, so
        bulk heapify yields the exact pop sequence per-entry ``heappush``
        would — the trajectory is unchanged, at O(n) instead of
        O(n log n) for deep unwinds.
        """
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        trail = self.trail
        lit_truth = self.lit_truth
        saved_phase = self.saved_phase
        reason = self.reason
        released = self.released
        activity = self.activity
        heap = self._heap
        cur_in_heap = self._cur_in_heap
        requeue: list[tuple[float, int]] = []
        # Unwind as one slice: per-variable effects are idempotent and
        # independent, and the heap requeue below depends only on the
        # entry multiset, so iteration order is free.
        unwound = trail[limit:]
        del trail[limit:]
        n_released = 0
        for lit in unwound:
            var = lit >> 1
            # The trail literal was true, so the var's value is its
            # polarity — no value array to consult (or to clear).
            saved_phase[var] = 1 ^ (lit & 1)
            lit_truth[lit] = _UNASSIGNED
            lit_truth[lit ^ 1] = _UNASSIGNED
            reason[var] = -1
            if released[var]:
                n_released += 1
            elif not cur_in_heap[var]:
                requeue.append((activity[var], var))
                cur_in_heap[var] = 1
        self._active_unassigned += len(unwound) - n_released
        # heapify is O(heap + batch) vs O(batch * log heap) for pushes;
        # only worth it when the batch rivals the heap (lazy deletion
        # leaves stale entries, so the heap can be much larger).
        if len(requeue) > 32 and len(self._heap) < 3 * len(requeue):
            heap.extend(requeue)
            heapify(heap)
        else:
            for entry in requeue:
                heappush(heap, entry)
        del self.trail_lim[target_level:]
        self.qhead = len(trail)

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        value = self.activity[var] - self._var_inc
        self.activity[var] = value
        if self.lit_truth[var << 1] == _UNASSIGNED and not self.released[var]:
            heappush(self._heap, (value, var))
            self._cur_in_heap[var] = 1
        else:
            self._cur_in_heap[var] = 0  # in-heap entry (if any) is stale
        if value < -_ACTIVITY_CAP:
            self._rescale()

    def _rescale(self) -> None:
        scale = 1.0 / _ACTIVITY_CAP
        for var in range(len(self.activity)):
            self.activity[var] *= scale
        self._var_inc *= scale
        lit_truth = self.lit_truth
        self._heap = [
            (self.activity[var], var)
            for var in range(len(self.level))
            if lit_truth[var << 1] == _UNASSIGNED and not self.released[var]
        ]
        heapify(self._heap)
        self._cur_in_heap = bytearray(len(self.level))
        for _, var in self._heap:
            self._cur_in_heap[var] = 1

    def _pick_branch(self) -> int:
        heap = self._heap
        lit_truth = self.lit_truth
        activity = self.activity
        released = self.released
        cur_in_heap = self._cur_in_heap
        decidable = self._decidable
        # Without a mask every var is at or above the limit.  A popped
        # var the mask disallows just leaves the heap.
        limit = 0 if decidable is None else len(decidable)
        while heap:
            negact, var = heappop(heap)
            if negact == activity[var]:
                cur_in_heap[var] = 0  # the current-key entry just left
                if lit_truth[var << 1] == _UNASSIGNED and not released[var]:
                    if var >= limit or decidable[var]:
                        return var
        return -1

    def _fill_heap(self) -> None:
        """Rebuild the branching heap from the variables the current
        mask allows, at their current activities."""
        n = len(self.level)
        activity = self.activity
        decidable = self._decidable
        if decidable is None:
            order = range(n)
            flags = bytearray(b"\x01") * n
        else:
            limit = len(decidable)
            order = chain(compress(range(limit), decidable), range(limit, n))
            flags = bytearray(decidable) + bytearray(b"\x01") * (n - limit)
        self._heap = [(activity[var], var) for var in order]
        heapify(self._heap)
        self._cur_in_heap = flags

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _analyze(
        self, conflict: int, stats: SolverStats
    ) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis (MiniSat structure).

        Relies on the invariant that a long reason clause stores its
        implied literal at position 0; binary reasons carry their single
        remaining literal in the ``reason`` encoding itself.

        Returns:
            (learned clause with asserting literal first, backjump
            level, literal block distance of the learned clause).
        """
        arena = self.arena
        learned: list[int] = []
        seen = self._seen  # zeroed on every exit path below
        touched: list[int] = []
        level = self.level
        trail = self.trail
        reason = self.reason
        lit_truth = self.lit_truth
        released = self.released
        activity = self.activity
        cur_in_heap = self._cur_in_heap
        heap = self._heap
        var_inc = self._var_inc
        path_count = 0
        first_pass = True
        ref = conflict
        index = len(trail) - 1
        current = len(self.trail_lim)
        while True:
            if ref >= 0:
                # Skip position 0 when it is the literal we resolved on.
                start = ref if first_pass else ref + 1
                for pos in range(start, ref + arena[ref - 1]):
                    q = arena[pos]
                    var = q >> 1
                    if not seen[var]:
                        lv = level[var]
                        if lv > 0:
                            seen[var] = 1
                            touched.append(var)
                            # Inlined _bump (activities stored negated).
                            act = activity[var] - var_inc
                            activity[var] = act
                            if (
                                lit_truth[q & -2] == -1
                                and not released[var]
                            ):
                                heappush(heap, (act, var))
                                cur_in_heap[var] = 1
                            else:
                                cur_in_heap[var] = 0
                            if act < -_ACTIVITY_CAP:
                                self._rescale()
                                var_inc = self._var_inc
                                heap = self._heap
                                cur_in_heap = self._cur_in_heap
                            if lv >= current:
                                path_count += 1
                            else:
                                learned.append(q)
            else:
                # Binary reason: resolve with the encoded literal.
                q = -2 - ref
                var = q >> 1
                if not seen[var]:
                    lv = level[var]
                    if lv > 0:
                        seen[var] = 1
                        touched.append(var)
                        act = activity[var] - var_inc
                        activity[var] = act
                        if lit_truth[q & -2] == -1 and not released[var]:
                            heappush(heap, (act, var))
                            cur_in_heap[var] = 1
                        else:
                            cur_in_heap[var] = 0
                        if act < -_ACTIVITY_CAP:
                            self._rescale()
                            var_inc = self._var_inc
                            heap = self._heap
                            cur_in_heap = self._cur_in_heap
                        if lv >= current:
                            path_count += 1
                        else:
                            learned.append(q)
            first_pass = False
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            var = p >> 1
            seen[var] = 0
            path_count -= 1
            index -= 1
            if path_count <= 0:
                break
            ref = reason[var]
        for var in touched:
            seen[var] = 0
        learned.insert(0, negate(p))
        if len(learned) == 1:
            return learned, 0, 1
        back_level = max(level[q >> 1] for q in learned[1:])
        lbd = len({level[q >> 1] for q in learned})
        return learned, back_level, lbd

    def _record_learned(
        self, learned: list[int], lbd: int, stats: SolverStats
    ) -> None:
        """Attach a learned clause and assert its first literal."""
        stats.learned_clauses += 1
        if self.proof is not None:
            # Copy now: watch maintenance permutes the arena clause.
            self.proof.add(learned)
        size = len(learned)
        if size == 2:
            ref = self._alloc(learned)
            self.learned.append(ref)
            self._lbd[ref] = lbd
            self._attach_binary(learned[0], learned[1], ref)
            self._enqueue(learned[0], -2 - learned[1])
        elif size > 2:
            # Watch invariant: position 1 must hold a literal from the
            # backjump level, else future backtracks can leave the
            # clause incorrectly watched.
            level = self.level
            best = 1
            best_level = level[learned[1] >> 1]
            for j in range(2, size):
                lv = level[learned[j] >> 1]
                if lv > best_level:  # strict: first maximum, like max()
                    best_level = lv
                    best = j
            learned[1], learned[best] = learned[best], learned[1]
            ref = self._alloc(learned)
            self.learned.append(ref)
            self._lbd[ref] = lbd
            self.watches[learned[0]].append(ref)
            self.blockers[learned[0]].append(learned[1])
            self.watches[learned[1]].append(ref)
            self.blockers[learned[1]].append(learned[0])
            self._enqueue(learned[0], ref)
        else:
            self._enqueue(learned[0], -1)

    def reduce_learned(self) -> int:
        """Drop the worst half of the learned database.

        Clauses are ranked by (LBD, length); glue clauses (LBD <= 2),
        binaries, and clauses locked as reasons on the current trail are
        always kept.  Returns the number of clauses removed.  Detached
        clauses leave garbage in the arena until the next
        :meth:`collect` compaction.
        """
        arena = self.arena
        locked = {ref for ref in self.reason if ref >= 0}
        lbd = self._lbd
        candidates = [
            ref
            for ref in self.learned
            if ref not in locked
            and arena[ref - 1] > 2
            and lbd.get(ref, 99) > 2
        ]
        candidates.sort(key=lambda ref: (lbd.get(ref, 99), arena[ref - 1]))
        victims = set(candidates[len(candidates) // 2 :])
        if not victims:
            return 0
        for ref in self.learned:
            if ref in victims:
                self._detach(ref)
                lbd.pop(ref, None)
                if self.proof is not None:
                    self.proof.delete(self.read_clause(ref))
        self.learned = [ref for ref in self.learned if ref not in victims]
        return len(victims)

    # ------------------------------------------------------------------
    # Garbage collection (activation-literal retirement)
    # ------------------------------------------------------------------
    def collect(self) -> int:
        """Sweep clauses satisfied at the root and recycle zombie vars.

        Retiring an activation literal ``t`` (root unit ``¬t``)
        permanently satisfies every clause tagged with ``¬t`` — the
        group's deltas and any learned clause derived from them.  This
        sweep removes them, compacts the clause arena, rebuilds the
        watch lists and binary edges, and returns deferred-release
        variables (the ``t``s themselves) to the free list.  Must be
        called at decision level 0 with propagation settled.

        Returns the number of clauses removed.
        """
        assert len(self.trail_lim) == 0
        arena = self.arena
        lit_truth = self.lit_truth

        removed = 0
        for name in ("base", "learned"):
            kept: list[int] = []
            for ref in getattr(self, name):
                satisfied = False
                for pos in range(ref, ref + arena[ref - 1]):
                    if lit_truth[arena[pos]] == 1:
                        satisfied = True
                        break
                if satisfied:
                    removed += 1
                    self._lbd.pop(ref, None)
                    if self.proof is not None:
                        self.proof.delete(self.read_clause(ref))
                else:
                    kept.append(ref)
            setattr(self, name, kept)
        if not removed and not self._zombie:
            return 0

        # Drop zombie vars from the root trail and recycle them.
        if self._zombie:
            zombies = set(self._zombie)
            self.trail = [
                lit for lit in self.trail if (lit >> 1) not in zombies
            ]
            self.qhead = len(self.trail)
            for var in self._zombie:
                lit_truth[2 * var] = _UNASSIGNED
                lit_truth[2 * var + 1] = _UNASSIGNED
                self.reason[var] = -1
                self.activity[var] = 0.0
                self.saved_phase[var] = 0
                self._free.append(var)
            self._zombie.clear()

        # Compact the arena and rebuild watches; pick non-root-false
        # watch positions so the two-watched-literal invariant holds
        # from a clean slate (binary clauses are never permuted, in
        # either core).  Watch-list and binary-edge order is rebuilt
        # from base+learned order exactly as the reference core does,
        # so the search trajectory is unaffected by compaction.
        new_arena: list[int] = []
        remap: dict[int, int] = {}
        n_lits = 2 * len(self.level)
        self.watches = [[] for _ in range(n_lits)]
        self.blockers = [[] for _ in range(n_lits)]
        self.bin_others = [[] for _ in range(n_lits)]
        self.bin_refs = [[] for _ in range(n_lits)]
        watches = self.watches
        blockers = self.blockers
        bin_others = self.bin_others
        bin_refs = self.bin_refs
        for bucket in (self.base, self.learned):
            for idx, ref in enumerate(bucket):
                size = arena[ref - 1]
                if size == 2:
                    a = arena[ref]
                    b = arena[ref + 1]
                    new_arena.append(2)
                    new_ref = len(new_arena)
                    new_arena.append(a)
                    new_arena.append(b)
                    remap[ref] = new_ref
                    bucket[idx] = new_ref
                    bin_others[a].append(b)
                    bin_refs[a].append(new_ref)
                    bin_others[b].append(a)
                    bin_refs[b].append(new_ref)
                    continue
                cl = arena[ref : ref + size]
                free = 0
                for k in range(size):
                    # Non-false literal: unassigned (-1) or true (1).
                    if lit_truth[cl[k]] != 0:
                        cl[free], cl[k] = cl[k], cl[free]
                        free += 1
                        if free == 2:
                            break
                new_arena.append(size)
                new_ref = len(new_arena)
                new_arena.extend(cl)
                remap[ref] = new_ref
                bucket[idx] = new_ref
                watches[cl[0]].append(new_ref)
                blockers[cl[0]].append(cl[1])
                watches[cl[1]].append(new_ref)
                blockers[cl[1]].append(cl[0])
        self.arena = new_arena
        self._lbd = {
            remap[ref]: value
            for ref, value in self._lbd.items()
            if ref in remap
        }
        # Root-level reasons may point at swept clauses (or encode
        # binary edges); they are never dereferenced — conflict
        # analysis skips level-0 literals — so a dangling entry simply
        # becomes -1.
        self.reason = [
            remap.get(ref, -1) if ref >= 0 else -1 for ref in self.reason
        ]
        return removed

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def clause_bytes_estimate(self) -> int:
        """Rough heap footprint of the clause database, in bytes.

        Counts per-literal plus per-clause overhead of the live clauses
        (matching the reference core's accounting) — deliberately an
        estimate, used only to trigger reduction / budget aborts, not
        for accounting.
        """
        arena = self.arena
        lits = sum(arena[ref - 1] for ref in self.base)
        lits += sum(arena[ref - 1] for ref in self.learned)
        n_clauses = len(self.base) + len(self.learned)
        return lits * 36 + n_clauses * 72

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        deadline_at: Optional[float] = None,
        mem_budget_mb: Optional[float] = None,
        decidable: Optional[bytes] = None,
    ) -> tuple[SatStatus, SolverStats]:
        """CDCL search under ``assumptions``.

        Assumption literals are decided first, in order; if one is
        falsified the answer is UNSAT *under the assumptions* (the
        database stays consistent and future calls are fine).  On SAT
        the assignment is left in place for the caller to decode; the
        next call (or :meth:`backjump`) harvests it as saved phases.

        Args:
            max_conflicts: conflict budget for this call.
            deadline_at: absolute ``time.monotonic()`` cutoff, checked
                periodically alongside the conflict budget (every 64
                conflicts and every 512 decisions) so an over-deadline
                search stops within a bounded slice of work.
            mem_budget_mb: clause-database memory budget.  Checked every
                64 conflicts; an over-budget database is first squeezed
                via :meth:`reduce_learned`, and if still over budget the
                call returns ``UNKNOWN`` with ``stats.mem_limit_hit``
                set so callers can distinguish the abort cause.
            decidable: restrict decisions to the variables this mask
                allows (see "Restricted decisions" in the module
                docstring); a SAT answer then leaves the ineligible
                variables the search did not propagate unassigned.

        Returns:
            (status, per-call statistics).  ``UNKNOWN`` when the
            conflict budget, the deadline, or the memory budget was
            exceeded.
        """
        stats = SolverStats()
        mem_budget_bytes = (
            None if mem_budget_mb is None else mem_budget_mb * 1024 * 1024
        )
        self.backjump(0)
        if decidable is not self._decidable:
            self._decidable = decidable
            self._fill_heap()
        if self.root_failed or self._propagate(stats) >= 0:
            if not self.root_failed and self.proof is not None:
                self.proof.add_empty()
            self.root_failed = True
            return SatStatus.UNSAT, stats
        if deadline_at is not None and time.monotonic() >= deadline_at:
            return SatStatus.UNKNOWN, stats

        restart_limit = self.restart_interval
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate(stats)
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if (
                    max_conflicts is not None
                    and stats.conflicts > max_conflicts
                ):
                    self.backjump(0)
                    return SatStatus.UNKNOWN, stats
                if (
                    deadline_at is not None
                    and stats.conflicts & 63 == 0
                    and time.monotonic() >= deadline_at
                ):
                    self.backjump(0)
                    return SatStatus.UNKNOWN, stats
                if (
                    mem_budget_bytes is not None
                    and stats.conflicts & 63 == 0
                    and self.clause_bytes_estimate() > mem_budget_bytes
                ):
                    self.reduce_learned()
                    if self.clause_bytes_estimate() > mem_budget_bytes:
                        stats.mem_limit_hit = True
                        self.backjump(0)
                        return SatStatus.UNKNOWN, stats
                if len(self.trail_lim) == 0:
                    if self.proof is not None:
                        self.proof.add_empty()
                    self.root_failed = True
                    return SatStatus.UNSAT, stats
                learned, back_level, lbd = self._analyze(conflict, stats)
                self.backjump(back_level)
                self._record_learned(learned, lbd, stats)
                self._var_inc /= self.decay
                if self._var_inc > _ACTIVITY_CAP:
                    self._rescale()
                if len(self.learned) > max(
                    self.learned_db_min,
                    int(self.learned_db_factor * len(self.base)),
                ):
                    self.reduce_learned()
                continue

            if conflicts_since_restart >= restart_limit:
                conflicts_since_restart = 0
                restart_limit = int(restart_limit * 1.5)
                stats.restarts += 1
                self.backjump(0)
                continue

            lit = None
            while len(self.trail_lim) < len(assumptions):
                p = assumptions[len(self.trail_lim)]
                value = self.lit_truth[p]
                if value == 1:
                    # Already satisfied: open a dummy level and move on.
                    self.trail_lim.append(len(self.trail))
                elif value == 0:
                    self.backjump(0)
                    return SatStatus.UNSAT, stats
                else:
                    lit = p
                    break
            if lit is None:
                if self._active_unassigned == 0:
                    # Total over live vars: SAT without draining the
                    # heap's stale entries (they stay and are skipped
                    # lazily by future picks, same pop order).  Once
                    # stale entries dominate, compact to exactly the
                    # current-key entries — the flag invariant says
                    # cur_in_heap[var] == 1 iff the heap holds an entry
                    # at var's current activity, so the rebuilt heap has
                    # the same live-entry multiset and the same pick
                    # sequence, minus inert stale pops.
                    if len(self._heap) > 2 * len(self.level) + 64:
                        activity = self.activity
                        self._heap = [
                            (activity[var], var)
                            for var, flagged in enumerate(self._cur_in_heap)
                            if flagged
                        ]
                        heapify(self._heap)
                    return SatStatus.SAT, stats
                var = self._pick_branch()
                if var == -1:
                    return SatStatus.SAT, stats
                stats.decisions += 1
                stats.nodes += 1
                if (
                    deadline_at is not None
                    and stats.decisions & 511 == 0
                    and time.monotonic() >= deadline_at
                ):
                    self.backjump(0)
                    return SatStatus.UNKNOWN, stats
                lit = 2 * var + (0 if self.saved_phase[var] == 1 else 1)
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)


class CdclSolver:
    """One-shot CDCL solver over a compiled CNF.

    Args:
        max_conflicts: conflict budget; exceeded search returns ``UNKNOWN``.
        deadline_at: absolute ``time.monotonic()`` wall-clock cutoff,
            checked periodically in the search loop; exceeded search
            returns ``UNKNOWN``.
        restart_interval: conflicts before the first restart (grows 1.5x).
        decay: VSIDS activity decay factor per conflict.
        phase_hint: optional map from variable name to preferred phase.
        order: optional static variable order used to break activity ties.

    The compiled form is cached per formula: repeated solves on the
    same formula skip recompilation.  Each call still searches from a
    cold state — use :class:`CdclCore` / :mod:`repro.sat.incremental`
    when learned clauses should persist between solves.
    """

    def __init__(
        self,
        max_conflicts: Optional[int] = None,
        restart_interval: int = 128,
        decay: float = 0.95,
        phase_hint: Optional[dict[str, int]] = None,
        order: Optional[Sequence[str]] = None,
        deadline_at: Optional[float] = None,
        mem_budget_mb: Optional[float] = None,
    ) -> None:
        self.max_conflicts = max_conflicts
        self.deadline_at = deadline_at
        self.mem_budget_mb = mem_budget_mb
        self.restart_interval = restart_interval
        self.decay = decay
        self.phase_hint = phase_hint or {}
        self._order = list(order) if order is not None else None
        self._compiled_for: Optional[CnfFormula] = None
        self._compiled = None

    def solve(self, formula: CnfFormula) -> SatResult:
        """Decide satisfiability of ``formula``."""
        start = time.perf_counter()
        if self._compiled_for is None or not (
            self._compiled_for is formula or self._compiled_for == formula
        ):
            self._compiled = compile_formula(formula)
            self._compiled_for = formula
        compiled = self._compiled

        core = CdclCore(
            restart_interval=self.restart_interval, decay=self.decay
        )
        core.new_vars(compiled.num_vars)
        for name, phase in self.phase_hint.items():
            idx = compiled.index_of.get(name)
            if idx is not None:
                core.saved_phase[idx] = 1 if phase else 0
        if self._order is not None:
            # Seed activities so the static order breaks ties.
            rank = len(self._order)
            for position, name in enumerate(self._order):
                idx = compiled.index_of.get(name)
                if idx is not None:
                    core.set_activity(idx, float(rank - position) * 1e-6)

        for clause in compiled.clauses:
            if not core.add_clause(clause):
                break
        if core.root_failed:
            stats = SolverStats()
            stats.time_seconds = time.perf_counter() - start
            return SatResult(SatStatus.UNSAT, stats=stats)
        if compiled.num_vars == 0:
            stats = SolverStats()
            stats.time_seconds = time.perf_counter() - start
            return SatResult(SatStatus.SAT, assignment={}, stats=stats)

        status, stats = core.solve(
            max_conflicts=self.max_conflicts,
            deadline_at=self.deadline_at,
            mem_budget_mb=self.mem_budget_mb,
        )
        stats.time_seconds = time.perf_counter() - start
        if status is SatStatus.SAT:
            model = compiled.decode_assignment(core.values)
            return SatResult(SatStatus.SAT, assignment=model, stats=stats)
        return SatResult(status, stats=stats)


def solve_cdcl(formula: CnfFormula, **kwargs) -> SatResult:
    """Convenience wrapper around :class:`CdclSolver`."""
    return CdclSolver(**kwargs).solve(formula)
