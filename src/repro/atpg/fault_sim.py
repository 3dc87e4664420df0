"""Parallel-pattern single-fault simulation.

Used to validate SAT-generated test patterns, to implement fault dropping
in the ATPG engine, and to measure fault coverage of pattern sets.  The
simulator packs an arbitrary number of patterns per Python integer word
(Python ints are unbounded, so the block width is a tuning knob, not a
machine-word limit) and, for each fault, re-evaluates only the fault's
fanout cone against cached good values (the standard single-fault
propagation optimisation).

The hot paths run through :class:`FaultSimulator`, which *compiles* a
levelized evaluation schedule per fault site: the cone's gates in
topological order are lowered once into ``(op, dst_slot, src_slots)``
records over a dense local slot space, evaluated by a single
interpreter loop against a preallocated word buffer.  Inside the loop
a fanin read is one buffer index — no per-net dict hashing, no
faulty-vs-good membership probe (whether a fanin is inside the cone is
static, so the compiler resolves it to a slot at compile time).  A
fully flat ``array('q')`` opcode/operand stream was measured first and
is *slower* in CPython — every operand fetch from a typed array boxes
a fresh int (values >= 256 miss the small-int cache), and the
record-header decode costs more than tuple iteration — so the program
keeps tuple records whose operands are cached pointer reads.  The
program, slot buffer, and boundary-load list are cached per fault
site, so simulating the same fault against another pattern block — or
the complementary stuck-at fault of the same site against the same
block — reuses the compiled cone; the boundary good-value loads are
additionally skipped when the same good-value block is probed again
(both stuck-at polarities of a site, pattern-store sweeps).
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.atpg.faults import Fault
from repro.circuits.gates import GateType, evaluate_gate
from repro.circuits.network import Network
from repro.circuits.simulate import pack_patterns, simulate

#: Opcodes for the schedule's inline evaluator.  AND/OR/XOR of masked
#: words stay masked; the inverting variants complement via ``^ mask``.
_OP_AND, _OP_OR, _OP_XOR, _OP_NAND, _OP_NOR, _OP_XNOR, _OP_BUF, _OP_NOT = (
    range(8)
)

#: Probes of a fault site before its cone tiers up from the record
#: interpreter to a generated straight-line function (the ``compile``
#: cost only pays for itself on repeat probes).
_TIER_UP_HITS = 2

_OPCODES = {
    GateType.AND: _OP_AND,
    GateType.OR: _OP_OR,
    GateType.XOR: _OP_XOR,
    GateType.NAND: _OP_NAND,
    GateType.NOR: _OP_NOR,
    GateType.XNOR: _OP_XNOR,
    GateType.BUF: _OP_BUF,
    GateType.NOT: _OP_NOT,
}


@dataclass
class FaultSimResult:
    """Outcome of simulating a pattern block against a fault list."""

    detected: dict[Fault, int] = field(default_factory=dict)
    """Detected faults → bitmask of detecting patterns."""

    undetected: list[Fault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Fraction of simulated faults detected."""
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


class _CompiledCone:
    """A fault site's fanout cone lowered to a slot program.

    ``prog`` holds one ``(op, dst_slot, src_slots)`` record per cone
    gate in topological order, all net names resolved to dense local
    slot indices at compile time (see the module docstring for why the
    records are tuples rather than a flat typed-array stream).
    ``loads`` lists ``(slot, topo_pos)`` pairs whose slots hold
    fault-free words — cone-boundary fanins plus one shadow slot per
    cone output (for the detection XOR) — read from the simulator's
    per-block topo-indexed good-value list, so a load is two list
    indexes, not a dict probe; ``buf`` is the preallocated word buffer
    the interpreter runs over (Python ints, so any block width works).
    ``last_good`` stamps the good-value mapping most recently loaded:
    probing the same block again (e.g. the complementary stuck-at
    polarity of this site) skips the boundary reloads entirely.
    """

    __slots__ = (
        "prog",
        "loads",
        "out_pairs",
        "site_slot",
        "buf",
        "last_good",
        "hits",
        "fn",
    )

    def __init__(
        self,
        prog: list[tuple[int, int, tuple[int, ...]]],
        loads: list[tuple[int, int]],
        out_pairs: list[tuple[int, int]],
        site_slot: int,
        n_slots: int,
    ) -> None:
        self.prog = prog
        self.loads = loads
        self.out_pairs = out_pairs
        self.site_slot = site_slot
        self.buf: list[int] = [0] * n_slots
        self.last_good: object = None
        #: Probe count; at :data:`_TIER_UP_HITS` the cone tiers up from
        #: the record interpreter to a generated straight-line function.
        self.hits = 0
        self.fn: object = None

    def codegen(self) -> object:
        """Lower the slot program to a straight-line Python function.

        Emits one assignment per cone gate (operands are local names
        or topo-indexed reads from the good-value list ``G``) plus a
        final detection OR, and ``exec``-compiles it.  Straight-line
        locals-based code drops the per-gate dispatch and per-fanin
        buffer indexing of the interpreter entirely; the one-time
        ``compile`` cost is why tier-up waits for repeat probes.
        Operand text is built from compile-time ints only — no net
        names reach the generated source.
        """
        pos_of = dict(self.loads)  # load slot -> topo position
        names = {self.site_slot: "stuck"}
        for slot, pos in self.loads:
            names[slot] = f"G[{pos}]"
        lines = ["def _cone(G, stuck, m):"]
        for op, dst, srcs in self.prog:
            terms = [names[s] for s in srcs]
            if op == _OP_AND:
                rhs = " & ".join(terms)
            elif op == _OP_NAND:
                rhs = "m ^ ({})".format(" & ".join(terms))
            elif op == _OP_OR:
                rhs = " | ".join(terms)
            elif op == _OP_NOR:
                rhs = "m ^ ({})".format(" | ".join(terms))
            elif op == _OP_XOR:
                rhs = " ^ ".join(terms)
            elif op == _OP_XNOR:
                rhs = "m ^ ({})".format(" ^ ".join(terms))
            elif op == _OP_BUF:
                rhs = terms[0]
            else:  # NOT
                rhs = f"m ^ {terms[0]}"
            name = names[dst] = f"v{dst}"
            lines.append(f"    {name} = {rhs}")
        if self.out_pairs:
            detect = " | ".join(
                f"({names[fs]} ^ G[{pos_of[gs]}])"
                for fs, gs in self.out_pairs
            )
        else:
            detect = "0"
        lines.append(f"    return {detect}")
        namespace: dict[str, object] = {}
        exec(  # noqa: S102 - source built from compile-time ints only
            compile("\n".join(lines), "<fsim-cone>", "exec"), namespace
        )
        return namespace["_cone"]


class FaultSimulator:
    """Cone simulator with per-fault-site compiled schedules.

    The schedule for a fault site is the site's transitive fanout in
    topological order, compiled once into a :class:`_CompiledCone`
    (see the module docstring) and reused for every pattern block —
    width-agnostic: the good/faulty values are plain Python ints of
    any bit width, bounded by the caller's valid-pattern ``mask``.

    The cache keys off the network's topological-order cache identity,
    so mutating the network invalidates all schedules automatically.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._topo_ref: object = None
        self._positions: dict[str, int] = {}
        #: site -> (schedule triples, cone output nets, cone set)
        self._schedules: dict[
            str,
            tuple[
                list[tuple[str, int, tuple[str, ...]]],
                list[str],
                set[str],
            ],
        ] = {}
        self._compiled: dict[str, _CompiledCone] = {}
        #: Identity-keyed single-entry cache: the last good-value
        #: mapping seen, flattened to a topo-position-indexed list.
        self._good_cache: tuple[object, list[int]] | None = None

    def _refresh(self) -> None:
        """Drop cached schedules if the network mutated since last use."""
        topo = self.network._cache_topo
        if topo is None:
            self.network.topological_order()
            topo = self.network._cache_topo
        if topo is not self._topo_ref:
            self._topo_ref = topo
            self._positions = {net: i for i, net in enumerate(topo)}
            self._schedules.clear()
            self._compiled.clear()
            self._good_cache = None

    def schedule(
        self, site: str
    ) -> tuple[
        list[tuple[str, int, tuple[str, ...]]], list[str], set[str]
    ]:
        """The levelized evaluation schedule for a fault on ``site``."""
        self._refresh()
        entry = self._schedules.get(site)
        if entry is None:
            network = self.network
            cone = network.transitive_fanout([site])
            positions = self._positions
            order = sorted(
                (net for net in cone if net != site),
                key=positions.__getitem__,
            )
            triples: list[tuple[str, int, tuple[str, ...]]] = []
            for net in order:
                gate = network.gate(net)
                triples.append(
                    (net, _OPCODES[gate.gate_type], tuple(gate.inputs))
                )
            outputs = [out for out in network.outputs if out in cone]
            entry = (triples, outputs, cone)
            self._schedules[site] = entry
        return entry

    def compiled(self, site: str) -> _CompiledCone:
        """The compiled slot program for a fault on ``site``.

        Slots are assigned densely in first-use order: the site first,
        then each gate's fanins (boundary fanins — nets outside the
        cone — become load slots holding fault-free words) and its
        output net.  Whether a fanin carries a faulty or a fault-free
        word is decided here, once, instead of per word in the
        interpreter loop.
        """
        self._refresh()
        compiled = self._compiled.get(site)
        if compiled is None:
            triples, outputs, _cone = self.schedule(site)
            positions = self._positions
            slots: dict[str, int] = {site: 0}
            loads: list[tuple[int, int]] = []
            prog: list[tuple[int, int, tuple[int, ...]]] = []
            for net, op, srcs in triples:
                src_slots: list[int] = []
                for src in srcs:
                    slot = slots.get(src)
                    if slot is None:
                        # Topological order puts every cone gate before
                        # its cone fanouts, so an unseen fanin is
                        # outside the cone: a fault-free boundary load.
                        slot = slots[src] = len(slots)
                        loads.append((slot, positions[src]))
                    src_slots.append(slot)
                dst = slots.get(net)
                if dst is None:
                    dst = slots[net] = len(slots)
                prog.append((op, dst, tuple(src_slots)))
            n_slots = len(slots)
            out_pairs: list[tuple[int, int]] = []
            for out in outputs:
                # Shadow slot: the output's fault-free word, for the
                # detection XOR against the faulty word.
                out_pairs.append((slots[out], n_slots))
                loads.append((n_slots, positions[out]))
                n_slots += 1
            compiled = _CompiledCone(prog, loads, out_pairs, 0, n_slots)
            self._compiled[site] = compiled
        return compiled

    def detect_mask(
        self, fault: Fault, good_values: Mapping[str, int], mask: int
    ) -> int:
        """Bitmask of patterns for which ``fault`` reaches an output.

        ``good_values`` holds the fault-free packed words per net for a
        block of patterns; ``mask`` is the block's valid-pattern mask.
        Consecutive probes against the *same* ``good_values`` mapping
        (both polarities of a site, pattern-store sweeps) skip the
        boundary reloads — the mapping must not be mutated in between,
        which holds for every caller (:func:`simulate` returns a fresh
        dict per block and the pattern store keeps its block dicts
        immutable).
        """
        stuck_word = mask if fault.value else 0
        if good_values[fault.net] == stuck_word:
            return 0  # fault never excited by these patterns
        cone = self.compiled(fault.net)
        cached = self._good_cache
        if cached is None or cached[0] is not good_values:
            # Flatten the block's good values once; every cone probed
            # against this block reads by topo position.
            glist = [good_values[net] for net in self._topo_ref]
            self._good_cache = (good_values, glist)
        else:
            glist = cached[1]
        fn = cone.fn
        if fn is None:
            cone.hits += 1
            if cone.hits >= _TIER_UP_HITS:
                fn = cone.fn = cone.codegen()
        if fn is not None:
            return fn(glist, stuck_word, mask) & mask
        # Cold tier: the record interpreter over the slot buffer.
        buf = cone.buf
        if cone.last_good is not good_values:
            for slot, pos in cone.loads:
                buf[slot] = glist[pos]
            cone.last_good = good_values
        buf[cone.site_slot] = stuck_word
        for op, dst, srcs in cone.prog:
            if op == _OP_AND or op == _OP_NAND:
                acc = mask
                for s in srcs:
                    acc &= buf[s]
            elif op == _OP_OR or op == _OP_NOR:
                acc = 0
                for s in srcs:
                    acc |= buf[s]
            elif op == _OP_BUF or op == _OP_NOT:
                acc = buf[srcs[0]]
            else:  # XOR / XNOR
                acc = 0
                for s in srcs:
                    acc ^= buf[s]
            if op >= _OP_NAND and op != _OP_BUF:  # NAND/NOR/XNOR/NOT
                acc ^= mask
            buf[dst] = acc
        detected = 0
        for fs, gs in cone.out_pairs:
            detected |= buf[fs] ^ buf[gs]
        return detected & mask


def simulate_fault(
    network: Network,
    fault: Fault,
    good_values: Mapping[str, int],
    mask: int,
    cone: set[str] | None = None,
) -> int:
    """Bitmask of patterns for which ``fault`` is observable at an output.

    One-shot readable reference path (walks the full topological order);
    callers simulating many blocks or many faults should go through
    :class:`FaultSimulator` / :func:`fault_simulate`, which cache the
    cone schedules.

    Args:
        network: the good circuit.
        fault: the fault to inject.
        good_values: fault-free values per net (packed words).
        mask: valid-pattern mask.
        cone: optional precomputed transitive fanout of the fault site
            (callers simulating a fault against many pattern blocks cache
            this — recomputing it dominates small-cone simulations).
    """
    stuck_word = mask if fault.value else 0
    if good_values[fault.net] == stuck_word:
        return 0  # fault never excited by these patterns

    if cone is None:
        cone = network.transitive_fanout([fault.net])
    faulty: dict[str, int] = {fault.net: stuck_word}
    for net in network.topological_order():
        if net not in cone or net == fault.net:
            continue
        gate = network.gate(net)
        words = [
            faulty.get(src, good_values[src]) for src in gate.inputs
        ]
        faulty[net] = evaluate_gate(gate.gate_type, words) & mask

    detected = 0
    for out in network.outputs:
        if out in faulty:
            detected |= (faulty[out] ^ good_values[out]) & mask
    return detected


def fault_simulate(
    network: Network,
    faults: Sequence[Fault],
    patterns: Sequence[Mapping[str, int]],
    block_size: int = 64,
) -> FaultSimResult:
    """Simulate single-bit ``patterns`` against ``faults``.

    Patterns are packed ``block_size`` per word; detected faults are
    dropped from later blocks.  Any positive width is valid — Python
    ints carry the block, so wider blocks trade per-block overhead for
    bigger bit-parallel words.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    result = FaultSimResult()
    for fault in faults:
        if not network.has_net(fault.net):
            raise ValueError(f"fault on unknown net {fault.net!r}")
    simulator = FaultSimulator(network)
    remaining = list(faults)
    for start in range(0, len(patterns), block_size):
        block = patterns[start : start + block_size]
        words = pack_patterns(block, network.inputs)
        mask = (1 << len(block)) - 1
        good_values = simulate(network, words, len(block))
        still: list[Fault] = []
        for fault in remaining:
            hits = simulator.detect_mask(fault, good_values, mask)
            if hits:
                result.detected[fault] = hits << start
            else:
                still.append(fault)
        remaining = still
    result.undetected = remaining
    return result


class PatternBlockStore:
    """Generated tests packed into parallel blocks for batched dropping.

    The engine's original dropping pass fault-simulated every remaining
    fault against each fresh test — one 1-wide simulation block per test,
    with a full good-circuit simulation and a cone simulation per
    remaining fault each time.  The store instead accumulates tests into
    ``block_size``-wide packed blocks whose good-circuit values are
    computed once and cached; asking whether a fault is already covered
    (:meth:`first_detection`) costs one fanout-cone simulation per
    *block* of patterns rather than one per pattern, and full-circuit
    good simulations happen once per block instead of once per test.

    Blocks are append-only, so detection answers are stable: the earliest
    detecting pattern index returned for a fault never changes as more
    patterns arrive, which is what makes the parallel engine's replay
    merge reproduce the sequential engine's drop attribution exactly.
    """

    def __init__(
        self, network: Network, block_size: int = 64
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.network = network
        self.block_size = block_size
        self.simulator = FaultSimulator(network)
        self._patterns: list[dict[str, int]] = []
        #: Closed blocks: (good value word per net, valid-pattern mask).
        self._closed: list[tuple[dict[str, int], int]] = []
        self._pending_good: tuple[dict[str, int], int] | None = None
        self.good_sims = 0
        self.cone_sims = 0

    def __len__(self) -> int:
        return len(self._patterns)

    def pattern(self, index: int) -> dict[str, int]:
        """The ``index``-th added pattern."""
        return self._patterns[index]

    @property
    def patterns(self) -> list[dict[str, int]]:
        """All stored patterns, in insertion order."""
        return list(self._patterns)

    def add(self, pattern: Mapping[str, int]) -> None:
        """Append a test pattern, closing the current block when full."""
        self._patterns.append(dict(pattern))
        self._pending_good = None
        if len(self._patterns) == (len(self._closed) + 1) * self.block_size:
            block = self._patterns[-self.block_size :]
            self._closed.append(self._simulate_block(block))

    def _simulate_block(
        self, block: Sequence[Mapping[str, int]]
    ) -> tuple[dict[str, int], int]:
        words = pack_patterns(block, self.network.inputs)
        mask = (1 << len(block)) - 1
        self.good_sims += 1
        return simulate(self.network, words, len(block)), mask

    def first_detection(
        self, fault: Fault, cone: set[str] | None = None
    ) -> int | None:
        """Index of the earliest stored pattern detecting ``fault``.

        Returns ``None`` if no stored pattern detects it.  ``cone`` is
        accepted for API compatibility; the store's simulator caches
        cone schedules itself.
        """
        if not self._patterns:
            return None
        detect = self.simulator.detect_mask
        for index, (good_values, mask) in enumerate(self._closed):
            self.cone_sims += 1
            hits = detect(fault, good_values, mask)
            if hits:
                return index * self.block_size + _lowest_bit(hits)
        pending = self._patterns[len(self._closed) * self.block_size :]
        if pending:
            if self._pending_good is None:
                self._pending_good = self._simulate_block(pending)
            good_values, mask = self._pending_good
            self.cone_sims += 1
            hits = detect(fault, good_values, mask)
            if hits:
                return len(self._closed) * self.block_size + _lowest_bit(hits)
        return None


def _lowest_bit(word: int) -> int:
    """Position of the least-significant set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


def pattern_detects(
    network: Network, fault: Fault, pattern: Mapping[str, int]
) -> bool:
    """True iff the single ``pattern`` detects ``fault``."""
    outcome = fault_simulate(network, [fault], [pattern])
    return fault in outcome.detected


def random_pattern_coverage(
    network: Network,
    faults: Sequence[Fault],
    n_patterns: int,
    seed: int = 0,
    block_size: int = 64,
) -> FaultSimResult:
    """Coverage of ``n_patterns`` uniform random patterns."""
    rng = random.Random(seed)
    patterns = [
        {net: rng.getrandbits(1) for net in network.inputs}
        for _ in range(n_patterns)
    ]
    return fault_simulate(network, faults, patterns, block_size=block_size)
