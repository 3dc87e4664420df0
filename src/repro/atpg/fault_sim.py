"""Parallel-pattern single-fault simulation.

Used to validate SAT-generated test patterns, to implement fault dropping
in the ATPG engine, and to measure fault coverage of pattern sets.  The
simulator packs an arbitrary number of patterns per Python integer word
(Python ints are unbounded, so the block width is a tuning knob, not a
machine-word limit) and, for each fault, re-evaluates only the fault's
fanout cone against the good values (the standard single-fault
propagation optimisation).

:class:`FaultSimulator` lowers the circuit into slot programs: lists of
``(op, dst_slot, src_slots)`` records that one interpreter loop
(:func:`_run`) evaluates over a word buffer, so a fanin read is one
buffer index.  (A flat ``array('q')`` opcode stream was measured
*slower* in CPython: each operand fetch boxes a fresh int.)  The
*good-circuit program* covers the whole network with topological
positions as slots; a run returns every net's good word as one
topo-indexed list.  A *cone program* per fault site covers the site's
transitive fanout over dense local slots, with the fault-free words at
the cone boundary (and a shadow of each cone output, for the detection
XOR) loaded from such a list; a cone probed again against the same
list skips those loads.

The simulator keeps the good values of the last single pattern it
simulated, keyed by the pattern's input bits, so the engine's witness
check, phase seeding and fault dropping simulate each new test once.
No code is generated: an ``exec``-compiled cone paid back its compile
time only after 46-70 probes, far more than a cone gets
(EXPERIMENTS.md § "Compiled fault-sim kernel").
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.atpg.faults import Fault
from repro.circuits.gates import GateType, evaluate_gate
from repro.circuits.network import Network
from repro.circuits.simulate import pack_patterns

#: Opcodes of the slot interpreter.  AND/OR/XOR of masked words stay
#: masked; the inverting variants complement via ``^ mask``.
_OP_AND, _OP_OR, _OP_XOR, _OP_NAND, _OP_NOR, _OP_XNOR, _OP_BUF, _OP_NOT = (
    range(8)
)

#: The opcode of each gate kind a lowered record can hold (sources
#: lower to no record).
OPCODES = {
    GateType.AND: _OP_AND,
    GateType.OR: _OP_OR,
    GateType.XOR: _OP_XOR,
    GateType.NAND: _OP_NAND,
    GateType.NOR: _OP_NOR,
    GateType.XNOR: _OP_XNOR,
    GateType.BUF: _OP_BUF,
    GateType.NOT: _OP_NOT,
}

#: A slot program: ``(op, dst_slot, src_slots)`` records in evaluation
#: order.
Program = list[tuple[int, int, tuple[int, ...]]]


def _run(prog: Program, buf: list[int], mask: int) -> None:
    """Evaluate ``prog`` in place over the word buffer ``buf``: the one
    interpreter loop of the good-circuit program and every cone."""
    for op, dst, srcs in prog:
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


@dataclass(slots=True, eq=False)
class SiteCone:
    """The transitive fanout of one fault site, inclusive, walked once.

    ``nets`` holds its nets by name, ``positions`` their topological
    positions in increasing order (the site first: it precedes its
    fanout), and ``outputs`` the positions of the primary outputs it
    holds, in output order.
    """

    nets: set[str]
    positions: list[int]
    outputs: tuple[int, ...]


@dataclass(slots=True, eq=False)
class _CompiledCone:
    """A fault site's fanout cone lowered to a slot program.

    Slot 0 holds the stuck-at word of the site.  ``loads`` lists
    ``(slot, topo_pos)`` pairs whose slots hold fault-free words (the
    cone-boundary fanins, then one shadow slot per cone output for the
    detection XOR), read from a topo-indexed good-value list.
    ``out_pairs`` pairs each output's faulty slot with its shadow slot;
    ``buf`` is the word buffer the interpreter runs over.  ``last_good``
    and ``last_mask`` stamp the good values most recently loaded:
    probing them again skips the loads.
    """

    prog: Program
    loads: list[tuple[int, int]]
    out_pairs: list[tuple[int, int]]
    buf: list[int]
    last_good: object = None
    last_mask: int = 0


class FaultSimulator:
    """The good-circuit program plus one cone program per fault site
    (see the module docstring).

    Programs are width-agnostic: words are plain Python ints of any bit
    width, bounded by the caller's valid-pattern ``mask``.  They key off
    the network's topological-order cache identity, so mutating the
    network invalidates them automatically.  ``good_sims`` counts runs
    of the good-circuit program.  Each site's fanout is walked once
    (:meth:`cone`) and serves its cone program and every other reader.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.good_sims = 0
        self._topo_ref: object = None
        self._positions: dict[str, int] = {}
        #: The good-circuit program (input loads ``(pos, net)``, CONST1
        #: positions, gate records) and the records by topo position.
        self._program: tuple | None = None
        self._records: list = []
        self._compiled: dict[str, _CompiledCone] = {}
        self._cones: dict[str, SiteCone] = {}
        #: (input bits, good values) of the last single pattern simulated.
        self._last_pattern: tuple[tuple[int, ...], list[int]] | None = None

    def _refresh(self) -> None:
        """Drop every program if the network mutated since last use."""
        topo = self.network._cache_topo
        if topo is None:
            self.network.topological_order()
            topo = self.network._cache_topo
        if topo is not self._topo_ref:
            self._topo_ref = topo
            self._positions = {net: i for i, net in enumerate(topo)}
            self._program = None
            self._compiled.clear()
            self._cones.clear()
            self._last_pattern = None

    @property
    def nets(self) -> list[str]:
        """The net order good-value lists are indexed by."""
        self._refresh()
        return self._topo_ref

    @property
    def positions(self) -> dict[str, int]:
        """Each net's topological position (its index in :attr:`nets`)."""
        self._refresh()
        return self._positions

    @property
    def records(self) -> list:
        """The good-circuit program's ``(op, pos, src_positions)`` record
        of each position, ``None`` for inputs and constants."""
        self._lowered()
        return self._records

    def cone(self, site: str) -> SiteCone:
        """The transitive fanout of ``site``, walked on first use."""
        self._refresh()
        cone = self._cones.get(site)
        if cone is None:
            nets = self.network.transitive_fanout([site])
            positions = self._positions
            outputs = self.network.outputs
            cone = SiteCone(
                nets,
                sorted(positions[net] for net in nets),
                tuple(positions[out] for out in outputs if out in nets),
            )
            self._cones[site] = cone
        return cone

    def _lowered(self) -> tuple[list[tuple[int, str]], list[int], Program]:
        """The good-circuit program, lowered on first use.  Its records
        use topological positions as slots."""
        self._refresh()
        if self._program is None:
            network = self.network
            positions = self._positions
            inputs: list[tuple[int, str]] = []
            ones: list[int] = []
            records = self._records = [None] * len(positions)
            for pos, net in enumerate(self._topo_ref):
                gate = network.gate(net)
                kind = gate.gate_type
                if kind is GateType.INPUT:
                    inputs.append((pos, net))
                elif kind is GateType.CONST1:
                    ones.append(pos)
                elif kind is not GateType.CONST0:  # CONST0 stays 0
                    srcs = tuple(positions[src] for src in gate.inputs)
                    records[pos] = (OPCODES[kind], pos, srcs)
            prog = [record for record in records if record is not None]
            self._program = (inputs, ones, prog)
        return self._program

    def simulate(self, input_words: Mapping[str, int], mask: int) -> list[int]:
        """Every net's good word, topo-indexed (see :attr:`nets`), for
        packed input words (a missing input reads 0)."""
        inputs, ones, prog = self._lowered()
        buf = [0] * len(self._topo_ref)
        for pos, net in inputs:
            buf[pos] = input_words.get(net, 0) & mask
        for pos in ones:
            buf[pos] = mask
        _run(prog, buf, mask)
        self.good_sims += 1
        return buf

    def pattern_values(self, pattern: Mapping[str, int]) -> list[int]:
        """Good values of the single 0/1 ``pattern``, one bit per net.

        The last pattern's values are kept, keyed by its input bits, so
        asking again for the same bits simulates nothing.  Callers must
        not mutate the returned list.
        """
        inputs = self._lowered()[0]
        bits = tuple(pattern.get(net, 0) & 1 for _, net in inputs)
        last = self._last_pattern
        if last is not None and last[0] == bits:
            return last[1]
        values = self.simulate(pattern, 1)
        self._last_pattern = (bits, values)
        return values

    def compiled(self, site: str) -> _CompiledCone:
        """The slot program for a fault on ``site``.

        The site's fanout cone, in topological order, takes its records
        from the good-circuit program.  Slots are assigned densely in
        first-use order: the site first, then each gate's fanins
        (boundary fanins, outside the cone, become load slots holding
        fault-free words) and its output net.
        """
        self._lowered()
        compiled = self._compiled.get(site)
        if compiled is None:
            records = self._records
            cone = self.cone(site)
            site_pos = cone.positions[0]
            slots: dict[int, int] = {site_pos: 0}
            loads: list[tuple[int, int]] = []
            prog: Program = []
            for pos in cone.positions[1:]:
                op, _, srcs = records[pos]
                src_slots: list[int] = []
                for src in srcs:
                    slot = slots.get(src)
                    if slot is None:
                        # Topological order puts every cone gate before
                        # its cone fanouts, so an unseen fanin is
                        # outside the cone: a fault-free boundary load.
                        slot = slots[src] = len(slots)
                        loads.append((slot, src))
                    src_slots.append(slot)
                slots[pos] = len(slots)
                prog.append((op, slots[pos], tuple(src_slots)))
            n_slots = len(slots)
            out_pairs: list[tuple[int, int]] = []
            for pos in cone.outputs:
                # Shadow slot: the output's fault-free word, for the
                # detection XOR against the faulty word.
                out_pairs.append((slots[pos], n_slots))
                loads.append((n_slots, pos))
                n_slots += 1
            compiled = _CompiledCone(prog, loads, out_pairs, [0] * n_slots)
            self._compiled[site] = compiled
        return compiled

    def detect_mask(self, fault: Fault, good: list[int], mask: int) -> int:
        """Bitmask of patterns for which ``fault`` reaches an output.

        ``good`` is a topo-indexed good-value list (:meth:`simulate`)
        for a block of patterns; ``mask`` is the block's valid-pattern
        mask.  A probe against the same list and mask as the cone's last
        probe skips the boundary loads, so a caller may grow a list in
        place only while it widens the mask, as
        :class:`PatternBlockStore` does.
        """
        self._refresh()
        stuck_word = mask if fault.value else 0
        if good[self._positions[fault.net]] == stuck_word:
            return 0  # fault never excited by these patterns
        cone = self._compiled.get(fault.net) or self.compiled(fault.net)
        buf = cone.buf
        if cone.last_good is not good or cone.last_mask != mask:
            for slot, pos in cone.loads:
                buf[slot] = good[pos]
            cone.last_good = good
            cone.last_mask = mask
        buf[0] = stuck_word
        _run(cone.prog, buf, mask)
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
        mask = (1 << len(block)) - 1
        good = simulator.simulate(pack_patterns(block, network.inputs), mask)
        still: list[Fault] = []
        for fault in remaining:
            hits = simulator.detect_mask(fault, good, mask)
            if hits:
                result.detected[fault] = hits << start
            else:
                still.append(fault)
        remaining = still
    result.undetected = remaining
    return result


class PatternBlockStore:
    """Generated tests packed into parallel blocks for batched dropping.

    Asking whether a fault is already covered (:meth:`first_detection`)
    costs one fanout-cone probe per *block* of ``block_size`` patterns
    rather than one per pattern.  Each block is kept as a topo-indexed
    good-value list.  A new pattern's single-pattern good values are
    OR-ed into the pending block at the pattern's bit, so no block is
    ever simulated again, and a pattern the simulator has just simulated
    (the engine's latest test) costs no simulation at all.

    Blocks are append-only, so detection answers are stable: the earliest
    detecting pattern index returned for a fault never changes as more
    patterns arrive.

    Args:
        simulator: a :class:`FaultSimulator` of ``network`` to share with
            other callers (its programs and its last simulated pattern);
            a new one by default.
    """

    def __init__(
        self,
        network: Network,
        block_size: int = 64,
        simulator: FaultSimulator | None = None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.network = network
        self.block_size = block_size
        self.simulator = simulator or FaultSimulator(network)
        self._patterns: list[dict[str, int]] = []
        #: Good values per block: the full blocks, then the pending one
        #: (grown in place; its mask widens with every pattern).
        self._blocks: list[list[int]] = []
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
        """Append a test pattern."""
        self._append([dict(pattern)], self.simulator.pattern_values(pattern))

    def extend(self, patterns: Sequence[Mapping[str, int]]) -> None:
        """Append many patterns, simulating them a block at a time."""
        todo = [dict(pattern) for pattern in patterns]
        while todo:
            room = self.block_size - len(self._patterns) % self.block_size
            chunk, todo = todo[:room], todo[room:]
            words = pack_patterns(chunk, self.network.inputs)
            mask = (1 << len(chunk)) - 1
            self._append(chunk, self.simulator.simulate(words, mask))

    def _append(self, patterns: list[dict[str, int]], good: list[int]) -> None:
        """OR the packed ``good`` values of ``patterns`` (no more than the
        pending block has room for) in at their bits."""
        shift = len(self._patterns) % self.block_size
        if shift == 0:
            self._blocks.append(list(good))
        else:
            block = self._blocks[-1]
            for pos, word in enumerate(good):
                if word:
                    block[pos] |= word << shift
        self._patterns.extend(patterns)

    def first_detection(self, fault: Fault) -> int | None:
        """Index of the earliest stored pattern detecting ``fault``.

        Returns ``None`` if no stored pattern detects it.
        """
        detect = self.simulator.detect_mask
        size = self.block_size
        for index, good in enumerate(self._blocks):
            count = min(size, len(self._patterns) - index * size)
            self.cone_sims += 1
            hits = detect(fault, good, (1 << count) - 1)
            if hits:
                return index * size + _lowest_bit(hits)
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
