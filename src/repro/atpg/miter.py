"""Construction of the ATPG-SAT circuit C_ψ^ATPG (paper Figure 3).

Given circuit C and fault ψ on net X:

* ``C_ψ^fo`` — the transitive fanout of X in the *faulted* circuit C_ψ,
  duplicated with fresh names; X itself becomes the stuck constant.
* ``C_ψ^sub`` — the subcircuit of the *good* circuit C induced by the
  transitive fanin of the transitive fanout of X (everything relevant to
  exciting and observing the fault).
* ``C_ψ^ATPG`` — C_ψ^sub and C_ψ^fo side by side, with the faulty cone
  tapping its side inputs directly from good-circuit nets, and one XOR
  per affected primary output.  CIRCUIT-SAT on this circuit ("at least
  one output is 1") is exactly ATPG-SAT(C, ψ).

:func:`build_atpg_circuit` builds C_ψ^ATPG as a named network for the
cold solvers.  The incremental engine already holds C's CNF, so
:func:`build_fault_delta` emits only what C_ψ^ATPG adds to it, as
integer clauses (:class:`FaultDelta`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from typing import Optional

from repro.atpg.fault_sim import OPCODES, FaultSimulator
from repro.atpg.faults import Fault
from repro.circuits.gates import GateType
from repro.circuits.network import Gate, Network
from repro.sat.cnf import CnfFormula
from repro.sat.tseitin import (
    CnfEncodingCache,
    circuit_sat_formula,
    gate_clauses,
)

#: Name prefix for the duplicated faulty-cone nets.
FAULTY_PREFIX = "flt$"
#: Name prefix for the XOR comparison outputs.
XOR_PREFIX = "xor$"


@dataclass
class AtpgCircuit:
    """The assembled ATPG-SAT circuit plus bookkeeping.

    Attributes:
        network: C_ψ^ATPG; its outputs are the XOR comparison nets.
        fault: the fault ψ this circuit tests.
        good_nets: nets of C_ψ^sub present in the miter (original names).
        faulty_nets: original names of nets duplicated into the faulty cone.
        observing_outputs: primary outputs of C reachable from the fault.
    """

    network: Network
    fault: Fault
    good_nets: tuple[str, ...]
    faulty_nets: tuple[str, ...]
    observing_outputs: tuple[str, ...]

    def formula(self, cache: CnfEncodingCache | None = None) -> CnfFormula:
        """The ATPG-SAT CNF: CIRCUIT-SAT on C_ψ^ATPG.

        With a ``cache``, per-gate clause blocks are shared with every
        other miter encoded through the same cache (faults with
        overlapping fanin cones reuse the good side's clauses verbatim).
        """
        return circuit_sat_formula(
            self.network, name=f"atpg({self.fault})", cache=cache
        )

    def faulty_name(self, net: str) -> str:
        """Miter-side name of the faulty copy of ``net``."""
        return FAULTY_PREFIX + net


class UnobservableFault(ValueError):
    """The fault site has no path to any primary output."""


def fault_cone_nets(network: Network, fault: Fault) -> set[str]:
    """Nets of the transitive fanout of the fault site (inclusive)."""
    return network.transitive_fanout([fault.net])


def _observing_outputs(network: Network, tfo: set[str]) -> list[str]:
    """Primary outputs in ``tfo``, each once: a network may list an
    output twice, and the miter compares each output once."""
    return list(dict.fromkeys(out for out in network.outputs if out in tfo))


def sub_circuit(
    network: Network, fault: Fault, tfo: set[str] | None = None
) -> Network:
    """C_ψ^sub: TFI of the TFO of the fault site, as a circuit of C.

    Its outputs are the primary outputs of C that can observe ψ.

    Raises:
        UnobservableFault: if no primary output lies in the fanout of X.
    """
    if tfo is None:
        tfo = fault_cone_nets(network, fault)
    observing = _observing_outputs(network, tfo)
    if not observing:
        raise UnobservableFault(
            f"fault {fault} cannot reach any primary output"
        )
    relevant = network.transitive_fanin(tfo)
    return network.subnetwork(
        relevant, outputs=observing, name=f"{network.name}.sub({fault})"
    )


def build_atpg_circuit(
    network: Network, fault: Fault, tfo: set[str] | None = None
) -> AtpgCircuit:
    """Assemble C_ψ^ATPG for ``fault`` on ``network``.

    Args:
        network: the good circuit.
        fault: the fault ψ to build the miter for.
        tfo: optional precomputed fanout cone of ``fault.net`` (engines
            cache cones per net — both polarities share one traversal).

    Raises:
        UnobservableFault: if the fault site reaches no primary output.
        ValueError: if the fault net does not exist.
    """
    if not network.has_net(fault.net):
        raise ValueError(f"fault on unknown net {fault.net!r}")

    if tfo is None:
        tfo = fault_cone_nets(network, fault)
    observing = _observing_outputs(network, tfo)
    if not observing:
        raise UnobservableFault(
            f"fault {fault} cannot reach any primary output"
        )

    good = sub_circuit(network, fault, tfo=tfo)
    miter = Network(name=f"{network.name}.atpg({fault})")

    # Good side: copy C_ψ^sub verbatim.
    for net in good.topological_order():
        gate = good.gate(net)
        if gate.gate_type is GateType.INPUT:
            miter.add_input(net)
        else:
            miter.add_gate(net, gate.gate_type, gate.inputs)

    # Faulty side: duplicate the fanout cone with fresh names.  The fault
    # site becomes a constant; other cone gates read the faulty copy of
    # cone inputs and tap good-circuit nets otherwise.
    def faulty_name(net: str) -> str:
        return FAULTY_PREFIX + net

    cone_order = [net for net in good.topological_order() if net in tfo]
    for net in cone_order:
        if net == fault.net:
            const = GateType.CONST1 if fault.value else GateType.CONST0
            miter.add_gate(faulty_name(net), const, ())
            continue
        gate = good.gate(net)
        mapped = [
            faulty_name(src) if src in tfo else src for src in gate.inputs
        ]
        miter.add_gate(faulty_name(net), gate.gate_type, mapped)

    # Pairwise XOR of good and faulty outputs.
    xor_outputs = []
    for out in observing:
        xor_net = XOR_PREFIX + out
        miter.add_gate(xor_net, GateType.XOR, [out, faulty_name(out)])
        xor_outputs.append(xor_net)
    miter.set_outputs(xor_outputs)

    return AtpgCircuit(
        network=miter,
        fault=fault,
        good_nets=tuple(good.nets),
        faulty_nets=tuple(cone_order),
        observing_outputs=tuple(observing),
    )


def atpg_sat_formula(network: Network, fault: Fault) -> CnfFormula:
    """ATPG-SAT(C, ψ) as a CNF formula (Section 2's reduction)."""
    return build_atpg_circuit(network, fault).formula()


@dataclass
class FaultDelta:
    """Per-fault miter clauses over an already-loaded good circuit, in
    integer literals.

    The clauses cover only what :func:`build_atpg_circuit` adds *on top
    of* the good circuit's CNF: the faulty cone (restricted to the
    relevant set R), the XOR comparators and the detection clause.  The
    incremental engine pushes them as one activation-guarded clause
    group onto a persistent solver whose base holds the good circuit.

    A literal ``>= 0`` is a solver literal of the good circuit
    (``2 * var`` positive, ``2 * var + 1`` negative).  A literal ``< 0``
    is ``~lit`` for the literal ``lit`` of a *local* variable, one the
    delta introduces; each is bound to a fresh solver variable only when
    the delta is pushed
    (:meth:`~repro.sat.incremental.IncrementalSatSolver.push_group`).  In
    both forms ``^ 1`` negates.  The delta therefore depends on no
    solver, and serves every solver whose base numbers the good circuit
    the same way.  Clauses hold no duplicate literal and no tautology.

    Local variables are numbered in the order the named miter met its
    new nets: the faulty copy of each ``cone`` net, in topological
    order, then per distinct observing output its XOR output, preceded
    by the output's good net when that net has no base variable.

    Attributes:
        fault: the fault ψ the delta encodes.
        clauses: faulty-cone + XOR + output-assertion clauses.
        num_locals: local variables the clauses use.
        cone: topological positions of the nets duplicated into the
            faulty cone; local variable ``j`` is the faulty copy of
            ``cone[j]``.
        observing: positions of the primary outputs that can observe ψ,
            in output order.
        free_inputs: ``(position, local variable)`` of each good net the
            delta names locally: a primary input that is also an output
            and drives no gate, so no base clause mentions it.
    """

    fault: Fault
    clauses: list[list[int]]
    num_locals: int
    cone: list[int]
    observing: tuple[int, ...]
    free_inputs: list[tuple[int, int]]


#: Gate kind of each opcode of a lowered simulator record.
_KIND_OF_OP = {op: kind for kind, op in OPCODES.items()}


@cache
def _template(
    kind: GateType, pattern: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The consistency clauses of a ``kind`` gate over slot literals.

    Slot 0 is the gate's output and slot ``k + 1`` its ``k``-th distinct
    input; ``pattern`` names the distinct input each fanin reads, e.g.
    ``(0, 1, 1)`` for ``AND(x, b, b)``.  Slot ``s`` has the literals
    ``2 * s`` (positive) and ``2 * s + 1`` (negative).  The clauses are
    :func:`~repro.sat.tseitin.gate_clauses` of the gate over placeholder
    nets, so the Figure 2 formulas stay written in one place; a repeated
    fanin merges duplicate literals and drops tautologies, as compiling
    the named clauses does.
    """
    names = [f"${slot}" for slot in range(len(set(pattern)) + 1)]
    gate = Gate(names[0], kind, tuple(names[k + 1] for k in pattern))
    slot_of = {name: slot for slot, name in enumerate(names)}
    return tuple(
        tuple(
            2 * slot_of[lit.variable] + (0 if lit.positive else 1)
            for lit in clause
        )
        for clause in gate_clauses(gate)
        if not any(~lit in clause for lit in clause)
    )


def _fanin_pattern(
    srcs: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The distinct fanins of ``srcs`` and the pattern of
    :func:`_template` that reads them."""
    if len(set(srcs)) == len(srcs):
        return srcs, tuple(range(len(srcs)))
    distinct = tuple(dict.fromkeys(srcs))
    return distinct, tuple(distinct.index(src) for src in srcs)


def build_fault_delta(
    simulator: FaultSimulator,
    fault: Fault,
    relevant: bytes,
    base_vars: Sequence[Optional[int]],
) -> FaultDelta:
    """Emit the miter clauses ``fault`` adds over the good circuit's CNF.

    Equivalent to the Tseitin clauses of the faulty cone, the XOR
    comparators and the detection clause of :func:`build_atpg_circuit`,
    minus the good side (assumed already present as gate clauses of
    every net in ``relevant``).  The cone is restricted to the relevant
    set R: fanout branches that reach no observing output cannot affect
    the XOR comparators, and dropping them keeps every side input the
    faulty cone taps inside R.  Only the site's cone is visited, in
    topological order, each gate read from the simulator's lowered
    records and its clauses from a per-kind template (:func:`_template`).

    Args:
        simulator: the good circuit's fault simulator (its cached site
            cones and lowered records).
        fault: the fault ψ.
        relevant: R as a mask over topological positions: the
            transitive fanin of the observing outputs.
        base_vars: the solver variable of each topological position,
            ``None`` for a net no base clause mentions.

    Raises:
        UnobservableFault: if the fault site reaches no primary output.
    """
    cone = simulator.cone(fault.net)
    if not cone.outputs:
        raise UnobservableFault(
            f"fault {fault} cannot reach any primary output"
        )
    records = simulator.records
    site = cone.positions[0]
    # The positive literal of the faulty copy of each cone net.
    faulty: dict[int, int] = {}
    members: list[int] = []
    clauses: list[list[int]] = []
    for pos in cone.positions:
        if not relevant[pos]:
            continue
        out = ~(2 * len(members))
        faulty[pos] = out
        members.append(pos)
        if pos == site:
            kind = GateType.CONST1 if fault.value else GateType.CONST0
            srcs: tuple[int, ...] = ()
            pattern: tuple[int, ...] = ()
        else:
            op, _, srcs = records[pos]
            kind = _KIND_OF_OP[op]
            srcs, pattern = _fanin_pattern(srcs)
        lits = [out, out ^ 1]
        for src in srcs:
            lit = faulty.get(src)
            if lit is None:
                lit = base_vars[src] << 1
            lits.append(lit)
            lits.append(lit ^ 1)
        clauses.extend(
            [lits[slot] for slot in clause]
            for clause in _template(kind, pattern)
        )

    num_locals = len(members)
    free_inputs: list[tuple[int, int]] = []
    comparators: dict[int, list[int]] = {}
    xor_template = _template(GateType.XOR, (0, 1))
    for pos in cone.outputs:
        lits = comparators.get(pos)
        if lits is None:
            var = base_vars[pos]
            if var is None:
                free_inputs.append((pos, num_locals))
                good = ~(2 * num_locals)
                num_locals += 1
            else:
                good = var << 1
            xor = ~(2 * num_locals)
            num_locals += 1
            lits = comparators[pos] = [
                xor, xor ^ 1, good, good ^ 1, faulty[pos], faulty[pos] ^ 1
            ]
        clauses.extend(
            [lits[slot] for slot in clause] for clause in xor_template
        )
    clauses.append([comparator[0] for comparator in comparators.values()])

    return FaultDelta(
        fault=fault,
        clauses=clauses,
        num_locals=num_locals,
        cone=members,
        observing=cone.outputs,
        free_inputs=free_inputs,
    )
