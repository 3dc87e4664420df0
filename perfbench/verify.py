"""Independent verdict checks.

Nothing here calls the code under test's ATPG layers (miter, Tseitin,
SAT, ``atpg.fault_sim``).  The checks rest on three other foundations:

* detected verdicts (TESTED / DROPPED): good-versus-faulty simulation of
  the claimed vector with :func:`repro.circuits.simulate.simulate` on a
  copy of the circuit whose fault net is driven by a constant (the good
  circuit is simulated once per circuit, all vectors bit-parallel);
* untestable verdicts: a known answer where the family has one, else an
  exact ROBDD comparison of the good and the fault-injected outputs
  (:mod:`repro.bdd`).  Canonical BDDs in one manager are equal exactly
  when the functions are, so a fault is untestable exactly when every
  output node is unchanged.  PODEM and the DPLL backend both need over
  100 s on one ``rand_i26_g520`` circuit; the BDDs take well under 1 s;
* unobservable verdicts: a reverse reachability walk from the outputs.

Every check returns the number of failed operations, so a wrong verdict
shows up as a raised ``fail_rate``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.bdd.bdd import ONE, ZERO, BddManager
from repro.circuits.gates import GateType
from repro.circuits.network import Network
from repro.circuits.simulate import simulate

#: BDD node budget per circuit; a circuit past it cannot be checked and
#: its untestable claims count as failed.
MAX_BDD_NODES = 2_000_000

DETECTED = ("tested", "dropped")


@dataclass
class CheckResult:
    """Outcome of checking a set of verdicts."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.problems.append(message)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def inject(network: Network, net: str, value: int) -> Network:
    """A copy of ``network`` with ``net`` stuck at ``value``."""
    faulty = network.copy()
    faulty.replace_gate(net, GateType.CONST1 if value else GateType.CONST0)
    return faulty


def undetected(network: Network, claims: Sequence[tuple[str, int, dict]]) -> list[int]:
    """Indices of the claims ``(net, value, vector)`` whose vector does not
    tell the good circuit from the one with ``net`` stuck at ``value``.

    The good circuit is simulated once for all vectors (bit ``i`` is
    claim ``i``); each faulty copy with its own vector.
    """
    words = {pi: 0 for pi in network.inputs}
    for bit, (_, _, vector) in enumerate(claims):
        for pi in network.inputs:
            if vector.get(pi, 0) & 1:
                words[pi] |= 1 << bit
    good = simulate(network, words, len(claims))
    missed = []
    for bit, (net, value, vector) in enumerate(claims):
        bad = simulate(inject(network, net, value),
                       {pi: vector.get(pi, 0) & 1 for pi in network.inputs}, 1)
        if all((good[out] >> bit) & 1 == bad[out] for out in network.outputs):
            missed.append(bit)
    return missed


def observable_nets(network: Network) -> set[str]:
    """Nets with a structural path to a primary output."""
    seen: set[str] = set()
    stack = list(network.outputs)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        stack.extend(network.gate(net).inputs)
    return seen


def _gate_bdd(manager: BddManager, gate_type: GateType, ops: list[int]) -> int:
    if gate_type is GateType.BUF:
        return ops[0]
    if gate_type is GateType.NOT:
        return manager.apply_not(ops[0])
    if gate_type is GateType.CONST0:
        return ZERO
    if gate_type is GateType.CONST1:
        return ONE
    if gate_type in (GateType.AND, GateType.NAND):
        node = manager.conjoin(ops)
        return manager.apply_not(node) if gate_type is GateType.NAND else node
    if gate_type in (GateType.OR, GateType.NOR):
        node = manager.disjoin(ops)
        return manager.apply_not(node) if gate_type is GateType.NOR else node
    if gate_type in (GateType.XOR, GateType.XNOR):
        node = ops[0]
        for op in ops[1:]:
            node = manager.apply_xor(node, op)
        return manager.apply_not(node) if gate_type is GateType.XNOR else node
    raise ValueError(f"no BDD rule for {gate_type!r}")


def testable_by_bdd(
    network: Network, faults: Iterable[tuple[str, int]]
) -> list[tuple[str, int]]:
    """The faults among ``faults`` that some input pattern detects.

    Raises:
        OverflowError: when the circuit's BDDs exceed ``MAX_BDD_NODES``.
    """
    manager = BddManager(network.inputs)
    order = network.topological_order()
    rank = {net: index for index, net in enumerate(order)}
    good: dict[str, int] = {}
    for net in order:
        gate = network.gate(net)
        if gate.gate_type is GateType.INPUT:
            good[net] = manager.var(net)
        else:
            good[net] = _gate_bdd(
                manager, gate.gate_type, [good[src] for src in gate.inputs]
            )
    fanouts: dict[str, list[str]] = {net: [] for net in order}
    for net in order:
        for src in network.gate(net).inputs:
            fanouts[src].append(net)
    testable = []
    for net, value in faults:
        # Re-evaluate the fault's fanout cone with the net pinned.
        cone: set[str] = set()
        stack = [net]
        while stack:
            node = stack.pop()
            if node not in cone:
                cone.add(node)
                stack.extend(fanouts[node])
        faulty = {net: ONE if value else ZERO}
        for node in sorted(cone - {net}, key=rank.__getitem__):
            gate = network.gate(node)
            faulty[node] = _gate_bdd(
                manager,
                gate.gate_type,
                [faulty.get(src, good[src]) for src in gate.inputs],
            )
        if manager.num_nodes_allocated() > MAX_BDD_NODES:
            raise OverflowError(f"{network.name}: BDD node budget exceeded")
        if any(faulty.get(out, good[out]) != good[out] for out in network.outputs):
            testable.append((net, value))
    return testable


def check_records(
    network: Network,
    records: Sequence[dict],
    known_untestable: int | None,
    checked: set | None = None,
) -> CheckResult:
    """Check one run's per-fault records against the references.

    ``records`` are dicts with ``net``, ``value``, ``status`` and (for
    detected faults) ``test``.  ``known_untestable`` is the known count
    of untestable faults, or ``None`` to compute the answer with BDDs.
    ``checked`` memoises detected (fault, vector) pairs already proven,
    so repeated passes over the same circuit cost one check.
    """
    result = CheckResult(attempted=len(records))
    observable = observable_nets(network)
    untestable = []
    claims, keys = [], []
    for rec in records:
        status, net, value = rec["status"], rec["net"], rec["value"]
        if status == "aborted":
            result.fail(1, f"{network.name}: {net}/sa{value} aborted")
        elif status in DETECTED:
            test = rec.get("test") or {}
            key = (network.name, net, value, tuple(sorted(test.items())))
            if checked is None or key not in checked:
                claims.append((net, value, test))
                keys.append((key, status))
        elif status == "unobservable":
            if net in observable:
                result.fail(1, f"{network.name}: {net} claimed unobservable")
        elif status == "untestable":
            if net not in observable:
                result.fail(1, f"{network.name}: {net} unobservable, "
                               "claimed untestable")
            else:
                untestable.append((net, value))
        else:
            result.fail(1, f"{network.name}: unknown status {status!r}")
    missed = set(undetected(network, claims)) if claims else set()
    for bit, ((key, status), (net, value, _)) in enumerate(zip(keys, claims)):
        if bit in missed:
            result.fail(1, f"{network.name}: {net}/sa{value} {status} "
                           "vector does not detect it")
        elif checked is not None:
            checked.add(key)
    if known_untestable is not None:
        result.fail(
            abs(len(untestable) - known_untestable),
            f"{network.name}: {len(untestable)} untestable, "
            f"known answer {known_untestable}",
        )
    elif untestable:
        try:
            wrong = testable_by_bdd(network, untestable)
        except OverflowError as exc:
            result.fail(len(untestable), str(exc))
        else:
            result.fail(len(wrong), f"{network.name}: {len(wrong)} "
                                    f"untestable claims are testable")
    return result


def check_width_report(
    network: Network,
    faults: Sequence[tuple[str, int]],
    samples: Sequence[tuple[str, int]],
    unobservable: Sequence[tuple[str, int]],
    skipped: int,
) -> CheckResult:
    """Every fault is a sample or unobservable, and the unobservable set
    is exactly the faults with no path to an output."""
    result = CheckResult(attempted=len(faults))
    result.fail(skipped, f"{network.name}: {skipped} faults skipped")
    observable = observable_nets(network)
    expected = {f for f in faults if f[0] not in observable}
    got = set(unobservable)
    result.fail(len(expected ^ got), f"{network.name}: unobservable set "
                                     "differs from reachability")
    covered = set(samples) | got
    result.fail(len(set(faults) - covered),
                f"{network.name}: faults neither sampled nor unobservable")
    return result
