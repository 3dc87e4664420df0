"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.circuits.build import NetworkBuilder
from repro.circuits.gates import GateType
from repro.circuits.network import Network


@pytest.fixture
def example_network() -> Network:
    """The paper's Figure 4(a) running example."""
    from repro.experiments.example_circuit import example_circuit

    return example_circuit()


@pytest.fixture
def redundant_network() -> Network:
    """out = a OR (a AND b): the AND's s-a-0 is untestable."""
    builder = NetworkBuilder("redundant")
    a, b = builder.inputs(2)
    t = builder.and_(a, b, name="t")
    out = builder.or_(a, t, name="out")
    builder.outputs(out)
    return builder.build()


@pytest.fixture
def rand_i14_g120() -> Network:
    """A decomposed random circuit with 168 collapsed faults, 74 of them
    untestable: enough faults for two parallel shards."""
    from repro.circuits.decompose import tech_decompose
    from repro.gen.random_circuits import RandomCircuitSpec, random_circuit

    spec = RandomCircuitSpec(
        num_inputs=14, num_gates=120, num_outputs=6, seed=7
    )
    return tech_decompose(random_circuit(spec))


@pytest.fixture
def two_output_network() -> Network:
    """A small multi-output circuit exercising cone extraction."""
    builder = NetworkBuilder("duo")
    a, b, c = builder.inputs(3)
    x = builder.and_(a, b, name="x")
    y = builder.or_(b, c, name="y")
    z = builder.xor(x, y, name="z")
    builder.outputs(x, z)
    return builder.build()


def verdict_classes(summary) -> list[tuple]:
    """(fault, verdict class) per record, in record order.

    TESTED and DROPPED fold into ``detected`` and test vectors are left
    out: across worker counts and resume points only the class of each
    fault is promised, not its vector or its TESTED/DROPPED split.
    """
    return [
        (
            record.fault,
            "detected"
            if record.status.value in ("tested", "dropped")
            else record.status.value,
        )
        for record in summary.records
    ]


def make_random_network(
    seed: int,
    num_inputs: int = 4,
    num_gates: int = 8,
    allow_xor: bool = True,
) -> Network:
    """Small random circuit for property-style tests (deterministic)."""
    rng = random.Random(seed)
    builder = NetworkBuilder(f"prop{seed}")
    nets = builder.inputs(num_inputs)
    gate_types = [
        GateType.AND,
        GateType.OR,
        GateType.NAND,
        GateType.NOR,
        GateType.NOT,
    ]
    if allow_xor:
        gate_types.append(GateType.XOR)
    for _ in range(num_gates):
        gate_type = rng.choice(gate_types)
        if gate_type is GateType.NOT:
            sources = [rng.choice(nets)]
        else:
            k = rng.choice((2, 2, 3))
            sources = rng.sample(nets, min(k, len(nets)))
        nets.append(builder.gate(gate_type, sources))
    builder.outputs(nets[-1])
    return builder.build()
