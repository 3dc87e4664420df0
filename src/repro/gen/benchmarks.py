"""Benchmark suite registry — the MCNC91/ISCAS85 stand-ins.

The original suites are not redistributable here, so each suite is
reconstructed from (a) the one universally-reproduced ISCAS85 netlist
(c17, embedded below verbatim in ``.bench`` form) and (b) parameterized
structural and random circuits whose topology matches the families the
suites contain (see DESIGN.md §2).  Every circuit is delivered already
mapped to ≤3-input AND/OR/INV, as the paper's experimental setup
prescribes (SIS ``tech_decomp``).

Known divergence from the real suites: randomly composed logic is far
more redundant than synthesized logic (absorbed terms everywhere), so
the random suite members carry 30-60 % untestable faults where real
benchmarks carry a few percent.  This does not affect the topology
experiments (Figure 8 and the generated-circuit study measure cut-width,
not testability) and only adds well-behaved UNSAT instances to Figure 1;
:func:`repro.apps.redundancy.remove_redundancies` is available for
callers who need irredundant versions (at the cost of much smaller
circuits — random logic collapses under optimization).  Instances are
cached per process, so repeated suite iteration is cheap.
"""

from __future__ import annotations

import functools

from collections.abc import Callable, Iterator

from repro.circuits.decompose import tech_decompose
from repro.circuits.network import Network
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit
from repro.gen.structured import (
    alu_slice,
    array_multiplier,
    carry_lookahead_adder,
    cellular_array_1d,
    cellular_array_2d,
    comparator,
    decoder,
    mux_tree,
    parity_tree,
    redundant_tail_unit,
    ripple_carry_adder,
    tmr_voted_adder,
)
from repro.io.bench import loads_bench

#: The ISCAS85 c17 benchmark, the canonical 6-gate NAND netlist.
C17_BENCH = """\
# c17 (ISCAS85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


def c17() -> Network:
    """The genuine ISCAS85 c17 circuit (undecomposed NAND netlist)."""
    return loads_bench(C17_BENCH, name="c17")


class _WithArrayMultiplier:
    """A suite builder whose circuit contains an array multiplier.

    Array multipliers have Θ(√size) cut-width, outside the log-bounded
    width story; the paper omits C6288 from Figure 8 for this reason, and
    width studies skip these circuits by default.
    """

    def __init__(self, build: Callable[[], Network]) -> None:
        self.build = build

    def __call__(self) -> Network:
        return self.build()


_BuilderMap = dict[str, Callable[[], Network]]


def _iscas_like_builders() -> _BuilderMap:
    """ISCAS85-class circuits: arithmetic/control dominated, mid-size."""
    return {
        "c17": c17,
        "rca16": lambda: ripple_carry_adder(16),
        "rca32": lambda: ripple_carry_adder(32),
        "rca64": lambda: ripple_carry_adder(64),
        "cla16": lambda: carry_lookahead_adder(16),
        "cla32": lambda: carry_lookahead_adder(32),
        "alu16": lambda: alu_slice(16),
        "parity48": lambda: parity_tree(48),
        "cell2d_8x8": lambda: cellular_array_2d(8, 8),
        "mult6": _WithArrayMultiplier(lambda: array_multiplier(6)),
        "mult8": _WithArrayMultiplier(lambda: array_multiplier(8)),
        "alu8": lambda: alu_slice(8),
        "alu12": lambda: alu_slice(12),
        "cmp16": lambda: comparator(16),
        "parity24": lambda: parity_tree(24),
        "tmr16": lambda: tmr_voted_adder(16),
        "rtail8": _WithArrayMultiplier(lambda: redundant_tail_unit(8, 6)),
        "rtail12": _WithArrayMultiplier(lambda: redundant_tail_unit(12, 6)),
        "rand_iscas_a": lambda: random_circuit(
            RandomCircuitSpec(
                num_inputs=72,
                num_gates=420,
                num_outputs=16,
                locality=0.55,
                reconvergence=0.18,
                seed=8501,
            )
        ),
        "rand_iscas_b": lambda: random_circuit(
            RandomCircuitSpec(
                num_inputs=100,
                num_gates=620,
                num_outputs=22,
                locality=0.5,
                reconvergence=0.2,
                seed=8502,
            )
        ),
        "rand_iscas_c": lambda: random_circuit(
            RandomCircuitSpec(
                num_inputs=200,
                num_gates=1400,
                num_outputs=40,
                locality=0.6,
                reconvergence=0.18,
                seed=8503,
            )
        ),
    }


def _mcnc_like_builders() -> _BuilderMap:
    """MCNC91 "logic" class: many small/medium control-logic circuits."""
    builders: _BuilderMap = {
        "dec4": lambda: decoder(4),
        "dec5": lambda: decoder(5),
        "mux4": lambda: mux_tree(4),
        "mux5": lambda: mux_tree(5),
        "rca8": lambda: ripple_carry_adder(8),
        "cla8": lambda: carry_lookahead_adder(8),
        "cmp8": lambda: comparator(8),
        "parity16": lambda: parity_tree(16),
        "alu4": lambda: alu_slice(4),
        "cell1d_24": lambda: cellular_array_1d(24),
        "cell2d_5x5": lambda: cellular_array_2d(5, 5),
        "mult4": _WithArrayMultiplier(lambda: array_multiplier(4)),
    }
    shapes = [
        (24, 90, 6, 0.6, 0.15),
        (36, 140, 8, 0.55, 0.2),
        (50, 200, 10, 0.5, 0.18),
        (64, 260, 10, 0.55, 0.2),
        (80, 340, 12, 0.5, 0.17),
        (44, 170, 9, 0.65, 0.2),
    ]
    for index, (pi, gates, po, loc, rec) in enumerate(shapes):
        name = f"rand_mcnc_{chr(ord('a') + index)}"
        builders[name] = (
            lambda pi=pi, gates=gates, po=po, loc=loc, rec=rec, index=index: random_circuit(
                RandomCircuitSpec(
                    num_inputs=pi,
                    num_gates=gates,
                    num_outputs=po,
                    locality=loc,
                    reconvergence=rec,
                    seed=9100 + index,
                )
            )
        )
    return builders


_SUITES: dict[str, Callable[[], _BuilderMap]] = {
    "iscas": _iscas_like_builders,
    "mcnc": _mcnc_like_builders,
}


def suite_names() -> list[str]:
    """Available suite identifiers."""
    return sorted(_SUITES)


def circuit_names(suite: str) -> list[str]:
    """Circuit identifiers within a suite."""
    return sorted(_builders(suite))


def array_multiplier_circuits(suite: str) -> tuple[str, ...]:
    """Circuits of ``suite`` declared to contain an array multiplier."""
    return tuple(
        name
        for name, build in sorted(_builders(suite).items())
        if isinstance(build, _WithArrayMultiplier)
    )


def _builders(suite: str) -> _BuilderMap:
    try:
        return _SUITES[suite]()
    except KeyError as exc:
        raise KeyError(
            f"unknown suite {suite!r}; choose from {suite_names()}"
        ) from exc


@functools.lru_cache(maxsize=None)
def _cached_circuit(suite: str, name: str, decomposed: bool) -> Network:
    builders = _builders(suite)
    try:
        network = builders[name]()
    except KeyError as exc:
        raise KeyError(
            f"unknown circuit {name!r} in suite {suite!r}"
        ) from exc
    return tech_decompose(network) if decomposed else network


def load_circuit(suite: str, name: str, *, decomposed: bool = True) -> Network:
    """Instantiate one suite circuit.

    Random suite members are swept through ATPG-based redundancy removal
    (synthesized benchmarks are near-irredundant; raw random logic is
    not).  Instances are cached; callers must treat them as immutable —
    ``copy()`` before mutating.

    Args:
        suite: ``"mcnc"`` or ``"iscas"``.
        name: circuit identifier from :func:`circuit_names`.
        decomposed: map to ≤3-input AND/OR/INV first (the paper's setup).
    """
    return _cached_circuit(suite, name, decomposed)


def iter_suite(
    suite: str, *, decomposed: bool = True
) -> Iterator[tuple[str, Network]]:
    """Yield (name, circuit) over a whole suite, deterministically."""
    for name in circuit_names(suite):
        yield name, load_circuit(suite, name, decomposed=decomposed)
