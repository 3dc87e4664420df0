"""Seeded input generation for every workload.

The program under test only ever sees the ``.bench`` text produced
here.  A run is a sequence of passes; pass ``index`` of seed ``seed``
always gets the same inputs.  Every pass has the same size profile (the
same families, gate counts and width ranges; on atpg-hard one of four
width pairs and on cutwidth one of three structured circuits, each in a
seeded cycle), so passes and seeds differ in
structure and in the seed-chosen widths, not in how much work they ask
for on average; only pass 0 adds the seed's random circuits on
atpg-hard and cutwidth, whose cost varies severalfold between seeds, and
the rates leave those out.  Runs on different seeds are compared with
each other, and totals over a run's passes carry the steadiness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.gen import structured
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit
from repro.io.bench import dumps_bench


@dataclass(frozen=True)
class Netlist:
    """One generated input: a name, its bench text and what is known
    about it independently of the program (``untestable`` is the known
    untestable-fault count after decomposition, ``None`` when the
    reference has to be computed).  ``rated`` is false for the seed's
    random circuits of pass 0, which the rates leave out."""

    name: str
    text: str
    untestable: Optional[int] = None
    rated: bool = True


#: atpg-easy: irredundant structured families (no multipliers) and the
#: width range each pass draws from.  Every fault of these is testable.
EASY_FAMILIES = (
    ("alu", structured.alu_slice, (5, 7)),
    ("rca", structured.ripple_carry_adder, (10, 14)),
    ("cla", structured.carry_lookahead_adder, (10, 14)),
    ("cmp", structured.comparator, (10, 14)),
    ("parity", structured.parity_tree, (28, 36)),
    ("dec", structured.decoder, (4, 5)),
    ("mux", structured.mux_tree, (4, 5)),
    ("ca1d", structured.cellular_array_1d, (10, 14)),
    ("ca2d", lambda n: structured.cellular_array_2d(n, n), (3, 4)),
)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def easy_inputs(seed: int, index: int = 0, smallest: bool = False) -> list[Netlist]:
    rng = _rng("atpg-easy", seed, index)
    out = []
    for name, build, (lo, hi) in EASY_FAMILIES:
        width = lo if smallest else rng.randint(lo, hi)
        out.append(Netlist(f"{name}{width}", dumps_bench(build(width)), 0))
    return out


def rand_i26_g520(seed: int) -> Netlist:
    """One circuit of the ``rand_i26_g520`` class of the bench corpus."""
    spec = RandomCircuitSpec(
        num_inputs=26, num_gates=520, num_outputs=12, seed=seed
    )
    network = random_circuit(spec)
    return Netlist(network.name, dumps_bench(network))


#: atpg-hard: every pass runs one ``tmr_voted_adder`` and one
#: ``redundant_tail_unit``, a pair of widths from these.  The four
#: circuits alone run at 224 to 452 faults/s, so the pass rate follows
#: the pair (303 to 422 faults/s); a seed fixes an order of the four
#: pairs and the passes cycle through it, so every run sees each pair
#: about equally often.  Pass 0 also runs the seed's one
#: ``rand_i26_g520`` circuit; its cost varies twofold between seeds, so
#: later passes leave it out.
HARD_TMR_WIDTHS = (4, 5)
HARD_RTAIL = ((5, 3), (5, 4))


def hard_inputs(seed: int, index: int = 0, smallest: bool = False) -> list[Netlist]:
    if smallest:
        tmr_width, (width, tail) = 2, (3, 2)
    else:
        cycle = [(t, r) for t in HARD_TMR_WIDTHS for r in HARD_RTAIL]
        random.Random(f"atpg-hard/{seed}/cycle").shuffle(cycle)
        tmr_width, (width, tail) = cycle[index % len(cycle)]
    out = [
        # Known answers: 30 untestable faults per voted bit.
        Netlist(
            f"tmr{tmr_width}",
            dumps_bench(structured.tmr_voted_adder(tmr_width)),
            30 * tmr_width,
        ),
        Netlist(
            f"rtail{width}_{tail}",
            dumps_bench(structured.redundant_tail_unit(width, tail)),
            30 * tail,
        ),
    ]
    if index == 0:
        rand_rng = random.Random(f"atpg-hard/{seed}")
        extra = (_small_random(rand_rng, 60) if smallest
                 else rand_i26_g520(rand_rng.randrange(1 << 30)))
        out.append(replace(extra, rated=False))
    return out


#: cutwidth: gate counts of the seed's random circuits (paper §5.2.3),
#: which run in pass 0 only (their width-pipeline cost varies fourfold
#: between seeds), and the structured circuits, one per pass in a seeded
#: cycle.  A seed-chosen subset made setup_s and faults_per_s follow the
#: subset (the three differ in size and run at 42 to 47 faults/s), so
#: every run cycles through all three; one circuit per pass gives about
#: a dozen passes in a run, where three per pass gave three.
CUTWIDTH_RANDOM_GATES = (100, 120)
CUTWIDTH_STRUCTURED = (
    ("alu7", lambda: structured.alu_slice(7)),
    ("cla8", lambda: structured.carry_lookahead_adder(8)),
    ("ca2d4x3", lambda: structured.cellular_array_2d(4, 3)),
)


def _small_random(rng: random.Random, gates: int) -> Netlist:
    spec = RandomCircuitSpec(
        num_inputs=max(6, gates // 10),
        num_gates=gates,
        num_outputs=max(2, gates // 30),
        seed=rng.randrange(1 << 30),
    )
    network = random_circuit(spec)
    return Netlist(network.name, dumps_bench(network))


def cutwidth_inputs(seed: int, index: int = 0, smallest: bool = False) -> list[Netlist]:
    rng = _rng("cutwidth", seed, 0)
    if smallest:
        return [_small_random(rng, 40)]
    cycle = rng.sample(CUTWIDTH_STRUCTURED, len(CUTWIDTH_STRUCTURED))
    name, build = cycle[index % len(cycle)]
    out = [Netlist(name, dumps_bench(build()))]
    if index == 0:
        out.extend(replace(_small_random(rng, g), rated=False)
                   for g in CUTWIDTH_RANDOM_GATES)
    return out


#: service-mix: gate counts of one round of cold submissions, 30 to 130
#: gates; the loop runs whole rounds, each with fresh netlists.
SERVICE_GATES = tuple(range(30, 131, 20))
#: Most rounds a run can ask for (the loop stops once its seconds are
#: spent); on a fast box a 20-second loop runs about eight.
SERVICE_ROUNDS = 12


def service_inputs(seed: int, smallest: bool = False) -> tuple[list[list[Netlist]], list[Netlist]]:
    """(rounds of cold netlists in submission order, cache-only netlists).

    The cache-only netlists are computed in set-up and afterwards exist
    only in the server's result cache.
    """
    rng = random.Random(f"service-mix/{seed}")
    rounds = []
    for _ in range(1 if smallest else SERVICE_ROUNDS):
        cold = [_small_random(rng, g) for g in SERVICE_GATES[: 3 if smallest else None]]
        rng.shuffle(cold)
        rounds.append(cold)
    cache_sizes = (30, 40) if smallest else (30, 40, 50, 60) * 2
    cached = [_small_random(rng, g) for g in cache_sizes]
    return rounds, cached
