#!/usr/bin/env python
"""Bounded CI fuzz sweep: differential solver + fault-sim fuzzing, DRUP checks.

Runs randomized rounds until the time budget expires.  Each round draws
a fresh random circuit, builds ATPG miters for a handful of its faults,
and subjects every miter CNF to two oracles:

* **differential** — the production CDCL solver and the independent
  DPLL reference must agree on the verdict; a mismatch is ddmin-shrunk
  to a 1-minimal clause set (the harness in
  ``tests/sat/test_fuzz_cdcl.py``) and written as a DIMACS artifact;
* **proof** — every CDCL UNSAT is re-solved with DRUP logging and the
  log is verified by the standalone checker in :mod:`repro.sat.drup`;
  a rejected proof dumps both the formula and the proof text.

The same circuit also faces a **fault-simulation** oracle: for random
patterns and block widths, the fault simulator's detection masks
(``fault_simulate``) and the pattern store's earliest detections
(``PatternBlockStore.first_detection``) must equal what reference
simulation (``Network.evaluate``) of each fault-injected copy gives; a
mismatch writes the circuit as ``.bench`` and the patterns as JSON.

Exit status is 1 when any artifact was produced — the CI job uploads
the artifact directory so a failure is debuggable from the run page.

Usage::

    PYTHONPATH=src:. python tools/fuzz_ci.py \
        [--budget-s 90] [--artifact-dir fuzz-artifacts] [--seed-base N]

``--seed-base`` varies the explored seed window (CI passes the run id)
while keeping any failure reproducible from the logged seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.atpg.fault_sim import PatternBlockStore, fault_simulate
from repro.atpg.faults import full_fault_list, inject_fault
from repro.circuits.simulate import pack_patterns, simulate
from repro.io.bench import dump_bench
from repro.sat.cdcl import CdclCore
from repro.sat.compile import compile_formula
from repro.sat.drup import DrupLog, check_drup
from repro.sat.result import SatStatus
from tests.conftest import make_random_network
from tests.sat.test_fuzz_cdcl import (
    clauses_to_dimacs,
    iter_binary_dense_formulas,
    iter_miter_formulas,
    shrink_and_dump,
    verdicts_disagree,
)

#: Conflict cap per proof-logged re-solve; the miters are tiny, so any
#: budget exhaustion here would itself be a finding worth uploading.
MAX_CONFLICTS = 200_000


def proof_check_failure(formula):
    """DRUP-check one formula's UNSAT (if it is one).

    Returns ``None`` when the formula is SAT/unsolved or its proof
    checks out; otherwise ``(compiled, proof, outcome)`` for dumping.
    """
    compiled = compile_formula(formula)
    proof = DrupLog()
    core = CdclCore(proof=proof)
    for _ in range(compiled.num_vars):
        core.new_var()
    for cl in compiled.clauses:
        if not core.add_clause(list(cl)):
            break
    if core.root_failed:
        status = SatStatus.UNSAT
    else:
        status, _ = core.solve(max_conflicts=MAX_CONFLICTS)
    if status is not SatStatus.UNSAT:
        return None
    outcome = check_drup(compiled.clauses, proof)
    if outcome.ok:
        return None
    return compiled, proof, outcome


def fault_sim_failure(network, seed):
    """Check the fault simulator on ``network`` against the reference.

    Returns ``None`` when every fault agrees; otherwise
    ``(patterns, block_size, message)`` for dumping.
    """
    rng = random.Random(seed)
    block_size = rng.choice((1, 3, 64))
    patterns = [
        {net: rng.getrandbits(1) for net in network.inputs}
        for _ in range(rng.randint(1, 3 * block_size + 1))
    ]
    faults = full_fault_list(network)
    masks = fault_simulate(network, faults, patterns, block_size).detected
    store = PatternBlockStore(network, block_size=block_size)
    for pattern in patterns:
        store.add(pattern)
    count = len(patterns)
    words = pack_patterns(patterns, network.inputs)
    good = simulate(network, words, count)
    for fault in faults:
        bad = simulate(inject_fault(network, fault), words, count)
        every = 0
        for out in network.outputs:
            every |= good[out] ^ bad[out]
        first = (every & -every).bit_length() - 1 if every else None
        # fault_simulate drops a fault after the first block detecting it.
        expected = 0
        if first is not None:
            start = first - first % block_size
            expected = every & (((1 << block_size) - 1) << start)
        got = (masks.get(fault, 0), store.first_detection(fault))
        if got != (expected, first):
            message = f"{fault}: (mask, first) {got} != {(expected, first)}"
            return patterns, block_size, message
    return None


def run_sweep(budget_s: float, artifact_dir: Path, seed_base: int) -> int:
    """Fuzz until the budget expires; returns the number of findings."""
    deadline = time.monotonic() + budget_s
    artifact_dir.mkdir(parents=True, exist_ok=True)
    findings = 0
    rounds = 0
    seed = seed_base
    while time.monotonic() < deadline:
        # Tseitin miters plus binary-clause-dense random CNF, so the
        # binary implication fast path is fuzzed on structure the
        # miters never produce (pure-binary cycles, 2-SAT cores).
        stream = [
            (f"{fault.net}-sa{fault.value}", formula)
            for fault, formula in iter_miter_formulas(seed)
        ] + list(iter_binary_dense_formulas(seed))
        for tag, formula in stream:
            name = f"seed{seed}-{tag}"
            if verdicts_disagree(formula.clauses):
                path = shrink_and_dump(
                    formula.clauses, artifact_dir, f"mismatch-{name}"
                )
                print(f"FINDING verdict mismatch: {path}")
                findings += 1
            bad = proof_check_failure(formula)
            if bad is not None:
                compiled, proof, outcome = bad
                base = artifact_dir / f"badproof-{name}"
                base.with_suffix(".cnf").write_text(
                    clauses_to_dimacs(formula.clauses)
                )
                base.with_suffix(".drup").write_text(proof.to_dimacs())
                print(
                    f"FINDING rejected DRUP proof: {base}.cnf "
                    f"(step {outcome.failed_step}: {outcome.reason})"
                )
                findings += 1
            if time.monotonic() >= deadline:
                break
        # The round's circuit, as iter_miter_formulas builds it.
        network = make_random_network(
            seed, num_inputs=4, num_gates=10, allow_xor=True
        )
        bad_sim = fault_sim_failure(network, seed)
        if bad_sim is not None:
            patterns, block_size, message = bad_sim
            base = artifact_dir / f"fsim-seed{seed}"
            dump_bench(network, base.with_suffix(".bench"))
            base.with_suffix(".json").write_text(
                json.dumps({"block_size": block_size, "patterns": patterns})
            )
            print(f"FINDING fault-sim mismatch: {base}.bench ({message})")
            findings += 1
        rounds += 1
        seed += 1
    print(
        f"fuzz sweep: {rounds} circuit rounds "
        f"(seeds {seed_base}..{seed - 1}), {findings} findings"
    )
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget-s", type=float, default=90.0)
    parser.add_argument(
        "--artifact-dir", type=Path, default=Path("fuzz-artifacts")
    )
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args(argv)
    findings = run_sweep(args.budget_s, args.artifact_dir, args.seed_base)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
