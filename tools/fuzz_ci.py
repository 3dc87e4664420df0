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

The round's circuit then faces the **engine**: ``AtpgEngine`` solves
the round's miter faults without fault dropping, on its one
incremental solver with restricted decisions, once uncertified and once
under ``certify="full"``, where every UNTESTABLE answer is solved again
on the replay solver with the primary's delta.  Each verdict class must
equal the cold CDCL/DPLL verdict the differential oracle computed on
that fault's miter, and under ``full`` every record must be certified;
a mismatch writes the circuit as ``.bench``.

The same circuit also faces a **fault-simulation** oracle: for random
patterns and block widths, the fault simulator's detection masks
(``fault_simulate``) and the pattern store's earliest detections
(``PatternBlockStore.first_detection``) must equal what reference
simulation (``Network.evaluate``) of each fault-injected copy gives; a
mismatch writes the circuit as ``.bench`` and the patterns as JSON.

Each round also crosses the **trust boundaries** with a corrupt field:
it journals a run of the circuit, sets one record's ``status``, ``net``,
``value``, ``test`` or ``certified`` (or the whole record) to a random
JSON value, and reads the journal back through
``verified_resumable_records`` and, as a cached result, through
``ResultStore.get``.  Both must return; only ``CheckpointError`` may
raise.  Any other outcome writes the circuit as ``.bench`` and the
journal as ``.jsonl``.

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
import tempfile
import time
from pathlib import Path

from repro.atpg.checkpoint import CheckpointError, verified_resumable_records
from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.fault_sim import PatternBlockStore, fault_simulate
from repro.atpg.faults import collapse_faults, full_fault_list, inject_fault
from repro.atpg.parallel import ParallelAtpgEngine
from repro.circuits.simulate import pack_patterns, simulate
from repro.io.bench import dump_bench
from repro.sat.cdcl import CdclCore, solve_cdcl
from repro.sat.compile import compile_formula
from repro.sat.dpll import solve_dpll
from repro.sat.drup import DrupLog, check_drup
from repro.sat.result import SatStatus
from repro.service.store import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    verdict_digest,
)
from tests.conftest import make_random_network
from tests.sat.test_fuzz_cdcl import (
    clauses_to_dimacs,
    iter_binary_dense_formulas,
    iter_miter_formulas,
    shrink_and_dump,
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


def cold_verdicts(formula):
    """The cold CDCL and DPLL verdicts of one formula (the differential
    oracle's two answers)."""
    return solve_cdcl(formula).status, solve_dpll(formula).status


#: The SAT verdict each engine record status stands for.
ENGINE_VERDICTS = {
    FaultStatus.TESTED: SatStatus.SAT,
    FaultStatus.UNTESTABLE: SatStatus.UNSAT,
}


def engine_failure(network, cold):
    """Solve ``cold``'s faults on ``AtpgEngine`` without dropping,
    uncertified and under ``certify="full"``.

    ``cold`` maps each fault to the verdict both cold solvers gave its
    miter.  Returns ``None`` when every record agrees (and, under
    ``full``, is certified); otherwise a message naming the first fault
    that does not.
    """
    for certify in ("off", "full"):
        try:
            summary = AtpgEngine(network, certify=certify).run(
                faults=list(cold), fault_dropping=False
            )
        except Exception as exc:  # noqa: BLE001 - e.g. a failed witness check
            return f"engine ({certify}) raised {type(exc).__name__}: {exc}"
        for record in summary.records:
            got = ENGINE_VERDICTS.get(record.status, record.status)
            if got is not cold[record.fault]:
                return (
                    f"{record.fault}: engine ({certify}) {got} "
                    f"!= cold {cold[record.fault]}"
                )
            if certify == "full" and record.certified is not True:
                return f"{record.fault}: engine (full) verdict not certified"
    return None


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


#: The record fields the trust-boundary leg overwrites; ``None`` stands
#: for the whole record.
JOURNAL_FIELDS = ("status", "net", "value", "test", "certified", None)


def random_json(rng, words, depth=0):
    """A random JSON value; strings and object keys come from ``words``
    (net names and verdicts), so some values are nearly well-formed."""
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice((0, 1, 2, -1, 0.5, 1.0))
    if kind in (3, 4):
        return rng.choice(words)
    if kind == 5:
        return [
            random_json(rng, words, depth + 1)
            for _ in range(rng.randint(0, 3))
        ]
    return {
        rng.choice(words): random_json(rng, words, depth + 1)
        for _ in range(rng.randint(0, 4))
    }


def trust_boundary_failure(network, seed):
    """Corrupt one field of a journaled run of ``network`` and read it
    back through both trust boundaries.

    Returns ``None`` when both return or raise ``CheckpointError``;
    otherwise ``(journal text, message)`` for dumping.
    """
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(prefix="fuzz-trust-") as tmp:
        journal = Path(tmp) / "run.jsonl"
        ParallelAtpgEngine(network, workers=1).run(checkpoint_to=journal)
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        index = rng.randrange(1, len(lines))  # a record, never the header
        field = rng.choice(JOURNAL_FIELDS)
        words = list(network.nets) + [status.value for status in FaultStatus]
        value = random_json(rng, words)
        if field is None:
            lines[index] = value
        else:
            lines[index][field] = value
        text = "".join(json.dumps(line) + "\n" for line in lines)
        journal.write_text(text)

        # The same records as a cached result, with a digest that matches
        # whenever one can be computed, so the read gets past the digest.
        records = lines[1:]
        try:
            digest = verdict_digest(records)
        except (KeyError, TypeError):
            digest = "x"
        store = ResultStore(Path(tmp) / "cas")
        key = "0" * 64
        (store.root / f"{key}.json").write_text(
            json.dumps(
                {
                    "schema": RESULT_SCHEMA_VERSION,
                    "records": records,
                    "verdict_digest": digest,
                }
            )
        )
        faults = collapse_faults(network)
        reads = (
            ("resume", lambda: verified_resumable_records(
                journal, network, faults, circuit=network.name
            )),
            ("cache", lambda: store.get(key, network)),
        )
        for name, read in reads:
            try:
                read()
            except CheckpointError:
                pass
            except Exception as exc:  # noqa: BLE001 - any escape is a finding
                where = "record" if field is None else repr(field)
                return text, (
                    f"{name}: {type(exc).__name__}: {exc} "
                    f"(line {index}, {where} = {json.dumps(value)})"
                )
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
            (fault, f"{fault.net}-sa{fault.value}", formula)
            for fault, formula in iter_miter_formulas(seed)
        ] + [(None, tag, f) for tag, f in iter_binary_dense_formulas(seed)]
        #: The round's miter faults, with the verdict both solvers agree on.
        cold = {}
        for fault, tag, formula in stream:
            name = f"seed{seed}-{tag}"
            cdcl, dpll = cold_verdicts(formula)
            if cdcl is not dpll:
                path = shrink_and_dump(
                    formula.clauses, artifact_dir, f"mismatch-{name}"
                )
                print(f"FINDING verdict mismatch: {path}")
                findings += 1
            elif fault is not None:
                cold[fault] = cdcl
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
        bad_engine = engine_failure(network, cold) if cold else None
        if bad_engine is not None:
            path = artifact_dir / f"engine-seed{seed}.bench"
            dump_bench(network, path)
            print(f"FINDING engine verdict mismatch: {path} ({bad_engine})")
            findings += 1
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
        bad_read = trust_boundary_failure(network, seed)
        if bad_read is not None:
            text, message = bad_read
            base = artifact_dir / f"trust-seed{seed}"
            dump_bench(network, base.with_suffix(".bench"))
            base.with_suffix(".jsonl").write_text(text)
            print(f"FINDING trust-boundary escape: {base}.jsonl ({message})")
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
