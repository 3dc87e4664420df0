"""One verdict lattice for the parallel engine, against an exact reference.

At every point of solver x workers x fault dropping x certify x resume,
``ParallelAtpgEngine`` must give each fault the verdict class an
exhaustive simulation gives it, every detected record must carry a
pattern that detects its fault and that the run's test set contains,
and under full certification every detected and every untestable record
must be certified.

The reference shares no code with the ATPG layers: it injects each fault
by turning the faulted net into a constant gate, simulates every input
pattern bit-parallel with :func:`repro.circuits.simulate.simulate`, and
calls a fault unobservable when no primary output is structurally
reachable from its net.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random

import pytest

from repro.atpg.checkpoint import ResumeRejectedRecordsWarning, record_to_dict
from repro.atpg.engine import FaultStatus
from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.parallel import ParallelAtpgEngine, _run_shard
from repro.circuits.decompose import tech_decompose
from repro.circuits.gates import GateType
from repro.circuits.simulate import simulate
from repro.gen.structured import tmr_voted_adder
from repro.service.store import verdict_digest
from tests.conftest import claim_marker, make_random_network, verdict_classes

CIRCUITS = {
    "rand3": lambda: make_random_network(3, num_inputs=5, num_gates=14),
    "rand11": lambda: make_random_network(11, num_inputs=4, num_gates=18),
    "tmr3": lambda: tech_decompose(tmr_voted_adder(3)),
}


@functools.lru_cache(maxsize=None)
def _circuit(name):
    return CIRCUITS[name]()


@functools.lru_cache(maxsize=None)
def _reference(name):
    """Per (net, value): the bit mask of the input patterns (pattern
    ``i`` sets input ``k`` to bit ``k`` of ``i``) that detect the fault,
    or ``None`` when no output is reachable from the net."""
    network = _circuit(name)
    inputs = network.inputs
    count = 1 << len(inputs)
    words = {
        net: sum(1 << i for i in range(count) if i >> k & 1)
        for k, net in enumerate(inputs)
    }
    good = simulate(network, words, count)
    outputs = set(network.outputs)
    masks = {}
    for net in network.nets:
        observable = bool(network.transitive_fanout([net]) & outputs)
        for value in (0, 1):
            faulty = network.copy()
            faulty.replace_gate(
                net, GateType.CONST1 if value else GateType.CONST0
            )
            values = simulate(faulty, words, count)
            diff = 0
            for out in outputs:
                diff |= good[out] ^ values[out]
            masks[(net, value)] = diff if observable else None
    return masks


def _pattern_index(network, test):
    return sum(
        (test.get(net, 0) & 1) << k for k, net in enumerate(network.inputs)
    )


def _reference_class(mask):
    if mask is None:
        return "unobservable"
    return "detected" if mask else "untestable"


def _check(name, summary, certify):
    """The lattice assertions on one run's summary."""
    network = _circuit(name)
    masks = _reference(name)
    assert {r.fault for r in summary.records} == set(collapse_faults(network))
    expected = [
        (fault, _reference_class(masks[(fault.net, fault.value)]))
        for fault, _ in verdict_classes(summary)
    ]
    assert verdict_classes(summary) == expected
    tests = summary.tests()
    for record in summary.records:
        if record.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
            mask = masks[(record.fault.net, record.fault.value)]
            assert mask >> _pattern_index(network, record.test) & 1, record
            assert record.test in tests, record
        if certify == "full" and record.status in (
            FaultStatus.TESTED,
            FaultStatus.DROPPED,
            FaultStatus.UNTESTABLE,
        ):
            assert record.certified is True, record


def _cut_journal(journal, seed):
    """Cut the journal at a seeded random byte after its header line."""
    data = journal.read_bytes()
    header_end = data.index(b"\n") + 1
    journal.write_bytes(
        data[: random.Random(seed).randint(header_end, len(data))]
    )


LATTICE = list(
    itertools.product(
        CIRCUITS, ("cdcl", "dpll"), (1, 2), (True, False), ("off", "full")
    )
)


@pytest.mark.usefixtures("small_shards")
@pytest.mark.parametrize(
    "name,solver,workers,dropping,certify",
    LATTICE,
    ids=[
        f"{n}-{s}-w{w}-{'drop' if d else 'nodrop'}-{c}"
        for n, s, w, d, c in LATTICE
    ],
)
def test_lattice_point_matches_reference(
    name, solver, workers, dropping, certify, tmp_path
):
    """Both resume points: a fresh run, then a resume of its journal
    cut at a seeded random byte."""
    engine = ParallelAtpgEngine(
        _circuit(name), workers=workers, solver=solver, certify=certify
    )
    journal = tmp_path / "run.jsonl"
    summary = engine.run(fault_dropping=dropping, checkpoint_to=journal)
    _check(name, summary, certify)
    _cut_journal(journal, f"{name}-{solver}-{workers}-{dropping}-{certify}")
    summary = engine.run(fault_dropping=dropping, resume_from=journal)
    _check(name, summary, certify)


@pytest.mark.parametrize("name", CIRCUITS)
def test_uncertified_journal_resumes_certified(name, tmp_path):
    """A journal written without certification, resumed under full
    certification, proves its untestable faults again instead of
    trusting them."""
    journal = tmp_path / "run.jsonl"
    ParallelAtpgEngine(_circuit(name), workers=1).run(checkpoint_to=journal)
    summary = ParallelAtpgEngine(
        _circuit(name), workers=1, certify="full"
    ).run(resume_from=journal)
    _check(name, summary, "full")
    assert summary.stats.sat_calls >= len(
        summary.by_status(FaultStatus.UNTESTABLE)
    )
    assert summary.stats.health.disagreements == 0


MODES = ("off", "witness", "full")


@functools.lru_cache(maxsize=None)
def _cold_certified(name, certify):
    """Per fault, the ``certified`` flag of a cold one-worker run."""
    summary = ParallelAtpgEngine(
        _circuit(name), workers=1, certify=certify
    ).run()
    return {r.fault: r.certified for r in summary.records}


CROSS_MODES = list(itertools.product(CIRCUITS, MODES, MODES))


@pytest.mark.parametrize(
    "name,journal_mode,resume_mode",
    CROSS_MODES,
    ids=[f"{n}-{j}-to-{r}" for n, j, r in CROSS_MODES],
)
def test_cross_mode_resume_certifies_like_a_cold_run(
    name, journal_mode, resume_mode, tmp_path
):
    """A whole journal resumed under another certify mode gives every
    fault the ``certified`` flag a cold run in the resuming mode gives
    it, so the certified count matches too."""
    journal = tmp_path / "run.jsonl"
    ParallelAtpgEngine(_circuit(name), workers=1, certify=journal_mode).run(
        checkpoint_to=journal
    )
    summary = ParallelAtpgEngine(
        _circuit(name), workers=1, certify=resume_mode
    ).run(resume_from=journal)
    _check(name, summary, resume_mode)
    cold = _cold_certified(name, resume_mode)
    resumed = {r.fault: r.certified for r in summary.records}
    assert resumed == cold
    assert summary.stats.health.certified == sum(
        flag is True for flag in cold.values()
    )


def test_merge_makes_no_sat_call():
    """Every SAT call of a multi-shard run happens in a worker."""
    summary = ParallelAtpgEngine(_circuit("tmr3"), workers=2).run()
    assert summary.stats.shards == 2
    assert summary.stats.sat_calls == sum(
        ws.sat_calls for ws in summary.worker_stats
    )
    assert summary.stats.replay_solves == 0


@pytest.mark.parametrize("corruption", ["not-detecting", "not-kept"])
def test_corrupt_journaled_drop_is_redispatched(corruption, tmp_path):
    """A journaled DROPPED record is settled only when its pattern
    detects its fault and is the pattern of a kept TESTED record."""
    network = make_random_network(7, num_inputs=5, num_gates=16)
    fault = Fault("n15", 1)
    journal = tmp_path / "run.jsonl"
    engine = ParallelAtpgEngine(network, workers=1)
    engine.run(checkpoint_to=journal)
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    (payload,) = [
        line
        for line in lines
        if (line.get("net"), line.get("value")) == (fault.net, fault.value)
    ]
    assert payload["status"] == "dropped"
    kept = [line["test"] for line in lines if line.get("status") == "tested"]
    # The output n15 is the fault site: a pattern detects sa1 exactly
    # when the good circuit drives n15 to 0.
    candidates = [
        dict(zip(network.inputs, bits))
        for bits in itertools.product((0, 1), repeat=len(network.inputs))
    ]
    good_n15 = 1 if corruption == "not-detecting" else 0
    payload["test"] = next(
        test
        for test in candidates
        if simulate(network, test, 1)["n15"] == good_n15
        and (corruption == "not-detecting" or test not in kept)
    )
    journal.write_text("".join(json.dumps(line) + "\n" for line in lines))

    with pytest.warns(ResumeRejectedRecordsWarning):
        resumed = engine.run(resume_from=journal)
    (record,) = [r for r in resumed.records if r.fault == fault]
    assert record.status is FaultStatus.TESTED
    assert simulate(network, record.test, 1)["n15"] == 0
    assert resumed.stats.sat_calls == 1
    assert resumed.stats.health.disagreements == 1


def test_drop_without_its_resumed_tested_fault_is_redispatched(tmp_path):
    """Resumed over a fault list without the TESTED fault whose pattern
    a journaled DROPPED record carries, the dropped fault is solved
    again, so its pattern stays in the run's test set."""
    network = make_random_network(7, num_inputs=5, num_gates=16)
    journal = tmp_path / "run.jsonl"
    engine = ParallelAtpgEngine(network, workers=1)
    full = engine.run(checkpoint_to=journal)
    dropped = full.by_status(FaultStatus.DROPPED)[0]
    (source,) = [
        r.fault
        for r in full.by_status(FaultStatus.TESTED)
        if r.test == dropped.test
    ]
    faults = [f for f in collapse_faults(network) if f != source]

    with pytest.warns(ResumeRejectedRecordsWarning):
        resumed = engine.run(faults=faults, resume_from=journal)
    (record,) = [r for r in resumed.records if r.fault == dropped.fault]
    assert record.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
    assert resumed.stats.sat_calls >= 1
    for r in resumed.records:
        if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED):
            assert r.test in resumed.tests(), r


def _digest(summary):
    return verdict_digest([record_to_dict(r) for r in summary.records])


@pytest.mark.skipif(not ParallelAtpgEngine.can_fork(), reason="needs fork")
def test_class_digest_is_worker_count_and_resume_independent(
    rand_i14_g120, tmp_path, monkeypatch
):
    """The service's class digest over rand_i14_g120 is the same at 1,
    2 and 4 workers, after a killed worker, and after resuming a journal
    cut at random bytes."""
    def engine(workers):
        return ParallelAtpgEngine(rand_i14_g120, workers=workers)

    reference = engine(1).run()
    digest = _digest(reference)
    runs = [engine(2).run(), engine(4).run()]

    # The first worker dies; with one attempt per shard its shard is
    # split and the halves are solved on their own.
    marker = tmp_path / "killed"

    def kill_once(job, on_record=None):
        if claim_marker(marker):
            os._exit(13)
        return _run_shard(job, on_record=on_record)

    monkeypatch.setattr("repro.atpg.supervisor.MAX_ATTEMPTS", 1)
    killed = engine(2)
    killed._shard_runner = kill_once
    journal = tmp_path / "run.jsonl"
    runs.append(killed.run(checkpoint_to=journal))
    assert runs[-1].stats.health.shard_splits == 1
    full = journal.read_bytes()
    for seed in range(3):
        journal.write_bytes(full)
        _cut_journal(journal, seed)
        runs.append(engine(2).run(resume_from=journal))
    for summary in runs:
        assert _digest(summary) == digest
        assert summary.fault_coverage == reference.fault_coverage
