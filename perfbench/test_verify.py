"""The benchmark's verdict checks catch wrong verdicts.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_verify.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from verify import check_records, check_width_report  # noqa: E402

from repro.atpg.engine import AtpgEngine  # noqa: E402
from repro.circuits.decompose import tech_decompose  # noqa: E402
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit  # noqa: E402
from repro.gen.structured import tmr_voted_adder  # noqa: E402


def _records(network):
    summary = AtpgEngine(network).run()
    return [
        {"net": r.fault.net, "value": r.fault.value, "status": r.status.value,
         "test": r.test}
        for r in summary.records
    ]


def _fail_rate(result):
    return result.failed / result.attempted


def test_clean_run_has_zero_fail_rate():
    network = tech_decompose(tmr_voted_adder(2))
    result = check_records(network, _records(network), 60)
    assert result.failed == 0, result.problems


def test_flipped_detected_verdict_raises_fail_rate():
    network = tech_decompose(tmr_voted_adder(2))
    records = _records(network)
    flipped = next(r for r in records if r["status"] == "tested")
    flipped["status"] = "untestable"
    assert _fail_rate(check_records(network, records, 60)) > 0


def test_flipped_untestable_verdict_raises_fail_rate():
    network = tech_decompose(tmr_voted_adder(2))
    records = _records(network)
    donor = next(r for r in records if r["status"] == "tested")
    flipped = next(r for r in records if r["status"] == "untestable")
    flipped["status"], flipped["test"] = "tested", donor["test"]
    assert _fail_rate(check_records(network, records, 60)) > 0


def test_bdd_reference_catches_a_false_untestable_claim():
    network = random_circuit(RandomCircuitSpec(num_inputs=8, num_gates=60,
                                               num_outputs=3, seed=5))
    records = _records(network)
    assert check_records(network, records, None).failed == 0
    flipped = next(r for r in records if r["status"] in ("tested", "dropped"))
    flipped["status"] = "untestable"
    assert _fail_rate(check_records(network, records, None)) > 0


def test_wrong_vector_and_abort_count_as_failed():
    network = tech_decompose(tmr_voted_adder(2))
    records = _records(network)
    tested = [r for r in records if r["status"] == "tested"]
    tested[0]["test"] = {pi: 0 for pi in network.inputs}
    tested[1]["status"] = "aborted"
    result = check_records(network, records, 60)
    assert result.failed >= 1 and any("aborted" in p for p in result.problems)


def test_width_report_unobservable_set_must_match_reachability():
    network = tech_decompose(tmr_voted_adder(2))
    faults = [(net, v) for net in network.topological_order() for v in (0, 1)]
    samples = faults[1:]
    assert check_width_report(network, faults, faults, [], 0).failed == 0
    assert check_width_report(network, faults, samples, [faults[0]], 0).failed > 0
