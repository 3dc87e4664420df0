"""Tests for the fault-hardness predictor and hardness-guided scheduling.

The load-bearing property is *verdict parity*: the learned schedule may
move when a fault is handled and how big its first conflict budget is,
but never what the run concludes (detected / untestable / unobservable /
aborted) or how much it covers.  The parity test here is the tier-1
blocking counterpart of the ``hardness_guided`` bench block.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.engine import AtpgEngine
from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.hardness import (
    FEATURE_NAMES,
    DEFAULT_MODEL_PATH,
    HardnessExtractor,
    HardnessModel,
    HardnessModelError,
    HardnessPredictor,
    hardness_target,
    ordering_quality,
    train_stumps,
)
from repro.circuits.build import NetworkBuilder
from repro.circuits.decompose import tech_decompose
from repro.gen.structured import redundant_tail_unit, tmr_voted_adder


def small_redundant_circuit():
    return tech_decompose(redundant_tail_unit(4, 3))


def toy_rows(n=40):
    """A feature matrix whose target is a known function of 2 features."""
    rows = []
    targets = []
    for i in range(n):
        row = [0.0] * len(FEATURE_NAMES)
        row[5] = float(i % 7)  # fanout-ish feature
        row[7] = float(i % 3)  # tfo-ish feature
        rows.append(row)
        targets.append(2.0 * (i % 7) + 5.0 * (i % 3))
    return rows, targets


class TestModelSerialization:
    def test_round_trip_identity(self, tmp_path):
        rows, targets = toy_rows()
        model = train_stumps(rows, targets, rounds=12)
        path = tmp_path / "model.json"
        model.save(path)
        reloaded = HardnessModel.load(path)
        assert reloaded.to_json_dict() == model.to_json_dict()
        for row in rows:
            assert reloaded.predict(row) == model.predict(row)

    def test_rejects_wrong_feature_names(self, tmp_path):
        rows, targets = toy_rows()
        model = train_stumps(rows, targets, rounds=2)
        doc = model.to_json_dict()
        doc["feature_names"] = list(reversed(doc["feature_names"]))
        with pytest.raises(HardnessModelError):
            HardnessModel.from_json_dict(doc)

    def test_rejects_out_of_range_feature_index(self):
        rows, targets = toy_rows()
        model = train_stumps(rows, targets, rounds=2)
        doc = model.to_json_dict()
        doc["trees"] = [[len(FEATURE_NAMES), 0.5, 0.0, 0.0]]
        with pytest.raises(HardnessModelError):
            HardnessModel.from_json_dict(doc)

    def test_default_model_ships_and_loads(self):
        assert DEFAULT_MODEL_PATH.exists(), (
            "the pre-trained default model must ship with the package"
        )
        model = HardnessModel.default()
        assert model.trees, "default model must not be empty"
        assert model is HardnessModel.default(), "default() must cache"


class TestTraining:
    def test_training_is_deterministic(self):
        rows, targets = toy_rows()
        a = train_stumps(rows, targets, rounds=10)
        b = train_stumps(rows, targets, rounds=10)
        assert a.to_json_dict() == b.to_json_dict()

    def test_learns_known_signal(self):
        rows, targets = toy_rows(80)
        model = train_stumps(rows, targets, rounds=60)
        scores = [model.predict(r) for r in rows]
        assert ordering_quality(scores, targets) > 0.9

    def test_ordering_quality_bounds(self):
        targets = [0.0, 1.0, 2.0, 3.0]
        # Perfect (hard last), worst (hard first), and constant scores.
        assert ordering_quality([0, 1, 2, 3], targets) == 1.0
        assert ordering_quality([3, 2, 1, 0], targets) == 0.0
        assert ordering_quality([0, 0, 0, 0], [1.0, 1.0, 1.0, 1.0]) == 0.5

    def test_hardness_target_is_log1p_conflicts(self):
        assert hardness_target({"conflicts": 0}) == 0.0
        assert hardness_target({}) == 0.0
        assert hardness_target({"conflicts": -5}) == 0.0
        assert hardness_target({"conflicts": 99}) == pytest.approx(
            math.log1p(99)
        )


class TestFeatureExtraction:
    def test_feature_vector_matches_names(self):
        network = small_redundant_circuit()
        extractor = HardnessExtractor(network)
        for fault in collapse_faults(network)[:10]:
            assert len(extractor.features(fault)) == len(FEATURE_NAMES)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_invariant_under_net_name_permutation(self, seed):
        """Renaming every net must not move a single feature value.

        Every feature is a count, level, or SCOAP value — nothing may
        depend on net-name ordering or hashing, or the predictor would
        schedule the same circuit differently across runs.
        """
        import random

        base = tech_decompose(tmr_voted_adder(2))
        rng = random.Random(seed)

        internal = [
            net
            for net in base.nets
            if net not in base.inputs and net not in base.outputs
        ]
        mapping = {net: net for net in base.nets}
        shuffled = list(internal)
        rng.shuffle(shuffled)
        mapping.update(
            {old: f"perm_{new}" for old, new in zip(internal, shuffled)}
        )

        renamed = NetworkBuilder(base.name)
        for net in base.inputs:
            renamed.input(net)
        for net in base.topological_order():
            gate = base.gate(net)
            if gate.gate_type.is_source:
                continue
            renamed.gate(
                gate.gate_type,
                [mapping[src] for src in gate.inputs],
                name=mapping[net],
            )
        renamed.outputs(*[mapping[net] for net in base.outputs])
        permuted = renamed.build()

        base_features = HardnessExtractor(base)
        perm_features = HardnessExtractor(permuted)
        for net in base.nets:
            for value in (0, 1):
                assert base_features.features(
                    Fault(net, value)
                ) == perm_features.features(Fault(mapping[net], value)), (
                    f"feature drift for {net} under renaming"
                )


def _verdict_class(record):
    if record.status.name in ("TESTED", "DROPPED"):
        return "detected"
    return record.status.name


class TestSchedulingParity:
    """Blocking: hardness-guided scheduling never moves a verdict."""

    @pytest.mark.parametrize(
        "solver",
        [
            pytest.param("cdcl", id="incremental"),
            pytest.param("dpll", id="dpll"),
        ],
    )
    def test_verdict_parity_vs_scoap(self, solver):
        """On incremental CDCL and on the per-fault cold path."""
        network = small_redundant_circuit()
        scoap_run = AtpgEngine(network, order="scoap", solver=solver).run()
        hardness_run = AtpgEngine(
            network,
            order="hardness",
            budget_policy="predicted",
            solver=solver,
        ).run()
        assert {
            r.fault: _verdict_class(r) for r in scoap_run.records
        } == {r.fault: _verdict_class(r) for r in hardness_run.records}
        assert scoap_run.fault_coverage == hardness_run.fault_coverage

    def test_hardness_order_is_deterministic(self):
        network = small_redundant_circuit()
        faults = collapse_faults(network)
        a = HardnessPredictor(network).order(faults)
        b = HardnessPredictor(network).order(list(reversed(faults)))
        assert a == b

    def test_ordered_faults_hardness(self):
        network = small_redundant_circuit()
        engine = AtpgEngine(network, order="hardness")
        faults = collapse_faults(network)
        ordered = engine.ordered_faults(faults)
        assert sorted(ordered) == sorted(faults)
        predictor = engine.hardness_predictor()
        scores = [predictor.score(f) for f in ordered]
        assert scores == sorted(scores)


class TestBudgetPolicy:
    def test_predicted_budget_bounds(self):
        network = small_redundant_circuit()
        predictor = HardnessPredictor(network)
        for fault in collapse_faults(network)[:20]:
            budget = predictor.budget(fault, 100_000)
            assert predictor.model.budget_min <= budget <= 100_000

    def test_tiny_ceiling_short_circuits(self):
        network = small_redundant_circuit()
        predictor = HardnessPredictor(network)
        fault = collapse_faults(network)[0]
        assert predictor.budget(fault, 10) == 10

    def test_escalation_preserves_verdicts(self):
        """A starved first budget must escalate, not abort.

        With budget_min forced to 1 every fault's first attempt gets a
        near-useless budget; the escalation re-solve at the full ceiling
        must still produce the same verdicts as the fixed policy.
        """
        network = small_redundant_circuit()
        fixed = AtpgEngine(network, order="scoap").run()

        starved_model = HardnessModel(
            base=0.0,
            trees=[],
            route_threshold=float("inf"),
            budget_margin=1.0,
            budget_min=1,
        )
        starved = AtpgEngine(
            network,
            order="scoap",
            budget_policy="predicted",
            hardness_model=starved_model,
        )
        result = starved.run()
        assert {
            r.fault: _verdict_class(r) for r in fixed.records
        } == {r.fault: _verdict_class(r) for r in result.records}
        assert result.stats.budget_escalations > 0


class TestLadderRouting:
    def test_routes_only_budget_busting_predictions(self):
        network = small_redundant_circuit()
        fault = collapse_faults(network)[0]

        # Predicts ~e^6-1 conflicts for everything.
        loud_model = HardnessModel(base=6.0, trees=[])
        engine = AtpgEngine(
            network,
            order="hardness",
            certify="full",
            hardness_model=loud_model,
            max_conflicts=10,
        )
        from repro.atpg.certify import RUNGS

        assert engine._route_start_rung(fault) == RUNGS.index("fresh-cdcl")

        # Same model, generous ceiling: no routing.
        engine = AtpgEngine(
            network,
            order="hardness",
            certify="full",
            hardness_model=loud_model,
            max_conflicts=100_000,
        )
        assert engine._route_start_rung(fault) == 0

        # Routing is certification-only: never in witness/off modes.
        engine = AtpgEngine(
            network,
            order="hardness",
            hardness_model=loud_model,
            max_conflicts=10,
        )
        assert engine._route_start_rung(fault) == 0

    def test_routed_run_keeps_verdicts(self):
        network = small_redundant_circuit()
        baseline = AtpgEngine(network, order="scoap", certify="full").run()
        loud_model = HardnessModel(base=20.0, trees=[])
        routed_engine = AtpgEngine(
            network,
            order="scoap",
            budget_policy="predicted",
            certify="full",
            hardness_model=loud_model,
        )
        routed = routed_engine.run()
        assert routed.stats.hard_routed > 0
        assert {
            r.fault: _verdict_class(r) for r in baseline.records
        } == {r.fault: _verdict_class(r) for r in routed.records}
        assert baseline.fault_coverage == routed.fault_coverage
