"""Learned fault-hardness prediction for the fault schedule.

The paper's thesis is that ATPG is easy *on average*: runtime is
dominated by a small hard/redundant tail, not by the typical fault.
SCOAP detection cost (:mod:`repro.atpg.scoap`) is the classic static
stand-in for per-fault difficulty, but it is blind to exactly the
mechanism that creates the hard tail — reconvergent masking (a TMR
voter's replica faults get modest finite SCOAP costs yet are provably
untestable).  This module learns a better predictor *offline* from the
per-fault search-effort records the checkpoint journal already collects
(:mod:`repro.atpg.checkpoint`): conflicts, decisions, propagations and
solve time per fault, over corpus runs.

Its one consumer is the opt-in fault order (``order="hardness"`` on
both engines, ``repro atpg --order hardness``): predicted-easy faults
run first so their patterns fault-drop the hard tail before it is ever
SAT-solved, and the predicted-hard tail is grouped so the persistent
per-cone solvers and the structural clause store attack it with warm
state.  The order moves only the schedule: verdicts never depend on a
prediction, so a misprediction costs time, not correctness.

The model is deliberately tiny and dependency-free: gradient-boosted
regression stumps (pure Python, deterministic training given the data
order) over a fixed feature vector, serialised to JSON.  A pre-trained
default model ships with the package (``hardness_model.json``) so
``--order hardness`` works out of the box; :mod:`tools.train_hardness`
retrains it from fresh journal corpora.

Feature extraction is deterministic and invariant under net renaming:
every feature is a count, level, or SCOAP value — nothing depends on
name ordering, hash ordering, or iteration order over sets (property-
tested in ``tests/atpg/test_hardness.py``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.atpg.faults import Fault
from repro.atpg.scoap import INFINITY, compute_scoap
from repro.circuits.gates import GateType
from repro.circuits.network import Network

MODEL_VERSION = 1

#: Where the shipped pre-trained model lives (package data).
DEFAULT_MODEL_PATH = Path(__file__).with_name("hardness_model.json")

#: Finite stand-in for SCOAP infinities inside feature vectors: far
#: beyond any realistic finite cost, with companion indicator features
#: so the model can treat "provably impossible under SCOAP" as its own
#: regime instead of a very large number.
_SCOAP_CAP = 1.0e6

#: Gate types that get a slot in the cone gate-type histogram, in a
#: fixed order (feature identity must not depend on enum iteration).
_HISTOGRAM_TYPES = (
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)

#: The fixed feature vector layout.  Training, prediction, and the JSON
#: model all agree on this order; a mismatch fails loudly at load time.
FEATURE_NAMES: tuple[str, ...] = (
    "stuck_value",
    "cc_excite",
    "cc_excite_inf",
    "co",
    "co_inf",
    "detection_cost",
    "fanout",
    "level",
    "tfo_size",
    "tfo_depth",
    "observing_outputs",
    "tfi_size",
    "reconvergence",
    "reconvergence_frac",
) + tuple(f"cone_{gtype.value}" for gtype in _HISTOGRAM_TYPES)


def _capped(value: float) -> tuple[float, float]:
    """(finite value, infinity indicator) for one SCOAP measure."""
    if value >= INFINITY:
        return _SCOAP_CAP, 1.0
    return float(value), 0.0


class HardnessModelError(ValueError):
    """A hardness model document could not be loaded."""


@dataclass
class HardnessModel:
    """A gradient-boosted-stump regressor over :data:`FEATURE_NAMES`.

    The prediction target is ``log1p(conflicts)`` of the fault's SAT
    search (the journal's deterministic effort currency); only the
    order of the scores is used.  Documents that still carry the
    retired ladder-routing and predicted-budget keys load, and those
    keys are ignored.
    """

    feature_names: tuple[str, ...] = FEATURE_NAMES
    base: float = 0.0
    #: Stumps as (feature index, threshold, left value, right value);
    #: rows with ``x[f] <= t`` take the left value.
    trees: list[tuple[int, float, float, float]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def predict(self, features: Sequence[float]) -> float:
        """Predicted ``log1p(conflicts)`` for one feature vector."""
        score = self.base
        for feature, threshold, left, right in self.trees:
            score += left if features[feature] <= threshold else right
        return score

    # -- serialisation --------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "version": MODEL_VERSION,
            "feature_names": list(self.feature_names),
            "base": self.base,
            "trees": [list(tree) for tree in self.trees],
            "meta": self.meta,
        }

    def save(self, path: str | Path) -> None:
        from repro.io.atomic import atomic_write_json

        atomic_write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HardnessModel":
        if not isinstance(doc, dict) or doc.get("version") != MODEL_VERSION:
            raise HardnessModelError(
                f"unsupported hardness model version {doc.get('version')!r}"
                if isinstance(doc, dict)
                else "hardness model document must be a JSON object"
            )
        names = tuple(doc.get("feature_names", ()))
        if names != FEATURE_NAMES:
            raise HardnessModelError(
                "hardness model feature layout does not match this build "
                f"(model has {len(names)} features, expected "
                f"{len(FEATURE_NAMES)}) — retrain with tools/train_hardness.py"
            )
        try:
            trees = [
                (int(f), float(t), float(left), float(right))
                for f, t, left, right in doc["trees"]
            ]
            model = cls(
                feature_names=names,
                base=float(doc["base"]),
                trees=trees,
                meta=dict(doc.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HardnessModelError(f"malformed hardness model: {exc}") from exc
        for feature, _, _, _ in model.trees:
            if not 0 <= feature < len(FEATURE_NAMES):
                raise HardnessModelError(
                    f"stump references feature {feature} outside the layout"
                )
        return model

    @classmethod
    def load(cls, path: str | Path) -> "HardnessModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise HardnessModelError(
                f"cannot read hardness model {path}: {exc}"
            ) from exc
        return cls.from_json_dict(doc)

    @classmethod
    def default(cls) -> "HardnessModel":
        """The shipped pre-trained model (cached after first load)."""
        global _DEFAULT_MODEL
        if _DEFAULT_MODEL is None:
            _DEFAULT_MODEL = cls.load(DEFAULT_MODEL_PATH)
        return _DEFAULT_MODEL


_DEFAULT_MODEL: Optional[HardnessModel] = None


# ----------------------------------------------------------------------
# Feature extraction
# ----------------------------------------------------------------------
class HardnessExtractor:
    """Deterministic per-fault feature vectors for one network.

    Per-net structural work (cones, reconvergence, histograms) is cached
    and shared by both polarities of a stem; only the SCOAP polarity
    features differ between ``net/sa0`` and ``net/sa1``.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.measures = compute_scoap(network)
        self._levels = network.levels()
        self._outputs = set(network.outputs)
        self._net_cache: dict[str, list[float]] = {}

    def _structural_features(self, net: str) -> list[float]:
        """The polarity-independent tail of the feature vector."""
        cached = self._net_cache.get(net)
        if cached is not None:
            return cached
        network = self.network
        tfo = network.transitive_fanout([net])
        observing = [out for out in tfo if out in self._outputs]
        tfi = network.transitive_fanin(observing) if observing else set()
        level = self._levels[net]
        max_level = max((self._levels[n] for n in tfo), default=level)

        # Reconvergence: gates inside the fanout cone fed by 2+ in-cone
        # nets see the fault on multiple inputs at once — the structural
        # mechanism behind fault masking (and SCOAP's blind spot).
        reconv = 0
        histogram = {gtype: 0 for gtype in _HISTOGRAM_TYPES}
        for cone_net in tfo:
            gate = network.gate(cone_net)
            if gate.gate_type in histogram:
                histogram[gate.gate_type] += 1
            if cone_net != net:
                in_cone = sum(1 for src in gate.inputs if src in tfo)
                if in_cone >= 2:
                    reconv += 1
        cone_gates = max(1, len(tfo))

        features = [
            float(len(network.fanouts(net))),
            float(level),
            float(len(tfo)),
            float(max_level - level),
            float(len(observing)),
            float(len(tfi)),
            float(reconv),
            reconv / cone_gates,
        ] + [float(histogram[gtype]) for gtype in _HISTOGRAM_TYPES]
        self._net_cache[net] = features
        return features

    def features(self, fault: Fault) -> list[float]:
        """The full feature vector for one fault (see FEATURE_NAMES)."""
        measures = self.measures
        cc, cc_inf = _capped(
            measures.controllability(fault.net, 1 - fault.value)
        )
        co, co_inf = _capped(measures.co[fault.net])
        cost, _ = _capped(measures.detection_cost(fault.net, fault.value))
        return [
            float(fault.value),
            cc,
            cc_inf,
            co,
            co_inf,
            cost,
        ] + self._structural_features(fault.net)


# ----------------------------------------------------------------------
# The run-time predictor
# ----------------------------------------------------------------------
class HardnessPredictor:
    """Bind the shipped :class:`HardnessModel` to one network.

    The engine-facing API: per-fault scores (memoised) and the
    easiest-first order built on them.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.model = HardnessModel.default()
        self.extractor = HardnessExtractor(network)
        self._scores: dict[Fault, float] = {}

    def score(self, fault: Fault) -> float:
        """Predicted ``log1p(conflicts)`` (memoised)."""
        score = self._scores.get(fault)
        if score is None:
            score = self.model.predict(self.extractor.features(fault))
            self._scores[fault] = score
        return score

    def order(self, faults: Iterable[Fault]) -> list[Fault]:
        """Easiest-first by predicted hardness, ties broken on the fault
        itself so the order is deterministic across processes."""
        return sorted(faults, key=lambda f: (self.score(f), f))


# ----------------------------------------------------------------------
# Training (pure, deterministic; used by tools/train_hardness.py)
# ----------------------------------------------------------------------
def hardness_target(record_dict: dict) -> float:
    """The training target for one journal record: log1p(conflicts).

    Conflicts are the solver's deterministic effort currency (identical
    across hosts for the canonical compile order), which keeps training
    data machine-independent; solve_time_s stays in the journal as
    telemetry and for sanity-checking the conflict/time correlation.
    """
    return math.log1p(max(0, int(record_dict.get("conflicts", 0))))


def train_stumps(
    rows: Sequence[Sequence[float]],
    targets: Sequence[float],
    rounds: int = 80,
    learning_rate: float = 0.25,
    max_splits: int = 32,
    meta: Optional[dict] = None,
) -> HardnessModel:
    """Fit a gradient-boosted-stump ensemble by least squares.

    Deterministic given (rows, targets) order: candidate thresholds are
    midpoints between distinct sorted feature values (subsampled evenly
    to ``max_splits``), the best split is chosen by SSE reduction with
    ties broken on (feature index, threshold), and no randomness is
    used anywhere.
    """
    n = len(rows)
    if n == 0 or n != len(targets):
        raise ValueError("training needs matching, non-empty rows/targets")
    num_features = len(FEATURE_NAMES)
    for row in rows:
        if len(row) != num_features:
            raise ValueError(
                f"feature row has {len(row)} values, expected {num_features}"
            )

    base = sum(targets) / n
    predictions = [base] * n
    trees: list[tuple[int, float, float, float]] = []

    # Pre-sort row indices per feature once; every boosting round then
    # scans each feature in sorted order with prefix sums.
    order_by_feature = [
        sorted(range(n), key=lambda i: (rows[i][f], i))
        for f in range(num_features)
    ]
    split_positions_by_feature: list[list[int]] = []
    for f in range(num_features):
        ordered = order_by_feature[f]
        boundaries = [
            k + 1
            for k in range(n - 1)
            if rows[ordered[k]][f] < rows[ordered[k + 1]][f]
        ]
        if len(boundaries) > max_splits:
            stride = len(boundaries) / max_splits
            boundaries = [
                boundaries[int(k * stride)] for k in range(max_splits)
            ]
        split_positions_by_feature.append(boundaries)

    for _ in range(rounds):
        residuals = [targets[i] - predictions[i] for i in range(n)]
        total = sum(residuals)
        best: Optional[tuple[float, int, float, float, float]] = None
        for f in range(num_features):
            boundaries = split_positions_by_feature[f]
            if not boundaries:
                continue
            ordered = order_by_feature[f]
            prefix = 0.0
            boundary_iter = iter(boundaries)
            next_boundary = next(boundary_iter)
            for k in range(n):
                prefix += residuals[ordered[k]]
                if k + 1 != next_boundary:
                    continue
                left_n = k + 1
                right_n = n - left_n
                left_mean = prefix / left_n
                right_mean = (total - prefix) / right_n
                # SSE reduction of this split (up to the constant sum of
                # squared residuals): n_l*m_l^2 + n_r*m_r^2.
                gain = left_n * left_mean**2 + right_n * right_mean**2
                threshold = (
                    rows[ordered[k]][f] + rows[ordered[k + 1]][f]
                ) / 2.0
                candidate = (-gain, f, threshold, left_mean, right_mean)
                if best is None or candidate < best:
                    best = candidate
                next_boundary = next(boundary_iter, None)
                if next_boundary is None:
                    break
        if best is None:
            break
        _, f, threshold, left_mean, right_mean = best
        left = learning_rate * left_mean
        right = learning_rate * right_mean
        trees.append((f, threshold, left, right))
        for i in range(n):
            predictions[i] += left if rows[i][f] <= threshold else right

    return HardnessModel(base=base, trees=trees, meta=dict(meta or {}))


def ordering_quality(
    scores: Sequence[float], targets: Sequence[float]
) -> float:
    """How much of the achievable "hard last" mass an ordering captures.

    Sort faults by predicted score ascending and sum ``rank * target``:
    an ordering that puts expensive faults late scores high.  Normalised
    to [0, 1] between the worst (hard first) and best (hard last)
    orderings, so 0.5 is the expected value of a random shuffle — the
    trained model must beat that on held-out data (asserted by
    ``tools/train_hardness.py`` and the CI train smoke).
    """
    n = len(scores)
    if n != len(targets) or n == 0:
        raise ValueError("scores/targets must be non-empty and aligned")
    by_score = sorted(range(n), key=lambda i: (scores[i], i))
    achieved = sum(
        rank * targets[index] for rank, index in enumerate(by_score)
    )
    ordered_targets = sorted(targets)
    best = sum(rank * t for rank, t in enumerate(ordered_targets))
    worst = sum(
        (n - 1 - rank) * t for rank, t in enumerate(ordered_targets)
    )
    if best == worst:
        # Uniform targets: every ordering is equally good, which must
        # not read as "beats random" — report exactly the random value.
        return 0.5
    return (achieved - worst) / (best - worst)
