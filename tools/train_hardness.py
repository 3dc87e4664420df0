#!/usr/bin/env python
"""Offline trainer for the fault-hardness predictor.

Builds a labelled corpus by running the ATPG engine over a set of
benchmark circuits with fault dropping *disabled* — every collapsed
fault then gets a real SAT call, and the solver's conflict count is the
label (``log1p(conflicts)``, see :func:`repro.atpg.hardness
.hardness_target`).  Features come from the same deterministic
:class:`~repro.atpg.hardness.HardnessExtractor` the engine uses online,
so there is no train/serve skew.

The fitted gradient-boosted-stump ensemble is evaluated on a held-out
slice (every ``--holdout-every``-th fault) with the rank-weighted
:func:`~repro.atpg.hardness.ordering_quality` metric, where 0.5 is the
expected score of a random shuffle.  The tool *asserts* that the model

* beats random ordering on the held-out faults, and
* survives a JSON save/load round-trip bit-identically,

so the CI smoke job (``--smoke``) fails loudly if either regresses.

Everything is deterministic: the corpus is a fixed list, the engine's
canonical compile order makes conflict counts machine-independent, the
booster uses no randomness, and the holdout split is a fixed stride —
the shipped default model is reproducible from a clean checkout.

Usage::

    PYTHONPATH=src python tools/train_hardness.py \
        --out src/repro/atpg/hardness_model.json          # full corpus
    PYTHONPATH=src python tools/train_hardness.py --smoke  # CI job
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path

from repro.atpg.engine import AtpgEngine
from repro.atpg.faults import collapse_faults
from repro.atpg.hardness import (
    FEATURE_NAMES,
    HardnessExtractor,
    HardnessModel,
    ordering_quality,
    train_stumps,
)
from repro.circuits.network import Network
from repro.gen.benchmarks import load_circuit
from repro.gen.structured import redundant_tail_unit, tmr_voted_adder
from repro.circuits.decompose import tech_decompose

#: The shipped default model's corpus: easy arithmetic bulk (labels near
#: zero), XOR-heavy parity (moderate), and two redundancy-dominated
#: circuits whose UNSAT tails supply the high-conflict labels the
#: scheduler exists to price.  Specs are ``suite:name`` (the benchmark
#: registry) or ``rtail:W:T`` / ``tmr:W`` (direct generator calls, so
#: the corpus can include sizes the registry does not pin).
DEFAULT_CORPUS = (
    "iscas:c17",
    "iscas:rca16",
    "iscas:cla16",
    "iscas:alu8",
    "iscas:cmp16",
    "iscas:parity24",
    "iscas:mult6",
    "iscas:mult8",
    "tmr:8",
    "iscas:tmr16",
    "rtail:8:6",
    "rtail:12:4",
)

#: CI smoke corpus: one easy circuit, one tiny redundant one — enough
#: label spread to beat random ordering, small enough for seconds.
SMOKE_CORPUS = ("iscas:c17", "iscas:rca16", "rtail:4:3", "tmr:4")


def resolve_circuit(spec: str) -> Network:
    """A corpus spec (see :data:`DEFAULT_CORPUS`) to a decomposed network."""
    parts = spec.split(":")
    if parts[0] == "rtail" and len(parts) == 3:
        return tech_decompose(
            redundant_tail_unit(int(parts[1]), int(parts[2]))
        )
    if parts[0] == "tmr" and len(parts) == 2:
        return tech_decompose(tmr_voted_adder(int(parts[1])))
    if len(parts) == 2:
        return load_circuit(parts[0], parts[1])
    raise ValueError(f"malformed corpus spec {spec!r}")


def collect(
    specs: list[str], max_faults: int, max_conflicts: int
) -> tuple[list[list[float]], list[float], dict]:
    """Run ATPG (no dropping) over the corpus; return (rows, targets)."""
    rows: list[list[float]] = []
    targets: list[float] = []
    per_circuit: dict[str, int] = {}
    for spec in specs:
        network = resolve_circuit(spec)
        faults = collapse_faults(network)
        if len(faults) > max_faults:
            # Deterministic even subsample, keeping list-order spread.
            stride = len(faults) / max_faults
            faults = [faults[int(k * stride)] for k in range(max_faults)]
        engine = AtpgEngine(
            network,
            order="given",
            max_conflicts=max_conflicts,
        )
        summary = engine.run(faults=faults, fault_dropping=False)
        extractor = HardnessExtractor(network)
        for record in summary.records:
            rows.append(extractor.features(record.fault))
            targets.append(math.log1p(max(0, record.conflicts)))
        per_circuit[spec] = len(summary.records)
        print(
            f"  {spec}: {len(summary.records)} faults, "
            f"{summary.stats.conflicts} conflicts",
            file=sys.stderr,
        )
    return rows, targets, per_circuit


def split(
    rows: list[list[float]], targets: list[float], holdout_every: int
) -> tuple[list, list, list, list]:
    """Deterministic stride split into (train_x, train_y, held_x, held_y)."""
    train_x, train_y, held_x, held_y = [], [], [], []
    for i, (row, target) in enumerate(zip(rows, targets)):
        if i % holdout_every == 0:
            held_x.append(row)
            held_y.append(target)
        else:
            train_x.append(row)
            train_y.append(target)
    return train_x, train_y, held_x, held_y


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the model JSON")
    parser.add_argument("--corpus", nargs="*", default=None,
                        help="circuit specs (suite:name | rtail:W:T | tmr:W)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus + few rounds for CI")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=0.25)
    parser.add_argument("--max-faults", type=int, default=None,
                        help="per-circuit fault cap (even subsample)")
    parser.add_argument("--max-conflicts", type=int, default=100_000)
    parser.add_argument("--holdout-every", type=int, default=5,
                        help="every k-th fault is held out for eval")
    parser.add_argument("--route-quantile", type=float, default=0.75)
    parser.add_argument("--budget-margin", type=float, default=8.0)
    parser.add_argument("--budget-min", type=int, default=256)
    args = parser.parse_args(argv)

    if args.smoke:
        specs = list(args.corpus or SMOKE_CORPUS)
        rounds = args.rounds or 40
        max_faults = args.max_faults or 160
    else:
        specs = list(args.corpus or DEFAULT_CORPUS)
        rounds = args.rounds or 120
        max_faults = args.max_faults or 400

    t0 = time.time()
    print(f"collecting labels from {len(specs)} circuits", file=sys.stderr)
    rows, targets, per_circuit = collect(
        specs, max_faults=max_faults, max_conflicts=args.max_conflicts
    )
    train_x, train_y, held_x, held_y = split(
        rows, targets, args.holdout_every
    )
    print(
        f"{len(rows)} labelled faults "
        f"({len(train_x)} train / {len(held_x)} held out), "
        f"collected in {time.time() - t0:.1f}s",
        file=sys.stderr,
    )

    model = train_stumps(
        train_x,
        train_y,
        rounds=rounds,
        learning_rate=args.learning_rate,
        route_quantile=args.route_quantile,
        budget_margin=args.budget_margin,
        budget_min=args.budget_min,
        meta={
            "corpus": specs,
            "per_circuit_faults": per_circuit,
            "rows": len(train_x),
            "rounds": rounds,
            "learning_rate": args.learning_rate,
            "holdout_every": args.holdout_every,
            "trained": "tools/train_hardness.py",
        },
    )

    held_scores = [model.predict(row) for row in held_x]
    quality = ordering_quality(held_scores, held_y)
    model.meta["holdout_ordering_quality"] = round(quality, 4)
    assert quality > 0.5, (
        f"held-out ordering_quality {quality:.3f} does not beat the "
        f"random-shuffle expectation 0.5 — model not shippable"
    )

    # The shipped artefact must survive serialisation bit-identically.
    with tempfile.TemporaryDirectory() as tmp:
        probe = Path(tmp) / "model.json"
        model.save(probe)
        reloaded = HardnessModel.load(probe)
        assert reloaded.to_json_dict() == model.to_json_dict(), (
            "JSON round-trip is not the identity"
        )

    if args.out is not None:
        model.save(args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    report = {
        "faults": len(rows),
        "train": len(train_x),
        "holdout": len(held_x),
        "trees": len(model.trees),
        "features": len(FEATURE_NAMES),
        "holdout_ordering_quality": round(quality, 4),
        "route_threshold": round(model.route_threshold, 4),
        "elapsed_s": round(time.time() - t0, 1),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
