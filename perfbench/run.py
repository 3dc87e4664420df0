#!/usr/bin/env python3
"""The repository's benchmark: ATPG engine, service and cut-width study.

Usage (from the repository root)::

    python3 perfbench/run.py --workload atpg-easy --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same seed and inputs untraced and then traced, and reports the
per-layer metrics, with the Chrome trace written under ``.perfbench/``.
Every verdict is checked against an independent reference (see
``verify.py``); a human-readable report goes to stdout and the last
line is one JSON object for the benchmark runner.  ``LEDGER.md`` explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, use_sources  # noqa: E402

WORKLOADS = ("atpg-easy", "atpg-hard", "service-mix", "cutwidth")
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout (traces, span files, service data).
WORK_DIR = ROOT / ".perfbench"


def declared_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def measure(workload: str, seed: int, seconds: float, smallest: bool = False,
            tracer=None):
    """Run one workload, untraced or (with an installed ``tracer``) traced."""
    import engines
    import inputs

    kwargs = {} if tracer is None else {"span": tracer.span}

    def make(generate):
        return lambda index: generate(seed, index, smallest)

    if workload == "atpg-easy":
        return engines.run_atpg(make(inputs.easy_inputs), seconds, parallel=False,
                                **kwargs)
    if workload == "atpg-hard":
        return engines.run_atpg(make(inputs.hard_inputs), seconds, parallel=True,
                                **kwargs)
    if workload == "cutwidth":
        return engines.run_cutwidth(make(inputs.cutwidth_inputs), seconds, **kwargs)
    import service

    return service.run_service(
        *inputs.service_inputs(seed, smallest), seconds, WORK_DIR / f"service-{seed}",
        span_dir=None if tracer is None else tracer.span_dir)


def traced_run(workload: str, seed: int, seconds: float, smallest: bool = False):
    """Untraced then traced over the same inputs; returns the untraced
    outcome, the traced outcome, the per-layer metrics and the trace
    file's path."""
    import layers
    from tracer import Tracer, load_spans, write_chrome_trace

    base = measure(workload, seed, seconds / 2, smallest)
    span_dir = WORK_DIR / f"spans-{workload}-{seed}"
    shutil.rmtree(span_dir, ignore_errors=True)
    tracer = Tracer(span_dir)
    if workload != "service-mix":
        tracer.install()
    try:
        traced = measure(workload, seed, seconds / 2, smallest, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = load_spans(tracer)
    trace_path = WORK_DIR / f"trace-{workload}-{seed}.json"
    write_chrome_trace(spans, trace_path)
    shutil.rmtree(span_dir, ignore_errors=True)
    if traced.guard != base.guard:
        traced.check.fail(1, f"determinism guard: traced pass 0 {traced.guard} "
                             f"!= untraced {base.guard}")
    metrics = layers.layer_metrics(declared_metrics()[1], spans, base, traced)
    return base, traced, metrics, trace_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="every workload at its smallest size, traced and "
                        "untraced, on two seeds; checks every metric is emitted")
    args = parser.parse_args(argv)
    use_sources()
    if not BENCHMARK_JSON.is_file():
        print(f"perfbench: {BENCHMARK_JSON} missing", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    if args.selftest:
        import selftest

        return selftest.main(measure, traced_run, declared_metrics())
    if args.workload is None:
        parser.error("--workload is required")

    end_to_end, per_layer = declared_metrics()
    if args.trace:
        outcome, traced, layer, trace_path = traced_run(args.workload, args.seed,
                                                        args.seconds)
        print(f"trace: {trace_path}")
        check = outcome.check
        check.add(traced.check)
        wanted, values = per_layer, layer
    else:
        outcome = measure(args.workload, args.seed, args.seconds)
        check = outcome.check
        wanted, values = end_to_end, outcome.report.values
    for line in outcome.report.lines():
        print(line)
    if args.trace:
        for name, entry in values.items():
            print(f"{args.workload:12s} {name:34s} {entry['value']:.6g} {entry['unit']}")
    for problem in check.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for spec in wanted:
        entry = values.get(spec["name"])
        if entry is None:
            print(f"perfbench: metric {spec['name']} not measured", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
