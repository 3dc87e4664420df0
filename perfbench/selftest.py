"""Harness self-test: ``python3 perfbench/run.py --selftest``.

Runs every workload at its smallest size, untraced on two seeds and
traced on one, and checks that

* every end-to-end metric of ``BENCHMARK.json`` and every workload
  metric of the report is emitted with its unit and sample count;
* every wrapped span is behind a declared self-time metric (or is a
  root span), every per-layer metric is emitted by the traced run, the
  declared self times cover at least 95 % of the traced wall time on
  atpg-easy and atpg-hard, and the trace file loads as Chrome
  trace-event JSON;
* ``fail_rate`` is 0 on both seeds.

``test_verify.py`` shows that a flipped verdict raises ``fail_rate``.
"""

from __future__ import annotations

import json

import layers
from tracer import WRAPPERS

SEEDS = (1, 2)
#: Workload metrics the report must carry besides the declared ones.
REPORTED = {
    "atpg-easy": ("fault_latency_p50_s", "fault_latency_tail_s", "fail_rate",
                  "faults_per_wall_s", "box_speed"),
    "atpg-hard": ("fail_rate", "faults_per_wall_s", "box_speed"),
    "service-mix": ("job_latency_p50_s", "job_latency_tail_s", "hit_latency_p50_s",
                    "hit_latency_tail_s", "cache_latency_p50_s", "fail_rate"),
    "cutwidth": ("cutwidth_mean", "fail_rate", "faults_per_wall_s", "box_speed"),
}
#: Minimum share of traced wall time the layer self times must cover.
MIN_COVERAGE = 0.95
QUICK_SECONDS = 1.0


def main(measure, traced_run, declared) -> int:
    end_to_end, per_layer = declared
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            problems.append(message)

    loose = layers.undeclared(w[2] for w in WRAPPERS)
    expect(not loose, f"every wrapped span is behind a self-time metric {loose}")
    for name in layers.SELF_TIME:
        expect(name in {m["name"] for m in per_layer},
               f"{name} is declared in BENCHMARK.json")

    for workload in REPORTED:
        for seed in SEEDS:
            outcome = measure(workload, seed, QUICK_SECONDS, smallest=True)
            values = outcome.report.values
            for name in [m["name"] for m in end_to_end] + list(REPORTED[workload]):
                entry = values.get(name)
                expect(entry is not None and entry["unit"] and entry["samples"] >= 1,
                       f"{workload} seed {seed}: {name} emitted with unit and samples")
            expect(outcome.check.failed == 0 and values["fail_rate"]["value"] == 0,
                   f"{workload} seed {seed}: fail_rate 0 "
                   f"({'; '.join(outcome.check.problems[:3])})")

        _, traced, layer, trace_path = traced_run(workload, SEEDS[0], 2 * QUICK_SECONDS,
                                                  smallest=True)
        missing = [m["name"] for m in per_layer if m["name"] not in layer]
        expect(not missing, f"{workload}: every per-layer metric emitted {missing}")
        if workload in ("atpg-easy", "atpg-hard"):
            cov = layer["bench.stage_coverage"]["value"]
            expect(cov >= MIN_COVERAGE,
                   f"{workload}: layer self times cover {cov:.1%} of traced wall")
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        events = doc.get("traceEvents", [])
        expect(bool(events) and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
               f"{workload}: {trace_path.name} is Chrome trace-event JSON "
               f"({len(events)} events)")

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0
