"""Per-layer metrics of a traced run.

Self times come from the spans (a span's duration minus what its child
spans cover), summed per layer and divided by the traced run's unit of
work: one pass over the inputs for the engine and width workloads, one
cold cycle for service-mix.  Counters and ratios come from what the
program itself reports (engine stats, width stats, result documents,
``/healthz``), read by the workload after each call.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

#: per-layer metric -> span names whose self times it sums.  Every
#: wrapped span is behind exactly one of these, except the roots below.
SELF_TIME = {
    "io.bench.parse_s": ("io.bench.parse",),
    "circuits.decompose.decompose_s": ("circuits.decompose.decompose",),
    "atpg.scoap.order_s": ("atpg.scoap.order",),
    "atpg.miter.build_s": ("atpg.miter.build",),
    "sat.tseitin.encode_s": ("sat.tseitin.encode",),
    "sat.cdcl.solve_s": ("sat.cdcl.solve",),
    "atpg.fault_sim.fsim_s": ("atpg.fault_sim.fsim",),
    "sat.drup.check_s": ("sat.drup.check",),
    "atpg.certify.self_s": ("atpg.certify.process", "atpg.certify.witness"),
    "atpg.engine.self_s": ("atpg.engine.run", "atpg.engine.generate_test",
                           "atpg.engine.primary"),
    "atpg.engine.init_s": ("atpg.engine.init", "atpg.parallel.init"),
    "atpg.parallel.self_s": ("atpg.parallel.run", "atpg.supervisor.run"),
    "atpg.parallel.merge_s": ("atpg.parallel.merge",),
    "atpg.checkpoint.append_s": ("atpg.checkpoint.append",),
    "service.server.submit_s": ("service.server.submit",),
    "service.store.get_s": ("service.store.get",),
    "service.store.put_s": ("service.store.put",),
    "service.lease.acquire_s": ("service.lease.acquire",),
    "core.width_pipeline.self_s": ("core.width_pipeline.init", "core.width_pipeline.run",
                                   "core.width_pipeline.analyse"),
    "core.width_pipeline.signature_s": ("core.width_pipeline.signature",),
    "core.mla.arrange_s": ("core.mla.arrange",),
    "core.hypergraph.build_s": ("core.hypergraph.build",),
    "partition.multilevel.bisect_s": ("partition.multilevel.bisect",),
    "partition.fm.refine_s": ("partition.fm.bisect",),
    "partition.exact.leaf_s": ("partition.exact.leaf",),
}
_DECLARED = frozenset(n for names in SELF_TIME.values() for n in names)
#: per-layer metric -> span name whose calls it counts.
CALLS = {
    "atpg.checkpoint.appends": "atpg.checkpoint.append",
    "partition.fm.calls": "partition.fm.bisect",
}
#: Spans that open a unit of work in their process: a circuit job in the
#: bench process, a shard in a forked worker, a job in a service runner.
#: Their own self time, as roots, is the part no layer metric covers.
ROOT_SPANS = ("bench.job", "atpg.parallel.shard", "service.runner.execute")


def undeclared(span_names) -> list[str]:
    """Span names behind no self-time metric that are not roots."""
    return sorted(set(span_names) - _DECLARED - set(ROOT_SPANS))


def certify_seconds(spans) -> float:
    """Time in ``EscalationLadder.process`` after its first rung (the
    engine's primary path)."""
    first_rung: dict[int, float] = {}
    for name, start, end, parent, _, _ in spans:
        if name == "atpg.engine.primary" and parent >= 0 and parent not in first_rung:
            first_rung[parent] = end - start
    total = 0.0
    for index, (name, start, end, _, _, _) in enumerate(spans):
        if name == "atpg.certify.process":
            total += (end - start) - first_rung.get(index, 0.0)
    return total


def coverage(spans, selfs) -> float:
    """Share of the outermost root spans' wall time that the self times
    of declared layer spans below them cover, over every process (bench
    process, shard workers, service runners)."""
    top: list[int] = []
    wall = covered = 0.0
    for index, ((name, start, end, parent, _, _), own) in enumerate(zip(spans, selfs)):
        top.append(index if parent < 0 else top[parent])
        if spans[top[index]][0] not in ROOT_SPANS:
            continue
        if parent < 0:
            wall += end - start
        elif name in _DECLARED:
            covered += own
    return covered / wall if wall else 0.0


def under_1ms_share(spans) -> float:
    """Share of faults whose own work (top-level per-fault spans) took
    under 1 ms."""
    per_fault: dict[str, float] = defaultdict(float)
    for name, start, end, parent, request, _ in spans:
        if request and name in ("atpg.engine.generate_test", "atpg.fault_sim.fsim"):
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name in ("atpg.engine.run", "atpg.parallel.merge"):
                per_fault[request] += end - start
    if not per_fault:
        return 0.0
    return sum(t < 1e-3 for t in per_fault.values()) / len(per_fault)


def layer_metrics(declared, spans, base, traced) -> dict:
    """Every declared per-layer metric for one traced run, as
    ``{name: {value, unit}}``; a layer the workload does not reach
    reads 0."""
    selfs = self_times(spans)
    units = max(1, len(traced.pass_walls))
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        totals[span[0]] += own
        calls[span[0]] += 1

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(totals[n] for n in names) / units, "s")
    for metric, name in CALLS.items():
        out[metric] = (calls[name] / units, "count")
    out["atpg.certify.certify_s"] = (certify_seconds(spans) / units, "s")
    out.update(base.layer)
    out.update(traced.layer)
    out["atpg.engine.under_1ms_share"] = (under_1ms_share(spans), "ratio")
    out["bench.stage_coverage"] = (coverage(spans, selfs), "ratio")
    # Passes with the same index run the same inputs in both runs.
    common = min(len(base.pass_walls), len(traced.pass_walls))
    base_wall = sum(base.pass_walls[:common])
    traced_wall = sum(traced.pass_walls[:common])
    out["bench.trace_overhead"] = (traced_wall / base_wall - 1.0 if base_wall else 0.0,
                                   "ratio")
    for spec in declared:
        out.setdefault(spec["name"], (0.0, spec["unit"]))
    return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}
