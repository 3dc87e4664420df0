"""The in-process workloads: atpg-easy, atpg-hard and cutwidth.

A run is a sequence of passes over seeded inputs (see ``inputs.py``);
each pass runs its circuits end to end: parse and decompose the bench
text (the CLI ``--decompose`` path), construct the engine or pipeline,
run it.  Right after a pass, outside the timing, its verdicts are
checked; pass 0 is kept whole for the program's counters, later passes
only as numbers, so memory does not grow with the number of passes.
Times are in reference seconds (``calibrate.py``): the calibration
kernel is timed before each circuit and after the pass's last one, and a
circuit's setup and run times are scaled by ``REFERENCE_S`` over the
mean kernel time on either side of it.  Rates are total faults over
total time; setup is averaged over the passes without the highest and
the lowest.  After the passes the first circuit of pass 0 runs once
more, and its work counters must repeat exactly (the determinism guard).
"""

from __future__ import annotations

import contextlib
import resource
import time
from array import array
from dataclasses import dataclass, field
from statistics import median

from calibrate import REFERENCE_S, Calibrator
from common import peak_rss_mb, percentile, run_passes, trimmed_mean, Report
from verify import CheckResult, check_records, check_width_report

from repro.atpg.engine import AtpgEngine
from repro.atpg.parallel import ParallelAtpgEngine
from repro.circuits import decompose
from repro.core.width_pipeline import WidthAnalysisPipeline
from repro.io import bench

#: Setup is timed this many times per circuit (median kept).
SETUP_REPEATS = 3
#: Worker processes of the atpg-hard parallel engine.
HARD_WORKERS = 2
#: The ``width-study`` default subsample cap.
WIDTH_MAX_FAULTS = 60


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    report: Report
    check: CheckResult
    #: Per-layer numbers the program itself reports (counters, ratios).
    layer: dict = field(default_factory=dict)
    #: Measured time of each pass (reference seconds) or service cycle
    #: (seconds), in order.
    pass_walls: list = field(default_factory=list)
    #: Pass 0's work counters; a traced run must reproduce them.
    guard: tuple = ()


def _load(netlist):
    """The CLI ``--decompose`` path: parse the text, decompose it."""
    return decompose.tech_decompose(bench.loads_bench(netlist.text, name=netlist.name))


def _no_span(name, request=None):
    return contextlib.nullcontext()


@dataclass
class _Passes:
    """The passes of one run, checked."""

    #: Per pass, per circuit: pass 0's jobs whole, later ones as the
    #: ``setup`` and ``run`` times plus the numbers ``settle`` returned.
    passes: list
    check: CheckResult
    #: Peak RSS of the bench process or a shard worker, read right after
    #: the passes.  The checks between passes stay below the passes' own
    #: peak, so it is the program's.
    rss: float
    #: Pass 0's first circuit run again (``None`` in a traced run, whose
    #: pass 0 is compared with the untraced run's instead).
    repeat: dict | None

    @property
    def first(self) -> list[dict]:
        return self.passes[0]

    @property
    def flat(self) -> list[dict]:
        return [c for p in self.passes for c in p]


def _passes(make_inputs, seconds, construct, execute, settle, span,
            kernel) -> _Passes:
    """Run passes for about ``seconds`` of wall time (checks excluded).

    A job dict holds the netlist, its network, the median setup time and
    the ``run`` time, both in reference seconds, the ``wall`` (``run``
    in seconds), the box ``speed`` (``REFERENCE_S / kernel time``) and
    whatever ``execute`` returned.  ``settle(job, check)`` checks one job
    and returns its per-job numbers.  ``kernel()`` times the calibration
    kernel.
    """
    check = CheckResult()

    def job(netlist):
        with span("bench.job", netlist.name):
            times = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                network = _load(netlist)
                engine = construct(network)
                times.append(time.perf_counter() - start)
            start = time.perf_counter()
            result = execute(engine)
            run = time.perf_counter() - start
        return {"netlist": netlist, "network": network, "setup": median(times),
                "wall": run, "rated": netlist.rated, **result}

    def calibrated(netlists):
        kernels = [kernel()]
        jobs = []
        for netlist in netlists:
            jobs.append(job(netlist))
            kernels.append(kernel())
        for c, before, after in zip(jobs, kernels, kernels[1:]):
            c["speed"] = 2 * REFERENCE_S / (before + after)
            c["setup"] *= c["speed"]
            c["run"] = c["wall"] * c["speed"]
        return jobs

    def one_pass(index):
        start = time.perf_counter()
        jobs = calibrated(make_inputs(index))
        wall = time.perf_counter() - start
        light = []
        for c in jobs:
            numbers = settle(c, check)
            c.update(numbers)
            light.append({k: c[k] for k in ("setup", "run", "wall", "speed", "rated")}
                         | numbers)
        return (jobs if index == 0 else light), wall

    passes = run_passes(seconds, one_pass)
    rss = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
    repeat = None
    if span is _no_span:
        repeat = calibrated([passes[0][0]["netlist"]])[0]
        repeat.update(settle(repeat, check))
    return _Passes(passes, check, rss, repeat)


def _pass_walls(passes) -> list[float]:
    return [sum(c["setup"] + c["run"] for c in p) for p in passes]


def _guard(run: _Passes, fingerprint) -> None:
    """Fail the repeated circuit's operations when its work counters
    differ from its first run's."""
    if run.repeat is None:
        return
    got, expected = fingerprint(run.repeat), fingerprint(run.first[0])
    if got != expected:
        run.check.fail(run.repeat["size"],
                       f"determinism guard: counters {got} != {expected}")


def _rates(report: Report, run: _Passes) -> None:
    """The end-to-end metrics every engine workload reports.  Setup and
    rates count the rated circuits only: the seed's random circuits of
    pass 0 vary severalfold in cost between seeds."""
    passes, flat = run.passes, run.flat
    rated = [c for c in flat if c["rated"]]
    faults = sum(c["size"] for c in rated)
    report.add("setup_s",
               trimmed_mean([sum(c["setup"] for c in p if c["rated"]) for p in passes]),
               "s", len(rated) * SETUP_REPEATS)
    report.add("faults_per_s", faults / sum(c["run"] for c in rated), "faults/s",
               faults, passes=len(passes))
    report.add("job_latency_p50_s",
               percentile([c["setup"] + c["run"] for c in flat], 50.0), "s", len(flat))
    report.add("peak_rss_mb", run.rss, "MB", len(passes))
    # Unscaled, for reading the reference-second figures against the box.
    report.add("faults_per_wall_s", faults / sum(c["wall"] for c in rated), "faults/s",
               faults, passes=len(passes))
    report.add("box_speed", median([c["speed"] for c in flat]), "ratio", len(flat))


def run_atpg(make_inputs, seconds, parallel: bool, span=_no_span) -> Outcome:
    """atpg-easy (sequential, CLI defaults) or atpg-hard (parallel,
    certify full)."""
    if parallel:
        def construct(network):
            return ParallelAtpgEngine(network, workers=HARD_WORKERS, certify="full")

        def execute(engine):
            return {"summary": engine.run(), "gaps": []}
    else:
        def construct(network):
            return AtpgEngine(network)  # the CLI defaults

        def execute(engine):
            stamps = []
            start = time.perf_counter()
            summary = engine.run(on_record=lambda _r: stamps.append(time.perf_counter()))
            gaps = [b - a for a, b in zip([start] + stamps, stamps)]
            return {"summary": summary, "gaps": gaps}

    def settle(c, check):
        summary = c["summary"]
        c["records"] = _record_dicts(summary.records)
        check.add(check_records(c["network"], c["records"], c["netlist"].untestable))
        numbers = {
            "size": len(c["records"]),
            "solve": summary.stats.solve_time,
            "props": summary.stats.propagations,
            "gaps": array("d", (g * c["speed"] for g in c["gaps"])),
        }
        walls = [w.wall_time for w in summary.worker_stats]
        if walls:
            numbers["busy"] = sum(walls) / (HARD_WORKERS * c["wall"])
            numbers["imbalance"] = max(walls) / (sum(walls) / len(walls))
        return numbers

    # The shard workers keep both cores busy: sample both.
    with Calibrator(HARD_WORKERS if parallel else 0) as calibrator:
        run = _passes(make_inputs, seconds, construct, execute, settle, span,
                      calibrator.seconds)

    def fingerprint(c):
        s = c["summary"].stats
        return (c["netlist"].name, tuple(sorted(c["summary"].status_counts().items())),
                s.sat_calls, s.conflicts, s.propagations)

    _guard(run, fingerprint)
    check = run.check
    report = Report("atpg-hard" if parallel else "atpg-easy")
    _rates(report, run)
    if not parallel:
        report.latency("fault_latency", [g for c in run.flat for g in c["gaps"]])
    report.add("fail_rate", check.failed / max(1, check.attempted), "ratio", check.attempted)
    return Outcome(report, check, _atpg_layer(run, parallel),
                   _pass_walls(run.passes), tuple(fingerprint(c) for c in run.first))


def _record_dicts(records):
    return [
        {"net": r.fault.net, "value": r.fault.value, "status": r.status.value,
         "test": r.test, "conflicts": r.conflicts}
        for r in records
    ]


def _atpg_layer(run: _Passes, parallel: bool) -> dict:
    """Per-layer numbers from the program's own counters: work counts
    of pass 0 (they repeat exactly for a seed), rates over every pass."""
    stats = [c["summary"].stats for c in run.first]
    records = [r for c in run.first for r in c["records"]]
    conflicts = [r["conflicts"] for r in records
                 if r["status"] in ("tested", "untestable", "aborted")] or [0]

    def total(attr):
        return sum(getattr(s, attr) for s in stats)

    hits, misses = total("cache_hits"), total("cache_misses")
    detected = sum(r["status"] in ("tested", "dropped") for r in records)
    dropped = sum(r["status"] == "dropped" for r in records)
    solve = sum(c["solve"] for c in run.flat)
    props = sum(c["props"] for c in run.flat)
    layer = {
        "sat.tseitin.cache_hit_rate": (hits / max(1, hits + misses), "ratio"),
        "sat.cdcl.sat_calls": (total("sat_calls"), "count"),
        "sat.cdcl.propagations": (total("propagations"), "count"),
        "sat.cdcl.conflicts": (total("conflicts"), "count"),
        "sat.cdcl.props_per_s": (props / solve if solve else 0.0, "1/s"),
        "sat.cdcl.conflicts_p50": (percentile(conflicts, 50.0), "count"),
        "sat.cdcl.conflicts_p99": (percentile(conflicts, 99.0), "count"),
        "sat.cdcl.conflicts_max": (max(conflicts), "count"),
        "atpg.sharing.injected": (total("shared_injected"), "count"),
        "atpg.sharing.hit_rate": (
            total("shared_active_solves") / max(1, total("sat_calls")), "ratio"),
        "atpg.fault_sim.drop_share": (dropped / max(1, detected), "ratio"),
        "atpg.fault_sim.cone_sims": (total("cone_sims"), "count"),
        "atpg.certify.escalations": (sum(s.health.escalations for s in stats), "count"),
        "atpg.parallel.replay_solves": (total("replay_solves"), "count"),
        "atpg.supervisor.retries": (sum(s.health.retries for s in stats), "count"),
    }
    if parallel:
        busy = [c["busy"] for c in run.flat if "busy" in c]
        imbalance = [c["imbalance"] for c in run.flat if "imbalance" in c]
        layer["atpg.parallel.busy_share"] = (median(busy) if busy else 0.0, "ratio")
        layer["atpg.parallel.imbalance"] = (median(imbalance) if imbalance else 0.0, "ratio")
    return layer


def run_cutwidth(make_inputs, seconds, span=_no_span) -> Outcome:
    """Sequential cold ``WidthAnalysisPipeline`` (the width-study default)."""

    def execute(pipeline):
        return {"report": pipeline.run(max_faults=WIDTH_MAX_FAULTS)}

    def pair(fault):
        return (fault.net, fault.value)

    def settle(c, check):
        r = c["report"]
        check.add(check_width_report(
            c["network"], [pair(f) for f in r.faults],
            [pair(s.fault) for s in r.samples],
            [pair(f) for f in r.unobservable], len(r.skipped)))
        return {"size": len(r.faults)}

    with Calibrator() as calibrator:
        run = _passes(make_inputs, seconds, WidthAnalysisPipeline, execute, settle, span,
                      calibrator.seconds)

    def fingerprint(c):
        r = c["report"]
        return (c["netlist"].name, r.stats.cold_runs, tuple(s.cutwidth for s in r.samples))

    _guard(run, fingerprint)
    check = run.check
    report = Report("cutwidth")
    _rates(report, run)
    widths = [s.cutwidth for c in run.first for s in c["report"].samples]
    report.add("cutwidth_mean", sum(widths) / max(1, len(widths)), "nets", len(widths))
    report.add("fail_rate", check.failed / max(1, check.attempted), "ratio", check.attempted)

    stats = [c["report"].stats for c in run.first]
    hits = sum(s.sub_cache_hits for s in stats)
    misses = sum(s.sub_cache_misses for s in stats)
    layer = {
        "core.width_pipeline.hit_rate": (hits / max(1, hits + misses), "ratio"),
        "core.width_pipeline.mla_runs": (sum(s.cold_runs for s in stats), "count"),
    }
    return Outcome(report, check, layer, _pass_walls(run.passes),
                   tuple(fingerprint(c) for c in run.first))
