"""Span tracing from outside the program.

:class:`Tracer` installs timing wrappers around the public functions
and methods of each layer, at the binding its callers use (a function
imported with ``from x import f`` is patched in the importing module).
Every wrapped call becomes a span: name, start, end, parent span and a
request id (the fault or the job the call serves); call counts are
span counts.  Spans stay in memory; a forked child (a shard
worker or a service runner) appends its spans to a file in the span
directory when its outermost wrapped call returns.  :func:`load_spans`
merges those files, :func:`self_times` computes each span's duration
minus the part its children cover, and :func:`write_chrome_trace`
writes Chrome trace-event JSON (it opens in Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

#: (module, attribute path, span name[, index of the job-id argument]).
#: The span name is the layer module plus the operation; per-layer
#: metrics aggregate by name.
WRAPPERS = (
    ("repro.io.bench", "loads_bench", "io.bench.parse"),
    ("repro.service.runner", "loads_bench", "io.bench.parse"),
    ("repro.service.server", "loads_bench", "io.bench.parse"),
    ("repro.circuits.decompose", "tech_decompose", "circuits.decompose.decompose"),
    ("repro.atpg.engine", "AtpgEngine.__init__", "atpg.engine.init"),
    ("repro.atpg.engine", "AtpgEngine.run", "atpg.engine.run"),
    ("repro.atpg.engine", "AtpgEngine.generate_test", "atpg.engine.generate_test"),
    # The primary solve path: the first rung of the certify ladder.
    ("repro.atpg.engine", "AtpgEngine._primary_record", "atpg.engine.primary"),
    ("repro.atpg.engine", "order_faults", "atpg.scoap.order"),
    ("repro.atpg.engine", "build_fault_delta", "atpg.miter.build"),
    ("repro.atpg.engine", "build_atpg_circuit", "atpg.miter.build"),
    ("repro.atpg.certify", "build_atpg_circuit", "atpg.miter.build"),
    ("repro.atpg.engine", "AtpgEngine._cone_solver", "sat.tseitin.encode"),
    ("repro.atpg.miter", "AtpgCircuit.formula", "sat.tseitin.encode"),
    ("repro.sat.incremental", "IncrementalSatSolver.push_group", "sat.tseitin.encode"),
    ("repro.sat.incremental", "IncrementalSatSolver.solve", "sat.cdcl.solve"),
    ("repro.sat.cdcl", "CdclSolver.solve", "sat.cdcl.solve"),
    ("repro.sat.cdcl", "CdclCore.solve", "sat.cdcl.solve"),
    ("repro.atpg.fault_sim", "PatternBlockStore.first_detection", "atpg.fault_sim.fsim"),
    ("repro.atpg.fault_sim", "PatternBlockStore.add", "atpg.fault_sim.fsim"),
    ("repro.atpg.engine", "fault_simulate", "atpg.fault_sim.fsim"),
    ("repro.atpg.certify", "EscalationLadder.process", "atpg.certify.process"),
    # Witness replay in the ladder; in ResultStore.get it stays part of get.
    ("repro.atpg.certify", "witness_ok", "atpg.certify.witness"),
    ("repro.atpg.certify", "check_drup", "sat.drup.check"),
    ("repro.atpg.parallel", "ParallelAtpgEngine.__init__", "atpg.parallel.init"),
    ("repro.atpg.parallel", "ParallelAtpgEngine.run", "atpg.parallel.run"),
    ("repro.atpg.parallel", "ParallelAtpgEngine._merge", "atpg.parallel.merge"),
    ("repro.atpg.parallel", "_run_shard", "atpg.parallel.shard"),
    ("repro.atpg.supervisor", "ShardSupervisor.run", "atpg.supervisor.run"),
    ("repro.atpg.checkpoint", "CheckpointWriter.write_record", "atpg.checkpoint.append"),
    ("repro.atpg.checkpoint", "CheckpointWriter.write_summary", "atpg.checkpoint.append"),
    ("repro.service.store", "ResultStore.get", "service.store.get"),
    ("repro.service.store", "ResultStore.put", "service.store.put"),
    ("repro.service.lease", "LeaseFile.acquire", "service.lease.acquire"),
    ("repro.service.server", "AtpgService.submit", "service.server.submit"),
    ("repro.service.runner", "execute_job", "service.runner.execute", 2),
    ("repro.core.width_pipeline", "WidthAnalysisPipeline.__init__", "core.width_pipeline.init"),
    ("repro.core.width_pipeline", "WidthAnalysisPipeline.run", "core.width_pipeline.run"),
    ("repro.core.width_pipeline", "_ShardAnalyzer._signature", "core.width_pipeline.signature"),
    ("repro.core.width_pipeline", "_ShardAnalyzer._analyse", "core.width_pipeline.analyse"),
    ("repro.core.width_pipeline", "estimate_cutwidth", "core.mla.arrange"),
    ("repro.core.width_pipeline", "circuit_hypergraph", "core.hypergraph.build"),
    ("repro.core.mla", "multilevel_bisect", "partition.multilevel.bisect"),
    ("repro.partition.multilevel", "multilevel_bisect", "partition.multilevel.bisect"),
    ("repro.partition.multilevel", "fm_bisect", "partition.fm.bisect"),
    ("repro.core.mla", "exact_min_cutwidth", "partition.exact.leaf"),
)


def _request_of(args, job_arg: int | None) -> str | None:
    """The fault or job id a call serves, when its arguments name one."""
    if job_arg is not None:
        return args[job_arg]
    for arg in args[:3]:
        if type(arg).__name__ == "Fault":
            return str(arg)
    return None


class Tracer:
    """In-memory span recorder with wrapper installation.

    Spans are tuples ``(name, start, end, parent, request, pid)`` with
    ``parent`` an index into the same process's span list (or -1).
    """

    def __init__(self, span_dir: str | Path) -> None:
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        #: The process that installed the wrappers; any other process
        #: is a forked child and flushes its own spans.
        self.root_pid = os.getpid()
        self._installed: list[tuple] = []

    # -- spans ------------------------------------------------------
    def _enter(self, name: str, request: str | None) -> int:
        if os.getpid() != self.pid:
            # First traced call in a forked child: keep only its own spans.
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
        parent = self.stack[-1] if self.stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, request, self.pid])
        self.stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.pid != self.root_pid:
            self.flush()

    def flush(self) -> None:
        """Append this process's finished spans to its span file."""
        done = [s for s in self.spans if s[2] is not None]
        if not done:
            return
        path = self.span_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": done}) + "\n")
        self.spans = []
        self.stack = []

    class _Span:
        def __init__(self, tracer: "Tracer", name: str, request) -> None:
            self.tracer, self.name, self.request = tracer, name, request

        def __enter__(self):
            self.index = self.tracer._enter(self.name, self.request)
            return self

        def __exit__(self, *exc) -> None:
            self.tracer._exit(self.index)

    def span(self, name: str, request: str | None = None) -> "_Span":
        return Tracer._Span(self, name, request)

    # -- wrappers ---------------------------------------------------
    def _wrap(self, fn, name: str, job_arg: int | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._enter(name, _request_of(args, job_arg))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index)

        return traced

    def install(self) -> None:
        """Wrap every layer function in :data:`WRAPPERS`."""
        for module_name, path, name, *rest in WRAPPERS:
            job_arg = rest[0] if rest else None
            module = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owners else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, job_arg))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def load_spans(tracer: Tracer) -> list[tuple]:
    """This process's spans plus every flushed child span, as tuples
    ``(name, start, end, parent, request, pid)`` with parents made
    global indices."""
    merged: list[tuple] = []

    def extend(batch) -> None:
        base = len(merged)
        for name, start, end, parent, request, pid in batch:
            if end is None:
                continue
            merged.append((name, start, end,
                           parent + base if parent >= 0 else -1,
                           request, pid))

    extend(tracer.spans)
    for path in sorted(tracer.span_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                extend(json.loads(line)["spans"])
    return merged


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    selfs = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def write_chrome_trace(spans: list[tuple], path: str | Path) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete events)."""
    if not spans:
        origin = 0.0
    else:
        origin = min(s[1] for s in spans)
    events = []
    for index, (name, start, end, parent, request, pid) in enumerate(spans):
        events.append({
            "name": name,
            "cat": name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": pid,
            "tid": pid,
            "args": {"id": index, "parent": parent, "request": request},
        })
    Path(path).write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
