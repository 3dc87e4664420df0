"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's figures (as text reports) and expose the
ATPG/cut-width tooling on user netlists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Unified abort/exit semantics shared by the ``atpg``, ``width-study``,
#: and ``fig8`` subcommands: a netlist that cannot be read, parsed or
#: validated exits 2, a run stopped by ``--deadline`` exits 3, and both
#: print a machine-greppable ``abort: <reason>`` line to stderr.  The
#: reason strings are the same constants the engines record in
#: ``RunHealth.abort_reasons`` (see :mod:`repro.atpg.supervisor`).
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEADLINE = 3
ABORT_VALIDATION = "validation_failed"
ABORT_DEADLINE = "deadline_exceeded"


def _positive_int(text: str) -> int:
    """Argparse type for strictly positive integer options."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bounded_int(maximum: int, what: str):
    """Argparse type: strictly positive int with an absurdity ceiling.

    Perf knobs fail here, at parse time with exit code 2, instead of
    deep inside the engine (or, worse, succeeding while quietly
    thrashing — a million-bit fault-simulation word is "valid").
    """

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > maximum:
            raise argparse.ArgumentTypeError(
                f"absurd {what}: {value} (max {maximum})"
            )
        return value

    return parse


def _positive_float(text: str) -> float:
    """Argparse type for strictly positive float options."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type for float options that allow zero."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not value >= 0 or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _abort(reason: str) -> None:
    """Print the unified abort line (``abort: <reason>``) to stderr."""
    print(f"abort: {reason}", file=sys.stderr)


def _cmd_example(args: argparse.Namespace) -> int:
    from repro.experiments.example_circuit import run_example

    print(run_example().render())
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.fig1_tegus import run_fig1

    report = run_fig1(
        suites=tuple(args.suite),
        solver=args.solver,
        max_faults_per_circuit=args.max_faults,
    )
    print(report.render())
    if args.plot:
        print(report.render_plot())
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.fig8_cutwidth_study import run_fig8

    deadline_at = (
        time.monotonic() + args.deadline if args.deadline is not None else None
    )
    deadline_hit = False
    for suite in args.suite:
        remaining = None
        if deadline_at is not None:
            remaining = max(0.0, deadline_at - time.monotonic())
        report = run_fig8(
            suite,
            max_faults_per_circuit=args.max_faults,
            seed=args.seed,
            workers=args.workers,
            deadline=remaining,
        )
        print(report.render())
        if not report.fits():
            print(
                f"warning: fig8 ({suite}) has only {report.n_usable} usable "
                "points (need >= 4); curve fits skipped",
                file=sys.stderr,
            )
        if args.plot:
            print(report.render_plot())
        deadline_hit = deadline_hit or report.deadline_hit
    if deadline_hit:
        _abort(ABORT_DEADLINE)
        return EXIT_DEADLINE
    return EXIT_OK


def _cmd_gen_study(args: argparse.Namespace) -> int:
    from repro.experiments.fig_generated import run_generated_study

    report = run_generated_study(
        sizes=args.sizes, faults_per_circuit=args.max_faults, seed=args.seed
    )
    print(report.render())
    return 0


def _cmd_phase_transition(args: argparse.Namespace) -> int:
    from repro.experiments.phase_transition import run_phase_transition

    report = run_phase_transition(
        local_levels=args.local_levels,
        global_levels=args.global_levels,
        sizes=args.sizes,
        faults_per_circuit=args.max_faults,
    )
    print(report.render())
    return 0


def _cmd_bdd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.bdd_comparison import run_bdd_comparison

    print(run_bdd_comparison().render())
    return 0


def _cmd_width_effort(args: argparse.Namespace) -> int:
    from repro.experiments.width_vs_effort import run_width_vs_effort
    from repro.gen.benchmarks import load_circuit

    for name in args.circuit:
        network = load_circuit(args.suite_name, name)
        report = run_width_vs_effort(network, max_faults=args.max_faults)
        print(report.render())
    return 0


def _cmd_suite_table(args: argparse.Namespace) -> int:
    from repro.experiments.suite_table import run_suite_table

    for suite in args.suite:
        report = run_suite_table(
            suite, max_faults_per_circuit=args.max_faults
        )
        print(report.render())
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import run_ablations

    print(run_ablations().render())
    return 0


class _UnreadableNetlist(Exception):
    """A netlist file that cannot be read or parsed; :func:`main` turns
    it into the validation exit code."""


def _load_netlist(path: str):
    from repro.io.bench import load_bench
    from repro.io.blif import load_blif
    from repro.io.verilog import load_verilog

    suffix = Path(path).suffix.lower()
    try:
        if suffix == ".blif":
            return load_blif(path)
        if suffix in (".v", ".sv"):
            return load_verilog(path)
        return load_bench(path)
    except (ValueError, OSError) as exc:
        # Format errors and NetworkError (a net driven twice) are
        # ValueErrors; a missing or unreadable file is an OSError.
        raise _UnreadableNetlist(f"invalid netlist {path}: {exc}") from exc


def _bench_payload(summary, solver: str) -> dict:
    """The ``--bench-json`` document for an ATPG summary.

    Schema (documented in README.md § Performance):
    ``circuit``/``solver``/``faults``/``status_counts``/
    ``fault_coverage`` describe the run outcome; ``wall_time_s`` and
    ``instances_per_sec`` the throughput; ``stats`` the per-stage times,
    solver search rates, and cache/parallel counters (see
    ``EngineStats.as_dict``); ``worker_stats`` the per-shard stage times
    of a parallel run.
    """
    wall = summary.stats.wall_time
    payload = {
        "circuit": summary.circuit,
        "solver": solver,
        "faults": len(summary.records),
        "status_counts": summary.status_counts(),
        "fault_coverage": summary.fault_coverage,
        "wall_time_s": wall,
        "instances_per_sec": len(summary.records) / wall if wall else 0.0,
        "stats": summary.stats.as_dict(),
    }
    if summary.worker_stats:
        payload["worker_stats"] = [ws.as_dict() for ws in summary.worker_stats]
    return payload


def _cmd_atpg(args: argparse.Namespace) -> int:
    from repro.atpg.engine import AtpgEngine, FaultStatus
    from repro.atpg.parallel import ParallelAtpgEngine
    from repro.circuits.decompose import tech_decompose
    from repro.circuits.validate import ValidationError

    network = _load_netlist(args.netlist)
    if args.decompose:
        network = tech_decompose(network)
    validate = not args.no_validate
    # Checkpoint/resume and shard supervision live in the parallel
    # engine; it runs in-process when workers == 1, so any of those
    # flags routes through it.
    supervised = (
        args.workers > 1
        or args.resume is not None
        or args.checkpoint is not None
        or args.shard_timeout is not None
    )
    try:
        if supervised:
            engine = ParallelAtpgEngine(
                network,
                workers=args.workers,
                solver=args.solver,
                max_conflicts=args.max_conflicts_per_fault,
                drop_block_size=args.block_size,
                validate=validate,
                deadline=args.deadline,
                shard_timeout=args.shard_timeout,
                certify=args.certify,
                mem_budget_mb=args.mem_budget_mb,
                order=args.order,
                budget_policy=args.budget_policy,
                hardness_model=args.hardness_model,
            )
        else:
            engine = AtpgEngine(
                network,
                solver=args.solver,
                max_conflicts=args.max_conflicts_per_fault,
                drop_block_size=args.block_size,
                order=args.order,
                validate=validate,
                deadline=args.deadline,
                certify=args.certify,
                mem_budget_mb=args.mem_budget_mb,
                budget_policy=args.budget_policy,
                hardness_model=args.hardness_model,
            )
    except ValidationError as exc:
        print(f"error: invalid netlist {args.netlist}: {exc}", file=sys.stderr)
        _abort(ABORT_VALIDATION)
        return EXIT_VALIDATION
    if supervised:
        checkpoint = args.checkpoint if args.checkpoint else args.resume
        summary = engine.run(
            fault_dropping=not args.no_dropping,
            resume_from=args.resume,
            checkpoint_to=checkpoint,
        )
    else:
        summary = engine.run(fault_dropping=not args.no_dropping)
    print(f"circuit {network.name}: {len(summary.records)} faults")
    for status in FaultStatus:
        count = len(summary.by_status(status))
        if count:
            print(f"  {status.value}: {count}")
    print(f"  fault coverage: {summary.fault_coverage:.1%}")
    stats = summary.stats
    stages = " ".join(
        f"{name}={seconds:.3f}s" for name, seconds in stats.stage_times().items()
    )
    print(f"  stages: {stages} (wall {stats.wall_time:.3f}s)")
    print(
        f"  cnf cache: {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"({stats.cache_hit_rate:.1%}); sat calls: {stats.sat_calls}"
    )
    rates = stats.solver_rates()
    print(
        f"  solver: {stats.propagations} props, {stats.decisions} decisions, "
        f"{stats.conflicts} conflicts "
        f"({rates['propagations_per_sec']:,.0f} props/s)"
    )
    if stats.workers > 1:
        print(f"  parallel: {stats.workers} workers, {stats.shards} shards")
    if stats.budget_escalations or stats.hard_routed:
        print(
            f"  hardness: {stats.budget_escalations} budget escalations, "
            f"{stats.hard_routed} hard-routed faults"
        )
    if stats.shared_promoted or stats.shared_injected:
        print(
            f"  clause sharing: {stats.shared_promoted} promoted, "
            f"{stats.shared_injected} injected, "
            f"hit rate {stats.shared_hit_rate:.1%}"
        )
    health = stats.health
    if args.certify != "off":
        print(
            f"  certification ({args.certify}): {health.certified} certified, "
            f"{health.uncertified} uncertified; "
            f"disagreements={health.disagreements} "
            f"escalations={health.escalations}"
        )
    if not health.clean:
        reasons = " ".join(
            f"{reason}={count}"
            for reason, count in sorted(health.abort_reasons.items())
        )
        print(
            f"  health: retries={health.retries} "
            f"timeouts={health.timed_out_shards} "
            f"crashes={health.crashed_shards} "
            f"splits={health.shard_splits} "
            f"degraded={health.degraded} "
            f"deadline_hit={health.deadline_hit}"
            + (f" aborts[{reasons}]" if reasons else "")
        )
    if args.bench_json:
        from repro.io.atomic import atomic_write_json

        payload = _bench_payload(summary, args.solver)
        atomic_write_json(args.bench_json, payload)
        print(f"  bench json -> {args.bench_json}")
    if args.compact:
        from repro.atpg.compaction import reverse_order_compaction
        from repro.atpg.faults import collapse_faults

        patterns = summary.tests()
        compacted = reverse_order_compaction(
            network, collapse_faults(network), patterns
        )
        print(f"  patterns: {len(patterns)} -> {len(compacted)} after "
              "reverse-order compaction")
    if health.deadline_hit:
        _abort(ABORT_DEADLINE)
        return EXIT_DEADLINE
    return EXIT_OK


def _width_bench_payload(report) -> dict:
    """The ``--bench-json`` document for a width study.

    Schema (documented in README.md § Performance): run identity
    (``circuit``/``seed``), outcome counts, ``max_cutwidth``,
    throughput, and ``stats`` with per-stage times, the memo
    counters, and supervision health (``WidthStudyStats.as_dict``).
    """
    payload = report.as_dict()
    wall = report.stats.wall_time
    payload["faults_per_sec"] = len(report.faults) / wall if wall else 0.0
    return payload


def _cmd_width_study(args: argparse.Namespace) -> int:
    from repro.circuits.decompose import tech_decompose
    from repro.circuits.validate import ValidationError, check_network
    from repro.core.width_pipeline import WidthAnalysisPipeline

    if args.netlist is not None:
        networks = [_load_netlist(args.netlist)]
        if args.decompose:
            networks = [tech_decompose(networks[0])]
    else:
        from repro.gen.benchmarks import load_circuit

        networks = [
            load_circuit(args.suite_name, name) for name in args.circuit
        ]

    # The width pipeline itself does no structural validation, so the
    # CLI enforces the same trust boundary as ``atpg``: a cyclic or
    # undriven netlist fails fast with the unified validation exit code.
    if not args.no_validate:
        for network in networks:
            try:
                check_network(network)
            except ValidationError as exc:
                print(
                    f"error: invalid netlist {network.name}: {exc}",
                    file=sys.stderr,
                )
                _abort(ABORT_VALIDATION)
                return EXIT_VALIDATION

    max_faults = None if args.no_cap else args.max_faults
    deadline_hit = False
    payloads = []
    for network in networks:
        pipeline = WidthAnalysisPipeline(
            network,
            seed=args.seed,
            workers=args.workers,
            bounds=args.bounds,
            shard_timeout=args.shard_timeout,
            deadline=args.deadline,
        )
        report = pipeline.run(max_faults=max_faults)
        stats = report.stats
        print(
            f"circuit {report.circuit}: {len(report.faults)} faults -> "
            f"{len(report.samples)} samples, "
            f"{len(report.unobservable)} unobservable, "
            f"{len(report.skipped)} skipped"
        )
        print(
            f"  max cut-width: {report.max_cutwidth} (seed={report.seed})"
        )
        stages = " ".join(
            f"{name}={seconds:.3f}s"
            for name, seconds in stats.stage_times().items()
        )
        print(f"  stages: {stages} (wall {stats.wall_time:.3f}s)")
        print(
            f"  sub-circuit memo: {stats.sub_cache_hits} hits / "
            f"{stats.sub_cache_misses} misses ({stats.cache_hit_rate:.1%})"
        )
        if stats.workers > 1:
            print(f"  parallel: {stats.workers} workers, {stats.shards} shards")
        if args.bounds and report.samples:
            worst = max(report.samples, key=lambda s: s.theorem_bound or 0)
            bound = worst.theorem_bound or 0
            # Bounds are exact (huge) ints; 10^300+ overflows float repr.
            text = f"{bound:.3e}" if bound < 10**300 else f"~10^{len(str(bound)) - 1}"
            print(
                f"  largest Theorem 4.1 bound: {text} "
                f"({worst.fault}, n={worst.sub_circuit_size}, "
                f"k_fo={worst.k_fo}, W={worst.cutwidth})"
            )
        health = stats.health
        if not health.clean:
            print(
                f"  health: retries={health.retries} "
                f"timeouts={health.timed_out_shards} "
                f"crashes={health.crashed_shards} "
                f"splits={health.shard_splits} "
                f"degraded={health.degraded} "
                f"deadline_hit={health.deadline_hit}"
            )
        deadline_hit = deadline_hit or health.deadline_hit
        payloads.append(_width_bench_payload(report))
    if args.bench_json:
        from repro.io.atomic import atomic_write_json

        document = payloads[0] if len(payloads) == 1 else payloads
        atomic_write_json(args.bench_json, document)
        print(f"  bench json -> {args.bench_json}")
    if deadline_hit:
        _abort(ABORT_DEADLINE)
        return EXIT_DEADLINE
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.circuits.decompose import tech_decompose
    from repro.circuits.stats import profile

    network = _load_netlist(args.netlist)
    if args.decompose:
        network = tech_decompose(network)
    print(profile(network).render())
    return 0


def _cmd_cutwidth(args: argparse.Namespace) -> int:
    from repro.circuits.decompose import tech_decompose
    from repro.core.cutwidth import multi_output_cutwidth

    network = _load_netlist(args.netlist)
    if args.decompose:
        network = tech_decompose(network)
    result = multi_output_cutwidth(network, seed=args.seed)
    print(f"circuit {network.name}: W(C, H) = {result.cutwidth}")
    for output, mla in sorted(result.per_output.items()):
        print(f"  cone {output}: |V|={len(mla.order)} W={mla.cutwidth}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.budgets import BackpressureConfig, TenantPolicy
    from repro.service.server import ServiceConfig, serve

    config = ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        max_concurrent_jobs=args.max_concurrent_jobs,
        drain_timeout_s=args.drain_timeout,
        cache_max_mb=args.cache_max_mb,
        node_id=args.node_id,
        lease_ttl_s=args.lease_ttl,
        scan_interval_s=args.scan_interval,
        backpressure=BackpressureConfig(
            hard_limit=args.queue_limit,
            soft_limit=args.queue_soft_limit,
            degraded_max_conflicts=args.degraded_max_conflicts,
            retry_after_s=args.retry_after,
        ),
        default_policy=TenantPolicy(
            max_conflicts=args.tenant_max_conflicts,
            max_deadline_s=args.tenant_max_deadline,
            max_queued=args.tenant_max_queued,
        ),
    )
    return serve(config)


def build_parser() -> argparse.ArgumentParser:
    from repro.atpg.engine import SOLVERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Why is ATPG Easy?' (DAC 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="Figures 4-7 running example")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("fig1", help="Figure 1: solve effort vs instance size")
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--solver", choices=SOLVERS, default="cdcl")
    p.add_argument("--max-faults", type=_positive_int, default=None)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig8", help="Figure 8: cut-width vs size study")
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--max-faults", type=_positive_int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=_bounded_int(256, "worker count"), default=1,
        help="worker processes per circuit width sweep",
    )
    p.add_argument(
        "--deadline", type=_nonnegative_float, default=None, metavar="SECONDS",
        help="run-level wall-clock budget across all suites; past it "
        "remaining circuits are skipped and the command exits 3 "
        "(abort: deadline_exceeded)",
    )
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=_cmd_fig8)

    p = sub.add_parser(
        "width-study",
        help="per-fault cut-width sweep (dedup + parallel width pipeline)",
    )
    p.add_argument(
        "netlist", nargs="?", default=None,
        help=".bench/.blif/.v netlist; omit to use --suite-name/--circuit",
    )
    p.add_argument("--suite-name", default="mcnc")
    p.add_argument("--circuit", action="append", default=None)
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-faults", type=_positive_int, default=60,
        help="deterministic even subsample cap (see --no-cap)",
    )
    p.add_argument(
        "--no-cap", action="store_true",
        help="sweep the full collapsed fault universe (overrides "
        "--max-faults)",
    )
    p.add_argument(
        "--workers", type=_bounded_int(256, "worker count"), default=1,
        help="worker processes (>1 fans shards out under supervision)",
    )
    p.add_argument(
        "--bounds", action="store_true",
        help="evaluate each sample's Theorem 4.1 bound n*2^(2*k_fo*W)",
    )
    p.add_argument(
        "--shard-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-shard wall-clock budget (terminated, retried, split)",
    )
    p.add_argument(
        "--deadline", type=_nonnegative_float, default=None, metavar="SECONDS",
        help="run-level wall-clock budget; unanalysed faults are "
        "reported as skipped (deadline_exceeded)",
    )
    p.add_argument(
        "--bench-json", default=None, metavar="PATH",
        help="write stage-time/cache/health JSON to PATH",
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip structural netlist validation (cyclic/undriven-net "
        "checks) before the width sweep",
    )
    p.set_defaults(func=_cmd_width_study)

    p = sub.add_parser("gen-study", help="Section 5.2.3 generated circuits")
    p.add_argument("--sizes", type=_positive_int, nargs="*", default=None)
    p.add_argument("--max-faults", type=_positive_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_study)

    p = sub.add_parser("bdd-compare", help="Section 6 BDD bound comparison")
    p.set_defaults(func=_cmd_bdd_compare)

    p = sub.add_parser(
        "phase-transition",
        help="extension: width growth vs reconvergence parameter",
    )
    p.add_argument("--local-levels", type=float, nargs="*", default=None)
    p.add_argument("--global-levels", type=float, nargs="*", default=None)
    p.add_argument("--sizes", type=_positive_int, nargs="*", default=None)
    p.add_argument("--max-faults", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_phase_transition)

    p = sub.add_parser("ablations", help="caching and ordering ablations")
    p.set_defaults(func=_cmd_ablations)

    p = sub.add_parser(
        "width-effort",
        help="extension: does cut-width predict per-instance SAT effort?",
    )
    p.add_argument("--suite-name", default="mcnc")
    p.add_argument(
        "--circuit", action="append", default=None,
    )
    p.add_argument("--max-faults", type=_positive_int, default=30)
    p.set_defaults(func=_cmd_width_effort)

    p = sub.add_parser(
        "suite-table", help="per-circuit summary table for a suite"
    )
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--max-faults", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_suite_table)

    p = sub.add_parser(
        "atpg", help="run ATPG on a .bench/.blif/.v netlist"
    )
    p.add_argument("netlist")
    p.add_argument(
        "--solver", choices=SOLVERS, default="cdcl",
        help="SAT backend: cdcl = persistent per-cone CDCL solvers with "
        "assumption-guarded fault deltas (default); the others solve "
        "every fault cold",
    )
    p.add_argument("--no-dropping", action="store_true")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--compact", action="store_true")
    p.add_argument(
        "--workers", type=_bounded_int(256, "worker count"), default=1,
        help="worker processes (>1 uses ParallelAtpgEngine)",
    )
    p.add_argument(
        "--order", choices=("auto", "scoap", "hardness", "given"),
        default="auto",
        help="fault processing order (auto = SCOAP easiest-first; "
        "hardness = learned fault-hardness predictor, easiest first — "
        "verdicts and coverage are identical to scoap, only the "
        "schedule moves)",
    )
    p.add_argument(
        "--budget-policy", choices=("fixed", "predicted"), default="fixed",
        help="per-fault conflict budgets: fixed = every fault gets "
        "--max-conflicts-per-fault; predicted = tight learned budget "
        "first, escalating to the full budget on exhaustion (verdicts "
        "identical, schedule cheaper on mispredicted-easy faults)",
    )
    p.add_argument(
        "--hardness-model", default=None, metavar="PATH",
        help="trained hardness model JSON (tools/train_hardness.py) for "
        "--order hardness / --budget-policy predicted; defaults to the "
        "shipped model",
    )
    p.add_argument(
        "--block-size", type=_bounded_int(1 << 16, "block width"), default=64,
        help="patterns per packed fault-simulation block (any width "
        ">= 1: blocks ride arbitrary-precision integer words)",
    )
    p.add_argument(
        "--bench-json", default=None, metavar="PATH",
        help="write throughput/cache/stage-time JSON to PATH",
    )
    p.add_argument(
        "--deadline", type=_nonnegative_float, default=None, metavar="SECONDS",
        help="run-level wall-clock budget; past it the run stops "
        "cleanly with remaining faults ABORTED (deadline_exceeded)",
    )
    p.add_argument(
        "--shard-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-shard wall-clock budget; a shard exceeding it is "
        "terminated, retried, and split on repeat failure",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal per-fault records to a JSONL file as shards "
        "complete (resumable with --resume)",
    )
    p.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume an interrupted run from its checkpoint journal "
        "(continues journaling to the same file unless --checkpoint "
        "overrides it)",
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip structural netlist validation (cyclic/undriven-net "
        "checks) before ATPG",
    )
    p.add_argument(
        "--certify", choices=("off", "witness", "full"), default="off",
        help="certify verdicts before trusting them: witness = replay "
        "every TESTABLE pattern through fault simulation; full = also "
        "check a DRUP proof (or cross-solver agreement) for every "
        "UNTESTABLE verdict; failures escalate through independent "
        "solvers (incremental -> fresh CDCL -> DPLL reference)",
    )
    p.add_argument(
        "--max-conflicts-per-fault", type=_positive_int, default=100_000,
        metavar="N",
        help="per-fault solver conflict budget; exhausted faults abort "
        "with budget_exhausted (deterministic, final on resume)",
    )
    p.add_argument(
        "--mem-budget-mb", type=_positive_float, default=None, metavar="MB",
        help="clause-database memory budget per SAT call; past it the "
        "fault aborts with mem_budget_exceeded (and, under --certify, "
        "escalates to the next solver rung)",
    )
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("profile", help="shape statistics of a netlist")
    p.add_argument("netlist")
    p.add_argument("--decompose", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("cutwidth", help="estimate cut-width of a netlist")
    p.add_argument("netlist")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cutwidth)

    p = sub.add_parser(
        "serve",
        help="crash-safe async ATPG job server (POST /jobs, event "
        "streaming, certified result cache, graceful drain)",
    )
    p.add_argument(
        "--data-dir", default="atpg-service-data", metavar="DIR",
        help="job store + result cache root (all durable state)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = ephemeral; the bound port is printed)",
    )
    p.add_argument(
        "--max-concurrent-jobs", type=_bounded_int(64, "job slots"),
        default=1, help="runner processes dispatched at once",
    )
    p.add_argument(
        "--queue-limit", type=_positive_int, default=64, metavar="N",
        help="hard queue limit: past it submissions get 429 + Retry-After",
    )
    p.add_argument(
        "--queue-soft-limit", type=_positive_int, default=16, metavar="N",
        help="soft queue limit: past it admissions are degraded to the "
        "reduced conflict budget before refusal kicks in",
    )
    p.add_argument(
        "--degraded-max-conflicts", type=_positive_int, default=4_000,
        metavar="N",
        help="per-fault conflict budget applied to degraded admissions",
    )
    p.add_argument(
        "--retry-after", type=_positive_float, default=5.0,
        metavar="SECONDS", help="Retry-After hint on 429 refusals",
    )
    p.add_argument(
        "--cache-max-mb", type=_positive_float, default=None, metavar="MB",
        help="size bound for the certified result cache: promotions "
        "LRU-evict least-recently-served documents past it (default "
        "unbounded); hit/evict counters are surfaced at /healthz",
    )
    p.add_argument(
        "--drain-timeout", type=_nonnegative_float, default=10.0,
        metavar="SECONDS",
        help="SIGTERM drain: wait this long for running jobs, then "
        "SIGKILL the runners and persist their jobs back to the queue",
    )
    p.add_argument(
        "--node-id", default=None, metavar="ID",
        help="this node's identity for multi-node lease ownership "
        "(default: hostname; must be distinct per node when several "
        "servers share one --data-dir on the same host)",
    )
    p.add_argument(
        "--lease-ttl", type=_positive_float, default=10.0,
        metavar="SECONDS",
        help="job-lease time-to-live: a dead node's jobs become "
        "stealable this long after its last heartbeat (renewed at "
        "ttl/3; lower = faster takeover, more lease traffic)",
    )
    p.add_argument(
        "--scan-interval", type=_positive_float, default=1.0,
        metavar="SECONDS",
        help="how often to poll the shared store for foreign work "
        "(peer submissions, expired leases)",
    )
    p.add_argument(
        "--tenant-max-conflicts", type=_positive_int, default=None,
        metavar="N", help="per-tenant ceiling on requested conflict budget",
    )
    p.add_argument(
        "--tenant-max-deadline", type=_positive_float, default=None,
        metavar="SECONDS", help="per-tenant ceiling on requested deadline",
    )
    p.add_argument(
        "--tenant-max-queued", type=_positive_int, default=None,
        metavar="N", help="per-tenant ceiling on held queue slots",
    )
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", "sentinel") is None:
        both = ("fig1", "suite-table")
        args.suite = ["mcnc", "iscas"] if args.command in both else ["mcnc"]
    if getattr(args, "circuit", "sentinel") is None:
        args.circuit = ["cla8", "cmp8", "alu4"]
    try:
        return args.func(args)
    except _UnreadableNetlist as exc:
        print(f"error: {exc}", file=sys.stderr)
        _abort(ABORT_VALIDATION)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
