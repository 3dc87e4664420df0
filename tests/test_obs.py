"""Declared run counters (:mod:`repro.obs`): the merge rule of every
stats field, and the key paths of the JSON documents built from them."""

from __future__ import annotations

import copy
import json
from dataclasses import fields

import pytest

from repro.atpg.engine import EngineStats
from repro.atpg.supervisor import RunHealth
from repro.cli import main
from repro.core.width_pipeline import WidthStudyStats
from repro.gen.benchmarks import C17_BENCH, c17
from repro.io.bench import dumps_bench
from repro.service.hashing import (
    canonical_circuit_hash,
    canonical_job_key,
    canonical_options,
)
from repro.service.jobs import JobStore, job_id_for_key
from repro.service.runner import execute_job
from repro.service.server import AtpgService, ServiceConfig
from repro.service.store import ResultStore

ADD, OR, EXTEND, NESTED, KEEP = "add", "or", "extend", "nested", "keep"

#: The merge rule every field must follow, written out independently of
#: the declarations; a new field fails the coverage check below until
#: its rule is added here.
RULES = {
    EngineStats: {
        "build_time": ADD,
        "encode_time": ADD,
        "solve_time": ADD,
        "fsim_time": ADD,
        "wall_time": KEEP,
        "sat_calls": ADD,
        "cache_hits": ADD,
        "cache_misses": ADD,
        "good_sims": ADD,
        "cone_sims": ADD,
        "workers": KEEP,
        "shards": KEEP,
        "replay_solves": ADD,
        "propagations": ADD,
        "decisions": ADD,
        "conflicts": ADD,
        "shared_promoted": ADD,
        "shared_injected": ADD,
        "shared_active_solves": ADD,
        "health": NESTED,
    },
    RunHealth: {
        "retries": ADD,
        "timed_out_shards": ADD,
        "crashed_shards": ADD,
        "shard_splits": ADD,
        "degraded": OR,
        "deadline_hit": OR,
        "abort_reasons": KEEP,
        "backoff_delays": EXTEND,
        "certified": KEEP,
        "uncertified": KEEP,
        "disagreements": ADD,
        "escalations": ADD,
    },
    WidthStudyStats: {
        "signature_time": ADD,
        "arrange_time": ADD,
        "merge_time": ADD,
        "wall_time": KEEP,
        "sub_cache_hits": ADD,
        "sub_cache_misses": ADD,
        "cold_runs": ADD,
        "workers": KEEP,
        "shards": KEEP,
        "health": NESTED,
    },
}


def _fill(stats, scale: int, flag: bool) -> None:
    """Give every field a value distinct per field and per instance."""
    for index, spec in enumerate(fields(stats), start=1):
        value = getattr(stats, spec.name)
        if isinstance(value, bool):
            new = flag
        elif isinstance(value, int):
            new = index * scale
        elif isinstance(value, float):
            new = index * scale + 0.25
        elif isinstance(value, list):
            new = [float(index * scale)]
        elif isinstance(value, dict):
            new = {f"reason{scale}": index}
        else:
            _fill(value, scale, flag)
            continue
        setattr(stats, spec.name, new)


def _check(before, other, merged) -> None:
    rules = RULES[type(merged)]
    assert set(rules) == {spec.name for spec in fields(merged)}
    for name, rule in rules.items():
        mine, theirs = getattr(before, name), getattr(other, name)
        value = getattr(merged, name)
        if rule == ADD:
            assert value == mine + theirs, name
        elif rule == OR:
            assert value is (mine or theirs), name
        elif rule == EXTEND:
            assert value == mine + theirs, name
        elif rule == NESTED:
            _check(mine, theirs, value)
        else:
            assert mine != theirs and value == mine, name


@pytest.mark.parametrize("cls", list(RULES), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("flags", [(False, True), (True, True)])
def test_merge_follows_each_fields_rule(cls, flags):
    """Numbers add, bools OR (True with True stays True, not 2), lists
    extend, nested counters merge, and coordinator-owned fields are
    left alone."""
    ours, theirs = cls(), cls()
    _fill(ours, 1, flags[0])
    _fill(theirs, 100, flags[1])
    before = copy.deepcopy(ours)
    ours.merge(theirs)
    _check(before, theirs, ours)


def _key_paths(doc, prefix: str = "") -> list[str]:
    """Leaf key paths; a list of objects contributes ``name[].key``."""
    if isinstance(doc, dict) and doc:
        paths = []
        for key, value in doc.items():
            paths += _key_paths(value, f"{prefix}.{key}" if prefix else key)
        return paths
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        return _key_paths(doc[0], prefix + "[]")
    return [prefix]


HEALTH_PATHS = [
    "health." + key
    for key in (
        "retries backoff_delays timed_out_shards crashed_shards "
        "shard_splits degraded deadline_hit abort_reasons certified "
        "uncertified disagreements escalations"
    ).split()
]
ENGINE_STATS_PATHS = (
    [f"stage_times.{stage}" for stage in ("build", "encode", "solve", "fsim")]
    + (
        "wall_time sat_calls cache_hits cache_misses cache_hit_rate "
        "good_sims cone_sims workers shards replay_solves propagations "
        "decisions conflicts shared_promoted shared_injected "
        "shared_active_solves shared_hit_rate propagations_per_sec "
        "decisions_per_sec conflicts_per_sec"
    ).split()
    + HEALTH_PATHS
)
WIDTH_STATS_PATHS = (
    [f"stage_times.{s}" for s in ("signature", "arrange", "merge")]
    + (
        "wall_time sub_cache_hits sub_cache_misses cache_hit_rate "
        "cold_runs workers shards"
    ).split()
    + HEALTH_PATHS
)


def test_documents_keep_their_key_paths(tmp_path, capsys):
    """The four documents built from the counters have exactly these
    key paths, so adding or removing a counter shows up here."""
    netlist = tmp_path / "c17.bench"
    netlist.write_text(C17_BENCH)

    atpg_json = tmp_path / "atpg.json"
    argv = ["atpg", str(netlist), "--decompose", "--workers", "2"]
    assert main(argv + ["--bench-json", str(atpg_json)]) == 0
    atpg_doc = json.loads(atpg_json.read_text())
    assert sorted(_key_paths(atpg_doc)) == sorted(
        "circuit solver faults fault_coverage wall_time_s "
        "instances_per_sec".split()
        + [
            f"status_counts.{status}"
            for status in (
                "tested untestable unobservable aborted dropped".split()
            )
        ]
        + ["stats." + path for path in ENGINE_STATS_PATHS]
        + ["worker_stats[]." + path for path in ENGINE_STATS_PATHS]
    )

    width_json = tmp_path / "width.json"
    argv = ["width-study", str(netlist), "--decompose"]
    assert main(argv + ["--bench-json", str(width_json)]) == 0
    width_doc = json.loads(width_json.read_text())
    assert sorted(_key_paths(width_doc)) == sorted(
        "circuit seed n_faults n_samples n_unobservable n_skipped "
        "max_cutwidth faults_per_sec".split()
        + ["stats." + path for path in WIDTH_STATS_PATHS]
    )
    capsys.readouterr()

    network = c17()
    store = JobStore(tmp_path / "jobs")
    options = canonical_options(None)
    key = canonical_job_key(network, options)
    job_id = job_id_for_key(key)
    store.create(
        job_id,
        job_key=key,
        circuit_hash=canonical_circuit_hash(network),
        circuit_name=network.name,
        netlist_text=dumps_bench(network),
        options=options,
        tenant="default",
    )
    result = execute_job(store, ResultStore(tmp_path / "cas"), job_id)
    assert sorted(_key_paths(result["stats"])) == sorted(ENGINE_STATS_PATHS)

    health = AtpgService(ServiceConfig(data_dir=tmp_path / "svc")).healthz()
    assert list(health["totals"]) == (
        "submitted deduped cache_hits refused degraded_admissions "
        "completed failed recovered runner_crashes solver_sat_calls "
        "lease_steals lease_lost adoption_exhausted storage_errors"
    ).split()
    assert list(health["cache"]) == (
        "hits misses evictions size_evictions write_errors max_bytes "
        "current_bytes"
    ).split()
