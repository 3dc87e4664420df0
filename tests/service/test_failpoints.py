"""Failpoint registry semantics + the exhaustive crash-point sweep.

The sweep is the acceptance gate for the robustness work: **every**
failpoint in the manifest — enumerated from the registry, never
hand-picked — is exercised in both the error-injection variant
(``raise:ENOSPC`` at the exact syscall boundary) and the process-kill
variant (``SIGKILL`` via ``REPRO_FAILPOINTS`` in a subprocess), and
after each injection the store must be *recoverable*: a clean re-run of
the same scenario converges to the same verdict digests, with no
torn CAS entries and no orphaned temp files left behind.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.atpg.checkpoint import CheckpointWriter
from repro.io.atomic import StorageError, atomic_write_json
from repro.service import failpoints
from repro.service.store import ResultStore

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import chaos_scenario  # noqa: E402


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


class TestRegistry:
    def test_unknown_name_rejected(self):
        with pytest.raises(failpoints.FailpointError, match="unregistered"):
            failpoints.activate("cas.promote.typo", "kill")

    def test_malformed_spec_rejected(self):
        for spec in ("explode", "raise:EPERM", "sleep:soon", "kill*0"):
            with pytest.raises(failpoints.FailpointError):
                failpoints.activate("cas.promote.pre_rename", spec)

    def test_disarmed_is_noop_and_uncounted(self):
        failpoints.failpoint("cas.promote.pre_rename")
        assert failpoints.hits("cas.promote.pre_rename") == 0

    def test_raise_injects_typed_errno(self):
        with failpoints.armed("journal.append.pre_flush", "raise:ENOSPC"):
            with pytest.raises(OSError) as excinfo:
                failpoints.failpoint("journal.append.pre_flush")
        assert excinfo.value.errno == errno.ENOSPC
        # Disarmed again outside the context manager.
        failpoints.failpoint("journal.append.pre_flush")

    def test_fire_count_disarms_after_n(self):
        failpoints.activate("cas.evict.pre_unlink", "raise:EIO*2")
        for _ in range(2):
            with pytest.raises(OSError):
                failpoints.failpoint("cas.evict.pre_unlink")
        failpoints.failpoint("cas.evict.pre_unlink")  # third fire: disarmed
        assert failpoints.hits("cas.evict.pre_unlink") == 3

    def test_load_env_arms_multiple(self):
        armed = failpoints.load_env(
            "cas.promote.pre_rename=raise:ENOSPC; journal.append.pre_flush=sleep:0"
        )
        assert armed == 2
        with pytest.raises(OSError):
            failpoints.failpoint("cas.promote.pre_rename")
        failpoints.failpoint("journal.append.pre_flush")  # sleep:0 continues

    def test_manifest_is_registered(self):
        assert set(failpoints.MANIFEST) <= set(failpoints.registered())


class TestStorageDegradation:
    def test_atomic_write_leaves_no_temp_on_injected_fault(self, tmp_path):
        target = tmp_path / "doc.json"
        for point in ("pre_write", "pre_rename"):
            with failpoints.armed(f"job.meta.{point}", "raise:ENOSPC"):
                with pytest.raises(StorageError):
                    atomic_write_json(target, {"v": point}, fp="job.meta")
            assert list(tmp_path.glob("*.tmp")) == []
            assert not target.exists() or point != "pre_write"

    def test_post_rename_fault_is_typed_but_commit_survives(self, tmp_path):
        target = tmp_path / "doc.json"
        with failpoints.armed("job.meta.post_rename", "raise:EIO"):
            with pytest.raises(StorageError):
                atomic_write_json(target, {"v": 1}, fp="job.meta")
        assert json.loads(target.read_text()) == {"v": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "name", ["journal.append.pre_flush", "journal.append.post_flush"]
    )
    def test_failed_journal_header_closes_the_journal(self, tmp_path, name):
        def construct():
            with failpoints.armed(name, "raise:ENOSPC"):
                with pytest.raises(StorageError):
                    CheckpointWriter(tmp_path / "journal.jsonl", circuit="c17")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            construct()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]

    def test_cas_promotion_degrades_to_bypass(self, tmp_path):
        store = ResultStore(tmp_path)
        doc = {"records": [], "stats": {}}
        with failpoints.armed("cas.promote.pre_rename", "raise:ENOSPC"):
            assert store.put("ab12", doc) is False
        assert store.write_errors == 1
        assert store.stats()["write_errors"] == 1
        assert list(tmp_path.glob("*.tmp")) == []
        # Healed disk: the same promotion now lands.
        assert store.put("ab12", doc) is True


def _assert_store_clean(root: Path) -> None:
    """No orphaned temp files anywhere; every CAS entry parses whole."""
    temps = [p for p in root.rglob("*.tmp")]
    assert temps == [], f"orphaned temp files: {temps}"
    for entry in (root / "cas").glob("*.json"):
        json.loads(entry.read_text(encoding="utf-8"))  # must not be torn


class TestSweep:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        """Digests of a clean scenario pass — which must also fire every
        registered failpoint at least once, or the sweep below silently
        stops being exhaustive."""
        failpoints.reset()
        failpoints.counting(True)
        try:
            result = chaos_scenario.run_scenario(
                tmp_path_factory.mktemp("baseline")
            )
            missed = [
                name
                for name in failpoints.registered()
                if failpoints.hits(name) == 0
            ]
            assert missed == [], (
                f"scenario does not cover failpoints {missed}; the sweep "
                f"would not be exhaustive"
            )
        finally:
            failpoints.reset()
        return result["digests"]

    def test_error_injection_sweep_every_failpoint(
        self, baseline, tmp_path
    ):
        """raise:ENOSPC at every crash point -> recoverable store."""
        for name in failpoints.registered():
            root = tmp_path / name.replace(".", "_")
            failpoints.activate(name, "raise:ENOSPC")
            try:
                chaos_scenario.run_scenario(root)
            except Exception:
                pass  # the injected fault propagating is the point
            finally:
                failpoints.reset()
            # Error paths must have cleaned up immediately (no SIGKILL
            # involved): no temp litter even before recovery runs.
            assert [p for p in root.rglob("*.tmp")] == [], name
            recovered = chaos_scenario.run_scenario(root)
            assert recovered["digests"] == baseline, (
                f"store not recoverable after raise:ENOSPC at {name}"
            )
            _assert_store_clean(root)

    def test_kill_sweep_every_failpoint(self, baseline, tmp_path):
        """SIGKILL at every crash point (real subprocess, injection via
        REPRO_FAILPOINTS) -> recoverable store."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        for name in failpoints.registered():
            root = tmp_path / name.replace(".", "_")
            env[failpoints.ENV_VAR] = f"{name}=kill"
            proc = subprocess.run(
                [
                    sys.executable,
                    str(REPO / "tools" / "chaos_scenario.py"),
                    str(root),
                ],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == -signal.SIGKILL, (
                f"{name}: expected SIGKILL at the failpoint, got "
                f"rc={proc.returncode} stderr={proc.stderr.decode()!r}"
            )
            recovered = chaos_scenario.run_scenario(root)
            assert recovered["digests"] == baseline, (
                f"store not recoverable after kill at {name}"
            )
            _assert_store_clean(root)
