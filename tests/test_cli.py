"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.gen.benchmarks import C17_BENCH


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "example",
            "fig1",
            "fig8",
            "gen-study",
            "bdd-compare",
            "ablations",
            "atpg",
            "cutwidth",
        ):
            args = parser.parse_args(
                [command] + (["x.bench"] if command in ("atpg", "cutwidth") else [])
            )
            assert args.command == command

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "W(C, A) = 3" in out

    def test_atpg_on_bench_file(self, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        assert main(["atpg", str(path), "--decompose"]) == 0
        out = capsys.readouterr().out
        assert "fault coverage: 100.0%" in out

    def test_cutwidth_on_bench_file(self, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        assert main(["cutwidth", str(path), "--decompose"]) == 0
        out = capsys.readouterr().out
        assert "W(C, H)" in out

    def test_atpg_on_blif_file(self, tmp_path, capsys):
        blif = ".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n"
        path = tmp_path / "m.blif"
        path.write_text(blif)
        assert main(["atpg", str(path)]) == 0
        assert "fault coverage" in capsys.readouterr().out


CYCLIC_BENCH = """\
INPUT(a)
OUTPUT(x)
x = AND(y, a)
y = OR(x, a)
"""


class TestAtpgRobustnessFlags:
    def _c17(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        return path

    def test_deadline_zero_exits_with_deadline_code(self, tmp_path, capsys):
        assert (
            main(["atpg", str(self._c17(tmp_path)), "--deadline", "0"]) == 3
        )
        captured = capsys.readouterr()
        assert "fault coverage: 0.0%" in captured.out
        assert "deadline_hit=True" in captured.out
        assert "abort: deadline_exceeded" in captured.err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        path = self._c17(tmp_path)
        journal = tmp_path / "run.jsonl"
        assert main(["atpg", str(path), "--checkpoint", str(journal)]) == 0
        first = capsys.readouterr().out
        assert "fault coverage: 100.0%" in first
        assert main(["atpg", str(path), "--resume", str(journal)]) == 0
        resumed = capsys.readouterr().out
        assert "fault coverage: 100.0%" in resumed

    def test_cyclic_netlist_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "cyclic.bench"
        path.write_text(CYCLIC_BENCH)
        assert main(["atpg", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid netlist" in err
        assert "abort: validation_failed" in err

    def test_certify_full_run(self, tmp_path, capsys):
        assert (
            main(["atpg", str(self._c17(tmp_path)), "--certify", "full"]) == 0
        )
        out = capsys.readouterr().out
        assert "fault coverage: 100.0%" in out
        assert "certification (full):" in out
        assert "0 uncertified" in out

    def test_certify_witness_with_budget_flags(self, tmp_path, capsys):
        assert (
            main(
                [
                    "atpg",
                    str(self._c17(tmp_path)),
                    "--certify",
                    "witness",
                    "--max-conflicts-per-fault",
                    "50000",
                    "--mem-budget-mb",
                    "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault coverage: 100.0%" in out
        assert "certification (witness):" in out

    def test_shard_timeout_flag_accepted(self, tmp_path, capsys):
        assert (
            main(
                [
                    "atpg",
                    str(self._c17(tmp_path)),
                    "--shard-timeout",
                    "30",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        assert "fault coverage: 100.0%" in capsys.readouterr().out


class TestUnifiedAbortSemantics:
    """Satellite: ``atpg``, ``width-study``, and ``fig8`` share exit
    codes (validation=2, deadline=3) and ``abort: <reason>`` stderr
    strings."""

    def test_width_study_cyclic_netlist_exits_validation(
        self, tmp_path, capsys
    ):
        path = tmp_path / "cyclic.bench"
        path.write_text(CYCLIC_BENCH)
        assert main(["width-study", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid netlist" in err
        assert "abort: validation_failed" in err

    @pytest.mark.parametrize(
        "command", ["atpg", "width-study", "profile", "cutwidth"]
    )
    @pytest.mark.parametrize(
        "name, text",
        [
            ("unknown_gate.bench", "INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n"),
            ("unclosed.bench", "INPUT(a)\nOUTPUT(z)\nz = AND(a, a\n"),
            (
                "driven_twice.bench",
                "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nz = OR(a, b)\n",
            ),
            (
                "bad_cover.blif",
                ".model m\n.inputs a b\n.outputs z\n.names a b z\n1x 1\n.end\n",
            ),
            ("missing.bench", None),
        ],
    )
    def test_unreadable_netlist_exits_validation(
        self, tmp_path, capsys, command, name, text
    ):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: invalid netlist {path}" in err
        assert "abort: validation_failed" in err

    def test_width_study_deadline_zero_exits_deadline(
        self, tmp_path, capsys
    ):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        assert main(["width-study", str(path), "--deadline", "0"]) == 3
        captured = capsys.readouterr()
        assert "deadline_hit=True" in captured.out
        assert "abort: deadline_exceeded" in captured.err

    def test_fig8_deadline_zero_exits_deadline(self, capsys):
        assert main(["fig8", "--suite", "mcnc", "--deadline", "0"]) == 3
        captured = capsys.readouterr()
        assert "deadline exceeded" in captured.out
        assert "abort: deadline_exceeded" in captured.err


class TestAtpgPerfFlags:
    def test_atpg_parallel_with_bench_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        out_json = tmp_path / "bench.json"
        assert (
            main(
                [
                    "atpg",
                    str(path),
                    "--decompose",
                    "--workers",
                    "2",
                    "--bench-json",
                    str(out_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cnf cache:" in out
        assert "stages:" in out
        payload = json.loads(out_json.read_text())
        assert payload["circuit"] == "c17"
        assert payload["fault_coverage"] == 1.0
        assert payload["instances_per_sec"] > 0
        assert set(payload["stats"]["stage_times"]) == {
            "build",
            "encode",
            "solve",
            "fsim",
        }
        assert payload["stats"]["cache_hits"] > 0

    def test_bench_json_reports_health(self, tmp_path, capsys):
        import json

        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        out_json = tmp_path / "bench.json"
        assert (
            main(["atpg", str(path), "--bench-json", str(out_json)]) == 0
        )
        capsys.readouterr()
        health = json.loads(out_json.read_text())["stats"]["health"]
        assert health["retries"] == 0
        assert health["degraded"] is False
        assert health["abort_reasons"] == {}

    def test_atpg_order_and_block_size(self, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        assert (
            main(
                [
                    "atpg",
                    str(path),
                    "--decompose",
                    "--order",
                    "given",
                    "--block-size",
                    "8",
                ]
            )
            == 0
        )
        assert "fault coverage: 100.0%" in capsys.readouterr().out


class TestPerfKnobValidation:
    """Satellite: numeric perf knobs are validated at parse time —
    non-positive or absurd values exit 2 with a clear message instead
    of failing deep inside the engine."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--block-size", "0"], "must be >= 1"),
            (["--block-size", "-8"], "must be >= 1"),
            (["--block-size", "huge"], "not an integer"),
            (["--block-size", "1000000"], "absurd block width"),
            (["--workers", "0"], "must be >= 1"),
            (["--workers", "100000"], "absurd worker count"),
            (["--max-conflicts-per-fault", "0"], "must be >= 1"),
            (["--mem-budget-mb", "0"], "must be > 0"),
            (["--mem-budget-mb", "-1.5"], "must be > 0"),
            (["--mem-budget-mb", "nan"], "must be > 0"),
            (["--shard-timeout", "0"], "must be > 0"),
            (["--deadline", "-1"], "must be >= 0"),
            (["--deadline", "inf"], "must be >= 0"),
            (["--solver", "bogus"], "invalid choice: 'bogus'"),
            (["--share-learned", "off"], "unrecognized arguments"),
        ],
    )
    def test_bad_value_exits_2(self, argv, fragment, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        with pytest.raises(SystemExit) as exc:
            main(["atpg", str(path)] + argv)
        assert exc.value.code == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["atpg", "x.bench"], ["fig1"]])
    def test_unknown_solver_exits_2_before_any_work(self, command, capsys):
        """A bad backend name is a usage error (exit 2, no traceback),
        caught before the netlist is read or a circuit generated."""
        with pytest.raises(SystemExit) as exc:
            main(command + ["--solver", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "Traceback" not in err

    def test_good_values_still_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "atpg",
                "x.bench",
                "--block-size",
                "128",
                "--workers",
                "4",
                "--deadline",
                "0",
                "--mem-budget-mb",
                "64.5",
            ]
        )
        assert args.block_size == 128
        assert args.workers == 4
        assert args.deadline == 0.0
        assert args.mem_budget_mb == 64.5
