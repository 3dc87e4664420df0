"""Smoke tests for the figure-level experiment drivers (scaled down).

Full-scale runs live in benchmarks/; these verify the pipelines and the
direction of each headline claim quickly.
"""

import pytest

from repro.atpg.engine import AtpgEngine
from repro.atpg.faults import collapse_faults
from repro.core.bounds import subsample_faults
from repro.experiments.ablations import run_ablations
from repro.experiments.bdd_comparison import run_bdd_comparison
from repro.experiments.fig1_tegus import run_fig1
from repro.experiments.fig8_cutwidth_study import run_fig8
from repro.experiments.fig_generated import run_generated_study
from repro.experiments.suite_table import run_suite_table
from repro.gen.benchmarks import circuit_names, load_circuit


class TestFig1:
    def test_small_run(self):
        report = run_fig1(suites=("mcnc",), max_faults_per_circuit=4)
        assert len(report.points) > 20
        # Shape: most instances fast.
        assert report.fraction_fast >= 0.5
        text = report.render()
        assert "fraction under" in text

    def test_points_have_sizes(self):
        report = run_fig1(suites=("mcnc",), max_faults_per_circuit=2)
        for point in report.points:
            assert point.num_variables > 0
            assert point.solve_time >= 0


@pytest.mark.parametrize("run", [run_fig1, run_suite_table])
def test_max_faults_takes_an_even_stride(run, monkeypatch):
    """A fault cap samples the collapsed list at an even stride, as
    every other command does, not its alphabetically first faults."""
    analysed = []
    original = AtpgEngine.run

    def spy(self, faults=None, **kwargs):
        analysed.append(list(faults))
        return original(self, faults=faults, **kwargs)

    monkeypatch.setattr(AtpgEngine, "run", spy)
    others = tuple(name for name in circuit_names("mcnc") if name != "alu4")
    if run is run_fig1:
        run(suites=("mcnc",), max_faults_per_circuit=20, skip_circuits=others)
    else:
        run("mcnc", max_faults_per_circuit=20, skip_circuits=others)
    alu4 = load_circuit("mcnc", "alu4")
    assert analysed == [subsample_faults(collapse_faults(alu4), 20)]


class TestFig8:
    def test_small_run_mcnc(self):
        report = run_fig8("mcnc", max_faults_per_circuit=3)
        assert len(report.points) > 10
        fits = report.fits()
        assert set(fits) <= {"linear", "log", "power"}
        assert report.best_model() in fits
        assert report.max_log_ratio() < 8.0
        assert "Figure 8" in report.render()

    def test_skip_circuits(self):
        report = run_fig8(
            "iscas",
            max_faults_per_circuit=2,
            skip_circuits=tuple(
                name
                for name in __import__(
                    "repro.gen.benchmarks", fromlist=["circuit_names"]
                ).circuit_names("iscas")
                if name != "c17"
            ),
        )
        assert {p.circuit for p in report.points} == {"c17"}


class TestGeneratedStudy:
    def test_small_run(self):
        report = run_generated_study(sizes=[50, 120], faults_per_circuit=4)
        assert len(report.points) >= 6
        assert report.best_model() in ("log", "linear", "power", "none")
        assert "Generated-circuit study" in report.render()


class TestBddComparison:
    def test_default_run(self):
        report = run_bdd_comparison()
        assert len(report.rows) == 4
        for row in report.rows:
            # The caching solver respects its Theorem 4.1 bound.
            assert row.backtracking_nodes <= row.backtracking_bound
            # Topological orders have zero reverse width.
            assert row.reverse_width_topo == 0
        assert "Section 6" in report.render()


class TestAblations:
    def test_default_run(self):
        report = run_ablations()
        assert report.caching and report.ordering
        for row in report.caching:
            # Caching never explores more nodes than simple backtracking.
            assert row.cached_nodes <= row.uncached_nodes
        for row in report.ordering:
            # MLA ordering is never worse than a random ordering in width.
            assert row.width_mla <= row.width_random
        assert "Ablation" in report.render()
