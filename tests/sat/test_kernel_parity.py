"""Flat-arena kernel vs object-graph reference: bit-identical parity.

The production :class:`~repro.sat.cdcl.CdclCore` packs clauses into a
flat integer arena; :class:`~repro.sat.cdcl_ref.ReferenceCdclCore` is
the original object-graph implementation kept verbatim as an executable
specification.  Because both perform the same literal-order permutations
in the same order, they are required to agree not just on verdicts but
on the full search trajectory: propagation / decision / conflict /
learned-clause / restart counters and DRUP proofs.  This suite drives
both cores through identical clause streams — the differential-fuzz
miter corpus and scripted incremental push/solve/retire/reduce cycles —
and compares trajectories exactly.
"""

import pytest

from repro.sat.cdcl import CdclCore
from repro.sat.cdcl_ref import ReferenceCdclCore
from repro.sat.compile import compile_formula, lit_of
from repro.sat.drup import DrupLog
from tests.sat.test_fuzz_cdcl import FUZZ_SEEDS, iter_miter_formulas


def _trajectory(core_cls, compiled, proof=None, max_conflicts=None):
    """Load ``compiled`` into a fresh core and solve; return the full
    comparable signature of the run."""
    core = core_cls(proof=proof)
    for _ in range(compiled.num_vars):
        core.new_var()
    for clause in compiled.clauses:
        core.add_clause(list(clause))
    status, stats = core.solve(max_conflicts=max_conflicts)
    return (
        status,
        stats.propagations,
        stats.decisions,
        stats.conflicts,
        stats.learned_clauses,
        stats.restarts,
    )


class TestBatchParity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_corpus_trajectories_identical(self, seed):
        """Every miter in the fuzz corpus: identical verdicts AND
        identical search-effort counters."""
        for fault, formula in iter_miter_formulas(seed):
            compiled = compile_formula(formula)
            flat = _trajectory(CdclCore, compiled)
            ref = _trajectory(ReferenceCdclCore, compiled)
            assert flat == ref, (
                f"trajectory divergence on {fault} (seed {seed}): "
                f"flat={flat} ref={ref}"
            )

    @pytest.mark.parametrize("seed", list(FUZZ_SEEDS)[:4])
    def test_drup_proofs_identical(self, seed):
        """The flat kernel logs the same DRUP steps as the reference."""
        for fault, formula in iter_miter_formulas(seed, max_faults=3):
            flat_proof, ref_proof = DrupLog(), DrupLog()
            compiled = compile_formula(formula)
            _trajectory(CdclCore, compiled, proof=flat_proof)
            _trajectory(ReferenceCdclCore, compiled, proof=ref_proof)
            assert flat_proof.steps == ref_proof.steps, (
                f"DRUP divergence on {fault} (seed {seed})"
            )

    @pytest.mark.parametrize("seed", list(FUZZ_SEEDS)[:4])
    def test_conflict_budget_parity(self, seed):
        """A tight conflict budget truncates both cores at the same
        point with the same partial-effort counters."""
        for _fault, formula in iter_miter_formulas(seed, max_faults=3):
            compiled = compile_formula(formula)
            flat = _trajectory(CdclCore, compiled, max_conflicts=3)
            ref = _trajectory(ReferenceCdclCore, compiled, max_conflicts=3)
            assert flat == ref


def _scripted_incremental(core_cls, seed):
    """Drive a core through base + guarded groups with solve / retire /
    reduce / collect interleaved, mirroring the incremental SAT layer's
    usage; returns the concatenated trajectory signature."""
    import random

    rng = random.Random(seed)
    core = core_cls()
    num_base = 12
    for _ in range(num_base):
        core.new_var()

    def rand_clause(vars_pool, width):
        picked = rng.sample(vars_pool, min(width, len(vars_pool)))
        return [lit_of(v, rng.random() < 0.5) for v in picked]

    base_vars = list(range(num_base))
    for _ in range(30):
        core.add_clause(rand_clause(base_vars, rng.randint(2, 4)))
    core.propagate_root()

    out = []
    groups = []
    for round_no in range(8):
        activation = core.new_var()
        guard = lit_of(activation, False)
        fresh = [core.new_var() for _ in range(3)]
        pool = base_vars + fresh
        core.backjump(0)
        for _ in range(10):
            core.add_clause([guard] + rand_clause(pool, rng.randint(1, 3)))
        status, stats = core.solve(
            assumptions=(lit_of(activation, True),), max_conflicts=200
        )
        out.append(
            (
                status,
                stats.propagations,
                stats.decisions,
                stats.conflicts,
                stats.restarts,
            )
        )
        groups.append((activation, fresh))
        if round_no % 2 == 1:
            activation, fresh = groups.pop(0)
            core.backjump(0)
            core.add_clause([lit_of(activation, False)])
            core.propagate_root()
            for var in fresh:
                core.release_var(var)
            core.release_var(activation, defer=True)
        if round_no == 4:
            core.backjump(0)
            out.append(("reduce", core.reduce_learned()))
            out.append(("collect", core.collect()))
    core.backjump(0)
    out.append(("final_collect", core.collect()))
    return out


class TestIncrementalParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_push_retire_reduce_cycles_identical(self, seed):
        """Full incremental lifecycle (guarded groups, assumptions,
        retirement, DB reduction, arena GC) stays bit-identical."""
        flat = _scripted_incremental(CdclCore, seed)
        ref = _scripted_incremental(ReferenceCdclCore, seed)
        assert flat == ref


def test_flat_kernel_is_the_production_core():
    """The engine's solver factory and incremental layer must run on the
    flat kernel (the reference exists only as a specification)."""
    from repro.sat.incremental import IncrementalSatSolver

    assert isinstance(IncrementalSatSolver().core, CdclCore)


class _IntCnf:
    """A pre-compiled stand-in: integer clauses in the cores' literal
    encoding, duck-typing ``compile_formula``'s result for
    :func:`_trajectory`."""

    def __init__(self, num_vars, clauses):
        self.num_vars = num_vars
        self.clauses = clauses


def _binary_dense_formula(seed, num_vars=14, num_clauses=50, p_binary=0.7):
    """Random CNF biased toward width-2 clauses so the binary
    implication graph, not the watch lists, carries the search."""
    import random

    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = 2 if rng.random() < p_binary else 3
        picked = rng.sample(range(num_vars), width)
        clauses.append(
            tuple(lit_of(v, rng.random() < 0.5) for v in picked)
        )
    return _IntCnf(num_vars, clauses)


class TestBinarySplitParity:
    """The binary-clause fast path against the reference core.

    Binary clauses live outside the watch lists (``bin_others`` /
    ``bin_refs`` successor lists, reasons encoded as ``-2 - lit``), so
    these formulas route almost all propagation through the pre-pass;
    trajectories and proofs must still match the reference exactly.
    """

    @pytest.mark.parametrize("seed", range(30))
    def test_binary_dense_trajectories_identical(self, seed):
        compiled = _binary_dense_formula(seed)
        flat = _trajectory(CdclCore, compiled)
        ref = _trajectory(ReferenceCdclCore, compiled)
        assert flat == ref, f"seed {seed}: flat={flat} ref={ref}"

    @pytest.mark.parametrize("seed", range(10))
    def test_binary_dense_drup_identical(self, seed):
        flat_proof, ref_proof = DrupLog(), DrupLog()
        compiled = _binary_dense_formula(seed)
        _trajectory(CdclCore, compiled, proof=flat_proof)
        _trajectory(ReferenceCdclCore, compiled, proof=ref_proof)
        assert flat_proof.steps == ref_proof.steps, f"seed {seed}"

    def test_binary_graph_engaged(self):
        """The split actually routes binary clauses out of the watch
        lists: every root-level width-2 clause appears as a pair of
        successor edges and none of them occupies a watch list."""
        compiled = _binary_dense_formula(3)
        core = CdclCore()
        for _ in range(compiled.num_vars):
            core.new_var()
        binary = 0
        for clause in compiled.clauses:
            core.add_clause(list(clause))
            if len(set(clause)) == 2:
                binary += 1
        assert binary > 0
        edges = sum(len(succ) for succ in core.bin_others)
        assert edges == 2 * binary
        assert edges == sum(len(refs) for refs in core.bin_refs)
        watched = {ref for watch in core.watches for ref in watch}
        for lit, refs in enumerate(core.bin_refs):
            for ref in refs:
                assert ref not in watched

    def test_binary_edges_survive_collect(self):
        """Arena GC rewrites refs but preserves the successor order, so
        post-collect trajectories still match the reference."""
        compiled = _binary_dense_formula(5)
        flat = CdclCore()
        ref = ReferenceCdclCore()
        for core in (flat, ref):
            for _ in range(compiled.num_vars):
                core.new_var()
            for clause in compiled.clauses:
                core.add_clause(list(clause))
            core.solve(max_conflicts=20)
            core.backjump(0)
            core.collect()
        before = [list(succ) for succ in flat.bin_others]
        flat_sig = flat.solve()
        ref_sig = ref.solve()
        assert flat_sig[0] == ref_sig[0]
        assert (
            flat_sig[1].propagations,
            flat_sig[1].decisions,
            flat_sig[1].conflicts,
        ) == (
            ref_sig[1].propagations,
            ref_sig[1].decisions,
            ref_sig[1].conflicts,
        )
        assert [list(succ) for succ in flat.bin_others] == before
