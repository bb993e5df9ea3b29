"""Evaluation matrices, saddle points, stagewise allocation."""

import itertools

import pytest

from aspeq import (
    Allocation,
    DomainMismatchError,
    ExponentialNormalized,
    ScaledBeta,
    Step,
    Uniform,
    allocate_eu_matrix,
    allocation_sums,
    aspiration_equivalent,
    dual_select,
    evaluate_matrix,
    evaluate_pair,
    expected_utility,
    find_pure_saddle,
    saddle_allocate,
)
from aspeq.numerics import NumericsError, QuadratureError, QuadratureSpec

LOTS = [
    ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0),
    ScaledBeta(0.0, 1.0, alpha=3.0, beta=12.0),
    ScaledBeta(0.0, 1.0, alpha=4.0, beta=8.0),
]
UTS = [ExponentialNormalized(0.0, 1.0, gamma=g) for g in (3.0, 6.0, 9.0)]


class TestEvaluateMatrix:
    def test_cells_match_scalar_functions(self):
        mat = evaluate_matrix(LOTS, UTS)
        for i, f in enumerate(LOTS):
            for j, u in enumerate(UTS):
                assert mat.eu[i][j] == pytest.approx(expected_utility(f, u), abs=1e-12)
                assert mat.ae[i][j] == pytest.approx(
                    aspiration_equivalent(f, u), abs=1e-9
                )

    def test_identity_per_cell(self):
        mat = evaluate_matrix(LOTS, UTS)
        for i in range(3):
            for j in range(3):
                assert mat.eu[i][j] + mat.edu[i][j] == pytest.approx(1.0, abs=1e-8)

    def test_domain_mismatch_names_cell(self):
        bad = [LOTS[0], ScaledBeta(0.0, 2.0, alpha=2.0, beta=2.0)]
        with pytest.raises(DomainMismatchError, match=r"cell \(1, 0\)"):
            evaluate_matrix(bad, UTS)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_matrix([], UTS)


def _reference_matrix(lotteries, utilities, spec=None):
    """evaluate_matrix cell by cell through evaluate_pair, stopping at the
    first cell that raises: (EU, EDU, CE, AE) rows, or (type, message)."""
    rows = []
    for i, f in enumerate(lotteries):
        row = []
        for j, u in enumerate(utilities):
            try:
                r = evaluate_pair(f, u, spec)
            except (DomainMismatchError, NumericsError) as exc:
                return type(exc), f"cell ({i}, {j}): {exc}"
            except Exception as exc:
                return type(exc), str(exc)
            row.append((r.expected_utility, r.expected_disutility, r.certain_equivalent, r.aspiration_equivalent))
        rows.append(row)
    return rows


def _batched_matrix(lotteries, utilities, spec=None):
    try:
        m = evaluate_matrix(lotteries, utilities, spec)
    except Exception as exc:
        return type(exc), str(exc)
    return [list(zip(*cells)) for cells in zip(m.eu, m.edu, m.ce, m.ae)]


SINGULAR = ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0)
ELSEWHERE = ScaledBeta(0.0, 2.0, alpha=2.0, beta=2.0)
STEP = Step(0.0, 1.0, threshold=0.3)


class TestMatrixAgainstCellLoop:
    """evaluate_matrix's lockstep batch gives each cell, and the first
    error, exactly as evaluate_pair cell by cell does."""

    def test_mixed_catalog(self, catalog):
        lotteries, utilities = catalog
        want = _reference_matrix(lotteries, utilities)
        assert isinstance(want, list)
        assert _batched_matrix(lotteries, utilities) == want

    @pytest.mark.parametrize(
        "lotteries,utilities,error",
        [
            # a step lottery has EU and EDU but no aspiration equivalent
            (LOTS[:2] + [STEP], UTS, "StepFunctionError"),
            # a step utility has no certain equivalent
            (LOTS, [UTS[0], STEP], "StepFunctionError"),
            # EU integrates the lottery density, EDU the utility density
            ([LOTS[0], SINGULAR], UTS, "SingularDensityError"),
            (LOTS, UTS[:2] + [SINGULAR], "SingularDensityError"),
            ([LOTS[0], ELSEWHERE], UTS, "DomainMismatchError"),
            # the first failing cell in row order wins: (0, 2) before (1, 0)
            ([LOTS[0], ELSEWHERE], UTS[:2] + [STEP], "StepFunctionError"),
            ([LOTS[0], SINGULAR], [UTS[0], ELSEWHERE], "DomainMismatchError"),
        ],
    )
    def test_first_failing_cell(self, quadrature_batches, lotteries, utilities, error):
        want = _reference_matrix(lotteries, utilities)
        assert want[0].__name__ == error
        loop = sum(n for _, n in quadrature_batches)
        quadrature_batches.clear()
        assert _batched_matrix(lotteries, utilities) == want
        # one batch, which also integrates the cells after the failing one
        assert len(quadrature_batches) == 1
        assert quadrature_batches[0][1] >= loop

    def test_first_quadrature_failure(self):
        # at depth 2, cells (1, 1), (1, 2) and (2, 2) exhaust it
        spec = QuadratureSpec(relative_tolerance=1e-12, max_subdivision_depth=2)
        want = _reference_matrix(LOTS, UTS, spec)
        assert want[0] is QuadratureError
        assert _batched_matrix(LOTS, UTS, spec) == want


class TestAllocateEuMatrix:
    def test_maximin_fallback_without_saddle(self):
        # row mins 0.3 and 0.5, column maxima 0.9 and 0.6: no pure saddle,
        # so stage 0 takes the maximin row 1 and its smallest column 0
        alloc = allocate_eu_matrix([[0.9, 0.3], [0.5, 0.6]])
        assert alloc.pairs == ((1, 0, 0.5), (0, 1, 0.3))
        first, second = alloc.stage_diagnostics
        assert (first.pure_saddle, first.maximin, first.minimax) == (False, 0.5, 0.6)
        assert second.pure_saddle

    @pytest.mark.parametrize(
        "eu,width",
        [([[1.0, 2.0], [3.0]], 1), ([[1.0, 2.0], [3.0, 4.0, 5.0]], 3), ([[1.0, 2.0]], 2), ([], 0)],
        ids=["short_row", "long_row", "wide", "empty"],
    )
    def test_refuses_a_matrix_that_is_not_square(self, eu, width):
        # every row is checked, not only the first, before stage 0
        with pytest.raises(ValueError, match=f"got {len(eu)} lotteries and a row of {width} utilities"):
            allocate_eu_matrix(eu)


class TestFindPureSaddle:
    def test_known_saddle(self):
        m = [[4.0, 3.0, 8.0], [9.0, 5.0, 6.0], [2.0, 1.0, 7.0]]
        s = find_pure_saddle(m)
        assert s.exists
        assert (s.row, s.col, s.value) == (1, 1, 5.0)
        assert s.maximin == s.minimax == 5.0
        assert s.gap == 0.0

    def test_no_saddle(self):
        m = [[1.0, 0.0], [0.0, 1.0]]
        s = find_pure_saddle(m)
        assert not s.exists
        assert s.maximin == 0.0
        assert s.minimax == 1.0
        assert s.gap == 1.0

    def test_tie_takes_lexicographic_first(self):
        # constant matrix: every cell is a saddle
        m = [[2.0, 2.0], [2.0, 2.0]]
        s = find_pure_saddle(m)
        assert (s.row, s.col) == (0, 0)

    def test_tolerance_absorbs_noise(self):
        eps = 1e-12
        m = [[4.0, 3.0], [9.0, 3.0 + eps]]
        # without tolerance (0,1) fails the column-max check by eps
        s = find_pure_saddle(m)
        assert s.exists

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            find_pure_saddle([[1.0, 2.0], [3.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            find_pure_saddle([])

    def test_eu_matrix_saddle_location(self):
        mat = evaluate_matrix(LOTS, UTS)
        s = find_pure_saddle(mat.eu)
        # strongest lottery against the softest utility
        assert s.exists
        assert (s.row, s.col) == (2, 0)
        assert s.value == pytest.approx(mat.eu[2][0], abs=1e-12)


class TestSaddleAllocate:
    def test_three_stage_pairing(self):
        alloc = saddle_allocate(LOTS, UTS)
        assert [(i, j) for i, j, _ in alloc.pairs] == [(2, 0), (1, 1), (0, 2)]
        assert all(d.pure_saddle for d in alloc.stage_diagnostics)
        assert [d.stage for d in alloc.stage_diagnostics] == [0, 1, 2]

    def test_pair_values_come_from_full_matrix(self):
        alloc = saddle_allocate(LOTS, UTS)
        mat = evaluate_matrix(LOTS, UTS)
        for i, j, v in alloc.pairs:
            assert v == pytest.approx(mat.eu[i][j], abs=1e-12)

    def test_allocation_sums(self):
        alloc = saddle_allocate(LOTS, UTS)
        mat = evaluate_matrix(LOTS, UTS)
        sum_ce, sum_ae, sum_eu = allocation_sums(alloc, mat)
        assert sum_ce == pytest.approx(sum(mat.ce[i][j] for i, j, _ in alloc.pairs))
        assert sum_ae == pytest.approx(sum(mat.ae[i][j] for i, j, _ in alloc.pairs))
        assert sum_eu == pytest.approx(sum(mat.eu[i][j] for i, j, _ in alloc.pairs))

    def test_unequal_counts_rejected(self):
        with pytest.raises(ValueError):
            saddle_allocate(LOTS, UTS[:2])

    def test_every_row_and_column_used_once(self):
        alloc = saddle_allocate(LOTS, UTS)
        assert sorted(i for i, _, _ in alloc.pairs) == [0, 1, 2]
        assert sorted(j for _, j, _ in alloc.pairs) == [0, 1, 2]


class TestDualSelect:
    def test_picks_lowest_eu_and_highest_ae(self):
        sel = dual_select(LOTS[0], UTS)
        eus = sel.expected_utilities
        aes = sel.aspiration_equivalents
        assert sel.index == min(range(3), key=lambda j: eus[j])
        assert sel.index == max(range(3), key=lambda j: aes[j])

    def test_single_utility(self):
        sel = dual_select(Uniform(0.0, 1.0), [UTS[0]])
        assert sel.index == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dual_select(LOTS[0], [])


class TestBruteForceCrossCheck:
    def test_saddle_stage_zero_is_game_value(self):
        # direct maximin/minimax over the full EU matrix agrees with the
        # first stage diagnostic
        mat = evaluate_matrix(LOTS, UTS)
        alloc = saddle_allocate(LOTS, UTS)
        maximin = max(min(row) for row in mat.eu)
        minimax = min(max(row[j] for row in mat.eu) for j in range(3))
        d0 = alloc.stage_diagnostics[0]
        assert d0.maximin == pytest.approx(maximin, abs=1e-12)
        assert d0.minimax == pytest.approx(minimax, abs=1e-12)

    def test_permutation_sums_brute_force(self):
        # enumerate all assignments; record how the saddle pairing ranks
        mat = evaluate_matrix(LOTS, UTS)
        alloc = saddle_allocate(LOTS, UTS)
        pairing = {(i, j) for i, j, _ in alloc.pairs}
        sums = []
        for perm in itertools.permutations(range(3)):
            cells = {(i, perm[i]) for i in range(3)}
            sums.append(
                (
                    sum(mat.ce[i][j] for i, j in cells),
                    sum(mat.ae[i][j] for i, j in cells),
                    cells,
                )
            )
        saddle_ce = next(s[0] for s in sums if s[2] == pairing)
        saddle_ae = next(s[1] for s in sums if s[2] == pairing)
        # the saddle pairing is near the top but provably not optimal for
        # either sum on this instance; the margin is small and stable
        best_ce = max(s[0] for s in sums)
        best_ae = max(s[1] for s in sums)
        assert best_ce - saddle_ce == pytest.approx(0.00278, abs=5e-4)
        assert best_ae - saddle_ae == pytest.approx(0.00245, abs=5e-4)
