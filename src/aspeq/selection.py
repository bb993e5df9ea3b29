"""Lottery-by-utility matrices, pure saddle points, and stagewise
allocation.

evaluate_matrix fills the four quantity matrices (EU, EDU, CE, AE) over a
lottery list crossed with a utility list. Read as a zero-sum game on the
EU matrix, the lottery side picks rows to raise EU and the utility side
picks columns to lower it; a pure saddle is a cell that is at once a
column maximum and a row minimum. A cell's EU and EDU are duality's one
pair integral with the roles swapped, each integrated once per cell, and
all of a matrix's integrals are refined together in one lockstep batch;
so are saddle_allocate's EU matrix and dual_select's EUs and EDUs.

Allocation runs on an EU matrix: allocate_eu_matrix matches N lotteries
to N utilities by repeatedly pairing the current saddle cell and
deleting its row and column, with a maximin fallback (flagged, never
silent) when a stage has no pure saddle. Hand it an EvalMatrix's eu;
saddle_allocate integrates that matrix first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import Curve
from .duality import (
    DomainMismatchError,
    DualityResult,
    _aspiration_from,
    _pair_values,
    _read,
    evaluate_pairs,
)
from .numerics import QuadratureSpec

SADDLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EvalMatrix:
    lotteries: tuple[Curve, ...]
    utilities: tuple[Curve, ...]
    eu: tuple[tuple[float, ...], ...]
    edu: tuple[tuple[float, ...], ...]
    ce: tuple[tuple[float, ...], ...]
    ae: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class SaddleSearch:
    """Outcome of a pure-saddle scan: the cell when one exists, and the
    maximin/minimax pair either way (they coincide exactly when it does)."""

    row: int | None
    col: int | None
    value: float | None
    maximin: float
    minimax: float

    @property
    def exists(self) -> bool:
        return self.row is not None

    @property
    def gap(self) -> float:
        return self.minimax - self.maximin


@dataclass(frozen=True)
class StageDiagnostic:
    stage: int
    pure_saddle: bool
    maximin: float
    minimax: float


@dataclass(frozen=True)
class Allocation:
    pairs: tuple[tuple[int, int, float], ...]
    stage_diagnostics: tuple[StageDiagnostic, ...]


@dataclass(frozen=True)
class DualSelection:
    index: int
    aspiration_equivalents: tuple[float, ...]
    expected_utilities: tuple[float, ...]


def dual_select(
    lottery: Curve, utilities: list[Curve], spec: QuadratureSpec | None = None
) -> DualSelection:
    """Pick the utility a fixed lottery favors: lowest EU, equivalently
    highest aspiration equivalent. Both orderings are computed and must
    name the same index; F is monotone, so ranking outcomes by EDU and
    ranking them through F's quantile cannot disagree."""
    if not utilities:
        raise ValueError("need at least one utility")
    values = iter(_pair_values([(lottery, u, role) for role in ("eu", "edu") for u in utilities], spec))
    eus = [_read(next(values)) for u in utilities]
    aes = [_aspiration_from(lottery, _read(next(values)), spec) for u in utilities]
    by_eu = 0
    for j, v in enumerate(eus):
        if v < eus[by_eu]:
            by_eu = j
    by_ae = 0
    for j, v in enumerate(aes):
        if v > aes[by_ae]:
            by_ae = j
    if by_eu != by_ae and abs(aes[by_eu] - aes[by_ae]) > SADDLE_TOLERANCE:
        raise ArithmeticError(
            f"lowest-EU index {by_eu} and highest-aspiration index {by_ae} "
            "disagree beyond tolerance; the lottery's quantile must be "
            "collapsing distinct levels"
        )
    return DualSelection(
        index=by_eu,
        aspiration_equivalents=tuple(aes),
        expected_utilities=tuple(eus),
    )


def evaluate_matrix(
    lotteries: list[Curve],
    utilities: list[Curve],
    spec: QuadratureSpec | None = None,
) -> EvalMatrix:
    """All four quantities for every (lottery, utility) cell."""
    if not lotteries or not utilities:
        raise ValueError("need at least one lottery and one utility")
    results = evaluate_pairs([(f, u) for f in lotteries for u in utilities], spec)
    rows: list[list[DualityResult]] = []
    for i in range(len(lotteries)):
        row: list[DualityResult] = []
        for j in range(len(utilities)):
            try:
                row.append(next(results))
            except DomainMismatchError as exc:
                raise DomainMismatchError(f"cell ({i}, {j}): {exc}") from exc
        rows.append(row)
    return EvalMatrix(
        lotteries=tuple(lotteries),
        utilities=tuple(utilities),
        eu=tuple(tuple(r.expected_utility for r in row) for row in rows),
        edu=tuple(tuple(r.expected_disutility for r in row) for row in rows),
        ce=tuple(tuple(r.certain_equivalent for r in row) for row in rows),
        ae=tuple(tuple(r.aspiration_equivalent for r in row) for row in rows),
    )


def find_pure_saddle(eu: list[list[float]] | tuple[tuple[float, ...], ...]) -> SaddleSearch:
    """Scan a matrix for a cell that is simultaneously a column maximum
    and a row minimum, comparing within a small absolute tolerance so
    quadrature noise cannot create or destroy a saddle. Among several
    saddle cells (all carry one value) the lexicographically smallest
    (row, col) wins.
    """
    if not eu or not eu[0]:
        raise ValueError("matrix must be nonempty")
    m = [list(row) for row in eu]
    n_rows, n_cols = len(m), len(m[0])
    if any(len(row) != n_cols for row in m):
        raise ValueError("matrix rows must have equal length")
    row_mins = [min(row) for row in m]
    col_maxs = [max(row[j] for row in m) for j in range(n_cols)]
    maximin = max(row_mins)
    minimax = min(col_maxs)
    for i in range(n_rows):
        for j in range(n_cols):
            v = m[i][j]
            if (
                v <= row_mins[i] + SADDLE_TOLERANCE
                and v >= col_maxs[j] - SADDLE_TOLERANCE
            ):
                return SaddleSearch(
                    row=i, col=j, value=v, maximin=maximin, minimax=minimax
                )
    return SaddleSearch(row=None, col=None, value=None, maximin=maximin, minimax=minimax)


def saddle_allocate(
    lotteries: list[Curve],
    utilities: list[Curve],
    spec: QuadratureSpec | None = None,
) -> Allocation:
    """allocate_eu_matrix on the EU matrix of lotteries x utilities,
    integrated in one batch."""
    values = iter(_pair_values([(f, u, "eu") for f in lotteries for u in utilities], spec))
    eu = [[_read(next(values)) for u in utilities] for f in lotteries]
    return allocate_eu_matrix(eu)


def allocate_eu_matrix(
    eu: list[list[float]] | tuple[tuple[float, ...], ...]
) -> Allocation:
    """Match rows (lotteries) to columns (utilities) of a square EU matrix.

    Stage k finds the pure saddle of the matrix restricted to the
    still-unmatched rows and columns, records that pair, and removes its
    row and column. A stage without a pure saddle falls back to the
    maximin row paired with its minimizing column and is flagged in the
    diagnostics.
    """
    if not eu or len(eu) != len(eu[0]):
        raise ValueError(
            "allocation needs equally many lotteries and utilities, at least one "
            f"each; got {len(eu)} lotteries and {len(eu[0]) if eu else 0} utilities"
        )
    live_rows = list(range(len(eu)))
    live_cols = list(range(len(eu)))
    pairs: list[tuple[int, int, float]] = []
    diagnostics: list[StageDiagnostic] = []
    stage = 0
    while live_rows:
        sub = [[eu[i][j] for j in live_cols] for i in live_rows]
        found = find_pure_saddle(sub)
        if found.exists:
            i, j = live_rows[found.row], live_cols[found.col]
        else:
            # maximin row, then its smallest column: keeps the row side's
            # guarantee and stays deterministic
            r = max(range(len(sub)), key=lambda k: (min(sub[k]), -k))
            c = min(range(len(sub[r])), key=lambda k: (sub[r][k], k))
            i, j = live_rows[r], live_cols[c]
        pairs.append((i, j, eu[i][j]))
        diagnostics.append(
            StageDiagnostic(
                stage=stage,
                pure_saddle=found.exists,
                maximin=found.maximin,
                minimax=found.minimax,
            )
        )
        live_rows.remove(i)
        live_cols.remove(j)
        stage += 1
    return Allocation(pairs=tuple(pairs), stage_diagnostics=tuple(diagnostics))


def allocation_sums(
    allocation: Allocation, matrix: EvalMatrix
) -> tuple[float, float, float]:
    """Totals of the matched cells: (sum of CE, sum of AE, sum of EU)."""
    sum_ce = sum(matrix.ce[i][j] for i, j, _ in allocation.pairs)
    sum_ae = sum(matrix.ae[i][j] for i, j, _ in allocation.pairs)
    sum_eu = sum(matrix.eu[i][j] for i, j, _ in allocation.pairs)
    return sum_ce, sum_ae, sum_eu
