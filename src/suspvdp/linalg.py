"""Exact linear algebra over the Gaussian rationals.

Exact Gauss-Jordan elimination over Q(i) with the leftmost-nonzero pivot
rule; row operations touch only the nonzero columns of the pivot row, so
sparse systems cost little more than their nonzeros.  There are no
numerical heuristics anywhere: rank, solving and nullspace computations
are exact, which is what makes the downstream certificates trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import GaussianRational, ONE, ZERO

Vector = list[GaussianRational]


@dataclass
class ExactMatrix:
    """Dense matrix of GaussianRational entries, stored by rows."""

    entries: list[Vector]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def copy(self) -> "ExactMatrix":
        return ExactMatrix([list(row) for row in self.entries])

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        return ExactMatrix([list(row) for row in rows])


def _eliminate(m: ExactMatrix, pivot_cols: int) -> list[tuple[int, int]]:
    """Reduce `m` in place to reduced row echelon form, choosing pivots
    only among the first `pivot_cols` columns.  Returns (row, col) pivots."""
    rows, cols = m.nrows, m.ncols
    e = m.entries
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(min(pivot_cols, cols)):
        pivot_row = None
        for i in range(r, rows):
            if not e[i][c].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        e[r], e[pivot_row] = e[pivot_row], e[r]
        row = e[r]
        inv = ONE / row[c]
        support = [j for j, x in enumerate(row) if not x.is_zero]
        for j in support:
            row[j] = row[j] * inv
        for i in range(rows):
            if i != r and not e[i][c].is_zero:
                other = e[i]
                factor = other[c]
                for j in support:
                    other[j] = other[j] - factor * row[j]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    return pivots


def rref(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    out = m.copy()
    pivots = _eliminate(out, out.ncols)
    return out, [c for _, c in pivots]


def exact_rank(m: ExactMatrix) -> int:
    out = m.copy()
    return len(_eliminate(out, out.ncols))


def nullspace(m: ExactMatrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    reduced, pivot_cols = rref(m)
    cols = m.ncols
    pivot_of_col = {c: r for r, c in enumerate(pivot_cols)}
    basis = []
    for free in range(cols):
        if free in pivot_of_col:
            continue
        vec = [ZERO] * cols
        vec[free] = ONE
        for c, r in pivot_of_col.items():
            vec[c] = -reduced.entries[r][free]
        basis.append(vec)
    return basis


def solve_columns(a: ExactMatrix, targets: list[Vector]) -> list[Vector | None]:
    """Solve a*x = t for each target column t, exactly.

    Returns one solution per target (free variables set to zero) or None
    where the system is inconsistent.  One elimination serves all targets.
    """
    if any(len(t) != a.nrows for t in targets):
        raise ValueError("target length must equal the row count")
    ncols = a.ncols
    aug = ExactMatrix([list(row) + [t[i] for t in targets]
                       for i, row in enumerate(a.entries)])
    if not a.entries:
        aug = ExactMatrix([])
    pivots = _eliminate(aug, ncols)
    pivot_rows = {r for r, _ in pivots}
    out: list[Vector | None] = []
    for j in range(len(targets)):
        col = ncols + j
        consistent = all(
            aug.entries[i][col].is_zero
            for i in range(aug.nrows) if i not in pivot_rows)
        if not consistent:
            out.append(None)
            continue
        x = [ZERO] * ncols
        for r, c in pivots:
            x[c] = aug.entries[r][col]
        out.append(x)
    return out


def express_in_span(basis: list[Vector], vector: Vector) -> Vector | None:
    """Coefficients writing `vector` over `basis` (columns), or None."""
    if not basis:
        return [] if all(x.is_zero for x in vector) else None
    cols = len(basis)
    rows = len(vector)
    if any(len(b) != rows for b in basis):
        raise ValueError("basis vectors must match the target length")
    a = ExactMatrix([[basis[j][i] for j in range(cols)] for i in range(rows)])
    return solve_columns(a, [vector])[0]
