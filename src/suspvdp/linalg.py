"""Exact linear algebra over the Gaussian rationals.

One Gauss-Jordan elimination over Q(i) serves rank and solving.  It works
on sparse rows, `{column: nonzero entry}` dicts: pivot columns are taken
leftmost first, each on the sparsest unused row holding it (Markowitz),
and a row update touches only the pivot row's stored entries.  The reduced
row echelon form is unique, so no result depends on the pivot choice.
Solutions are `{column: coefficient}` maps.  Everything is exact, which is
what makes the downstream certificates trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import GaussianRational, ONE, ZERO

Vector = list[GaussianRational]
Row = dict[int, GaussianRational]


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

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        return ExactMatrix([list(row) for row in rows])


def _sparse(values) -> Row:
    """The nonzero entries of `values` by index; the shared `ZERO` fill is
    skipped by identity before the exact test."""
    return {j: x for j, x in enumerate(values)
            if x is not ZERO and not x.is_zero}


def _eliminate(rows: list[Row], pivot_cols: int) -> list[tuple[int, int]]:
    """Reduce the sparse `rows` in place to reduced row echelon form,
    choosing pivots only among the columns below `pivot_cols`, with no
    row swaps.  Returns the (row, col) pivots in column order."""
    unused = set(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    for c in range(pivot_cols):
        holders = [i for i, row in enumerate(rows) if c in row]
        r = min((i for i in holders if i in unused), default=None,
                key=lambda i: len(rows[i]))
        if r is None:
            continue
        unused.remove(r)
        inv = ONE / rows[r][c]
        row = rows[r] = {j: x * inv for j, x in rows[r].items()}
        for other in (rows[i] for i in holders if i != r):
            factor = other[c]
            for j, x in row.items():
                y = other.get(j, ZERO) - factor * x
                if y.is_zero:
                    del other[j]
                else:
                    other[j] = y
        pivots.append((r, c))
    return pivots


def exact_rank(m: ExactMatrix) -> int:
    return len(_eliminate([_sparse(row) for row in m.entries], m.ncols))


def solve_columns(a: ExactMatrix, targets: list[Vector]) -> list[Row | None]:
    """Solve a*x = t for each target column t, exactly.

    Returns one solution per target (free variables set to zero) as a
    `{column: coefficient}` map of its nonzero entries, keys ascending,
    or None where the system is inconsistent.  One elimination serves all
    targets, which sit to the right of `a`.
    """
    if any(len(t) != a.nrows for t in targets):
        raise ValueError("target length must equal the row count")
    ncols = a.ncols
    rows = [_sparse(row) for row in a.entries]
    for k, t in enumerate(targets, ncols):
        for i, x in _sparse(t).items():
            rows[i][k] = x
    pivots = _eliminate(rows, ncols)
    out: list[Row | None] = [{} for _ in targets]
    for r, c in pivots:
        for j, x in rows[r].items():
            if j >= ncols:
                out[j - ncols][c] = x
    pivot_rows = {r for r, _ in pivots}
    for i, row in enumerate(rows):
        if i not in pivot_rows:     # a leftover row holds targets only
            for j in row:
                out[j - ncols] = None
    return out


def span_solve(columns, targets) -> list[Row | None]:
    """Write each target polynomial as a combination of the column
    polynomials: one row per monomial of their joint support, in sorted
    order, then `solve_columns`.  Returns one `{column: coefficient}` map
    per target (None where the target is outside the span)."""
    # where every polynomial is zero, one zero row keeps the matrix's width
    support = sorted({e for p in (*columns, *targets) for e in p.terms}) or [()]
    row_of = {e: i for i, e in enumerate(support)}
    matrix = ExactMatrix([[ZERO] * len(columns) for _ in support])
    for j, p in enumerate(columns):
        for e, c in p.terms.items():
            matrix.entries[row_of[e]][j] = c
    vectors = []
    for t in targets:
        vec = [ZERO] * len(support)
        for e, c in t.terms.items():
            vec[row_of[e]] = c
        vectors.append(vec)
    return solve_columns(matrix, vectors)
