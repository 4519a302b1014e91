import itertools
import random
from fractions import Fraction

from suspvdp.linalg import ExactMatrix, _eliminate, exact_rank, solve_columns
from suspvdp.scalars import GaussianRational, gr, I, ONE, ZERO


def det_laplace(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = gr(0)
    sign = ONE
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total = total + sign * rows[0][j] * det_laplace(minor)
        sign = -sign
    return total


def rank_by_minors(m: ExactMatrix) -> int:
    """Independent oracle: largest k with some nonzero k x k minor."""
    best = 0
    rows, cols = m.nrows, m.ncols
    for k in range(1, min(rows, cols) + 1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[m.entries[i][j] for j in ci] for i in ri]
                if not det_laplace(sub).is_zero:
                    best = k
                    break
            else:
                continue
            break
    return best


def rand_matrix(rng, rows, cols, pool):
    return ExactMatrix([[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])


def test_rank_matches_minor_oracle_small():
    pool = [ZERO, ONE, -ONE, I, -I]
    rng = random.Random(23)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols, pool)
        assert exact_rank(m) == rank_by_minors(m)


def test_rank_invariant_under_row_permutation_and_scaling():
    pool = [ZERO, ONE, -ONE, I, gr(2), gr(0, -3)]
    rng = random.Random(31)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(2, 5), rng.randint(2, 5), pool)
        r = exact_rank(m)
        rows = list(m.entries)
        rng.shuffle(rows)
        scale = rng.choice([gr(3), gr(0, 1), gr(-2, 5)])
        rows[0] = [scale * x for x in rows[0]]
        assert exact_rank(ExactMatrix(rows)) == r


def test_rref_pivots_are_leftmost():
    rows = [{1: ONE, 2: gr(2)}, {1: gr(2), 2: gr(4)}, {0: ONE, 2: ONE}]
    pivots = _eliminate(rows, 3)
    assert pivots == [(2, 0), (0, 1)]
    # pivot entries normalized to one, columns cleared, no rows swapped
    assert rows[2] == {0: ONE, 2: ONE}
    assert rows[0] == {1: ONE, 2: gr(2)}
    assert rows[1] == {}


def test_each_pivot_goes_on_the_sparsest_row_holding_its_column():
    rows = [{0: ONE, 1: ONE, 2: ONE}, {0: gr(2)}, {1: I}]
    pivots = _eliminate(rows, 3)
    assert pivots == [(1, 0), (2, 1), (0, 2)]
    assert rows == [{2: ONE}, {0: ONE}, {1: ONE}]


def test_solve_columns_consistency():
    a = ExactMatrix.from_rows([[ONE, gr(2)], [gr(3), gr(6)]])
    sol, bad = solve_columns(a, [[gr(5), gr(15)], [ONE, ZERO]])
    assert sol == {0: gr(5)}       # the free variable y is set to zero
    x, y = sol.get(0, ZERO), sol.get(1, ZERO)
    assert x + gr(2) * y == gr(5)
    assert gr(3) * x + gr(6) * y == gr(15)
    assert bad is None


def test_solve_columns_fuzz_against_construction():
    rng = random.Random(13)
    pool = [ZERO, ONE, -ONE, I, gr(2), gr(1, 1)]
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, pool)
        coeffs = [rng.choice(pool) for _ in range(cols)]
        target = [sum((row[j] * coeffs[j] for j in range(cols)), gr(0))
                  for row in a.entries]
        sol = solve_columns(a, [target])[0]
        assert sol is not None
        rebuilt = [sum((row[j] * c for j, c in sol.items()), gr(0))
                   for row in a.entries]
        assert rebuilt == target


def test_solve_columns_is_invariant_under_row_permutation():
    """The reduced row echelon form is unique, so permuting the rows of
    `a` and of the targets together changes no returned map; every map
    holds nonzero entries only, with its keys ascending."""
    rng = random.Random(47)
    # gr(0) is a zero that is not the shared ZERO object
    pool = [ZERO, gr(0), ONE, -ONE, I, gr(2), gr(1, -1), gr(Fraction(1, 3))]
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, rows, cols, pool)
        targets = [[rng.choice(pool) for _ in range(rows)]
                   for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:      # one target inside the span
            coeffs = [rng.choice(pool) for _ in range(cols)]
            targets.append([sum((row[j] * coeffs[j] for j in range(cols)),
                                ZERO) for row in a.entries])
        want = solve_columns(a, targets)
        for sol in want:
            if sol is not None:
                assert all(not c.is_zero for c in sol.values())
                assert list(sol) == sorted(sol)
        order = list(range(rows))
        rng.shuffle(order)
        shuffled = ExactMatrix([a.entries[i] for i in order])
        assert solve_columns(shuffled, [[t[i] for i in order]
                                        for t in targets]) == want
