"""The exact core against an independent computer algebra system: sympy
reduces modulo u*v - f, solves and ranks the same inputs.

Each oracle has a unique answer, so the two must agree exactly:

* the remainder of p modulo the single polynomial u*v - f, under lex
  with u > v > z, where the leading term of u*v - f is u*v;
* the solution of a consistent linear system with every free variable
  set to 0, read off the reduced row echelon form, which is unique;
* the rank of a matrix over the Gaussian rationals.
"""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

from suspvdp.linalg import ExactMatrix, exact_rank, span_solve
from suspvdp.poly import Poly, PolyRing
from suspvdp.scalars import ZERO, gr
from suspvdp.scenario import bundled_names, load_scenario

FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SCALARS = st.builds(gr, FRACTIONS, FRACTIONS)
NONZERO = SCALARS.filter(lambda c: not c.is_zero)
SPARSE = st.one_of(st.just(ZERO), NONZERO)     # zeros make ranks drop

CONTEXTS = {name: load_scenario(name).ctx for name in bundled_names()}


def to_sympy_scalar(c) -> sympy.Expr:
    def rational(q: Fraction) -> sympy.Rational:
        return sympy.Rational(q.numerator, q.denominator)
    return rational(c.re) + sympy.I * rational(c.im)


def to_sympy(p: Poly) -> sympy.Expr:
    gens = sympy.symbols(p.ring.variables)
    return sympy.Add(*(to_sympy_scalar(c) * sympy.Mul(
        *(g ** k for g, k in zip(gens, e))) for e, c in p.terms.items()))


def polys(ring: PolyRing, max_exponent: int = 3, max_terms: int = 5):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * ring.nvars)
    return st.dictionaries(exponents, NONZERO, max_size=max_terms).map(
        lambda terms: Poly(ring, terms))


@st.composite
def context_and_poly(draw):
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    return ctx, draw(polys(ctx.ring))


@settings(max_examples=60, deadline=None)
@given(context_and_poly())
def test_normal_form_is_the_lex_remainder_modulo_uv_minus_f(case):
    ctx, p = case
    gens = sympy.symbols(ctx.ring.variables)       # u, v, z1, ..., zn
    _, remainder = sympy.reduced(to_sympy(p), [to_sympy(ctx.defining)],
                                 *gens, order="lex")
    assert sympy.Poly(to_sympy(ctx.normal_form(p)), *gens) == \
        sympy.Poly(remainder, *gens)


def test_the_normal_form_oracle_covers_every_bundled_context():
    assert set(CONTEXTS) == {"danielewski", "plane", "circle", "hyperbola"}


XY = PolyRing(("x", "y"))


@st.composite
def span_systems(draw):
    """Column polynomials, one of them possibly a combination of the
    others (free variables), and targets in and out of their span."""
    columns = draw(st.lists(polys(XY, 2, 3), min_size=1, max_size=4))
    if len(columns) > 1 and draw(st.booleans()):
        weights = draw(st.lists(SCALARS, min_size=len(columns),
                                max_size=len(columns)))
        columns.append(sum((c.scale(w) for c, w in zip(columns, weights)),
                           XY.zero()))
    weights = draw(st.lists(SCALARS, min_size=len(columns),
                            max_size=len(columns)))
    inside = sum((c.scale(w) for c, w in zip(columns, weights)), XY.zero())
    targets = [inside, *draw(st.lists(polys(XY, 2, 3), max_size=2))]
    return columns, targets


@settings(max_examples=60, deadline=None)
@given(span_systems())
@example(([XY.zero()], [XY.zero()]))       # no rows: the width must stay
def test_span_solve_is_the_reduced_row_echelon_solution(system):
    columns, targets = system
    x, y = sympy.symbols("x y")
    col_polys = [sympy.Poly(to_sympy(c), x, y) for c in columns]
    target_polys = [sympy.Poly(to_sympy(t), x, y) for t in targets]
    monomials = sorted({m for q in (*col_polys, *target_polys)
                        for m in q.monoms()})
    matrix = sympy.Matrix([[q.coeff_monomial(m) for q in col_polys]
                           for m in monomials])
    got = span_solve(columns, targets)
    assert len(got) == len(targets)
    for q, mine in zip(target_polys, got):
        rhs = sympy.Matrix([q.coeff_monomial(m) for m in monomials])
        try:
            solution, params = matrix.gauss_jordan_solve(rhs)
        except ValueError:                    # no solution
            assert mine is None
            continue
        want = solution.subs({tau: 0 for tau in params})
        assert mine is not None
        dense = [mine.get(j, ZERO) for j in range(len(columns))]
        assert [to_sympy_scalar(c) for c in dense] == \
            [sympy.expand(w) for w in want]


@st.composite
def matrices(draw):
    """Gaussian-rational matrices, half of them a product through a
    narrower inner dimension, so rank-deficient by construction."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return [draw(st.lists(SPARSE, min_size=cols, max_size=cols))
                for _ in range(rows)]
    inner = draw(st.integers(0, min(rows, cols) - 1))
    a = [draw(st.lists(SPARSE, min_size=inner, max_size=inner))
         for _ in range(rows)]
    b = [draw(st.lists(SPARSE, min_size=cols, max_size=cols))
         for _ in range(inner)]
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), ZERO)
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=100, deadline=None)
@given(matrices())
@example([[gr(1), gr(0, 1)], [gr(0, 1), gr(-1)]])      # row 2 = i * row 1
@example([[gr(Fraction(1, 2)), gr(1, 1)], [gr(1), gr(2, 2)]])
def test_exact_rank_is_the_sympy_rank(entries):
    want = sympy.Matrix([[to_sympy_scalar(c) for c in row]
                         for row in entries]).rank()
    assert exact_rank(ExactMatrix.from_rows(entries)) == want

