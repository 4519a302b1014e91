"""Compiled evaluators and the generated RK4 loop against the
interpreted reference loops.

The compiled complex functions promise the same floating-point
operations in the same order as the loops below, so results are compared
bit for bit (hex of both parts), and a loop that raises must raise the
same error type.  The exact ones must return the loop's exact values.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from suspvdp.approx import Dictionary, DictionaryEntry, fitted_evaluator
from suspvdp.fields import VectorField
from suspvdp.lifts import rk4_flow, spanning_plan
from suspvdp.poly import (COMPLEX, EXACT, Poly, PolyError, PolyRing,
                          compile_complex_sum, compile_values)
from suspvdp.scalars import ZERO, GaussianRational, gr
from suspvdp.surface import (SamplingSpec, SuspensionField, basepoint_search,
                             make_suspension)

R = PolyRing(("u", "v", "z1", "z2"))


def poly(ring, terms) -> Poly:
    """The polynomial with these terms, in this order, zeros dropped."""
    return Poly(ring, {e: c for e, c in terms.items() if not c.is_zero})


def reference_value(p, values) -> complex:
    """The interpreted loop the compiled evaluators reproduce."""
    if len(values) != p.ring.nvars:
        raise PolyError("wrong number of coordinates")
    total = 0j
    for e, c in p.terms.items():
        term = c.to_complex()
        for i, k in enumerate(e):
            if k:
                term *= complex(values[i]) ** k
        total += term
    return total


def reference_exact(p, values) -> GaussianRational:
    """The interpreted exact loop the `EXACT` evaluators replaced."""
    if len(values) != p.ring.nvars:
        raise PolyError("wrong number of coordinates")
    values = [x if isinstance(x, GaussianRational) else gr(x) for x in values]
    total = ZERO
    for e, c in p.terms.items():
        term = c
        for i, k in enumerate(e):
            if k:
                term = term * values[i] ** k
        total = total + term
    return total


def reference_sum(weights, rows, values) -> list[complex]:
    out = [0j] * len(values)
    for w, row in zip(weights, rows):
        for i, p in enumerate(row):
            out[i] += w * reference_value(p, values)
    return out


def bits(compute):
    """Hex of every part of the results, or the type of the error raised."""
    try:
        return [(z.real.hex(), z.imag.hex()) for z in compute()]
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__


SCALARS = st.builds(lambda a, b, d: gr(Fraction(a, d), Fraction(b, d)),
                    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 7))
# exponents 0..3 cover constants, exponent 1 and real powers
TERMS = st.dictionaries(st.tuples(*[st.integers(0, 3)] * R.nvars), SCALARS,
                        max_size=4)
POLYS = TERMS.map(lambda t: poly(R, t))      # includes the zero polynomial
INF, NAN = float("inf"), float("nan")
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, INF, -INF, NAN]),
                  st.floats(-4, 4), st.floats())
COORDS = st.lists(st.builds(complex, PARTS, PARTS), min_size=R.nvars,
                  max_size=R.nvars)
WEIGHT_PARTS = st.one_of(st.floats(-3, 3), st.sampled_from([INF, -INF, NAN]))
WEIGHTS = st.builds(complex, WEIGHT_PARTS, WEIGHT_PARTS)


@settings(max_examples=150)
@given(st.lists(POLYS, min_size=1, max_size=4), COORDS)
# x ** 1 raises OverflowError for an infinite part where x itself would not
@example([R.parse("u + 2*v")], [complex(INF, 0.0), 1, 1, 1])
def test_compiled_polys_match_loop_bit_for_bit(polys, coords):
    want = bits(lambda: [reference_value(p, coords) for p in polys])
    assert bits(lambda: compile_values(R, polys, COMPLEX)(coords)) == want
    assert bits(lambda: [p.evaluate_complex(coords) for p in polys]) == want


# exact arguments: Gaussian rationals, ints and Fractions, one coordinate
# short, a full point and one coordinate too many
EXACT_ARGS = st.lists(
    st.one_of(SCALARS, st.integers(-9, 9),
              st.fractions(-4, 4, max_denominator=7)),
    min_size=R.nvars - 1, max_size=R.nvars + 1)


@settings(max_examples=100)
@given(st.lists(POLYS, min_size=1, max_size=4), EXACT_ARGS)
@example([R.zero()], [2, Fraction(1, 3), gr(0, 1), 0])
@example([R.parse("u*v - z1^3"), R.zero()], [1, 2, 3])
def test_exact_evaluator_matches_loop(polys, coords):
    evaluate = compile_values(R, polys, EXACT)
    if len(coords) != R.nvars:
        for compute in (lambda: evaluate(coords),
                        lambda: polys[0].evaluate_exact(coords),
                        lambda: reference_exact(polys[0], coords)):
            with pytest.raises(PolyError, match="wrong number of coordinates"):
                compute()
        return
    want = [reference_exact(p, coords) for p in polys]
    got = evaluate(coords)
    assert got == want and all(type(v) is GaussianRational for v in got)
    assert [p.evaluate_exact(coords) for p in polys] == want
    coeffs = tuple((polys * R.nvars)[:R.nvars])
    assert VectorField(R, coeffs).evaluate_exact(coords) == \
        [reference_exact(p, coords) for p in coeffs]


@settings(max_examples=100)
@given(st.lists(st.tuples(WEIGHTS, st.lists(POLYS, min_size=R.nvars,
                                            max_size=R.nvars)),
                max_size=4), COORDS)
def test_compiled_weighted_sum_matches_loop_bit_for_bit(weighted, coords):
    weights = [w for w, _ in weighted]
    rows = [row for _, row in weighted]
    want = bits(lambda: reference_sum(weights, rows, coords))
    assert bits(lambda: compile_complex_sum(R, weights, rows)(coords)) == want


@settings(max_examples=60)
@given(st.lists(POLYS, min_size=R.nvars, max_size=R.nvars), COORDS)
def test_field_evaluation_matches_loop_bit_for_bit(coeffs, coords):
    theta = VectorField(R, tuple(coeffs))
    want = bits(lambda: [reference_value(c, coords) for c in coeffs])
    assert bits(lambda: theta.evaluate_complex(coords)) == want
    assert bits(lambda: theta.evaluate_complex(coords)) == want   # cached


def test_long_sums_split_across_lines_keep_their_order():
    p = poly(R, {(k, 0, 0, 0): gr(Fraction(1, k + 1), k % 3 - 1)
                 for k in range(100)})
    for x in (0.5 - 0.25j, -1.0 + 0.0j, complex(0.0, -0.0)):
        coords = [x, 1, 2, 3]
        assert bits(lambda: compile_values(R, [p], COMPLEX)(coords)) == \
            bits(lambda: [reference_value(p, coords)])


def test_fitted_evaluator_matches_loop_and_drops_zero_weights():
    ctx = make_suspension(2, "z1")
    fields = [VectorField(ctx.ring, tuple(ctx.ring.parse(t) for t in texts))
              for texts in (("u*z1", "-v*z1", "0", "1/2*z2^2"),
                            ("0", "u^2 - 3i*z2", "v", "0"),
                            ("z1*z2", "0", "u", "u*v"))]
    dictionary = Dictionary(ctx, [
        DictionaryEntry(SuspensionField(f, ctx.ring.zero()), f"e{k}", "test")
        for k, f in enumerate(fields)])
    coeffs = [0.5 - 2j, 0j, -1.25 + 0.5j]
    fitted = fitted_evaluator(dictionary, coeffs)
    kept = [(w, f.coeffs) for w, f in zip(coeffs, fields) if abs(w) > 0]
    for coords in ([0.3 + 1j, -2, 0.0, 1.5j], [complex(0.0, -0.0)] * 4):
        assert bits(lambda: fitted(coords)) == bits(lambda: reference_sum(
            [w for w, _ in kept], [row for _, row in kept], coords))


def test_wrong_coordinate_count_still_raises():
    p = R.parse("u*v - z1")
    theta = VectorField(R, (p, R.zero(), R.one(), p))
    for bad in ([1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(PolyError, match="wrong number of coordinates"):
            p.evaluate_complex(bad)
        with pytest.raises(PolyError, match="wrong number of coordinates"):
            theta.evaluate_complex(bad)
        with pytest.raises(PolyError, match="wrong number of coordinates"):
            compile_complex_sum(R, [1j], [theta.coeffs])(bad)
        with pytest.raises(PolyError, match="wrong number of coordinates"):
            theta.evaluate_exact(bad)
        with pytest.raises(PolyError, match="wrong number of coordinates"):
            p.evaluate_exact(bad)


def test_cached_evaluators_leave_identity_copy_and_pickle_alone():
    p = R.parse("(1/2 + i)*u^2*z1 - v + 3")
    theta = VectorField(R, (p, -p, R.var("z2"), R.zero()))
    fresh_p = R.parse(str(p))
    fresh_theta = VectorField(R, theta.coeffs)
    plain = pickle.dumps(theta), pickle.dumps(p)
    coords = [1 + 1j, 2, -0.5j, 0.25]
    point = [gr(1, 1), 2, Fraction(-1, 2), gr(0, 3)]
    for owner in (p, theta):
        owner.evaluate_complex(coords)
        owner.evaluate_exact(point)
        assert set(vars(owner)["_compiled"]) == {COMPLEX, EXACT}

    assert p == fresh_p and hash(p) == hash(fresh_p)
    assert theta == fresh_theta and hash(theta) == hash(fresh_theta)
    assert (pickle.dumps(theta), pickle.dumps(p)) == plain
    for owner in (theta, p):
        for clone in (copy.copy(owner), copy.deepcopy(owner),
                      pickle.loads(pickle.dumps(owner))):
            assert clone == owner and hash(clone) == hash(owner)
            assert "_compiled" not in vars(clone)
            assert clone.evaluate_complex(coords) == \
                owner.evaluate_complex(coords)
            assert clone.evaluate_exact(point) == owner.evaluate_exact(point)


def test_spanning_plan_keeps_its_exact_evaluator_out_of_copies():
    ctx = make_suspension(2, "z1")
    alpha = VectorField.from_texts(ctx.base_ring, ["1", "0"])
    beta = VectorField.from_texts(ctx.base_ring, ["0", "1"])
    gens = [ctx.base_ring.one()]
    plan = spanning_plan([(alpha, beta, gens)], ctx)
    points, _ = basepoint_search(ctx, SamplingSpec(count=2, seed=3), [gens])
    plain = pickle.dumps(plan)
    families = [plan.at(p) for p in points]
    evaluate = vars(plan)["_compiled"][EXACT]
    assert [plan.at(p) for p in points] == families
    assert vars(plan)["_compiled"][EXACT] is evaluate      # compiled once
    assert pickle.dumps(plan) == plain
    for clone in (copy.copy(plan), copy.deepcopy(plan),
                  pickle.loads(pickle.dumps(plan))):
        assert clone == plan and "_compiled" not in vars(clone)
        assert [clone.at(p) for p in points] == families


def test_field_exact_evaluation_matches_each_coefficient():
    theta = VectorField(R, tuple(R.parse(t) for t in (
        "u^3*z1 - 2*v", "(1/3 - i)*z1^2*z2^2", "0", "u*v*z1*z2 + 5")))
    point = (gr(2, 1), gr(Fraction(-1, 3)), gr(0, 2), gr(Fraction(5, 2), -1))
    assert theta.evaluate_exact(point) == \
        [c.evaluate_exact(point) for c in theta.coeffs]
    assert theta.evaluate_exact([2, 0, 1, 3]) == \
        [c.evaluate_exact([2, 0, 1, 3]) for c in theta.coeffs]


def test_stepwise_integration_ends_where_one_pass_ends():
    # volume_audit takes the end point of an even-step flow from its
    # Simpson path: single steps of t/steps land on the full pass bit for bit
    theta = VectorField(R, tuple(R.parse(t) for t in (
        "u*z1", "-v*z1", "z2", "z1^2")))
    start = [0.7 + 0.1j, -0.4 + 1j, 0.3j, 1.1]
    t, steps = 0.25, 64
    x = list(start)
    for _ in range(steps):
        x = rk4_flow(theta.evaluate_complex, x, t / steps, 1)
    end = rk4_flow(theta.evaluate_complex, start, t, steps)
    assert bits(lambda: x) == bits(lambda: end)


def test_repeated_polynomials_are_evaluated_once():
    p = R.parse("u*z1 - 3*v + 1/2")
    # equal to p, but summed in another order, so it keeps its own value
    q = poly(R, dict(reversed(list(p.terms.items()))))
    assert q == p and list(q.terms) != list(p.terms)
    rows = [[p, q, p, R.zero()], [q, p, p, R.one()]]
    weights = [0.5 - 1j, 2.0]
    fn = compile_complex_sum(R, weights, rows)
    values = {n for n in fn.field.__code__.co_varnames if n.startswith("t")}
    assert len(values) == 3                     # p, q and the constant 1
    for coords in ([0.3 + 1j, -2, 1e-3, 1.5j], [complex(0.0, -0.0)] * 4,
                   [1e154, 1e154j, 1e-300, -7]):
        assert bits(lambda: fn(coords)) == \
            bits(lambda: reference_sum(weights, rows, coords))
        assert bits(lambda: fn.field(*map(complex, coords))) == \
            bits(lambda: fn(coords))


def interpreted_rk4(eval_fn, start, t_total, steps):
    """The list loop the generated RK4 loop replaced, kept as its oracle."""
    x = [complex(c) for c in start]
    h = complex(t_total) / steps

    def scaled(vec):
        return [h * c for c in vec]

    for _ in range(steps):
        k1 = scaled(eval_fn(x))
        k2 = scaled(eval_fn([a + b / 2 for a, b in zip(x, k1)]))
        k3 = scaled(eval_fn([a + b / 2 for a, b in zip(x, k2)]))
        k4 = scaled(eval_fn([a + b for a, b in zip(x, k3)]))
        x = [a + (p + 2 * q + 2 * r + s) / 6
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    return x


@st.composite
def flow_cases(draw):
    """A ring of 1 to 5 variables, weighted rows of its polynomials drawn
    from a short list (so rows repeat polynomials), a start point, a
    complex time and 1 to 3 steps."""
    m = draw(st.integers(1, 5))
    ring = PolyRing(tuple(f"z{i + 1}" for i in range(m)))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * m), SCALARS,
                            max_size=3)
    polys = draw(st.lists(terms.map(lambda t: poly(ring, t)), min_size=1,
                          max_size=3))
    row = st.lists(st.sampled_from(polys), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    weights = draw(st.lists(WEIGHTS, min_size=len(rows),
                            max_size=len(rows)))
    start = draw(st.lists(st.builds(complex, PARTS, PARTS), min_size=m,
                          max_size=m))
    t = draw(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
    return ring, rows, weights, start, t, draw(st.integers(1, 3))


_RING3 = PolyRing(("z1", "z2", "z3"))
_ROW3 = [_RING3.parse("z2*z3 - 1"), _RING3.parse("-z1"), _RING3.parse("z1^2")]


@settings(max_examples=120, deadline=None)
@given(flow_cases())
@example((_RING3, [_ROW3, _ROW3, [_ROW3[1]] * 3], [1j, 0.5, -2 + 0j],
          [complex(0.0, -0.0), complex(-0.0, 0.0), 1 + 1j], 0.25 - 0.5j, 1))
def test_generated_rk4_loop_matches_list_loop_bit_for_bit(case):
    ring, rows, weights, start, t, steps = case
    theta = VectorField(ring, tuple(rows[0]))

    def field_ref(x):
        return [reference_value(p, x) for p in rows[0]]

    want = bits(lambda: interpreted_rk4(field_ref, start, t, steps))
    assert bits(lambda: rk4_flow(theta.evaluate_complex, start, t,
                                 steps)) == want
    assert bits(lambda: rk4_flow(compile_values(ring, rows[0], COMPLEX),
                                 start, t, steps)) == want

    summed = compile_complex_sum(ring, weights, rows)
    assert bits(lambda: rk4_flow(summed, start, t, steps)) == bits(
        lambda: interpreted_rk4(lambda x: reference_sum(weights, rows, x),
                                start, t, steps))
