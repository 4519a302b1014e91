import random
from fractions import Fraction

import pytest

from suspvdp.poly import ParseError, Poly, PolyError, PolyRing
from suspvdp.scalars import gr, ONE

R = PolyRing(("u", "v", "z1", "z2"))


def rand_scalar(rng):
    return gr(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
              Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])))


def rand_poly(ring, rng, max_degree=4, max_terms=4):
    p = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(ring.nvars)] += 1
        p = p + ring.monomial(e, rand_scalar(rng))
    return p


def test_zero_terms_never_stored():
    p = R.parse("u + v - u - v")
    assert p.is_zero and p.terms == {}
    q = R.parse("2*u") - R.parse("u") - R.parse("u")
    assert q.terms == {}


def test_partial_derivative_example():
    p = R.parse("z1^2*z2 + u")
    assert p.derivative("z1") == R.parse("2*z1*z2")
    assert p.derivative("u") == R.one()
    assert p.derivative("z2") == R.parse("z1^2")


def test_product_degree_and_commutativity():
    rng = random.Random(3)
    for _ in range(50):
        a, b = rand_poly(R, rng), rand_poly(R, rng)
        assert a * b == b * a
        if not a.is_zero and not b.is_zero:
            assert (a * b).total_degree() <= a.total_degree() + b.total_degree()


def test_distributivity_fuzz():
    rng = random.Random(4)
    for _ in range(100):
        a, b, c = (rand_poly(R, rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rand_poly(R, rng), rand_poly(R, rng)
        pt = [rand_scalar(rng) for _ in range(R.nvars)]
        assert (a + b).evaluate_exact(pt) == a.evaluate_exact(pt) + b.evaluate_exact(pt)
        assert (a * b).evaluate_exact(pt) == a.evaluate_exact(pt) * b.evaluate_exact(pt)


def test_parse_example_from_grammar():
    p = R.parse("(1/2 + 3i)*z1^2*v - u")
    assert p.terms[(0, 1, 2, 0)] == gr(Fraction(1, 2), 3)
    assert p.terms[(1, 0, 0, 0)] == gr(-1)
    # unicode minus parses the same way
    assert R.parse("(1/2 + 3i)*z1^2*v − u") == p


def test_parse_imaginary_literals():
    assert R.parse("3i") == R.const(gr(0, 3))
    assert R.parse("1/2i") == R.const(gr(0, Fraction(1, 2)))
    assert R.parse("-i") == R.const(gr(0, -1))
    assert R.parse("i^2") == R.const(gr(-1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        R.parse("z1^")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        R.parse("u + w")
    with pytest.raises(ParseError):
        R.parse("u + ")
    with pytest.raises(ParseError):
        R.parse("(u + v")
    with pytest.raises(ParseError):
        R.parse("u^(2)")


def test_print_parse_round_trip_fuzz():
    rng = random.Random(11)
    for _ in range(200):
        p = rand_poly(R, rng, max_degree=5, max_terms=6)
        assert R.parse(str(p)) == p


def test_round_trip_edge_cases():
    for text in ["0", "1", "-1", "i", "-i", "(1/2 + 3i)", "u*v*z1*z2",
                 "1 - i", "(1 - i)*u", "-1/2i", "2/3*u^4"]:
        p = R.parse(text)
        assert R.parse(str(p)) == p


def test_ring_mismatch_raises():
    other = PolyRing(("u", "v", "z1"))
    with pytest.raises(PolyError):
        R.parse("u") + other.parse("u")


def test_extend_and_restrict():
    base = PolyRing(("z1", "z2"))
    p = base.parse("z1*z2 - 1")
    q = p.extend_to(R)
    assert q.ring is R and q == R.parse("z1*z2 - 1")
    assert q.extend_to(base) == p
    # a variable the target lacks is accepted while unused, refused once used
    z1_only = PolyRing(("z1",))
    assert base.parse("z1 + 2").extend_to(z1_only) == z1_only.parse("z1 + 2")
    with pytest.raises(PolyError):
        R.parse("u").extend_to(base)
    with pytest.raises(PolyError):
        p.extend_to(z1_only)


def test_exponents_up_to_counts():
    ring = PolyRing(("x", "y"))
    found = list(ring.exponents_up_to(3))
    assert len(found) == 10  # C(3+2,2)
    assert len(set(found)) == 10
    only_x = list(ring.exponents_up_to(2, indices=[0]))
    assert only_x == [(0, 0), (1, 0), (2, 0)]
