import random

from forms import (DiffForm, coordinate_field, exterior_derivative,
                   interior_product, lie_derivative, lie_derivative_direct,
                   pair_to_form, sort_with_sign, volume_form, wedge)
from randgen import (rand_divergence_free_field, rand_field, rand_form,
                     rand_poly)
from suspvdp.fields import VectorField, divergence, lie_bracket
from suspvdp.poly import PolyRing

R = PolyRing(("u", "v", "z1", "z2"))
VOL = volume_form(R)


def field(*texts):
    return VectorField(R, tuple(R.parse(t) for t in texts))


def test_sort_with_sign():
    assert sort_with_sign((0, 1)) == ((0, 1), 1)
    assert sort_with_sign((1, 0)) == ((0, 1), -1)
    assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_sign((0, 0)) == ((0, 0), 0)


def test_apply_is_derivation():
    rng = random.Random(2)
    for _ in range(50):
        theta = rand_field(R, rng)
        p, q = rand_poly(R, rng), rand_poly(R, rng)
        assert theta.apply(p * q) == theta.apply(p) * q + p * theta.apply(q)


def test_bracket_acts_as_commutator():
    rng = random.Random(3)
    for _ in range(30):
        a, b = rand_field(R, rng, max_degree=3), rand_field(R, rng, max_degree=3)
        p = rand_poly(R, rng, max_degree=3)
        lhs = lie_bracket(a, b).apply(p)
        rhs = a.apply(b.apply(p)) - b.apply(a.apply(p))
        assert lhs == rhs


def test_bracket_jacobi_fuzz():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (rand_field(R, rng, max_degree=2, max_terms=2) for _ in range(3))
        total = lie_bracket(lie_bracket(a, b), c) + \
            lie_bracket(lie_bracket(b, c), a) + \
            lie_bracket(lie_bracket(c, a), b)
        assert total.is_zero


def test_interior_product_contracts_first_slot():
    du_dv = DiffForm(R, 2, {(0, 1): R.one()})
    d_u = coordinate_field(R, "u")
    assert interior_product(d_u, du_dv) == DiffForm(R, 1, {(1,): R.one()})
    d_v = coordinate_field(R, "v")
    assert interior_product(d_v, du_dv) == DiffForm(R, 1, {(0,): -R.one()})


def test_interior_product_radial_example():
    # contraction of u*d_u - v*d_v into du^dv gives u dv + v du
    theta = field("u", "-v", "0", "0")
    got = interior_product(theta, DiffForm(R, 2, {(0, 1): R.one()}))
    assert got == DiffForm(R, 1, {(0,): R.parse("v"), (1,): R.parse("u")})


def test_interior_product_antiderivation_fuzz():
    rng = random.Random(7)
    for _ in range(60):
        ka = rng.randint(1, 3)
        kb = rng.randint(0, R.nvars - ka)
        theta = rand_field(R, rng, max_degree=2)
        a = rand_form(R, rng, ka, max_poly_degree=2)
        b = rand_form(R, rng, kb, max_poly_degree=2)
        lhs = interior_product(theta, wedge(a, b))
        rhs = wedge(interior_product(theta, a), b)
        if kb > 0:
            tail = wedge(a, interior_product(theta, b))
            rhs = rhs + (tail if ka % 2 == 0 else -tail)
        assert lhs == rhs


def test_exterior_derivative_prepends():
    a = DiffForm(R, 1, {(1,): R.parse("u")})  # u dv
    assert exterior_derivative(a) == DiffForm(R, 2, {(0, 1): R.one()})


def test_d_after_d_vanishes_fuzz():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(0, R.nvars - 2)
        a = rand_form(R, rng, k)
        assert exterior_derivative(exterior_derivative(a)).is_zero


def test_wedge_supercommutes():
    rng = random.Random(13)
    for _ in range(40):
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_form(R, rng, ka), rand_form(R, rng, kb)
        sign = (-1) ** (ka * kb)
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        assert lhs == (rhs if sign == 1 else -rhs)


def test_cartan_formula_matches_direct_evaluation():
    rng = random.Random(17)
    for _ in range(60):
        k = rng.randint(0, R.nvars)
        theta = rand_field(R, rng, max_degree=3)
        a = rand_form(R, rng, k, max_poly_degree=3)
        assert lie_derivative(theta, a) == lie_derivative_direct(theta, a)


def test_lie_derivative_commutes_with_d_on_functions():
    rng = random.Random(19)
    for _ in range(60):
        theta = rand_field(R, rng)
        g = rand_poly(R, rng)
        lhs = lie_derivative(theta, exterior_derivative(DiffForm.from_function(g)))
        rhs = exterior_derivative(DiffForm.from_function(theta.apply(g)))
        assert lhs == rhs


def test_divergence_default_volume_is_coefficient_divergence():
    rng = random.Random(23)
    for _ in range(40):
        theta = rand_field(R, rng)
        expected = R.zero()
        for i, c in enumerate(theta.coeffs):
            expected = expected + c.derivative(i)
        assert divergence(theta) == expected
        assert lie_derivative(theta, VOL) == VOL.scale(expected)


def test_divergence_product_rule():
    rng = random.Random(29)
    for _ in range(40):
        theta = rand_field(R, rng, max_degree=3)
        h = rand_poly(R, rng, max_degree=3)
        lhs = divergence(theta.scale(h))
        rhs = h * divergence(theta) + theta.apply(h)
        assert lhs == rhs


def test_field_to_closed_form_example_and_closedness():
    ring2 = PolyRing(("u", "v"))
    theta = VectorField(ring2, (ring2.parse("u"), ring2.parse("-v")))
    assert divergence(theta).is_zero
    got = interior_product(theta, volume_form(ring2))
    assert got == DiffForm(ring2, 1, {(0,): ring2.parse("v"), (1,): ring2.parse("u")})
    assert exterior_derivative(got).is_zero


def test_field_to_closed_form_closed_fuzz():
    rng = random.Random(31)
    for _ in range(30):
        theta = rand_divergence_free_field(R, rng, max_degree=3)
        assert exterior_derivative(interior_product(theta, VOL)).is_zero


def test_pair_to_form_example():
    ring3 = PolyRing(("u", "v", "z1"))
    nu = coordinate_field(ring3, "u")
    mu = coordinate_field(ring3, "v")
    got = pair_to_form(nu, mu)
    assert got == DiffForm(ring3, 1, {(2,): -ring3.one()})


def test_bracket_contraction_identity_for_divergence_free_fields():
    rng = random.Random(37)
    for _ in range(40):
        nu = rand_divergence_free_field(R, rng, max_degree=3)
        mu = rand_divergence_free_field(R, rng, max_degree=3)
        lhs = interior_product(lie_bracket(nu, mu), VOL)
        rhs = exterior_derivative(pair_to_form(nu, mu))
        assert lhs == rhs
