"""Randomized exact identity suites.

Every suite draws seeded random inputs, evaluates both sides of an
algebraic identity in exact arithmetic, and returns a failure message or
None; there is no tolerance anywhere.  Each suite draws from its own
stream, `random.Random(f"{seed}:{name}")`, so the suites run beside it
do not change its draws.
"""

import random
import time

from forms import (coordinate_field, exterior_derivative, interior_product,
                   lie_derivative, lie_derivative_direct, pair_to_form,
                   volume_form, wedge)
from randgen import (rand_divergence_free_field, rand_field, rand_form,
                     rand_poly)
from suspvdp.fields import VectorField, divergence, lie_bracket
from suspvdp.lifts import lift, twist_field
from suspvdp.poly import Poly, PolyRing
from suspvdp.scalars import gr
from suspvdp.surface import divergence_on_suspension, is_tangent, make_suspension

GENERIC_RING = PolyRing(("x1", "x2", "x3"))
# the form and field suites draw their ring: the generic one, or the
# ambient ring of a suspension over C^2
_RINGS = (GENERIC_RING, PolyRing(("u", "v", "z1", "z2")))
_SUSPENSIONS = [make_suspension(2, f) for f in ("z1", "z1^2", "z1*z2 - 1")]
_F_RING = PolyRing(("z1", "z2"))          # wedge-decomposition draws f here


def cartan(rng):
    """Contract-then-differentiate formula against the slot-by-slot
    definition of the Lie derivative, on forms of every degree."""
    ring = rng.choice(_RINGS)
    theta = rand_field(ring, rng)
    a = rand_form(ring, rng, rng.randint(0, ring.nvars))
    diff = lie_derivative(theta, a) + \
        lie_derivative_direct(theta, a).scale(gr(-1))
    if not diff.is_zero:
        return f"Lie derivative mismatch on degree {a.degree}"
    return None


def dd_zero(rng):
    a = rand_form(rng.choice(_RINGS), rng, rng.randint(0, 2))
    if not exterior_derivative(exterior_derivative(a)).is_zero:
        return f"d(d a) != 0 on degree {a.degree}"
    return None


def antiderivation(rng):
    a = rand_form(GENERIC_RING, rng, rng.randint(0, 1))
    b = rand_form(GENERIC_RING, rng, rng.randint(0, 2))
    sign = gr(-1) if a.degree % 2 else gr(1)
    lhs = exterior_derivative(wedge(a, b))
    rhs = wedge(exterior_derivative(a), b) + \
        wedge(a, exterior_derivative(b)).scale(sign)
    if not (lhs + rhs.scale(gr(-1))).is_zero:
        return f"Leibniz rule fails on degrees ({a.degree}, {b.degree})"
    return None


def jacobi(rng):
    ring = rng.choice(_RINGS)
    x = rand_field(ring, rng, max_degree=3)
    y = rand_field(ring, rng, max_degree=3)
    z = rand_field(ring, rng, max_degree=3)
    total = lie_bracket(x, lie_bracket(y, z)) + \
        lie_bracket(y, lie_bracket(z, x)) + \
        lie_bracket(z, lie_bracket(x, y))
    if not total.is_zero:
        return "Jacobi sum is nonzero"
    return None


def divergence_leibniz(rng):
    """Divergence against Cartan's formula, then its product rule."""
    ring = rng.choice(_RINGS)
    theta, h = rand_field(ring, rng), rand_poly(ring, rng)
    volume = volume_form(ring)
    cartan = lie_derivative(theta, volume) - volume.scale(divergence(theta))
    if not cartan.is_zero:
        return "L_field(volume) != div(field) * volume"
    lhs = divergence(theta.scale(h))
    rhs = h * divergence(theta) + theta.apply(h)
    if not (lhs - rhs).is_zero:
        return "div(h*field) != h*div(field) + field(h)"
    return None


def bracket_form(rng):
    """For divergence-free fields, contracting the bracket into the volume
    form is the exterior derivative of the double contraction."""
    ring = rng.choice(_RINGS)
    nu = rand_divergence_free_field(ring, rng, max_degree=3)
    mu = rand_divergence_free_field(ring, rng, max_degree=3)
    lhs = interior_product(lie_bracket(nu, mu), volume_form(ring))
    rhs = exterior_derivative(pair_to_form(nu, mu))
    if not (lhs + rhs.scale(gr(-1))).is_zero:
        return "bracket contraction disagrees with d of the pair form"
    return None


def lift_divergence(rng):
    """Both side lifts of a divergence-free base field stay tangent with
    zero divergence for the induced volume; twists do too."""
    ctx = rng.choice(_SUSPENSIONS)
    theta = rand_divergence_free_field(ctx.base_ring, rng, max_degree=3)
    for side in ("u", "v"):
        lifted = lift(theta, ctx, side)
        if not is_tangent(lifted, ctx).is_zero:
            return f"side {side} lift is not strictly tangent"
        if not divergence_on_suspension(lifted, ctx).is_zero:
            return f"side {side} lift has nonzero divergence"
    h = rand_poly(ctx.base_ring, rng, max_degree=3)
    if not divergence_on_suspension(twist_field(ctx, h), ctx).is_zero:
        return "twist field has nonzero divergence"
    return None


def _bivector(a, b, nvars: int):
    out = {}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            p = a[i] * b[j] - a[j] * b[i]
            if not p.is_zero:
                out[(i, j)] = p
    return out


def wedge_decomposition(rng):
    """Dropping the dv-components of the wedge of two opposite-side lifts
    leaves uv times the base wedge minus a correction along d_u."""
    f = rand_poly(_F_RING, rng, max_degree=3)
    if f.is_constant():
        return None                       # suspension needs nonconstant f
    ctx = make_suspension(2, f)
    alpha = rand_field(ctx.base_ring, rng, max_degree=3)
    beta = rand_field(ctx.base_ring, rng, max_degree=3)
    lifted_a = lift(alpha, ctx, "u").coeffs
    lifted_b = lift(beta, ctx, "v").coeffs
    nvars = ctx.ring.nvars
    projected = {key: p for key, p in
                 _bivector(lifted_a, lifted_b, nvars).items()
                 if 1 not in key}

    ext = ctx.ring
    a_ext = [ext.zero(), ext.zero()] + \
        [c.extend_to(ext) for c in alpha.coeffs]
    b_ext = [ext.zero(), ext.zero()] + \
        [c.extend_to(ext) for c in beta.coeffs]
    du = [ext.one() if i == 0 else ext.zero() for i in range(nvars)]
    uv = ext.var("u") * ext.var("v")
    u_af = ext.var("u") * alpha.apply(ctx.f_base).extend_to(ext)
    want = {}
    for key, p in _bivector(a_ext, b_ext, nvars).items():
        want[key] = uv * p
    for key, p in _bivector(b_ext, du, nvars).items():
        want[key] = want.get(key, ext.zero()) - u_af * p
    keys = set(projected) | set(want)
    for key in keys:
        lhs = projected.get(key, ext.zero())
        rhs = want.get(key, ext.zero())
        if not (lhs - rhs).is_zero:
            return f"wedge component {key} disagrees"
    return None


def compatible_bracket_failure(nu: VectorField, mu: VectorField, h: Poly,
                               f: Poly, g: Poly) -> str | None:
    """Check the bracket identity expressing a scaled field as a
    difference of brackets,

        f*g*nu(h) * mu  ==  [f*nu, g*h*mu] - [f*h*nu, g*mu],

    which holds when nu(h) and f lie in Ker nu and h and g in Ker mu.
    Returns the first failed precondition or the failed identity, or None
    when everything holds."""
    preconditions = (("nu(h) in Ker nu", nu.apply(nu.apply(h))),
                     ("h in Ker mu", mu.apply(h)),
                     ("f in Ker nu", nu.apply(f)),
                     ("g in Ker mu", mu.apply(g)))
    for label, value in preconditions:
        if not value.is_zero:
            return f"precondition {label} fails"
    lhs = mu.scale(f * g * nu.apply(h))
    rhs = lie_bracket(nu.scale(f), mu.scale(g * h)) - \
        lie_bracket(nu.scale(f * h), mu.scale(g))
    if not (lhs - rhs).is_zero:
        return "f*g*nu(h)*mu != [f*nu, g*h*mu] - [f*h*nu, g*mu]"
    return None


def compatible_bracket(rng):
    """The bracket identity on coordinate fields nu = d_xi, mu = d_xj with
    h, f, g drawn to meet its kernel preconditions by construction."""
    ring = GENERIC_RING
    i, j = rng.sample(range(3), 2)
    k = 3 - i - j
    nu = coordinate_field(ring, i)
    mu = coordinate_field(ring, j)
    h = rand_poly(ring, rng, max_degree=2, indices=[k]) * ring.var(i) + \
        rand_poly(ring, rng, max_degree=3, indices=[k])
    f = rand_poly(ring, rng, max_degree=3, indices=[j, k])
    g = rand_poly(ring, rng, max_degree=3, indices=[i, k])
    return compatible_bracket_failure(nu, mu, h, f, g)


SUITES = {"cartan": cartan, "dd-zero": dd_zero,
          "antiderivation": antiderivation, "jacobi": jacobi,
          "divergence-leibniz": divergence_leibniz,
          "bracket-form": bracket_form, "lift-divergence": lift_divergence,
          "wedge-decomposition": wedge_decomposition,
          "compatible-bracket": compatible_bracket}


def suite_failures(name: str, trials: int, seed: int) -> list[str]:
    """The failed trials of suite `name`, run on its own stream."""
    body, rng = SUITES[name], random.Random(f"{seed}:{name}")
    return [f"trial {k}: {msg}" for k in range(trials)
            if (msg := body(rng)) is not None]


def test_all_suites_pass_at_full_trial_count():
    start = time.perf_counter()
    for name in SUITES:
        assert suite_failures(name, 200, 0) == [], name
    assert time.perf_counter() - start < 60.0


def test_compatible_bracket_identity():
    ring = PolyRing(("z1", "z2"))
    nu = coordinate_field(ring, "z1")
    mu = coordinate_field(ring, "z2")
    z1, z2 = ring.parse("z1"), ring.parse("z2")
    assert compatible_bracket_failure(nu, mu, z1, z2, z1) is None
    assert compatible_bracket_failure(nu, mu, z1, ring.one(), ring.one()) is None


def test_compatible_bracket_reports_precondition():
    ring = PolyRing(("z1", "z2"))
    nu = coordinate_field(ring, "z1")
    mu = coordinate_field(ring, "z2")
    got = compatible_bracket_failure(nu, mu, ring.parse("z2"), ring.one(),
                                     ring.one())
    assert got == "precondition h in Ker mu fails"


def test_compatible_bracket_random_tuples():
    # the suite draws h, f, g inside the kernels; every trial must pass
    assert suite_failures("compatible-bracket", 50, 17) == []
