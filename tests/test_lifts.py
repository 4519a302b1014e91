import cmath
import random
import time
from fractions import Fraction

import pytest

from randgen import rand_divergence_free_field, rand_poly
from suspvdp import lifts
from suspvdp.fields import VectorField, divergence
from suspvdp.lifts import (BasepointError, LiftError, LiftedFlowMap,
                           chart_jacobian_determinant, exponential_flow,
                           extend_trivially, flow_chart_jacobian, lift,
                           lifted_flow, rk4_flow, shear_pullback,
                           shown_complete, spanning_family, twist_field)
from suspvdp.linalg import ExactMatrix, exact_rank, solve_columns
from suspvdp.poly import PolyError, PolyRing
from suspvdp.scalars import ONE, ZERO, gr
from suspvdp.surface import (SamplingSpec, SuspensionError,
                             divergence_on_suspension, is_tangent,
                             make_suspension, sample_points, surface_point,
                             tangent_basis)


def base_field(ctx, *texts):
    return VectorField.from_texts(ctx.base_ring, texts)


def compose(p, ring, images):
    """p with each variable named in `images` replaced by its image, the
    others by the same-named variable of `ring`."""
    total = ring.zero()
    for e, c in p.terms.items():
        term = ring.const(c)
        for name, k in zip(p.ring.variables, e):
            term = term * images.get(name, ring.var(name)) ** k
        total = total + term
    return total


def test_extend_trivially():
    ctx = make_suspension(2, "z1")
    theta = base_field(ctx, "1", "0")
    ext = extend_trivially(theta, ctx)
    assert [str(c) for c in ext.coeffs] == ["0", "0", "1", "0"]
    # the extension applies to base functions through the embedding
    g = ctx.base_ring.parse("z1^2*z2")
    assert ext.apply(g.extend_to(ctx.ring)) == theta.apply(g).extend_to(ctx.ring)


def test_extension_preserves_divergence():
    ctx = make_suspension(2, "z1*z2 - 1")
    rng = random.Random(7)
    for _ in range(20):
        coeffs = tuple(rand_poly(ctx.base_ring, rng, max_degree=3)
                       for _ in range(2))
        theta = VectorField(ctx.base_ring, coeffs)
        ext = extend_trivially(theta, ctx)
        assert divergence(ext) == divergence(theta).extend_to(ctx.ring)


def test_lift_examples():
    ctx = make_suspension(2, "z1")
    d1, d2 = base_field(ctx, "1", "0"), base_field(ctx, "0", "1")
    up = lift(d1, ctx, "u")
    assert [str(c) for c in up.coeffs] == ["1", "0", "v", "0"]
    assert is_tangent(up, ctx).is_zero
    down = lift(d2, ctx, "v")
    assert [str(c) for c in down.coeffs] == ["0", "0", "0", "u"]

    ctx2 = make_suspension(1, "z1^2")
    up2 = lift(VectorField.from_texts(ctx2.base_ring, ["1"]), ctx2, "u")
    assert [str(c) for c in up2.coeffs] == ["2*z1", "0", "v"]


def test_lift_divergence_zero():
    rng = random.Random(11)
    for f in ("z1", "z1^2", "z1*z2 - 1"):
        ctx = make_suspension(2, f)
        for _ in range(20):
            theta = rand_divergence_free_field(ctx.base_ring, rng, max_degree=3)
            assert divergence(theta).is_zero
            for side in ("u", "v"):
                lifted = lift(theta, ctx, side)
                assert is_tangent(lifted, ctx).is_zero
                assert divergence_on_suspension(lifted, ctx).is_zero


def test_lift_divergence_transfers_scaled():
    # for a base field with nonzero divergence the side-u lift picks up v
    ctx = make_suspension(2, "z1")
    theta = base_field(ctx, "z1", "0")
    got = divergence_on_suspension(lift(theta, ctx, "u"), ctx)
    assert got == ctx.ring.parse("v")
    got_v = divergence_on_suspension(lift(theta, ctx, "v"), ctx)
    assert got_v == ctx.ring.parse("u")


# locally nilpotent but no shear chain: nilpotency indices 3 and 5 on z1
# and z2, and a lifted flow of degree 4 in t
NILPOTENT_NON_TRIANGULAR = ["2*z2 - 2*z1^2", "1 + 4*z1*z2 - 4*z1^3"]

# not locally nilpotent: (n, f, field)
NOT_NILPOTENT = [
    (2, "z1^2 + z2^2 - 1", ["z2", "-z1"]),
    (2, "z1*z2 - 1", ["z2^3", "-z1^3"]),
    (3, "z1*z2*z3 - 1", ["z2^2", "z3^2", "z1^2"]),
]


def test_flow_kind():
    # locally nilpotent fields have an exact series flow, others none
    ring = PolyRing(("z1", "z2"))
    for texts in (["1", "0"], ["z2", "0"], ["1", "z1"],
                  NILPOTENT_NON_TRIANGULAR):
        assert exponential_flow(VectorField.from_texts(ring, texts)) is not None
    for texts in (["z1", "0"], ["z2", "-z1"]):
        assert exponential_flow(VectorField.from_texts(ring, texts)) is None


def test_symbolic_flow_oracles():
    ring = PolyRing(("z1", "z2"))
    flow_ring = ring.with_extra("t")
    sols = exponential_flow(VectorField.from_texts(ring, ["z2", "0"]))
    assert sols[0] == flow_ring.parse("z1 + t*z2")
    assert sols[1] == flow_ring.parse("z2")

    # a chained dependency: z2 picks up t*z1 and t^2/2
    sols = exponential_flow(VectorField.from_texts(ring, ["1", "z1"]))
    assert sols[0] == flow_ring.parse("z1 + t")
    assert sols[1] == flow_ring.parse("z2 + z1*t + 1/2*t^2")

    assert exponential_flow(VectorField.from_texts(ring, ["z2", "-z1"])) is None


def test_exponential_flow_guard_is_the_triangular_bound():
    # [1, z1^2, z2^2]: z3 has index 1 + 2*(1 + 2*1) = 7, the bound D_3 for
    # degree 2 on three variables, and its series ends there
    ring = PolyRing(("z1", "z2", "z3"))
    sols = exponential_flow(VectorField.from_texts(ring, ["1", "z1^2", "z2^2"]))
    assert max(e[-1] for e in sols[2].terms) == 7
    # a field whose iterates outgrow the term guard is given up on
    assert exponential_flow(
        VectorField.from_texts(ring, ["z2^2", "z3^2", "z1^2"])) is None


def test_exponential_flow_term_guard(monkeypatch):
    # the series of [1, z1^3, z2^3] has 54 terms on the side-u lift
    ctx = make_suspension(3, "z3")
    lifted = lift(base_field(ctx, "1", "z1^3", "z2^3"), ctx, "u")
    assert sum(len(c.terms) for c in exponential_flow(lifted)) == 54
    monkeypatch.setattr(lifts, "SERIES_TERMS", 53)
    assert exponential_flow(lifted) is None


def test_flow_remainder_oracles():
    # the side-u component is u + t*g(z, t*v), g the remainder of
    # f(flow(z, t)) = f(z) + t*g(z, t) along the base flow
    for n, f, texts, want in [
            (1, "z1", ["1"], "u + t"),
            (1, "z1^2", ["1"], "u + 2*z1*t + v*t^2"),
            (2, "z1*z2", ["z2", "0"], "u + z2^2*t")]:
        ctx = make_suspension(n, f)
        fl = lifted_flow(base_field(ctx, *texts), ctx, "u")
        assert fl.symbolic
        assert fl.components[0] == fl.components[0].ring.parse(want)


def test_flow_remainder_at_time_zero():
    # random shear chains take the closed form, which solves the lifted
    # ODE on both sides; d/dt of the u component at t = 0, the remainder
    # g(z, 0), recovers the derivative of f along the field
    ctx = make_suspension(2, "z1^3*z2 + z2^2 - 1")
    rng = random.Random(3)
    for _ in range(20):
        c1 = rand_poly(ctx.base_ring, rng, max_degree=3, indices=[1])
        c2 = ctx.base_ring.const(gr(rng.randint(-2, 2)))
        theta = VectorField(ctx.base_ring, (c1, c2))
        for side in ("u", "v"):
            fl = lifted_flow(theta, ctx, side)
            assert fl.symbolic
            assert all(r.is_zero for r in flow_ode_residuals(ctx, theta, side))
        comp_u = lifted_flow(theta, ctx, "u").components[0]
        ring = comp_u.ring
        at_zero = compose(comp_u.derivative("t"), ring, {"t": ring.zero()})
        assert at_zero == theta.apply(ctx.f_base).extend_to(ring)


def test_flow_remainder_rejects_generic():
    # the rotation's lift is not locally nilpotent: no series, the
    # numeric fallback on the same lift
    ctx = make_suspension(2, "z1")
    rot = base_field(ctx, "z2", "-z1")
    assert exponential_flow(lift(rot, ctx, "u")) is None
    fl = lifted_flow(rot, ctx, "u")
    assert not fl.symbolic and fl.components is None


def test_non_triangular_nilpotent_field_takes_the_closed_form():
    ctx = make_suspension(2, "z1")
    theta = base_field(ctx, *NILPOTENT_NON_TRIANGULAR)
    for side in ("u", "v"):
        fl = lifted_flow(theta, ctx, side)
        assert fl.symbolic
        assert max(e[-1] for c in fl.components for e in c.terms) == 4
        assert all(r.is_zero for r in flow_ode_residuals(ctx, theta, side))


@pytest.mark.parametrize("n, f, texts", NOT_NILPOTENT,
                         ids=["rotation", "cubic", "cyclic-square"])
def test_non_nilpotent_fields_fall_back_quickly(n, f, texts):
    ctx = make_suspension(n, f)
    theta = base_field(ctx, *texts)
    for side in ("u", "v"):
        start = time.perf_counter()
        fl = lifted_flow(theta, ctx, side)
        assert time.perf_counter() - start < 0.5
        assert not fl.symbolic and fl.lifted == lift(theta, ctx, side)


def test_shown_complete():
    ring = PolyRing(("z1", "z2", "z3"))
    for texts in (["1", "z1^3", "z2^3"],          # locally nilpotent
                  ["z2", "-z1", "z3 + 1"]):       # affine linear
        assert shown_complete(VectorField.from_texts(ring, texts)), texts
    # z1' = z1^2 blows up in finite time
    assert not shown_complete(
        VectorField.from_texts(ring, ["z1^2", "-2*z1*z2", "0"]))


def test_lifted_flow_closed_form():
    ctx = make_suspension(1, "z1")
    theta = VectorField.from_texts(ctx.base_ring, ["1"])
    up = lifted_flow(theta, ctx, "u")
    assert up.symbolic
    ring = up.components[0].ring
    assert up.components == (ring.parse("u + t"), ring.parse("v"),
                             ring.parse("z1 + t*v"))
    down = lifted_flow(theta, ctx, "v")
    assert down.components == (ring.parse("u"), ring.parse("v + t"),
                               ring.parse("z1 + t*u"))


def test_lifted_flow_identity_at_time_zero():
    ctx = make_suspension(1, "z1^2")
    fl = lifted_flow(VectorField.from_texts(ctx.base_ring, ["1"]), ctx, "u")
    ring = fl.components[0].ring
    frozen = {"t": ring.zero()}
    stills = [compose(c, ring, frozen) for c in fl.components]
    assert stills == [ring.var("u"), ring.var("v"), ring.var("z1")]


def flow_ode_residuals(ctx, theta, side):
    fl = lifted_flow(theta, ctx, side)
    ring = fl.components[0].ring
    t_index = ring.nvars - 1
    composed = {name: comp for name, comp in zip(ctx.ring.variables,
                                                 fl.components)}
    out = []
    for comp, coeff in zip(fl.components, lift(theta, ctx, side).coeffs):
        lhs = comp.derivative(t_index)
        rhs = compose(coeff, ring, composed)
        out.append(lhs - rhs)
    return out


def test_flow_ode_identity():
    cases = [
        (make_suspension(1, "z1^2"), ["1"]),
        (make_suspension(2, "z1*z2"), ["z2", "0"]),
        (make_suspension(2, "z1*z2 - 1"), ["z2^2 + 1", "0"]),
    ]
    for ctx, texts in cases:
        theta = VectorField.from_texts(ctx.base_ring, texts)
        for side in ("u", "v"):
            assert all(r.is_zero for r in flow_ode_residuals(ctx, theta, side))


def test_time_derivative_of_remainder_term():
    # d/dt of the remainder term t*g(z, t*v) of the side-u component
    # equals the f-derivative along the field at the flowed base point
    ctx = make_suspension(2, "z1*z2")
    theta = base_field(ctx, "z2", "0")
    fl = lifted_flow(theta, ctx, "u")
    ring = fl.components[0].ring
    lhs = fl.components[0].derivative("t")
    flowed = dict(zip(ctx.base_ring.variables, fl.components[2:]))
    rhs = compose(theta.apply(ctx.f_base), ring, flowed)
    assert lhs == rhs


def test_flow_group_law_exact_points():
    ctx = make_suspension(1, "z1^2")
    fl = lifted_flow(VectorField.from_texts(ctx.base_ring, ["1"]), ctx, "u")
    points = sample_points(ctx, SamplingSpec(count=5, seed=21))
    s, t = gr(Fraction(1, 2)), gr(Fraction(-1, 3))
    for p in points:
        once = fl.apply(fl.apply(p, s), t)
        direct = fl.apply(p, s + t)
        assert once.coords == direct.coords


def test_numeric_flow_matches_closed_form():
    ctx = make_suspension(2, "z1*z2 - 1")
    theta = base_field(ctx, "z2", "0")
    closed = lifted_flow(theta, ctx, "u")
    forced = LiftedFlowMap(ctx, "u", lift(theta, ctx, "u"))
    points = [surface_point(ctx, p.complex_coords())
              for p in sample_points(ctx, SamplingSpec(count=5, seed=4))]
    for p in points:
        a = closed.apply(p, 1.0).complex_coords()
        b = forced.apply(p, 1.0).complex_coords()
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_numeric_fallback_for_generic_field():
    ctx = make_suspension(2, "z1^2 + z2^2 - 1")
    rot = base_field(ctx, "z2", "-z1")
    fl = lifted_flow(rot, ctx, "u")
    assert not fl.symbolic
    p = surface_point(ctx, [1.0 + 0j, -0.5 + 0j, 0.5 + 0j, 0.5 + 0j])
    t = 0.8
    moved = fl.apply(p, t)
    # the side-u lift freezes u and v and rotates z by the angle t*v
    s = t * p.complex_coords()[1]
    z1, z2 = p.complex_coords()[2:]
    want = (z1 * cmath.cos(s) + z2 * cmath.sin(s),
            -z1 * cmath.sin(s) + z2 * cmath.cos(s))
    got = moved.complex_coords()
    assert abs(got[0] - p.complex_coords()[0]) < 1e-9
    assert abs(got[1] - p.complex_coords()[1]) < 1e-9
    assert abs(got[2] - want[0]) < 1e-9 and abs(got[3] - want[1]) < 1e-9


def test_numeric_fallback_at_large_coordinates(monkeypatch):
    # the terms of u*v - f are about 2.5e9 here, so the float residual of
    # an accurate end point is about 1e-6: the surface check must be
    # relative to that size, not an absolute 1e-9
    ctx = make_suspension(2, "z1^2 + z2^2 - 1")
    fl = lifted_flow(base_field(ctx, "z2", "-z1"), ctx, "u")
    p = surface_point(ctx, [gr(2499999999), gr(1), gr(30000), gr(40000)])
    got = fl.apply(p, 0.25).complex_coords()
    want = (30000 * cmath.cos(0.25) + 40000 * cmath.sin(0.25),
            -30000 * cmath.sin(0.25) + 40000 * cmath.cos(0.25))
    assert got[:2] == (2499999999, 1)
    assert abs(got[2] - want[0]) < 1e-9 * 5e4
    assert abs(got[3] - want[1]) < 1e-9 * 5e4
    # an end point off the surface by more than that (one RK4 step) is
    # still refused
    monkeypatch.setattr(lifts, "FLOW_STEPS", 1)
    with pytest.raises(SuspensionError, match="residual"):
        fl.apply(p, 0.25)


def test_rk4_flow_rejects_bad_steps_and_field_lengths():
    ctx = make_suspension(1, "z1")
    theta = VectorField(ctx.ring, tuple(ctx.ring.parse(t) for t in ("u", "-v", "1")))
    start = [1.0, 2.0, 2.0]
    for steps in (0, -3):
        with pytest.raises(LiftError, match="at least one step"):
            rk4_flow(theta.evaluate_complex, start, 0.5, steps)
    # only compiled evaluators are integrated; a plain callable is refused
    with pytest.raises(LiftError, match="not a plain callable"):
        rk4_flow(lambda x: [0j] * 3, start, 0.5, 4)
    # a start of the wrong length is refused like the field's own evaluator
    with pytest.raises(PolyError, match="wrong number of coordinates"):
        rk4_flow(theta.evaluate_complex, start[:2], 0.5, 4)
    zero = VectorField(ctx.ring, (ctx.ring.zero(),) * 3)
    assert rk4_flow(zero.evaluate_complex, start, 0.5, 1) == [1, 2, 2]


def test_chart_jacobian_is_one():
    ctx = make_suspension(2, "z1*z2 - 1")
    theta = base_field(ctx, "z2", "0")
    floats = [surface_point(ctx, p.complex_coords())
              for p in sample_points(ctx, SamplingSpec(count=12, seed=9))]
    points = [p for p in floats if abs(p.complex_coords()[1]) > 0.3][:4]
    assert points
    for side in ("u", "v"):
        fl = lifted_flow(theta, ctx, side)
        for p in points:
            det = chart_jacobian_determinant(flow_chart_jacobian(fl, p, 1.0))
            assert abs(det - 1) < 1e-8


def test_chart_jacobian_needs_a_nonzero_fiber_coordinate():
    ctx = make_suspension(2, "z1*z2 - 1")
    theta = base_field(ctx, "z2", "0")
    # side u is audited in the chart (v, z), side v in (u, z)
    for side, coords in (("u", [1.0, 0.0, 1.0, 1.0]),
                         ("v", [0.0, 1.0, 1.0, 1.0])):
        p = surface_point(ctx, [complex(c) for c in coords])
        with pytest.raises(LiftError, match="nonzero fiber coordinate"):
            flow_chart_jacobian(lifted_flow(theta, ctx, side), p, 1.0)


def test_chart_jacobian_numeric_fallback():
    ctx = make_suspension(2, "z1^2 + z2^2 - 1")
    fl = lifted_flow(base_field(ctx, "z2", "-z1"), ctx, "u")
    p = surface_point(ctx, [1.0 + 0j, -0.5 + 0j, 0.5 + 0j, 0.5 + 0j])
    det = chart_jacobian_determinant(flow_chart_jacobian(fl, p, 0.5))
    assert abs(det - 1) < 1e-6


def spanning_setup():
    ctx = make_suspension(2, "z1")
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    alpha, beta = base_field(ctx, "1", "0"), base_field(ctx, "0", "1")
    return ctx, p, alpha, beta


def test_shear_pullback_formulas():
    ctx, p, alpha, beta = spanning_setup()
    alpha_u, alpha_v = lift(alpha, ctx, "u"), lift(alpha, ctx, "v")
    beta_v = lift(beta, ctx, "v")
    g = ctx.ring.parse("u - 1")

    # a field with no u-component is unmoved
    assert shear_pullback(beta_v, alpha_v, g, p) == \
        beta_v.evaluate_exact(p.coords)

    got = shear_pullback(alpha_u, alpha_v, g, p)
    af = alpha.apply(ctx.f_base).evaluate_exact(p.z)
    want = [a + af * b for a, b in zip(
        alpha_u.evaluate_exact(p.coords),
        alpha_v.evaluate_exact(p.coords))]
    assert got == want


def test_shear_pullback_contract_errors():
    ctx, p, alpha, _ = spanning_setup()
    alpha_u, alpha_v = lift(alpha, ctx, "u"), lift(alpha, ctx, "v")
    with pytest.raises(LiftError):
        shear_pullback(alpha_u, alpha_v, ctx.ring.parse("u"), p)  # g(p) != 0
    with pytest.raises(LiftError):
        shear_pullback(alpha_u, alpha_u, ctx.ring.parse("u - 1"), p)  # g not in kernel


def test_shear_pullback_vs_finite_difference():
    ctx, p, alpha, _ = spanning_setup()
    alpha_u, alpha_v = lift(alpha, ctx, "u"), lift(alpha, ctx, "v")
    g = ctx.ring.parse("u - 1")
    sheared = alpha_v.scale(g)
    coords0 = [complex(c.to_complex()) for c in p.coords]
    h = 1e-5

    def time_one(start):
        return rk4_flow(sheared.evaluate_complex, start, 1.0, steps=256)

    mu_p = [c.to_complex() for c in alpha_u.evaluate_exact(p.coords)]
    pushed = [0j] * len(coords0)
    for j in range(len(coords0)):
        bumped = list(coords0)
        bumped[j] += h
        plus = time_one(bumped)
        bumped[j] -= 2 * h
        minus = time_one(bumped)
        for i in range(len(coords0)):
            pushed[i] += (plus[i] - minus[i]) / (2 * h) * mu_p[j]
    want = shear_pullback(alpha_u, alpha_v, g, p)
    assert max(abs(a - b.to_complex()) for a, b in zip(pushed, want)) < 1e-6


def test_twist_field_is_volume_preserving():
    ctx = make_suspension(2, "z1*z2 - 1")
    tw = twist_field(ctx, ctx.base_ring.parse("z1^2 + 3"))
    assert is_tangent(tw, ctx).is_zero
    assert divergence_on_suspension(tw, ctx).is_zero
    with pytest.raises(LiftError):
        twist_field(ctx, ctx.ring.parse("u*z1"))


def test_twisted_pullback_formula():
    # pullback along the twist by g with alpha stationary for f:
    # v*alpha + u*v*alpha(g) d_u - v^2*alpha(g) d_v at the point
    ctx, p, _, beta = spanning_setup()
    alpha = beta  # d_{z2}, which kills f = z1
    g = ctx.base_ring.parse("z2")
    alpha_u = lift(alpha, ctx, "u")
    radial = VectorField(ctx.ring, (ctx.ring.var("u"),
                                    -ctx.ring.var("v"),
                                    ctx.ring.zero(), ctx.ring.zero()))
    got = shear_pullback(alpha_u, radial, g.extend_to(ctx.ring), p)

    ag = alpha.apply(g).extend_to(ctx.ring)
    u, v = ctx.ring.var("u"), ctx.ring.var("v")
    want_field = VectorField(ctx.ring, (
        u * v * ag, -(v * v * ag),
        *(v * c.extend_to(ctx.ring) for c in alpha.coeffs)))
    assert got == want_field.evaluate_exact(p.coords)


def wedge_rank(ctx, p, family):
    basis = tangent_basis(ctx, p)
    cols = ExactMatrix.from_rows([[vec[i] for vec in basis]
                                  for i in range(len(p.coords))])
    rows = []
    for pair in family.pairs:
        sols = solve_columns(cols, [list(pair.a), list(pair.b)])
        assert sols[0] is not None and sols[1] is not None, pair.label
        a, b = ([sol.get(i, ZERO) for i in range(len(basis))]
                for sol in sols)
        coords = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                coords.append(pair.ideal_value * (a[i] * b[j] - a[j] * b[i]))
        rows.append(coords)
    return exact_rank(ExactMatrix.from_rows(rows))


def test_spanning_family_rank_three():
    ctx, p, alpha, beta = spanning_setup()
    fam = spanning_family([(alpha, beta, [ctx.base_ring.one()])], ctx, p)
    assert len(fam.pairs) >= 4
    labels = [pair.label for pair in fam.pairs]
    assert any("shear-pullback" in s for s in labels)
    assert any("twist-pullback" in s for s in labels)
    assert "pair0:twist-pullback:swapped" in labels
    assert wedge_rank(ctx, p, fam) == 3


def test_spanning_family_lifts_alone_are_not_enough():
    # without the pullback pairs the wedges at the point span a plane only
    ctx, p, alpha, beta = spanning_setup()
    fam = spanning_family([(alpha, beta, [ctx.base_ring.one()])], ctx, p)
    fam.pairs = [pair for pair in fam.pairs if "lift" in pair.label]
    assert wedge_rank(ctx, p, fam) == 2


def test_spanning_family_rejects_bad_basepoint():
    ctx, _, alpha, beta = spanning_setup()
    bad = surface_point(ctx, [gr(1), gr(0), gr(0), gr(5)])
    with pytest.raises(BasepointError) as err:
        spanning_family([(alpha, beta, [ctx.base_ring.one()])], ctx, bad)
    assert "v_nonzero" in err.value.failures
