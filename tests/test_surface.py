import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from randgen import rand_poly
from suspvdp import surface
from suspvdp.fields import VectorField
from suspvdp.poly import EXACT, PolyRing
from suspvdp.scalars import gr, ZERO
from suspvdp.scenario import bundled_names, load_scenario
from suspvdp.surface import (NotTangentError, SamplingError, SamplingSpec,
                             SuspensionError, basepoint_check,
                             basepoint_search,
                             divergence_on_suspension, is_tangent,
                             make_suspension, sample_points,
                             sample_zero_fiber, smoothness_certificate,
                             smoothness_witness, surface_point,
                             tangent_basis)

CTX = make_suspension(2, "z1")


def ambient_field(ctx, *texts):
    return VectorField(ctx.ring, tuple(ctx.ring.parse(t) for t in texts))


def test_make_suspension_validates():
    with pytest.raises(SuspensionError):
        make_suspension(2, "3")
    with pytest.raises(SuspensionError):
        make_suspension(0, "z1")
    ctx = make_suspension(3, "z1*z3 - 1")
    assert ctx.ring.variables == ("u", "v", "z1", "z2", "z3")
    assert ctx.defining == ctx.ring.parse("u*v - z1*z3 + 1")


def test_normal_form_frozen_example():
    ctx = make_suspension(2, "z1^2 + z2")
    got = ctx.normal_form(ctx.ring.parse("u^2*v^2"))
    assert got == ctx.ring.parse("z1^4 + 2*z1^2*z2 + z2^2")


def test_normal_form_leaves_mixed_free_monomials():
    ctx = make_suspension(2, "z1^2 + z2")
    p = ctx.ring.parse("u^3*z2 + v*z1 + 7")
    assert ctx.normal_form(p) == p


def test_normal_form_idempotent_and_uv_free():
    rng = random.Random(41)
    ctx = make_suspension(2, "z1*z2 - 1")
    for _ in range(60):
        p = rand_poly(ctx.ring, rng, max_degree=6, max_terms=5)
        nf = ctx.normal_form(p)
        assert ctx.normal_form(nf) == nf
        assert all(min(e[0], e[1]) == 0 for e in nf.terms)


def test_normal_form_agrees_on_surface_points():
    # evaluating p and nf(p) at 100 random surface points must agree
    rng = random.Random(43)
    ctx = make_suspension(2, "z1*z2 - 1")
    spec = SamplingSpec(count=100, seed=7)
    points = sample_points(ctx, spec)
    for k in range(100):
        p = rand_poly(ctx.ring, rng, max_degree=6, max_terms=4)
        pt = points[k].coords
        assert p.evaluate_exact(pt) == ctx.normal_form(p).evaluate_exact(pt)


def test_reduce_reconstructs_exactly():
    rng = random.Random(47)
    # the last f outranks uv in graded order, so the division by uv - f
    # eliminates the leading term of f first
    for f_text in ("z1", "z1^2 + z2", "z1*z2 - 1", "z1^3 + z2"):
        ctx = make_suspension(2, f_text)
        for _ in range(40):
            p = rand_poly(ctx.ring, rng, max_degree=6, max_terms=5)
            nf, q = ctx.reduce(p)
            assert q * ctx.defining + nf == p
            assert ctx.normal_form(p) == nf


def test_ideal_membership():
    ctx = CTX
    assert ctx.normal_form(ctx.defining).is_zero
    assert ctx.normal_form(ctx.ring.parse("(u*v - z1)*(u + z2^3)")).is_zero
    assert not ctx.normal_form(ctx.ring.parse("u*v")).is_zero


def test_is_tangent_multipliers():
    ctx = CTX
    twist = ambient_field(ctx, "u", "-v", "0", "0")
    assert is_tangent(twist, ctx).is_zero
    scaled = ambient_field(ctx, "u*v - z1", "0", "0", "0")
    assert is_tangent(scaled, ctx) == ctx.ring.parse("v")
    with pytest.raises(NotTangentError):
        is_tangent(ambient_field(ctx, "1", "0", "0", "0"), ctx)


def test_tangency_multiplier_certifies_product():
    ctx = CTX
    theta = ambient_field(ctx, "u*z2", "-v*z2", "0", "u*v - z1")
    assert theta.apply(ctx.defining) == is_tangent(theta, ctx) * ctx.defining


def test_divergence_on_suspension_twist_family():
    ctx = CTX
    rng = random.Random(53)
    for _ in range(20):
        h = rand_poly(ctx.ring, rng, max_degree=3, indices=range(2, ctx.n + 2))
        twist = VectorField(ctx.ring, (
            h * ctx.ring.parse("u"), -h * ctx.ring.parse("v"), ctx.ring.zero(), ctx.ring.zero()))
        assert is_tangent(twist, ctx).is_zero
        assert divergence_on_suspension(twist, ctx).is_zero


def test_divergence_uses_multiplier():
    ctx = CTX
    # u d_u + z1 d_z1 has multiplier 1 and ambient divergence 2; the
    # correction by the multiplier leaves surface divergence 1.
    theta = ambient_field(ctx, "u", "0", "z1", "0")
    assert is_tangent(theta, ctx) == ctx.ring.one()
    assert divergence_on_suspension(theta, ctx) == ctx.ring.one()
    # fields vanishing on the surface have zero surface divergence
    for w in ("u", "v", "z2", "u*z1"):
        coeffs = [ctx.ring.parse("u*v - z1") * ctx.ring.parse(w), ctx.ring.zero(),
                  ctx.ring.zero(), ctx.ring.zero()]
        assert divergence_on_suspension(
            VectorField(ctx.ring, tuple(coeffs)), ctx).is_zero


def test_surface_point_validation():
    ctx = CTX
    p = surface_point(ctx, (gr(1), gr(1), gr(1), gr(0)))
    assert p.exact and p.coords[0] == gr(1)
    with pytest.raises(SuspensionError):
        surface_point(ctx, (gr(1), gr(2), gr(1), gr(0)))
    q = surface_point(ctx, (1.0 + 0j, 2.0 + 0j, 2.0 + 0j, 0.5 + 0j))
    assert not q.exact
    with pytest.raises(SuspensionError):
        surface_point(ctx, (1.0 + 0j, 2.0 + 1e-6j, 2.0 + 0j, 0.5 + 0j))


def test_surface_point_rejects_nan_residual():
    # NaN compares false with any tolerance; such a point is not on the
    # surface (an RK4 end point that overflowed looks like this)
    ctx = load_scenario("circle").ctx
    with pytest.raises(SuspensionError):
        surface_point(ctx, [complex(math.nan, 0), 1, 0.5, 0.5], tol=1e-9)


def test_tangent_basis_example():
    ctx = CTX
    p = surface_point(ctx, (gr(1), gr(1), gr(1), gr(0)))
    basis = tangent_basis(ctx, p)
    assert len(basis) == 3
    grad = ctx.defining_gradient(EXACT)(p.coords)
    for vec in basis:
        pairing = sum((g * x for g, x in zip(grad, vec)), gr(0))
        assert pairing.is_zero
    # e_j - (g_j/g_u)*e_u for v, z1, z2: independent, one free column each
    assert basis == [[gr(-1), gr(1), ZERO, ZERO], [gr(1), ZERO, gr(1), ZERO],
                     [ZERO, ZERO, ZERO, gr(1)]]
    # at v = 0 the pivot moves to the v column: e_u, e_z1 + e_v/2, e_z2
    q = surface_point(ctx, (gr(2), gr(0), gr(0), gr(3)))
    assert tangent_basis(ctx, q) == [
        [gr(1), ZERO, ZERO, ZERO], [ZERO, gr(Fraction(1, 2)), gr(1), ZERO],
        [ZERO, ZERO, ZERO, gr(1)]]


def test_sampling_deterministic_and_on_surface():
    ctx = make_suspension(2, "z1^2 + z2^2 - 1")
    spec = SamplingSpec(count=30, seed=99)
    a = sample_points(ctx, spec)
    b = sample_points(ctx, spec)
    assert [p.coords for p in a] == [p.coords for p in b]
    for p in a:
        assert p.exact
        assert not p.coords[0].is_zero
        assert ctx.defining.evaluate_exact(p.coords).is_zero


def test_sampling_cap_counts_only_rejected_draws(monkeypatch):
    # more points than the cap: admitted draws do not use it up
    monkeypatch.setattr(surface, "MAX_REJECTIONS", 50)
    spec = SamplingSpec(count=60, seed=0)
    assert len(sample_points(CTX, spec)) == 60


@pytest.mark.parametrize("name", bundled_names())
def test_basepoint_search_and_sampling_share_one_stream(name):
    # one seeded loop: the basepoint search admits, in order, the draws
    # with u != 0 that pass its check, and those are the sampled points
    scenario = load_scenario(name)
    ideals = [p.ideal_or_unit(scenario.ctx.base_ring) for p in scenario.pairs]
    for seed in range(4):
        spec = replace(scenario.sampling, seed=seed)
        found, report = basepoint_search(scenario.ctx, spec, ideals)
        drawn = report.attempts - report.rejected.get("u_nonzero", 0)
        samples = iter(sample_points(scenario.ctx,
                                     replace(spec, count=drawn)))
        assert all(any(s.coords == p.coords for s in samples)
                   for p in found), (name, seed)


def test_basepoint_cap_counts_only_rejected_draws(monkeypatch):
    monkeypatch.setattr(surface, "MAX_REJECTIONS", 50)
    pts, report = basepoint_search(CTX, SamplingSpec(count=60, seed=0))
    assert len(pts) == 60
    assert report.attempts == 60 + sum(report.rejected.values())


def test_sampling_chart_relation():
    # z1 = 2, u = 1 forces v = 2 on uv = z1
    ctx = CTX
    pt = surface_point(ctx, (gr(1), gr(2), gr(2), gr(0)))
    assert pt.coords[1] == gr(2)


def test_sample_zero_fiber():
    ctx = CTX
    spec = SamplingSpec(count=5, seed=1)
    pts = sample_zero_fiber(ctx, spec)
    assert pts, "grid scan should find zeros of f = z1"
    for p in pts:
        assert p.coords[0] == ZERO
        assert ctx.f.evaluate_exact(p.coords).is_zero


def test_smoothness_witness_and_certificate():
    ctx = make_suspension(2, "z1^2 + z2^2 - 1")
    zs = [(gr(1), gr(0)), (gr(0), gr(1)), (gr(Fraction(3, 5)), gr(Fraction(4, 5)))]
    report = smoothness_witness(ctx, zs, certificate_degree=1)
    assert report.ok
    assert report.zero_fiber == 3
    cert = report.certificate
    assert cert is not None
    rebuilt = cert["f"] * ctx.f_base
    for j, g in enumerate(cert["partials"]):
        rebuilt = rebuilt + g * ctx.f_base.derivative(j)
    assert rebuilt == ctx.base_ring.one()


def test_smoothness_witness_counts_generator_input():
    ctx = make_suspension(2, "z1^2 + z2^2 - 1")
    zs = [(gr(1), gr(0)), (gr(2), gr(0)), (gr(0), gr(1))]
    report = smoothness_witness(ctx, (z for z in zs), certificate_degree=1)
    assert report.zero_fiber == 2
    assert report.ok


def test_smoothness_detects_singular_sample():
    ctx = make_suspension(1, "z1^2")
    report = smoothness_witness(ctx, [(gr(0),)], certificate_degree=3)
    assert not report.ok
    assert smoothness_certificate(ctx, 3) is None


def test_basepoint_search_reports_conditions(monkeypatch):
    ctx = CTX
    spec = SamplingSpec(count=3, seed=5)
    ideal = [ctx.base_ring.parse("z2")]
    pts, report = basepoint_search(ctx, spec, ideals=[ideal])
    assert len(pts) == 3
    for p in pts:
        assert not p.coords[0].is_zero and not p.coords[1].is_zero
        assert not ideal[0].evaluate_exact(p.z).is_zero
    # impossible request: denominators 1..3 draw only 1 from [1, 5/4], for
    # both parts, so every z1 is 1 + i, where f = z1 - 1 - i vanishes
    ctx2 = make_suspension(2, "z1 - 1 - i")
    tight = SamplingSpec(count=1, seed=5,
                         region=(Fraction(1), Fraction(5, 4)))
    monkeypatch.setattr(surface, "MAX_REJECTIONS", 50)
    with pytest.raises(SamplingError) as err:
        basepoint_search(ctx2, tight)
    assert "after 50 rejected draws" in str(err.value)
    assert err.value.report.attempts == 50
    assert err.value.report.rejected == {"v_nonzero": 50}


def test_basepoint_failures_reports_df():
    ctx = make_suspension(1, "z1^2")
    p = surface_point(ctx, [gr(1), gr(0), gr(0)])
    assert basepoint_check(ctx)(p) == ["v_nonzero", "df_nonzero"]
    ideal = [ctx.base_ring.parse("z1")]
    assert basepoint_check(ctx, [[ctx.base_ring.one()], ideal])(p) == \
        ["v_nonzero", "df_nonzero", "ideal_1_nonzero"]
    float_point = surface_point(ctx, [1.0, 0.0, 0.0])
    assert basepoint_check(ctx)(float_point) == ["exact"]


def test_exact_samples_stay_in_region():
    # a negative region: truncating toward zero drew z1 = -1 here
    ctx = make_suspension(1, "z1")
    lo, hi = Fraction(-5, 2), Fraction(-3, 2)
    for seed in range(5):
        spec = SamplingSpec(count=5, seed=seed, region=(lo, hi))
        for p in sample_points(ctx, spec):
            for c in p.coords[::2]:               # u and z1 are drawn
                assert lo <= c.re <= hi and lo <= c.im <= hi, p


def fraction_draw(rng, lo, hi):
    """The `Fraction` draw that the integer-triple draw replaced, kept as
    its oracle: a rational in [lo, hi] with denominator at most 3."""
    d = rng.randint(1, 3)
    a = rng.randint(math.ceil(lo * d), math.floor(hi * d))
    return Fraction(a, d)


@st.composite
def regions(draw):
    """lo < hi around an integer, with fractional ends."""
    k = draw(st.integers(-5, 5))
    ends = st.fractions(min_value=0, max_value=4, max_denominator=7)
    below, above = draw(ends), draw(ends)
    if below == above == 0:
        above = Fraction(1, 2)
    return k - below, k + above


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), region=regions())
@example(seed=0, region=(Fraction(-5, 2), Fraction(3, 2)))
@example(seed=7, region=(Fraction(-2), Fraction(2)))
def test_integer_triple_draw_equals_fraction_draw(seed, region):
    new, old = random.Random(seed), random.Random(seed)
    draw = surface._exact_scalar_draw(new, SamplingSpec(region=region))
    for _ in range(25):
        # == compares canonical triples, so this checks the form too
        assert draw() == gr(fraction_draw(old, *region),
                               fraction_draw(old, *region))
    assert new.getstate() == old.getstate()


def sampling_cases():
    """(name, ctx, spec, ideals): the bundled scenarios, and an f with
    fractional coefficients over a fractional region whose step-1/2 grid
    meets the zero fiber at z = (+-1/2, 0)."""
    for name in bundled_names():
        sc = load_scenario(name)
        yield pytest.param(name, sc.ctx, sc.sampling, [
            pair.ideal_or_unit(sc.ctx.base_ring) for pair in sc.pairs],
            id=name)
    yield pytest.param(
        "fractional", make_suspension(2, "1/2*z1^2 + 1/3*z2 - 1/8"),
        SamplingSpec(count=40, seed=5,
                     region=(Fraction(-5, 2), Fraction(3, 2))), [],
        id="fractional")


@pytest.mark.parametrize("name, ctx, spec, ideals", sampling_cases())
def test_constructed_points_are_on_the_surface(name, ctx, spec, ideals):
    # sampled points are built on the surface and not checked again, so
    # check them here; a point from outside still gets the check
    points = sample_points(ctx, spec)
    points += basepoint_search(ctx, spec, ideals)[0]
    fiber = sample_zero_fiber(ctx, spec)
    assert fiber or name != "fractional"
    for p in points + fiber:
        assert p.exact
        assert ctx.defining.evaluate_exact(p.coords).is_zero, p
    for p in points:
        u, v, *z = p.coords
        with pytest.raises(SuspensionError, match="off the surface"):
            surface_point(ctx, (u, v + gr(1), *z))


@pytest.mark.parametrize("fields, message", [
    ({"count": 0}, "count must be positive"),
    ({"count": -3}, "count must be positive"),
    ({"region": (Fraction(1), Fraction(1))}, "lo < hi"),
    ({"region": (Fraction(1, 10), Fraction(2, 10))}, "contain an integer"),
])
def test_sampling_spec_checks_its_fields(fields, message):
    # a library-built spec gets the checks scenario files get
    with pytest.raises(SamplingError) as err:
        SamplingSpec(**fields)
    assert message in str(err.value)
