"""Numeric fitting harness: dictionaries, tangent-space least squares,
and the flow and volume audits."""

import cmath
import random
from fractions import Fraction

import pytest

from suspvdp.approx import (ApproxError, Dictionary, build_dictionary,
                            fit_field, fitted_evaluator, flow_deviation_audit,
                            residual_curve, volume_audit)
from suspvdp.certify import lift_pair
from suspvdp.fields import VectorField
from suspvdp.lifts import twist_field
from suspvdp.scalars import gr
from suspvdp.surface import (SamplingSpec, make_suspension, sample_points,
                             surface_point, tangent_field)


def plane_ctx():
    return make_suspension(2, "z1")


def plane_pair(ctx):
    alpha = VectorField.coordinate(ctx.base_ring, "z1")
    beta = VectorField.coordinate(ctx.base_ring, "z2")
    return lift_pair(alpha, beta, (ctx.base_ring.parse("z2"),),
                     (ctx.base_ring.parse("z1"),), (ctx.base_ring.one(),), ctx)


def plane_samples(ctx, count=12, seed=3):
    return sample_points(ctx, SamplingSpec(count=count, seed=seed))


def entry_index(dictionary, provenance):
    hits = [i for i, e in enumerate(dictionary.entries)
            if e.provenance == provenance]
    assert hits, f"no entry with provenance {provenance}"
    return hits[0]


def twist_target(ctx, h_text="1"):
    return tangent_field(twist_field(ctx, ctx.base_ring.parse(h_text)), ctx)


def test_dictionary_degree_zero_contents():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    assert len(d) == 4
    assert sorted({e.provenance for e in d.entries}) == [
        "bracket", "kernel-multiple", "twist-field"]
    bracket = d.entries[entry_index(d, "bracket")]
    assert bracket.parents is not None
    # the guard in the builder already enforces these; re-check anyway
    from suspvdp.surface import divergence_on_suspension
    for e in d.entries:
        assert e.field.multiplier.is_zero
        assert divergence_on_suspension(e.field, ctx).is_zero


def test_dictionary_dedupes_repeated_pairs():
    ctx = plane_ctx()
    pair = plane_pair(ctx)
    once = build_dictionary(ctx, [pair], 1)
    twice = build_dictionary(ctx, [pair, pair], 1)
    assert len(once) == len(twice)


def test_dictionary_grows_with_degree():
    ctx = plane_ctx()
    pair = plane_pair(ctx)
    sizes = [len(build_dictionary(ctx, [pair], d)) for d in (0, 1, 2)]
    assert sizes[0] < sizes[1] < sizes[2]
    labels = build_dictionary(ctx, [pair], 1).labels()
    assert len(set(labels)) == len(labels)


def test_fit_recovers_twist_with_unit_coefficient():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    fit = fit_field(twist_target(ctx), d, plane_samples(ctx))
    assert fit.sup_residual <= 1e-10
    twist_i = entry_index(d, "twist-field")
    for i, c in enumerate(fit.coefficients):
        want = 1.0 if i == twist_i else 0.0
        assert abs(c - want) <= 1e-8


def test_fit_recovers_bracket_direction():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    # [nu_u, mu_v] = d_z2 here; feed d_z2 back in as the target
    target = tangent_field(VectorField.coordinate(ctx.ring, "z2"), ctx)
    fit = fit_field(target, d, plane_samples(ctx))
    assert fit.sup_residual <= 1e-10
    bracket_i = entry_index(d, "bracket")
    assert abs(fit.coefficients[bracket_i] - 1.0) <= 1e-8


def test_fit_recovers_exact_combinations():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 1)
    samples = plane_samples(ctx)
    fresh = plane_samples(ctx, count=6, seed=17)
    rng = random.Random(11)
    pool = [gr(1), gr(-1), gr(1, 1), gr(0, -1),
            gr(Fraction(1, 2)), gr(0, Fraction(1, 2))]
    for trial in range(5):
        chosen = rng.sample(range(len(d)), min(5, len(d)))
        coeffs = {i: rng.choice(pool) for i in chosen}
        amb_coeffs = [ctx.ring.zero() for _ in range(ctx.ring.nvars)]
        for i, c in coeffs.items():
            for k, p in enumerate(d.entries[i].field.ambient.coeffs):
                amb_coeffs[k] = amb_coeffs[k] + p.scale(c)
        target = tangent_field(VectorField(ctx.ring, tuple(amb_coeffs)), ctx)
        fit = fit_field(target, d, samples)
        assert fit.sup_residual <= 1e-10, f"trial {trial}"
        # coefficients may differ when entries are dependent on the
        # surface; the fitted field itself must still match pointwise
        fitted = fitted_evaluator(d, fit.coefficients)
        for p in fresh:
            coords = list(p.complex_coords())
            got = fitted(coords)
            want = target.ambient.evaluate_complex(coords)
            frame_err = max(abs(a - b) for a, b in zip(got, want))
            assert frame_err <= 1e-8, f"trial {trial}: {frame_err}"


def test_residual_curve_non_increasing():
    ctx = plane_ctx()
    samples = plane_samples(ctx)
    curve, _, _ = residual_curve(twist_target(ctx, "z2"), ctx,
                                 [plane_pair(ctx)], samples, degrees=(0, 1, 2))
    sups = [row["sup_residual"] for row in curve]
    assert sups[0] > 1e-3            # not reachable without degree-1 twists
    assert sups[1] <= 1e-10
    for a, b in zip(sups, sups[1:]):
        assert b <= a + 1e-12
    assert [row["degree"] for row in curve] == [0, 1, 2]


def test_fit_rejects_bad_input():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    samples = plane_samples(ctx, count=4)
    expanding = tangent_field(VectorField(ctx.ring, (
        ctx.ring.parse("u"), ctx.ring.zero(), ctx.ring.parse("z1"),
        ctx.ring.zero())), ctx)
    with pytest.raises(ApproxError):
        fit_field(expanding, d, samples)
    with pytest.raises(ApproxError):
        fit_field(twist_target(ctx), Dictionary(ctx, []), samples)
    with pytest.raises(ApproxError):
        fit_field(twist_target(ctx), d, [])


def test_fit_is_deterministic():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 2)
    samples = plane_samples(ctx)
    target = twist_target(ctx, "z1")
    a = fit_field(target, d, samples)
    b = fit_field(target, d, samples)
    assert a.coefficients == b.coefficients
    assert a.residuals == b.residuals
    # sample order changes the rows but not the quality of the fit
    c = fit_field(target, d, list(reversed(samples)))
    assert abs(a.sup_residual - c.sup_residual) <= 1e-9


def test_flow_audit_in_span_target():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    target = twist_target(ctx)
    samples = plane_samples(ctx)
    fit = fit_field(target, d, samples)
    audits = flow_deviation_audit(target, d, fit, samples[:3])
    assert len(audits) == 3
    for a in audits:
        assert a["ok"]
        for row in a["checks"]:
            assert row["deviation"] <= 1e-9


def test_flow_audit_out_of_span_target():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    target = twist_target(ctx, "z2")
    samples = plane_samples(ctx)
    fit = fit_field(target, d, samples)
    assert fit.sup_residual > 1e-3
    audits = flow_deviation_audit(target, d, fit, samples[:3])
    for a in audits:
        assert a["ok"], a


def test_volume_audit_matches_divergence_integral():
    ctx = make_suspension(1, "z1")
    # u d_u + z1 d_z1 is tangent with surface divergence exactly 1, so the
    # weighted chart determinant of the time-t flow must be e^t
    sf = tangent_field(VectorField(ctx.ring, (
        ctx.ring.parse("u"), ctx.ring.zero(), ctx.ring.parse("z1"))), ctx)
    point = surface_point(ctx, [1.0, 0.5, 0.5], tol=1e-9)
    out = volume_audit(sf, ctx, point)
    assert out["error"] <= 1e-6
    assert abs(out["weighted_determinant"] - cmath.exp(0.25)) <= 1e-6
    assert abs(out["expected"] - cmath.exp(0.25)) <= 1e-9


def test_volume_audit_needs_chart():
    ctx = make_suspension(1, "z1")
    sf = twist_target(ctx)
    point = surface_point(ctx, [0.0, 7.0, 0.0], tol=1e-9)
    with pytest.raises(ApproxError):
        volume_audit(sf, ctx, point)

