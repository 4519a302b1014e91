"""Numeric fitting harness: dictionaries, tangent-space least squares,
and the flow and volume audits."""

import cmath
import random
from dataclasses import replace
from fractions import Fraction

import numpy
import pytest

from forms import coordinate_field
from suspvdp import approx
from suspvdp.approx import (AUDIT_CHECKPOINTS, ApproxError, Dictionary,
                            build_dictionary, fit_field, fitted_evaluator,
                            flow_deviation_audit, residual_curve,
                            volume_audit, volume_result)
from suspvdp.certify import lift_pair
from suspvdp.fields import VectorField
from suspvdp.lifts import twist_field
from suspvdp.poly import COMPLEX
from suspvdp.scalars import gr
from suspvdp.scenario import load_scenario
from suspvdp.surface import (SamplingSpec, is_tangent, make_suspension,
                             sample_points, surface_point)


def plane_ctx():
    return make_suspension(2, "z1")


def plane_pair(ctx):
    alpha = coordinate_field(ctx.base_ring, "z1")
    beta = coordinate_field(ctx.base_ring, "z2")
    return lift_pair(alpha, beta, (ctx.base_ring.parse("z2"),),
                     (ctx.base_ring.parse("z1"),), ctx)


def plane_samples(ctx, count=12, seed=3):
    return sample_points(ctx, SamplingSpec(count=count, seed=seed))


def entry_kind(label):
    """What a dictionary label names: a bracket of two entries, a kernel
    multiple of a lifted field, or a twist field."""
    if label.startswith("["):
        return "bracket"
    return "kernel-multiple" if label.startswith("pair") else "twist-field"


def entry_index(dictionary, kind):
    hits = [i for i, e in enumerate(dictionary.entries)
            if entry_kind(e.label) == kind]
    assert hits, f"no entry of kind {kind}"
    return hits[0]


def fit_alone(target, dictionary, samples):
    """The fit of `dictionary` on a projected system of its own."""
    return fit_field(dictionary, approx.projected_system(
        target, dictionary.ctx, samples, [dictionary]))


def twist_target(ctx, h_text="1"):
    return twist_field(ctx, ctx.base_ring.parse(h_text))


def test_dictionary_degree_zero_contents():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    assert len(d) == 4
    assert sorted({entry_kind(e.label) for e in d.entries}) == [
        "bracket", "kernel-multiple", "twist-field"]
    bracket = d.entries[entry_index(d, "bracket")]
    assert bracket.label == "[pair0:(1)*nu, pair0:(1)*mu]"
    # the guard in the builder already enforces these; re-check anyway
    from suspvdp.surface import divergence_on_suspension
    for e in d.entries:
        assert is_tangent(e.field, ctx).is_zero
        assert divergence_on_suspension(e.field, ctx).is_zero


def test_dictionary_rejects_entry_with_nonzero_multiplier():
    # u*d_u + z1*d_z1 is tangent to u*v = z1 with multiplier 1, so it is
    # not volume preserving and may not enter the dictionary
    ctx = plane_ctx()
    expanding = VectorField(ctx.ring, (
        ctx.ring.parse("u"), ctx.ring.zero(), ctx.ring.parse("z1"),
        ctx.ring.zero()))
    assert is_tangent(expanding, ctx) == ctx.ring.one()
    pair = replace(plane_pair(ctx), nu=expanding)
    with pytest.raises(ApproxError, match="not tangent"):
        build_dictionary(ctx, [pair], 0)


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
    fit = fit_alone(twist_target(ctx), d, plane_samples(ctx))
    assert fit.sup_residual <= 1e-10
    twist_i = entry_index(d, "twist-field")
    for i, c in enumerate(fit.coefficients):
        want = 1.0 if i == twist_i else 0.0
        assert abs(c - want) <= 1e-8


def test_fit_recovers_bracket_direction():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    # [nu_u, mu_v] = d_z2 here; feed d_z2 back in as the target
    target = coordinate_field(ctx.ring, "z2")
    fit = fit_alone(target, d, plane_samples(ctx))
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
            for k, p in enumerate(d.entries[i].field.coeffs):
                amb_coeffs[k] = amb_coeffs[k] + p.scale(c)
        target = VectorField(ctx.ring, tuple(amb_coeffs))
        fit = fit_alone(target, d, samples)
        assert fit.sup_residual <= 1e-10, f"trial {trial}"
        # coefficients may differ when entries are dependent on the
        # surface; the fitted field itself must still match pointwise
        fitted = fitted_evaluator(d, fit.coefficients)
        for p in fresh:
            coords = list(p.complex_coords())
            got = fitted(coords)
            want = target.evaluate_complex(coords)
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


BUNDLED = ("plane", "circle", "danielewski", "hyperbola")


def bundled_setup(name):
    """A bundled scenario as `approx` runs it: its lifted pairs, its own
    samples, target and curve degrees."""
    sc = load_scenario(name)
    ctx = sc.ctx
    pairs = [lift_pair(s.alpha, s.beta, s.kernel_alpha, s.kernel_beta, ctx)
             for s in sc.pairs]
    return (ctx, pairs, sample_points(ctx, sc.sampling), sc.approx.field,
            sc.approx.curve_degrees)


def complex_bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def entry_identities(dictionary):
    return [(e.label, approx._term_key(e.field))
            for e in dictionary.entries]


@pytest.mark.parametrize("name", BUNDLED)
def test_shared_curve_fits_equal_standalone_fits_bit_for_bit(name):
    ctx, pairs, samples, target, degrees = bundled_setup(name)
    curve, top_dictionary, top_fit = residual_curve(target, ctx, pairs,
                                                    samples, degrees)
    memo = {}
    for row, d in zip(curve, degrees):
        alone = build_dictionary(ctx, pairs, d)
        assert entry_identities(build_dictionary(ctx, pairs, d, memo)) == \
            entry_identities(alone)
        fit = fit_alone(target, alone, samples)
        assert (row["degree"], row["entries"]) == (d, len(alone))
        assert row["sup_residual"].hex() == fit.sup_residual.hex()
        if d == max(degrees):
            assert entry_identities(top_dictionary) == entry_identities(alone)
            assert complex_bits(top_fit.coefficients) == \
                complex_bits(fit.coefficients)
            assert [r.hex() for r in top_fit.residuals] == \
                [r.hex() for r in fit.residuals]


@pytest.mark.parametrize("name", BUNDLED)
def test_stacked_projection_equals_per_column_products(name):
    ctx, pairs, samples, target, degrees = bundled_setup(name)
    dictionaries = [build_dictionary(ctx, pairs, d) for d in degrees]
    rhs, column, blocks = approx.projected_system(target, ctx, samples,
                                                  dictionaries)
    fields = {approx._term_key(e.field): e.field
              for dictionary in dictionaries for e in dictionary.entries}
    assert sorted(column.values()) == list(range(len(fields)))
    gradient = ctx.defining_gradient(COMPLEX)
    for p, block, target_value in zip(samples, blocks, rhs):
        coords = p.complex_coords()
        frame_h = approx.tangent_frame(gradient(coords))
        assert (frame_h @ numpy.array(target.evaluate_complex(
            coords))).tobytes() == target_value.tobytes()
        for key, sf in fields.items():
            v = numpy.array(sf.evaluate_complex(coords))
            assert (frame_h @ v).tobytes() == block[:, column[key]].tobytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_fits_solve_on_c_ordered_column_matrices(name, monkeypatch):
    # a matrix's memory order selects the BLAS path of the products on it
    ctx, pairs, samples, target, degrees = bundled_setup(name)
    solved = []
    solve = approx._solve_scaled_lstsq

    def recording(a, b):
        solved.append(a)
        return solve(a, b)

    monkeypatch.setattr(approx, "_solve_scaled_lstsq", recording)
    curve, _, _ = residual_curve(target, ctx, pairs, samples, degrees)
    assert [a.shape[1] for a in solved] == [row["entries"] for row in curve]
    assert all(a.flags.c_contiguous for a in solved)


def test_fit_rejects_bad_input():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    samples = plane_samples(ctx, count=4)
    expanding = VectorField(ctx.ring, (
        ctx.ring.parse("u"), ctx.ring.zero(), ctx.ring.parse("z1"),
        ctx.ring.zero()))
    with pytest.raises(ApproxError):
        approx.projected_system(expanding, ctx, samples, [d])
    with pytest.raises(ApproxError):
        fit_field(Dictionary(ctx, []), approx.projected_system(
            twist_target(ctx), ctx, samples, [d]))
    with pytest.raises(ApproxError):
        approx.projected_system(twist_target(ctx), ctx, [], [d])


def test_fit_is_deterministic():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 2)
    samples = plane_samples(ctx)
    target = twist_target(ctx, "z1")
    a = fit_alone(target, d, samples)
    b = fit_alone(target, d, samples)
    assert a.coefficients == b.coefficients
    assert a.residuals == b.residuals
    # sample order changes the rows but not the quality of the fit
    c = fit_alone(target, d, list(reversed(samples)))
    assert abs(a.sup_residual - c.sup_residual) <= 1e-9


def test_flow_audit_in_span_target():
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 0)
    target = twist_target(ctx)
    samples = plane_samples(ctx)
    fit = fit_alone(target, d, samples)
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
    fit = fit_alone(target, d, samples)
    assert fit.sup_residual > 1e-3
    audits = flow_deviation_audit(target, d, fit, samples[:3])
    for a in audits:
        assert a["ok"], a


def test_flow_audit_rows_equal_a_serial_run(monkeypatch):
    ctx = plane_ctx()
    d = build_dictionary(ctx, [plane_pair(ctx)], 1)
    target = twist_target(ctx, "z2")
    samples = plane_samples(ctx)
    fit = fit_alone(target, d, samples)
    spread = flow_deviation_audit(target, d, fit, samples[:5])
    monkeypatch.setattr(approx, "map_on_cpus",
                        lambda fn, jobs: [fn(j) for j in jobs])
    assert spread == flow_deviation_audit(target, d, fit, samples[:5])
    assert [len(a["checks"]) for a in spread] == [AUDIT_CHECKPOINTS] * 5


def test_volume_audit_matches_divergence_integral():
    ctx = make_suspension(1, "z1")
    # u d_u + z1 d_z1 is tangent with surface divergence exactly 1, so the
    # weighted chart determinant of the time-t flow must be e^t
    sf = VectorField(ctx.ring, (
        ctx.ring.parse("u"), ctx.ring.zero(), ctx.ring.parse("z1")))
    point = surface_point(ctx, [1.0, 0.5, 0.5], tol=1e-9)
    out = volume_result(volume_audit(sf, ctx, point), point)
    assert out["error"] <= 1e-6
    assert abs(out["weighted_determinant"] - cmath.exp(0.25)) <= 1e-6
    assert abs(out["expected"] - cmath.exp(0.25)) <= 1e-9


def test_volume_audit_needs_chart():
    ctx = make_suspension(1, "z1")
    sf = twist_target(ctx)
    point = surface_point(ctx, [0.0, 7.0, 0.0], tol=1e-9)
    with pytest.raises(ApproxError):
        volume_audit(sf, ctx, point)

