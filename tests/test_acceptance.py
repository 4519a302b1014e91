"""Release acceptance checks, one test per criterion.

Each criterion in the release checklist gets exactly one test here, so a
verbose run prints one pass/fail line per criterion.  Tolerances are
asserted at their stated values, never loosened.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from randgen import rand_divergence_free_field
from suspvdp.approx import (build_dictionary, fit_field, projected_system,
                            residual_curve)
from suspvdp.certify import (Assumptions, PairSpec, lift_ideal, lift_pair,
                             run_vdp_criterion, semicompat_certificate)
from suspvdp.cli import main as cli_main
from suspvdp.fields import VectorField
from suspvdp.lifts import (chart_jacobian_determinant, flow_chart_jacobian,
                           lift, lifted_flow, rk4_flow, shear_pullback,
                           spanning_family)
from suspvdp.linalg import ExactMatrix, exact_rank, solve_columns
from suspvdp.poly import PolyRing
from suspvdp.scalars import ZERO, gr
from suspvdp.scenario import bundled_names, load_scenario
from suspvdp.surface import (SamplingSpec, divergence_on_suspension, is_tangent,
                             make_suspension, sample_points, surface_point,
                             tangent_basis)
from test_identities import suite_failures

CORE_SUITES = ["cartan", "dd-zero", "antiderivation", "jacobi",
               "divergence-leibniz", "bracket-form"]


def announce(num, text):
    print(f"criterion {num}: PASS - {text}")


def coordinate_pair(ctx):
    alpha = VectorField.from_texts(ctx.base_ring, ["1", "0"])
    beta = VectorField.from_texts(ctx.base_ring, ["0", "1"])
    return alpha, beta


def test_criterion_1_exact_identities_zero_tolerance():
    start = time.perf_counter()
    for name in CORE_SUITES:
        assert suite_failures(name, 200, 20260816) == [], name
    total = time.perf_counter() - start
    assert total < 60.0, f"identity suites took {total:.1f}s"
    announce(1, "6 exact suites x 200 random inputs each, zero failures, "
             f"{total:.2f}s (< 60s)")


def test_criterion_2_lifts_of_divergence_free_fields():
    scratch = PolyRing(("z1", "z2"))
    rng = random.Random(20)
    fields = []
    while len(fields) < 20:
        raw = rand_divergence_free_field(scratch, rng, max_degree=4)
        if not all(c.is_zero for c in raw.coeffs):
            fields.append(raw)

    for f_text in ("z1", "z1^2", "z1*z2 - 1"):
        ctx = make_suspension(2, f_text)
        for raw in fields:
            theta = VectorField.from_texts(ctx.base_ring,
                                         [str(c) for c in raw.coeffs])
            div = ctx.base_ring.zero()
            for i, c in enumerate(theta.coeffs):
                div = div + c.derivative(i)
            assert div.is_zero
            for side in ("u", "v"):
                lifted = lift(theta, ctx, side)
                assert is_tangent(lifted, ctx).is_zero, (f_text, side)
                assert divergence_on_suspension(lifted, ctx).is_zero, \
                    (f_text, side)
    announce(2, "both side lifts of 20 random divergence-free plane fields "
             "have exactly zero divergence for all three test surfaces")


def test_criterion_3_closed_form_flow_vs_rk4():
    ctx = make_suspension(2, "z1*z2 - 1")
    theta = VectorField.from_texts(ctx.base_ring, ["1", "z1"])
    flow_map = lifted_flow(theta, ctx, "u")
    assert flow_map.symbolic
    nu = lift(theta, ctx, "u")

    pts = [p for p in sample_points(ctx, SamplingSpec(count=80, seed=3))
           if abs(p.complex_coords()[0]) >= 0.25
           and abs(p.complex_coords()[1]) >= 0.25][:20]
    assert len(pts) == 20

    checkpoints = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                   Fraction(1))
    worst_dev = 0.0
    worst_det = 0.0
    for p in pts:
        x = list(p.complex_coords())
        prev = Fraction(0)
        for t in checkpoints:
            x = rk4_flow(nu.evaluate_complex, x,
                         float(t - prev), 512)
            prev = t
            closed = flow_map.apply(p, t).complex_coords()
            worst_dev = max(worst_dev,
                            max(abs(a - b) for a, b in zip(closed, x)))
        det = chart_jacobian_determinant(flow_chart_jacobian(flow_map, p,
                                                             1.0))
        worst_det = max(worst_det, abs(det - 1.0))

    assert worst_dev <= 1e-9, worst_dev
    assert worst_det <= 1e-8, worst_det
    announce(3, f"closed-form flow vs RK4 within {worst_dev:.1e} (<= 1e-9) "
             "at 20 points, 4 checkpoints across the unit time interval; "
             f"chart determinant within {worst_det:.1e} of 1 (<= 1e-8)")


def test_criterion_4_lifted_kernels_and_certificate():
    ctx = make_suspension(2, "z1")
    alpha, beta = coordinate_pair(ctx)
    pair = lift_pair(alpha, beta, [ctx.base_ring.parse("z2")],
                     [ctx.base_ring.parse("z1")], ctx, "uv")

    # membership has to be exact annihilation, not numerical smallness
    for field, kernel in ((pair.nu, pair.kernel_nu),
                          (pair.mu, pair.kernel_mu)):
        assert kernel
        for k in kernel:
            assert field.apply(k).is_zero, str(k)

    cert = semicompat_certificate(pair.kernel_nu, pair.kernel_mu,
                                  lift_ideal([ctx.base_ring.one()], ctx, 3),
                                  3, ctx=ctx)
    assert cert.success, cert.unreachable
    assert cert.re_verify(ctx)
    announce(4, "lifted kernel memberships exact; pair certificate at "
             f"degree bound 3 reaches all {len(cert.targets)} targets "
             f"({cert.mode} mode) and re-verifies")


def tangent_wedge_rank(ctx, p, family):
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


def test_criterion_5_spanning_rank_and_twisted_pullback():
    ctx = make_suspension(2, "z1")
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    alpha, beta = coordinate_pair(ctx)
    fam = spanning_family([(alpha, beta, [ctx.base_ring.one()])], ctx, p)
    rank = tangent_wedge_rank(ctx, p, fam)
    assert rank == 3 == math.comb(ctx.n + 1, 2)

    # pullback along the twist by g, alpha stationary for f, closed form:
    # v*alpha + u*v*alpha(g) d_u - v^2*alpha(g) d_v, exact at the point
    g = ctx.base_ring.parse("z2")
    stationary = beta
    alpha_u = lift(stationary, ctx, "u")
    radial = VectorField(ctx.ring, (ctx.ring.var("u"), -ctx.ring.var("v"),
                                    ctx.ring.zero(), ctx.ring.zero()))
    got = shear_pullback(alpha_u, radial, g.extend_to(ctx.ring), p)
    ag = stationary.apply(g).extend_to(ctx.ring)
    u, v = ctx.ring.var("u"), ctx.ring.var("v")
    want = VectorField(ctx.ring, (
        u * v * ag, -(v * v * ag),
        *(v * c.extend_to(ctx.ring) for c in stationary.coeffs)))
    assert got == want.evaluate_exact(p.coords)
    announce(5, "spanning family reaches exact wedge rank 3 = C(3,2) at a "
             "verified basepoint; twisted pullback closed form holds "
             "exactly")


def test_criterion_6_end_to_end_certification():
    t0 = time.perf_counter()
    ctx = make_suspension(2, "z1")
    alpha, beta = coordinate_pair(ctx)
    spec = PairSpec(alpha, beta, (ctx.base_ring.parse("z2"),),
                    (ctx.base_ring.parse("z1"),), ())
    report = run_vdp_criterion(
        ctx, [spec],
        Assumptions(cohomology=True,
                    note="graph of a polynomial, a copy of affine 3-space"),
        SamplingSpec(count=50, seed=0), degree_bound=3)
    elapsed = time.perf_counter() - t0

    assert report.verdict == "certified-at-samples", report.problems
    assert len(report.ranks) >= 50
    full = math.comb(ctx.n + 1, 2)
    assert all(r["rank"] == full and r["full"] for r in report.ranks)
    assert elapsed < 300.0, f"criterion run took {elapsed:.1f}s"
    announce(6, "end-to-end run certifies at samples with full rank at "
             f"{len(report.ranks)} exact points in {elapsed:.1f}s (< 5 min)")


def test_criterion_7_approx_recovery_and_residual_curves():
    # targets assembled from dictionary entries come back to 1e-10
    ctx = make_suspension(2, "z1")
    alpha, beta = coordinate_pair(ctx)
    pair = lift_pair(alpha, beta, (ctx.base_ring.parse("z2"),),
                     (ctx.base_ring.parse("z1"),), ctx)
    d = build_dictionary(ctx, [pair], 2)
    samples = sample_points(ctx, SamplingSpec(count=12, seed=5))
    rng = random.Random(7)
    pool = [gr(1), gr(-1), gr(1, 1), gr(Fraction(1, 2))]
    worst = 0.0
    for _ in range(3):
        amb = [ctx.ring.zero() for _ in range(ctx.ring.nvars)]
        for i in rng.sample(range(len(d)), 6):
            c = rng.choice(pool)
            for k, q in enumerate(d.entries[i].field.coeffs):
                amb[k] = amb[k] + q.scale(c)
        target = VectorField(ctx.ring, tuple(amb))
        fit = fit_field(d, projected_system(target, ctx, samples, [d]))
        worst = max(worst, fit.sup_residual)
    assert worst <= 1e-10, worst

    # the residual curve never increases on any bundled scenario, and the
    # bundled twist targets are in span, so the last point is tiny too
    finals = {}
    for name in bundled_names():
        sc = load_scenario(name)
        sctx = sc.ctx
        pairs = [lift_pair(ps.alpha, ps.beta, ps.kernel_alpha,
                           ps.kernel_beta, sctx)
                 for ps in sc.pairs]
        pts = sample_points(sctx, replace(sc.sampling, count=10))
        curve, _, _ = residual_curve(sc.approx.field, sctx,
                                     pairs, pts,
                                     sorted(sc.approx.curve_degrees))
        sups = [row["sup_residual"] for row in curve]
        for lo, hi in zip(sups, sups[1:]):
            # 1e-12 absorbs least-squares noise on exactly-solvable steps
            assert hi <= lo + 1e-12, (name, sups)
        assert sups[-1] <= 1e-10, (name, sups)
        finals[name] = sups[-1]

    assert sorted(finals) == sorted(bundled_names())
    announce(7, f"in-span recovery sup residual {worst:.1e} (<= 1e-10); "
             "residual curves non-increasing with in-span tails on all "
             f"{len(finals)} bundled scenarios")


def test_criterion_8_reports_are_byte_identical(tmp_path):
    runs = []
    for k in (1, 2):
        out = tmp_path / f"criterion-{k}"
        code = cli_main(["criterion", "--scenario", "plane",
                         "--samples", "12", "--seed", "4",
                         "--out", str(out), "--no-figures"])
        assert code == 0
        runs.append([(out / nm).read_bytes()
                     for nm in ("criterion.json", "ranks.csv")])
    assert runs[0] == runs[1]

    runs = []
    for k in (1, 2):
        out = tmp_path / f"approx-{k}"
        code = cli_main(["approx", "--scenario", "danielewski",
                         "--out", str(out), "--no-figures"])
        assert code == 0
        runs.append([(out / nm).read_bytes()
                     for nm in ("approx.json", "residuals.csv",
                                "flow_audit.csv")])
    assert runs[0] == runs[1]
    announce(8, "criterion and approx reports are byte-identical across "
             "repeat runs with the same scenario and seed")
