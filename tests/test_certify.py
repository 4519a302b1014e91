import json
from dataclasses import replace

import pytest

from forms import coordinate_field
from suspvdp.certify import (Assumptions, CertifyError, PairSpec,
                             _certificate_in_mode, lift_ideal, lift_pair,
                             monomial_closure, run_vdp_criterion,
                             semicompat_certificate, spanning_rank,
                             verify_kernel)
from suspvdp.fields import VectorField
from suspvdp.lifts import (BasepointError, SpanningFamily, SpanningPair, lift,
                           spanning_family)
from suspvdp.poly import PolyRing
from suspvdp.scalars import ZERO, gr
from suspvdp.scenario import load_scenario
from suspvdp.surface import (NotTangentError, SamplingSpec, make_suspension,
                             surface_point)


def test_verify_kernel():
    ring = PolyRing(("z1", "z2"))
    d1 = coordinate_field(ring, "z1")
    gens = [ring.parse("z2"), ring.parse("z2^2")]
    assert verify_kernel(d1, gens) == tuple(gens)
    with pytest.raises(CertifyError):
        verify_kernel(d1, [ring.parse("z1")])


def test_verify_kernel_on_lift():
    ctx = make_suspension(2, "z1")
    nu = lift(VectorField.from_texts(ctx.base_ring, ["1", "0"]), ctx, "u")
    verify_kernel(nu, [ctx.ring.parse("v"), ctx.ring.parse("z2"), ctx.ring.parse("v^2*z2")])


def test_monomial_closure():
    ring = PolyRing(("z1", "z2"))
    got = monomial_closure([ring.parse("z2")], ring, 3)
    assert [str(p) for p in got] == ["1", "z2", "z2^2", "z2^3"]
    got = monomial_closure([ring.parse("z1"), ring.parse("z2")], ring, 2)
    assert len(got) == 6
    # constants add nothing and must not loop
    same = monomial_closure([ring.parse("3"), ring.parse("z2")], ring, 3)
    assert [str(p) for p in same] == ["1", "z2", "z2^2", "z2^3"]


def test_monomial_closure_with_reduction():
    ctx = make_suspension(1, "z1")
    got = monomial_closure([ctx.ring.parse("v")], ctx.ring, 2,
                           reducer=ctx.normal_form)
    assert [str(p) for p in got] == ["1", "v", "v^2"]


def base_kernels(ring):
    knu = verify_kernel(coordinate_field(ring, "z1"), [ring.parse("z2")])
    kmu = verify_kernel(coordinate_field(ring, "z2"), [ring.parse("z1")])
    return knu, kmu


def test_semicompat_toy_success():
    ring = PolyRing(("z1", "z2"))
    knu, kmu = base_kernels(ring)
    cert = semicompat_certificate(knu, kmu, [ring.one()], 3)
    assert cert.success and cert.mode == "plain"
    assert cert.unreachable == []
    assert cert.re_verify()


def test_semicompat_failure_is_not_an_exception():
    ring = PolyRing(("z1", "z2"))
    d1 = coordinate_field(ring, "z1")
    k = verify_kernel(d1, [ring.parse("z2")])
    cert = semicompat_certificate(k, k, [ring.one()], 2)
    assert not cert.success
    assert "z1" in cert.unreachable
    assert cert.re_verify()  # the witnesses that do exist are still exact


def test_semicompat_degree_growth_on_good_family():
    ring = PolyRing(("z1", "z2"))
    knu, kmu = base_kernels(ring)
    results = [semicompat_certificate(knu, kmu, [ring.one()], d).success
               for d in range(4)]
    assert results == [True, True, True, True]


def test_semicompat_success_is_pinned_to_requested_degree():
    # degree 0 succeeds vacuously for a unit ideal (1 = 1*1), yet degree 1
    # already fails here; a certificate claim is only as strong as the
    # bound it was requested at
    ring = PolyRing(("z1", "z2"))
    d1 = coordinate_field(ring, "z1")
    k = verify_kernel(d1, [ring.parse("z2")])
    assert semicompat_certificate(k, k, [ring.one()], 0).success
    bad = [semicompat_certificate(k, k, [ring.one()], d).success
           for d in range(1, 4)]
    assert bad == [False, False, False]


def test_semicompat_monotone_in_kernel_enlargement():
    # adding kernel generators only adds products: success is preserved
    ring = PolyRing(("z1", "z2"))
    knu, kmu = base_kernels(ring)
    for d in range(4):
        base = semicompat_certificate(knu, kmu, [ring.one()], d)
        bigger_nu = verify_kernel(coordinate_field(ring, "z1"),
                                  [ring.parse("z2"), ring.parse("z2^3")])
        grown = semicompat_certificate(bigger_nu, kmu, [ring.one()], d)
        assert grown.success or not base.success


def test_semicompat_lifted_pair_plain():
    ctx = make_suspension(2, "z1")
    pair = lift_pair(VectorField.from_texts(ctx.base_ring, ["1", "0"]),
                     VectorField.from_texts(ctx.base_ring, ["0", "1"]),
                     [ctx.base_ring.parse("z2")],
                     [ctx.base_ring.parse("z1")],
                     [ctx.base_ring.one()], ctx, "uv", ideal_bound=3)
    cert = semicompat_certificate(pair.kernel_nu, pair.kernel_mu, pair.ideal,
                                  3, ctx=ctx)
    assert cert.success and cert.mode == "plain"
    assert cert.re_verify(ctx)


def test_semicompat_quotient_fallback():
    # single coordinate derivation on the n=1 surface: the lifted kernels
    # are generated by v and u alone, so plain polynomial identities miss
    # z1 and the certificate must pass to the quotient
    ctx = make_suspension(1, "z1")
    alpha = VectorField.from_texts(ctx.base_ring, ["1"])
    pair = lift_pair(alpha, alpha, [], [], [ctx.base_ring.one()], ctx,
                     "uv", ideal_bound=2)
    cert = semicompat_certificate(pair.kernel_nu, pair.kernel_mu, pair.ideal,
                                  2, ctx=ctx)
    assert cert.success and cert.mode == "quotient"
    assert cert.re_verify(ctx)
    forced = _certificate_in_mode(pair.kernel_nu, pair.kernel_mu,
                                  pair.ideal, 2, ctx, "plain")
    assert not forced.success


def test_semicompat_rejects_zero_ideal():
    ring = PolyRing(("z1", "z2"))
    knu, kmu = base_kernels(ring)
    with pytest.raises(CertifyError):
        semicompat_certificate(knu, kmu, [ring.zero()], 2)


def test_lift_ideal():
    ctx = make_suspension(2, "z1")
    got = lift_ideal([ctx.base_ring.one()], ctx, 2)
    texts = {str(p) for p in got}
    assert {"1", "u", "v", "z1", "u^2", "v^2"} == texts
    got2 = lift_ideal([ctx.base_ring.parse("z2")], ctx, 1)
    assert {str(p) for p in got2} == {"z2", "u*z2", "v*z2"}
    with pytest.raises(CertifyError):
        lift_ideal([ctx.ring.parse("u")], ctx, 1)


def criterion_setup():
    ctx = make_suspension(2, "z1")
    alpha = VectorField.from_texts(ctx.base_ring, ["1", "0"])
    beta = VectorField.from_texts(ctx.base_ring, ["0", "1"])
    spec = PairSpec(alpha, beta,
                    (ctx.base_ring.parse("z2"),),
                    (ctx.base_ring.parse("z1"),))
    return ctx, spec


def test_spanning_rank_full():
    ctx, spec = criterion_setup()
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    fam = spanning_family([(spec.alpha, spec.beta, [ctx.base_ring.one()])],
                          ctx, p)
    assert spanning_rank(fam, ctx) == 3

    # rank is invariant under permutation and nonzero rescaling
    fam.pairs.reverse()
    assert spanning_rank(fam, ctx) == 3
    fam.pairs[0] = SpanningPair(
        fam.pairs[0].label,
        tuple(c * gr(2) for c in fam.pairs[0].a),
        fam.pairs[0].b, fam.pairs[0].ideal_value * gr(-3))
    assert spanning_rank(fam, ctx) == 3


def test_spanning_rank_zero_ideal_value_drops_pair():
    ctx, spec = criterion_setup()
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    fam = spanning_family([(spec.alpha, spec.beta, [ctx.base_ring.one()])],
                          ctx, p)
    fam.pairs = [SpanningPair(sp.label, sp.a, sp.b, ZERO)
                 for sp in fam.pairs]
    assert spanning_rank(fam, ctx) == 0


def test_spanning_rank_rejects_non_tangent():
    ctx, spec = criterion_setup()
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    fam = spanning_family([(spec.alpha, spec.beta, [ctx.base_ring.one()])],
                          ctx, p)
    fam.pairs[0] = SpanningPair("bogus", (gr(1), gr(0), gr(0), gr(0)),
                                fam.pairs[0].b, gr(1))
    with pytest.raises(NotTangentError):
        spanning_rank(fam, ctx)


def test_spanning_rank_refuses_a_basepoint_with_v_zero():
    # the wedges are ranked in the chart (v, z), which needs v != 0
    ctx, _ = criterion_setup()
    p = surface_point(ctx, [gr(2), gr(0), gr(0), gr(3)])
    e_u, e_z2 = (gr(1), ZERO, ZERO, ZERO), (ZERO, ZERO, ZERO, gr(1))
    fam = SpanningFamily(p, [SpanningPair("tangent", e_u, e_z2, gr(1))])
    with pytest.raises(BasepointError) as err:
        spanning_rank(fam, ctx)
    assert err.value.failures == ["v_nonzero"]


def test_run_vdp_criterion_certified():
    ctx, spec = criterion_setup()
    report = run_vdp_criterion(ctx, [spec], Assumptions(cohomology=True),
                               SamplingSpec(count=8, seed=5), degree_bound=3)
    assert report.verdict == "certified-at-samples"
    assert report.problems == []
    assert len(report.ranks) == 8
    assert all(r["rank"] == 3 and r["full"] for r in report.ranks)
    assert all(c["success"] for entry in report.pairs
               for c in entry["certificates"])
    assert report.smoothness["certificate_found"]
    assert "timings" not in report.to_json_dict()
    assert report.timings  # measured, but kept out of the document


def test_run_vdp_criterion_inconclusive_without_assertion():
    ctx, spec = criterion_setup()
    report = run_vdp_criterion(ctx, [spec], Assumptions(),
                               SamplingSpec(count=3, seed=5), degree_bound=2)
    assert report.verdict == "inconclusive"
    assert report.assumptions["explanation"] == (
        "the topological vanishing hypothesis is undecidable here and was "
        "not asserted; certify it externally and set the flag")
    # every field is shown complete, so no completeness key is listed
    assert "completeness" not in report.assumptions


def n3_report(alpha, kernel_alpha):
    """The criterion on u*v = z1 over C^3 with cohomology asserted: pair 0
    is (alpha, d_z3), and the coordinate pairs after it make every rank
    full only together with pair 0."""
    ctx = make_suspension(3, "z1")
    ring = ctx.base_ring

    def pair(alpha, beta, kernel_alpha, kernel_beta):
        return PairSpec(VectorField.from_texts(ring, alpha),
                        VectorField.from_texts(ring, beta),
                        tuple(map(ring.parse, kernel_alpha)),
                        tuple(map(ring.parse, kernel_beta)))

    pairs = [pair(alpha, ["0", "0", "1"], kernel_alpha, ["z1", "z2"]),
             pair(["0", "1", "0"], ["0", "0", "1"], ["z1", "z3"], ["z1", "z2"]),
             pair(["1", "0", "0"], ["0", "1", "0"], ["z2", "z3"], ["z1", "z3"])]
    return run_vdp_criterion(ctx, pairs, Assumptions(cohomology=True),
                             SamplingSpec(count=4, seed=0), degree_bound=2)


def assert_completeness_undecided(report, unshown):
    assert report.verdict == "inconclusive"
    assert report.problems == []
    assert report.assumptions["completeness"] == [unshown]
    assert report.assumptions["explanation"] == (
        f"completeness is not shown for {unshown} (neither locally "
        "nilpotent within the series guard nor affine linear); certify it "
        "externally")
    assert all(r["full"] for r in report.ranks)


def test_run_vdp_criterion_refuses_an_incomplete_field():
    # alpha is divergence-free with verified kernels and lifts, but
    # z1' = z1^2 blows up in finite time.  The tool cannot show that, so
    # completeness stays undecided and nothing is certified
    report = n3_report(["z1^2", "-2*z1*z2", "0"], ["z3", "z1^2*z2"])
    assert_completeness_undecided(
        report, "pair 0: alpha = [z1^2, -2*z1*z2, 0]")


def test_run_vdp_criterion_leaves_an_unshown_complete_field_undecided():
    # z1' = z1*z3, z2' = -z2*z3 is complete, with flow z1*e^(t*z3),
    # z2*e^(-t*z3), but neither affine linear nor locally nilpotent: the
    # tool cannot show it complete, and that refutes nothing
    report = n3_report(["z1*z3", "-z2*z3", "0"], ["z3", "z1*z2"])
    assert_completeness_undecided(report, "pair 0: alpha = [z1*z3, -z2*z3, 0]")


def test_run_vdp_criterion_records_an_all_zero_ideal():
    # scenario files refuse such an ideal; a library caller's is a problem
    # of its pair, recorded like every other sub-check failure
    s = load_scenario("plane")
    zero = s.ctx.base_ring.zero()
    report = run_vdp_criterion(s.ctx, [replace(s.pairs[0], ideal=(zero,))],
                               Assumptions(), s.sampling, 2)
    assert report.verdict == "failed"
    assert report.problems[0] == (
        "pair 0: the proposed ideal has no nonzero generator")
    assert report.pairs[0]["certificates"] == []


def test_run_vdp_criterion_empty_pairs_fails():
    ctx, _ = criterion_setup()
    report = run_vdp_criterion(ctx, [], Assumptions(cohomology=True),
                               SamplingSpec(count=3, seed=5), degree_bound=4)
    assert report.verdict == "failed"


def test_run_vdp_criterion_danielewski():
    ctx = make_suspension(1, "z1")
    alpha = VectorField.from_texts(ctx.base_ring, ["1"])
    spec = PairSpec(alpha, alpha)
    report = run_vdp_criterion(ctx, [spec], Assumptions(cohomology=True),
                               SamplingSpec(count=5, seed=2), degree_bound=2)
    assert report.verdict == "certified-at-samples"
    assert all(r["rank"] == 1 for r in report.ranks)
    modes = {c["mode"] for entry in report.pairs
             for c in entry["certificates"]}
    assert "quotient" in modes


def test_run_vdp_criterion_deterministic():
    ctx, spec = criterion_setup()
    args = ([spec], Assumptions(cohomology=True),
            SamplingSpec(count=4, seed=11))
    a = run_vdp_criterion(ctx, *args, degree_bound=2)
    b = run_vdp_criterion(ctx, *args, degree_bound=2)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)


def test_run_vdp_criterion_reports_failed_re_expansion(monkeypatch):
    import suspvdp.certify as certify_mod

    real = certify_mod.span_solve
    corrupted = []

    def corrupt_first_witness(columns, targets):
        witnesses = real(columns, targets)
        if not corrupted:
            k = next(k for k, w in enumerate(witnesses) if w is not None)
            witnesses[k] = [witnesses[k][0] + 1] + witnesses[k][1:]
            corrupted.append(k)
        return witnesses

    monkeypatch.setattr(certify_mod, "span_solve", corrupt_first_witness)
    ctx, spec = criterion_setup()
    report = run_vdp_criterion(ctx, [spec], Assumptions(cohomology=True),
                               SamplingSpec(count=3, seed=5), degree_bound=2)
    assert corrupted
    assert report.problems == [
        "pair 0 (uv): certificate re-expansion does not reproduce its "
        "witnesses"]
    assert report.verdict == "failed"
    # the solver's own verdict on the pair is untouched
    assert all(c["success"] for c in report.pairs[0]["certificates"])


def test_run_vdp_criterion_lifts_once_per_run(monkeypatch):
    import suspvdp.certify as certify_mod
    import suspvdp.lifts as lifts_mod
    from suspvdp.scenario import load_scenario

    real = lifts_mod.lift
    calls = []

    def counting_lift(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["side"])
        return real(*args, **kwargs)

    monkeypatch.setattr(lifts_mod, "lift", counting_lift)
    monkeypatch.setattr(certify_mod, "lift", counting_lift)
    scenario = load_scenario("plane")
    counts = []
    for samples in (5, 50):
        calls.clear()
        report = run_vdp_criterion(
            scenario.ctx, scenario.pairs, Assumptions(cohomology=True),
            replace(scenario.sampling, count=samples),
            degree_bound=scenario.degree_bound)
        assert report.verdict == "certified-at-samples"
        assert len(report.ranks) == samples
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8
