import json
import random

import pytest

from suspvdp.certify import (Assumptions, BracketCheck, CertifyError,
                             KernelFamily, PairSpec, RankReport,
                             base_spanning_rank, compatible_bracket_check,
                             lift_ideal, lift_pair, monomial_closure,
                             run_vdp_criterion, semicompat_certificate,
                             spanning_rank, verify_kernel)
from suspvdp.fields import VectorField
from suspvdp.lifts import BaseField, SpanningPair, lift, spanning_family
from suspvdp.poly import PolyRing
from suspvdp.randgen import rand_poly
from suspvdp.scalars import ZERO, gr
from suspvdp.surface import (NotTangentError, SamplingSpec, make_suspension,
                             surface_point)


def coord_field(ring, name):
    return VectorField.coordinate(ring, ring.index(name))


def test_verify_kernel():
    ring = PolyRing(("z1", "z2"))
    d1 = coord_field(ring, "z1")
    fam = verify_kernel(d1, [ring.parse("z2"), ring.parse("z2^2")])
    assert len(fam.generators) == 2
    with pytest.raises(CertifyError):
        verify_kernel(d1, [ring.parse("z1")])


def test_verify_kernel_on_lift():
    ctx = make_suspension(2, "z1")
    nu = lift(BaseField.from_texts(ctx.base_ring, ["1", "0"]), ctx, "u")
    verify_kernel(nu, [ctx.parse("v"), ctx.parse("z2"), ctx.parse("v^2*z2")])


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
    got = monomial_closure([ctx.parse("v")], ctx.ring, 2,
                           reducer=ctx.normal_form)
    assert [str(p) for p in got] == ["1", "v", "v^2"]


def base_kernels(ring):
    knu = verify_kernel(coord_field(ring, "z1"), [ring.parse("z2")])
    kmu = verify_kernel(coord_field(ring, "z2"), [ring.parse("z1")])
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
    d1 = coord_field(ring, "z1")
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
    d1 = coord_field(ring, "z1")
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
        bigger_nu = verify_kernel(coord_field(ring, "z1"),
                                  [ring.parse("z2"), ring.parse("z2^3")])
        grown = semicompat_certificate(bigger_nu, kmu, [ring.one()], d)
        assert grown.success or not base.success


def test_semicompat_lifted_pair_plain():
    ctx = make_suspension(2, "z1")
    pair = lift_pair(BaseField.from_texts(ctx.base_ring, ["1", "0"]),
                     BaseField.from_texts(ctx.base_ring, ["0", "1"]),
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
    alpha = BaseField.from_texts(ctx.base_ring, ["1"])
    pair = lift_pair(alpha, alpha, [], [], [ctx.base_ring.one()], ctx,
                     "uv", ideal_bound=2)
    cert = semicompat_certificate(pair.kernel_nu, pair.kernel_mu, pair.ideal,
                                  2, ctx=ctx)
    assert cert.success and cert.mode == "quotient"
    assert cert.re_verify(ctx)
    forced = semicompat_certificate(pair.kernel_nu, pair.kernel_mu,
                                    pair.ideal, 2, ctx=ctx, mode="plain")
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
        lift_ideal([ctx.parse("u")], ctx, 1)


def criterion_setup():
    ctx = make_suspension(2, "z1")
    alpha = BaseField.from_texts(ctx.base_ring, ["1", "0"])
    beta = BaseField.from_texts(ctx.base_ring, ["0", "1"])
    spec = PairSpec(alpha, beta,
                    (ctx.base_ring.parse("z2"),),
                    (ctx.base_ring.parse("z1"),))
    return ctx, spec


def test_spanning_rank_full():
    ctx, spec = criterion_setup()
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    fam = spanning_family([(spec.alpha, spec.beta, [ctx.base_ring.one()])],
                          ctx, p, g_twist=ctx.base_ring.parse("z2"))
    report = spanning_rank(fam, ctx)
    assert report.rank == 3 and report.full and report.full_rank == 3

    # rank is invariant under permutation and nonzero rescaling
    fam.pairs.reverse()
    assert spanning_rank(fam, ctx).rank == 3
    fam.pairs[0] = SpanningPair(
        fam.pairs[0].label,
        tuple(c * gr(2) for c in fam.pairs[0].a),
        fam.pairs[0].b, fam.pairs[0].ideal_value * gr(-3))
    assert spanning_rank(fam, ctx).rank == 3


def test_spanning_rank_zero_ideal_value_drops_pair():
    ctx, spec = criterion_setup()
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    fam = spanning_family([(spec.alpha, spec.beta, [ctx.base_ring.one()])],
                          ctx, p)
    fam.pairs = [SpanningPair(sp.label, sp.a, sp.b, ZERO)
                 for sp in fam.pairs]
    assert spanning_rank(fam, ctx).rank == 0


def test_spanning_rank_rejects_non_tangent():
    ctx, spec = criterion_setup()
    p = surface_point(ctx, [gr(1), gr(1), gr(1), gr(0)])
    fam = spanning_family([(spec.alpha, spec.beta, [ctx.base_ring.one()])],
                          ctx, p)
    fam.pairs[0] = SpanningPair("bogus", (gr(1), gr(0), gr(0), gr(0)),
                                fam.pairs[0].b, gr(1))
    with pytest.raises(NotTangentError):
        spanning_rank(fam, ctx)


def test_base_spanning_rank():
    ring = PolyRing(("z1", "z2"))
    alpha = BaseField.from_texts(ring, ["1", "0"])
    beta = BaseField.from_texts(ring, ["0", "1"])
    z0 = (gr(1), gr(0))
    report = base_spanning_rank([(alpha, beta, [ring.one()])], z0)
    assert report.rank == 1 and report.full_rank == 1 and report.full
    # a vanishing ideal value contributes nothing
    report0 = base_spanning_rank([(alpha, beta, [ring.parse("z2")])], z0)
    assert report0.rank == 0


def test_compatible_bracket_identity():
    ring = PolyRing(("z1", "z2"))
    nu, mu = coord_field(ring, "z1"), coord_field(ring, "z2")
    check = compatible_bracket_check(nu, mu, ring.parse("z1"),
                                     ring.parse("z2"), ring.parse("z1"))
    assert check.ok and all(check.preconditions.values())
    simple = compatible_bracket_check(nu, mu, ring.parse("z1"),
                                      ring.one(), ring.one())
    assert simple.ok


def test_compatible_bracket_reports_precondition():
    ring = PolyRing(("z1", "z2"))
    nu, mu = coord_field(ring, "z1"), coord_field(ring, "z2")
    check = compatible_bracket_check(nu, mu, ring.parse("z2"),
                                     ring.one(), ring.one())
    assert not check.preconditions["h in Ker mu"]
    assert not check.ok


def test_compatible_bracket_random_tuples():
    ring = PolyRing(("z1", "z2", "z3"))
    rng = random.Random(17)
    for _ in range(50):
        i, j = rng.sample(range(3), 2)
        k = 3 - i - j
        nu, mu = coord_field(ring, f"z{i+1}"), coord_field(ring, f"z{j+1}")
        h = rand_poly(ring, rng, max_degree=2, indices=[k]) * ring.var(i) + \
            rand_poly(ring, rng, max_degree=3, indices=[k])
        f = rand_poly(ring, rng, max_degree=3, indices=[j, k])
        g = rand_poly(ring, rng, max_degree=3, indices=[i, k])
        check = compatible_bracket_check(nu, mu, h, f, g)
        assert all(check.preconditions.values())
        assert check.identity_holds


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
    assert "explanation" in report.assumptions


def test_run_vdp_criterion_empty_pairs_fails():
    ctx, _ = criterion_setup()
    report = run_vdp_criterion(ctx, [], Assumptions(cohomology=True),
                               SamplingSpec(count=3, seed=5))
    assert report.verdict == "failed"


def test_run_vdp_criterion_danielewski():
    ctx = make_suspension(1, "z1")
    alpha = BaseField.from_texts(ctx.base_ring, ["1"])
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

    real = certify_mod._span_solve
    corrupted = []

    def corrupt_first_witness(products, targets):
        witnesses = real(products, targets)
        if not corrupted:
            k = next(k for k, w in enumerate(witnesses) if w is not None)
            witnesses[k] = [witnesses[k][0] + 1] + witnesses[k][1:]
            corrupted.append(k)
        return witnesses

    monkeypatch.setattr(certify_mod, "_span_solve", corrupt_first_witness)
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
    ctx = scenario.context()
    counts = []
    for samples in (5, 50):
        calls.clear()
        report = run_vdp_criterion(
            ctx, scenario.pair_specs(ctx), Assumptions(cohomology=True),
            scenario.sampling_spec(count=samples),
            degree_bound=scenario.degree_bound)
        assert report.verdict == "certified-at-samples"
        assert len(report.ranks) == samples
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8
