"""Semi-compatibility certificates and the assembled criterion runner.

A pair of volume-preserving fields is certified here in a degree-truncated
sense: up to a degree bound D, every product of a proposed ideal generator
with a monomial must be an exact linear combination of products a*b with a
from the multiplicative closure of one kernel and b from the other.  The
witnesses are stored and can be re-expanded independently of the solver.

Two certificate modes exist.  The plain mode works with polynomial
identities in the ambient ring; these restrict to the surface, so a plain
success is also a surface success.  The quotient mode reduces everything
to normal form first and spans the quotient basis monomials instead; it is
the fallback for pairs whose products only cover the surface algebra after
reduction (the n=1 pair built from a single coordinate derivation needs
this).

The runner assembles the full check: divergence, completeness and kernel
verification, certificates for both lifted orientations of every pair,
smoothness witnesses for the zero fiber, and exact spanning ranks at
sampled points.
Its verdict is deliberately capped at "certified-at-samples".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .fields import VectorField, divergence
from .lifts import (BasepointError, SpanningFamily, lift, shown_complete,
                    spanning_plan)
from .linalg import ExactMatrix, exact_rank, span_solve
from .poly import Poly, PolyRing
from .scalars import ZERO, GaussianRational
from .surface import (NotTangentError, SamplingError, SamplingSpec,
                      SurfacePoint, SuspensionContext, basepoint_search,
                      divergence_on_suspension, is_tangent, sample_zero_fiber,
                      smoothness_witness, tangent_basis)


class CertifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# kernels


def verify_kernel(theta: VectorField,
                  generators: Sequence[Poly]) -> tuple[Poly, ...]:
    """The generators, after checking that the field annihilates every
    one of them, exactly."""
    for k in generators:
        if not theta.apply(k).is_zero:
            raise CertifyError(f"not annihilated by the field: {k}")
    return tuple(generators)


def monomial_closure(generators: Sequence[Poly], ring: PolyRing,
                     max_degree: int,
                     reducer=None) -> list[Poly]:
    """Products of the generators up to the degree bound, including 1.

    Kernels are closed under multiplication, so the closure stays inside
    the kernel.  Nonzero constant generators are skipped (they add nothing
    to the span and would never raise the degree).  With a reducer, every
    product is reduced first and the bound applies to the reduced form.
    """
    reduce = reducer if reducer is not None else (lambda p: p)
    seeds = []
    for g in generators:
        g = reduce(g)
        if g.is_zero or g.is_constant():
            continue
        if g.total_degree() <= max_degree:
            seeds.append(g)
    out: dict = {}
    one = ring.one()
    out[one.key()] = one
    frontier = [one]
    while frontier:
        nxt = []
        for p in frontier:
            for g in seeds:
                q = reduce(p * g)
                if q.is_zero or q.total_degree() > max_degree:
                    continue
                if q.key() in out:
                    continue
                out[q.key()] = q
                nxt.append(q)
        frontier = nxt
    return sorted(out.values(), key=lambda p: (p.total_degree(), p.key()))


# ---------------------------------------------------------------------------
# certificates


@dataclass
class SemiCompatCertificate:
    """Witnessed degree-truncated certificate for one ordered pair."""

    mode: str                      # "plain" or "quotient"
    success: bool
    products: list[tuple[Poly, Poly, Poly]]   # (a, b, reduced product)
    targets: list[Poly]
    witnesses: list[list[GaussianRational] | None]
    unreachable: list[str]

    def re_verify(self, ctx: SuspensionContext | None = None) -> bool:
        """Re-expand every witness identity from scratch."""
        reduce = (lambda p: p) if self.mode == "plain" else \
            (lambda p: ctx.normal_form(p))
        for a, b, prod in self.products:
            if reduce(a * b) != prod:
                return False
        for target, coeffs in zip(self.targets, self.witnesses):
            if coeffs is None:
                continue
            ring = target.ring
            total = ring.zero()
            for c, (_, _, prod) in zip(coeffs, self.products):
                if not c.is_zero:
                    total = total + prod.scale(c)
            if total != target:
                return False
        return True


def _monomial_universe(ring: PolyRing, max_degree: int,
                       quotient: bool) -> list[Poly]:
    out = []
    for e in ring.exponents_up_to(max_degree):
        if quotient and min(e[0], e[1]) != 0:
            continue
        out.append(ring.monomial(e))
    return sorted(out, key=lambda p: (p.total_degree(), p.key()))


def semicompat_certificate(kernel_nu: Sequence[Poly],
                           kernel_mu: Sequence[Poly], ideal: Sequence[Poly],
                           degree_bound: int,
                           ctx: SuspensionContext | None = None
                           ) -> SemiCompatCertificate:
    """Certify that, up to the degree bound, the span of kernel products
    contains every ideal generator times every monomial.

    Infeasibility is a certificate failure with the unreachable targets
    listed, not an exception.  The plain polynomial ring is tried first;
    the quotient is the fallback when a context is available.
    """
    ideal = tuple(ideal)
    if not ideal or all(h.is_zero for h in ideal):
        raise CertifyError("the proposed ideal has no nonzero generator")
    ring = next(h for h in ideal if not h.is_zero).ring
    ambient = ctx is not None and ring.variables == ctx.ring.variables
    plain = _certificate_in_mode(kernel_nu, kernel_mu, ideal, degree_bound,
                                 ctx, "plain")
    if plain.success or not ambient:
        return plain
    quotient = _certificate_in_mode(kernel_nu, kernel_mu, ideal, degree_bound,
                                    ctx, "quotient")
    return quotient if quotient.success else plain


def _certificate_in_mode(kernel_nu, kernel_mu, ideal, degree_bound, ctx,
                         mode) -> SemiCompatCertificate:
    ring = next(h for h in ideal if not h.is_zero).ring
    reducer = ctx.normal_form if mode == "quotient" else None
    reduce = reducer if reducer is not None else (lambda p: p)

    closure_nu = monomial_closure(kernel_nu, ring, degree_bound, reducer)
    closure_mu = monomial_closure(kernel_mu, ring, degree_bound, reducer)
    products: list[tuple[Poly, Poly, Poly]] = []
    seen = set()
    for a in closure_nu:
        for b in closure_mu:
            prod = reduce(a * b)
            if prod.is_zero or prod.key() in seen:
                continue
            seen.add(prod.key())
            products.append((a, b, prod))
    if all(len(prod.terms) == 1 for _, _, prod in products):
        # a deduped monomial product of excess degree sits alone in its
        # row, so its coefficient is forced to zero; dropping it is sound
        products = [t for t in products if t[2].total_degree() <= degree_bound]

    universe = _monomial_universe(ring, degree_bound, mode == "quotient")
    targets = []
    for h in ideal:
        h = reduce(h)
        if h.is_zero:
            continue
        room = degree_bound - h.total_degree()
        for m in universe:
            # without a reducer h*m has degree deg h + deg m, so the rest
            # of the degree-sorted universe overshoots the bound
            if reducer is None and m.total_degree() > room:
                break
            t = reduce(h * m)
            if t.is_zero or t.total_degree() > degree_bound:
                continue
            targets.append(t)
    dedup: dict = {}
    for t in targets:
        dedup.setdefault(t.key(), t)
    targets = sorted(dedup.values(), key=lambda p: (p.total_degree(), p.key()))

    witnesses = span_solve([prod for _, _, prod in products], targets)
    unreachable = [str(t) for t, w in zip(targets, witnesses) if w is None]
    return SemiCompatCertificate(
        mode=mode, success=not unreachable, products=products,
        targets=targets, witnesses=witnesses, unreachable=unreachable)


# ---------------------------------------------------------------------------
# lifted pairs and ideals


def lift_ideal(ideal: Sequence[Poly], ctx: SuspensionContext,
               bound: int) -> list[Poly]:
    """Normal forms of each generator times u^i v^j with i+j <= bound."""
    out: dict = {}
    u, v = ctx.ring.var("u"), ctx.ring.var("v")
    for h in ideal:
        if h.ring.variables != ctx.base_ring.variables:
            raise CertifyError("ideal generators live in the base variables")
        h_amb = h.extend_to(ctx.ring)
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                g = ctx.normal_form(h_amb * u ** i * v ** j)
                if not g.is_zero:
                    out.setdefault(g.key(), g)
    return sorted(out.values(), key=lambda p: (p.total_degree(), p.key()))


@dataclass(frozen=True)
class LiftedPair:
    """Opposite-side lifts of a base pair with their kernels and ideal."""

    orientation: str               # "uv": (alpha_u, beta_v); "vu": mirrored
    nu: VectorField
    mu: VectorField
    kernel_nu: tuple[Poly, ...]
    kernel_mu: tuple[Poly, ...]
    ideal: tuple[Poly, ...]


def lift_pair(alpha: VectorField, beta: VectorField,
              kernel_alpha: Sequence[Poly], kernel_beta: Sequence[Poly],
              ideal: Sequence[Poly], ctx: SuspensionContext,
              orientation: str = "uv", *, ideal_bound: int) -> LiftedPair:
    """Lift a base pair to opposite sides; the fiber coordinate of the
    opposite side joins each kernel, and the ideal is closed under
    multiplication by powers of u and v (normal-formed)."""
    if orientation not in ("uv", "vu"):
        raise CertifyError(f"orientation must be 'uv' or 'vu', not {orientation!r}")
    side_a, side_b = ("u", "v") if orientation == "uv" else ("v", "u")
    nu, mu = lift(alpha, ctx, side_a), lift(beta, ctx, side_b)
    partner = {"u": "v", "v": "u"}
    gens_nu = [ctx.ring.var(partner[side_a])]
    gens_nu += [k.extend_to(ctx.ring) for k in kernel_alpha]
    gens_mu = [ctx.ring.var(partner[side_b])]
    gens_mu += [k.extend_to(ctx.ring) for k in kernel_beta]
    return LiftedPair(
        orientation=orientation, nu=nu, mu=mu,
        kernel_nu=verify_kernel(nu, gens_nu),
        kernel_mu=verify_kernel(mu, gens_mu),
        ideal=tuple(lift_ideal(ideal, ctx, ideal_bound)))


# ---------------------------------------------------------------------------
# spanning ranks


def spanning_rank(family: SpanningFamily, ctx: SuspensionContext) -> int:
    """Exact rank of the scaled wedges of an evaluated family inside the
    second exterior power of the tangent space at its basepoint, ranked
    in the chart (v, z) of `SpanningFamily.wedge_rows`.  Each vector is
    first rebuilt exactly from its chart coordinates a[1:] and the
    tangent basis; one that this does not reproduce is not tangent."""
    point = family.basepoint
    basis = tangent_basis(ctx, point)
    if point.coords[1].is_zero:
        raise BasepointError(["v_nonzero"])
    for sp in family.pairs:
        for vec in (sp.a, sp.b):
            rebuilt = [sum((c * e[i] for c, e in zip(vec[1:], basis)), ZERO)
                       for i in range(len(vec))]
            if rebuilt != list(vec):
                raise NotTangentError(
                    f"family vector is not tangent at the basepoint: {sp.label}")
    return exact_rank(ExactMatrix.from_rows(family.wedge_rows()))


# ---------------------------------------------------------------------------
# the assembled runner


@dataclass(frozen=True)
class PairSpec:
    """A user-proposed base pair with kernels and an ideal proposal."""

    alpha: VectorField
    beta: VectorField
    kernel_alpha: tuple[Poly, ...] = ()
    kernel_beta: tuple[Poly, ...] = ()
    ideal: tuple[Poly, ...] = ()

    def ideal_or_unit(self, ring: PolyRing) -> tuple[Poly, ...]:
        return self.ideal if self.ideal else (ring.one(),)


@dataclass(frozen=True)
class Assumptions:
    """Hypotheses the artifact cannot decide and the user must assert."""

    cohomology: bool | None = None
    note: str = ""


@dataclass
class CriterionReport:
    n: int
    f: str
    assumptions: dict
    smoothness: dict
    pairs: list
    sampling: dict
    ranks: list
    problems: list
    verdict: str
    timings: dict = dc_field(default_factory=dict)
    rank_screen: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # timings and screen counts stay out: reports must be byte-identical
        # across runs and across the ways a rank was decided
        out = dict(vars(self))
        del out["timings"], out["rank_screen"]
        return out


def _certificate_search(pair: LiftedPair, ctx: SuspensionContext,
                        degree_bound: int) -> tuple[dict, bool]:
    """Certificate at the requested bound, plus the smallest bound that
    also succeeds.  The claim made is the one at the requested bound;
    success at a smaller bound is weaker, not stronger (degree growth can
    turn success into failure, e.g. a unit ideal is always reached at
    degree 0), so the search never settles for an early success.

    Returns the report entry and whether every reported certificate
    re-expanded (`SemiCompatCertificate.re_verify`) to its witnesses."""
    cert = semicompat_certificate(pair.kernel_nu, pair.kernel_mu,
                                  pair.ideal, degree_bound, ctx=ctx)
    verified = cert.re_verify(ctx)
    entry = {"orientation": pair.orientation, "success": cert.success,
             "degree": degree_bound, "mode": cert.mode,
             "products": len(cert.products), "targets": len(cert.targets),
             "unreachable": cert.unreachable[:8]}
    if not cert.success:
        return entry, verified
    entry["smallest_success_degree"] = degree_bound
    for d in range(degree_bound):
        small = semicompat_certificate(pair.kernel_nu, pair.kernel_mu,
                                       pair.ideal, d, ctx=ctx)
        if small.success:
            entry["smallest_success_degree"] = d
            verified = verified and small.re_verify(ctx)
            break
    return entry, verified


def run_vdp_criterion(ctx: SuspensionContext, pairs: Sequence[PairSpec],
                      assumptions: Assumptions, sampling: SamplingSpec,
                      degree_bound: int) -> CriterionReport:
    """Run every finite hypothesis of the volume-density criterion on the
    suspension: divergence, completeness and kernel checks, degree-truncated
    certificates for both lifted orientations, zero-fiber smoothness
    witnesses, and exact spanning ranks at sampled admissible points.

    The verdict is "certified-at-samples" only when every sub-check
    passed, the undecidable topological hypothesis is asserted true and
    every base field is shown complete (`lifts.shown_complete`).  A
    completeness that is not shown is undecided, not refuted: it is listed
    under the assumptions and caps the verdict at "inconclusive".
    Sub-check failures are recorded, never thrown.
    """
    t0 = time.perf_counter()
    problems: list[str] = []
    unshown: list[str] = []        # base fields not shown complete
    pair_reports: list[dict] = []
    timings: dict = {}

    if not pairs:
        problems.append("no pairs were given; nothing can span")

    for k, spec in enumerate(pairs):
        entry: dict = {"index": k,
                       "alpha": [str(c) for c in spec.alpha.coeffs],
                       "beta": [str(c) for c in spec.beta.coeffs]}
        div_ok = divergence(spec.alpha).is_zero and \
            divergence(spec.beta).is_zero
        entry["divergence_free"] = div_ok
        if not div_ok:
            problems.append(f"pair {k}: base fields are not volume preserving")
        unshown += [f"pair {k}: {label} = [{', '.join(entry[label])}]"
                    for label, base in (("alpha", spec.alpha),
                                        ("beta", spec.beta))
                    if not shown_complete(base)]
        try:
            verify_kernel(spec.alpha, spec.kernel_alpha)
            verify_kernel(spec.beta, spec.kernel_beta)
            entry["kernels_verified"] = True
        except CertifyError as err:
            entry["kernels_verified"] = False
            problems.append(f"pair {k}: {err}")
            pair_reports.append(entry)
            continue

        ideal = spec.ideal_or_unit(ctx.base_ring)
        entry["ideal"] = [str(h) for h in ideal]
        certs = []
        for orientation in ("uv", "vu"):
            lifted = lift_pair(spec.alpha, spec.beta, spec.kernel_alpha,
                               spec.kernel_beta, ideal, ctx, orientation,
                               ideal_bound=degree_bound)
            lifted_div_ok = all(
                is_tangent(f, ctx).is_zero
                and divergence_on_suspension(f, ctx).is_zero
                for f in (lifted.nu, lifted.mu))
            if not lifted_div_ok:
                problems.append(
                    f"pair {k} ({orientation}): lifted fields fail the "
                    "divergence check")
            cert, verified = _certificate_search(lifted, ctx, degree_bound)
            cert["lifted_divergence_free"] = lifted_div_ok
            certs.append(cert)
            if not verified:
                problems.append(
                    f"pair {k} ({orientation}): certificate re-expansion "
                    "does not reproduce its witnesses")
            if not cert["success"]:
                problems.append(
                    f"pair {k} ({orientation}): no certificate up to degree "
                    f"{degree_bound}; first unreachable: "
                    f"{cert['unreachable'][:1]}")
        entry["certificates"] = certs
        pair_reports.append(entry)
    timings["pairs"] = time.perf_counter() - t0

    # every sampled point is exact; the sampling entry states that the
    # ranks were computed at exact points
    t1 = time.perf_counter()
    triples = [(spec.alpha, spec.beta, spec.ideal_or_unit(ctx.base_ring))
               for spec in pairs]
    points: list[SurfacePoint] = []
    sampling_report: dict = {"count": sampling.count, "seed": sampling.seed,
                             "exactness": "exact"}
    if pairs:
        try:
            points, rejections = basepoint_search(
                ctx, sampling,
                ideals=[spec.ideal_or_unit(ctx.base_ring) for spec in pairs])
            sampling_report["attempts"] = rejections.attempts
            sampling_report["rejected"] = dict(sorted(
                rejections.rejected.items()))
        except SamplingError as err:
            problems.append(f"sampling failed: {err}")
            sampling_report["error"] = str(err)

    # imported here: only this stage screens ranks mod p, and every other
    # run would pay for compiling the module
    from .modrank import RankScreen

    ranks: list[dict] = []
    plan = spanning_plan(triples, ctx)
    screen = RankScreen(plan)
    for point in points:
        rank = screen.rank(point)
        if rank is None:
            rank = spanning_rank(plan.at(point), ctx)
            if rank < screen.full:
                problems.append(
                    f"spanning rank {rank} < {screen.full} at {point}")
        ranks.append({"point": str(point), "rank": rank,
                      "full": rank == screen.full})
    timings["ranks"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    fiber_points = sample_zero_fiber(ctx, sampling)
    fiber_z = [p.z for p in fiber_points]
    smooth = smoothness_witness(ctx, fiber_z, certificate_degree=degree_bound)
    smooth_dict = {
        "zero_fiber_samples": smooth.zero_fiber,
        "singular_points": [
            "(" + ", ".join(str(c) for c in z) + ")"
            for z in smooth.singular_points],
        "certificate_found": smooth.certificate is not None,
    }
    if smooth.certificate is not None:
        smooth_dict["certificate"] = {
            "f": str(smooth.certificate["f"]),
            "partials": [str(p) for p in smooth.certificate["partials"]],
            "degree_bound": smooth.certificate["degree_bound"],
        }
    if not smooth.ok:
        problems.append("zero fiber has singular sampled points")
    timings["smoothness"] = time.perf_counter() - t2

    assumptions_dict = {"cohomology": assumptions.cohomology,
                        "note": assumptions.note}
    undecided = []
    if assumptions.cohomology is not True:
        undecided.append(
            "the topological vanishing hypothesis is undecidable here and "
            "was not asserted; certify it externally and set the flag")
    if unshown:
        assumptions_dict["completeness"] = unshown
        undecided.append(
            f"completeness is not shown for {' and '.join(unshown)} "
            "(neither locally nilpotent within the series guard nor affine "
            "linear); certify it externally")
    if problems:
        verdict = "failed"
    elif undecided:
        verdict = "inconclusive"
        assumptions_dict["explanation"] = "; ".join(undecided)
    else:
        verdict = "certified-at-samples"

    return CriterionReport(
        n=ctx.n, f=str(ctx.f_base), assumptions=assumptions_dict,
        smoothness=smooth_dict, pairs=pair_reports, sampling=sampling_report,
        ranks=ranks, problems=problems, verdict=verdict, timings=timings,
        rank_screen=screen.counts())
