"""Suspension hypersurfaces uv = f(z) inside C^2 x C^n.

The ambient coordinate order is (u, v, z1, ..., zn) and the ambient volume
form is the standard one, du dv dz1 ... dzn.  A field is a plain ambient
`VectorField`; `is_tangent` certifies it and returns its multiplier.  The
surface itself is never given an explicit volume form: a divergence
against the induced form is the ambient divergence minus that multiplier
(`divergence_on_suspension`), which keeps the whole layer polynomial and
exact.

Membership in the ideal generated by the defining polynomial uv - f is
decided by a normal form that rewrites every uv into f until no monomial
contains both u and v.  Because f involves only the z variables the
rewrite terminates, and the surviving monomials u^a z^e / v^b z^e form a
basis of the coordinate ring of the surface, so the normal form is a
canonical representative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .fields import VectorField, divergence
from .linalg import span_solve
from .poly import EXACT, Domain, Evaluated, Poly, PolyRing, compile_values
from .scalars import GaussianRational, ONE, ZERO, _canonical, gr


class SuspensionError(ValueError):
    pass


class NotTangentError(SuspensionError):
    pass


class SamplingError(SuspensionError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


U, V = 0, 1  # ambient indices of the two suspension coordinates


@dataclass(frozen=True)
class SuspensionContext(Evaluated):
    """Everything fixed by the choice of n and f.  Its compiled evaluators
    (`defining_gradient`) compute the gradient of uv - f."""

    n: int
    ring: PolyRing
    base_ring: PolyRing
    f: Poly            # in the ambient ring, z variables only
    f_base: Poly       # the same polynomial in the base ring
    defining: Poly     # uv - f
    partials: tuple[Poly, ...]   # df/dz_j in the base ring
    _f_powers: dict = field(default_factory=dict, compare=False, repr=False)

    def f_power(self, k: int) -> Poly:
        got = self._f_powers.get(k)
        if got is None:
            got = self.f ** k
            self._f_powers[k] = got
        return got

    # -- normal form -------------------------------------------------------

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative of p modulo (uv - f)."""
        return self.reduce(p)[0]

    def reduce(self, p: Poly) -> tuple[Poly, Poly]:
        """Normal form together with the cofactor: p = q*(uv - f) + nf(p).

        A term m*(uv)^k, with m free of uv, rewrites to m*f^k, and its
        part of q is m*sum_{j<k} (uv)^(k-1-j) f^j, since (uv)^k - f^k is
        that sum times uv - f.
        """
        if p.ring.variables != self.ring.variables:
            raise SuspensionError("polynomial lives in the wrong ring")
        nf = q = self.ring.zero()
        for e, c in p.terms.items():
            k = min(e[U], e[V])
            d = list(e)
            m = self.ring.monomial(d, c)
            for j in range(k):       # strip one uv: c*u^(a-1-j)*v^(b-1-j)*z^e
                d[U] -= 1
                d[V] -= 1
                m = self.ring.monomial(d, c)
                q = q + (m * self.f_power(j) if j else m)
            nf = nf + (m * self.f_power(k) if k else m)
        return nf, q

    # -- pointwise data ----------------------------------------------------

    def evaluated(self):
        return self.ring, tuple(self.defining.derivative(i)
                                for i in range(self.ring.nvars))

    def defining_gradient(self, domain: Domain):
        """The evaluator of d(uv - f) = (v, u, -df/dz1, ...) over `domain`,
        a function of the ambient coordinates."""
        return self.evaluator(domain)


def make_suspension(n: int, f) -> SuspensionContext:
    """Build the context for uv = f(z1..zn).  f may be polynomial text."""
    if n < 1:
        raise SuspensionError("base dimension must be at least 1")
    names = ("u", "v") + tuple(f"z{j}" for j in range(1, n + 1))
    ring = PolyRing(names)
    base_ring = PolyRing(names[2:])
    if isinstance(f, str):
        f_base = base_ring.parse(f)
    elif isinstance(f, Poly):
        f_base = f.extend_to(base_ring)
    else:
        raise SuspensionError("f must be polynomial text or a Poly")
    if f_base.is_constant():
        raise SuspensionError("f must be nonconstant")
    f_amb = f_base.extend_to(ring)
    defining = ring.var("u") * ring.var("v") - f_amb
    return SuspensionContext(
        n=n, ring=ring, base_ring=base_ring, f=f_amb, f_base=f_base,
        defining=defining,
        partials=tuple(f_base.derivative(j) for j in range(n)))


# ---------------------------------------------------------------------------
# tangent fields


def is_tangent(theta: VectorField, ctx: SuspensionContext) -> Poly:
    """Tangency multiplier q of an ambient field, with
    theta(uv - f) = q * (uv - f), or NotTangentError."""
    if theta.ring.variables != ctx.ring.variables:
        raise SuspensionError("field lives in the wrong ring")
    value = theta.apply(ctx.defining)
    nf, q = ctx.reduce(value)
    if not nf.is_zero:
        raise NotTangentError(
            f"field is not tangent: residue {nf} off the surface ideal")
    return q


def divergence_on_suspension(theta: VectorField,
                             ctx: SuspensionContext) -> Poly:
    """Divergence of a tangent field against the induced volume form on
    the surface, as the normal form of (ambient divergence - tangency
    multiplier); NotTangentError for a field that is not tangent.

    The induced form is characterised by wedging with d(uv - f) to give
    the ambient volume; the correction term below is exactly what that
    characterisation forces for a tangent field, so no explicit surface
    volume form is ever materialised.
    """
    return ctx.normal_form(divergence(theta) - is_tangent(theta, ctx))


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the surface; exact (Gaussian rational) or floating."""

    coords: tuple
    exact: bool

    @property
    def z(self) -> tuple:
        return self.coords[2:]

    def complex_coords(self) -> tuple[complex, ...]:
        if self.exact:
            return tuple(c.to_complex() for c in self.coords)
        return tuple(complex(c) for c in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


FLOAT_RESIDUAL_TOL = 1e-12


def surface_point(ctx: SuspensionContext, coords: Sequence,
                  tol: float = FLOAT_RESIDUAL_TOL) -> SurfacePoint:
    """Validate and wrap coordinates as a point of the surface."""
    coords = tuple(coords)
    if len(coords) != ctx.ring.nvars:
        raise SuspensionError("wrong number of coordinates")
    if all(isinstance(c, GaussianRational) for c in coords):
        if not ctx.defining.evaluate_exact(coords).is_zero:
            raise SuspensionError(f"exact point is off the surface: {coords}")
        return SurfacePoint(coords, True)
    cc = tuple(complex(c) for c in coords)
    residual = abs(ctx.defining.evaluate_complex(cc))
    if not residual <= tol:                      # a NaN residual fails too
        raise SuspensionError(
            f"float point residual {residual:.3e} exceeds {tol:.1e}")
    return SurfacePoint(cc, False)


def tangent_basis(ctx: SuspensionContext, point: SurfacePoint) -> list[list[GaussianRational]]:
    """Exact basis of the kernel of d(uv - f) at an exact point, in
    closed form: with the pivot on the first nonzero entry g_p of the
    gradient, the vector e_j - (g_j/g_p)*e_p for each other j in
    ascending order."""
    if not point.exact:
        raise SuspensionError("exact tangent bases need exact points")
    grad = ctx.defining_gradient(EXACT)(point.coords)
    pivot = next((k for k, g in enumerate(grad) if not g.is_zero), None)
    if pivot is None:
        raise SuspensionError("singular point: the defining gradient vanishes")
    basis = []
    for j, g in enumerate(grad):
        if j != pivot:
            vec = [ZERO] * len(grad)
            vec[j], vec[pivot] = ONE, -(g / grad[pivot])
            basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# sampling

MAX_REJECTIONS = 10000       # rejected draws per sampling run or search


@dataclass(frozen=True)
class SamplingSpec:
    """Seeded draws of exact complex scalars, both parts from `region`."""

    count: int = 20
    seed: int = 0
    region: tuple[Fraction, Fraction] = (Fraction(-2), Fraction(2))

    def __post_init__(self):
        lo, hi = self.region
        if self.count < 1:
            raise SamplingError(f"sample count must be positive, "
                                f"got {self.count}")
        if lo >= hi:
            raise SamplingError("sampling region must satisfy lo < hi")
        if math.ceil(lo) > math.floor(hi):
            # a denominator-1 exact draw would have no value to take
            raise SamplingError("sampling region must contain an integer")


def _exact_scalar_draw(rng: random.Random, spec: SamplingSpec):
    """A function drawing one exact scalar from `rng`: each of its two
    parts is a/d, with d = rng.randint(1, 3) and then the numerator a
    drawn so that a/d lies in `spec.region`.  The numerator bounds for
    d = 1, 2, 3 are computed here, once per sampling run, and the scalar
    is built from its integer triple, with no `Fraction` on the way."""
    lo, hi = spec.region
    bounds = (None, *((math.ceil(lo * d), math.floor(hi * d))
                      for d in (1, 2, 3)))
    randint = rng.randint

    def draw() -> GaussianRational:
        d1 = randint(1, 3)
        a1 = randint(*bounds[d1])
        d2 = randint(1, 3)
        a2 = randint(*bounds[d2])
        return _canonical(a1 * d2, a2 * d1, d1 * d2)
    return draw


def _draw_exact(ctx: SuspensionContext, scalar) -> SurfacePoint | None:
    """One exact draw on the chart u != 0, each scalar from `scalar`
    (see `_exact_scalar_draw`): z, then u, then v = f(z)/u; None where u
    is zero.  The point satisfies uv = f(z) by construction, so it is not
    checked again."""
    z = [scalar() for _ in range(ctx.n)]
    u = scalar()
    if u.is_zero:
        return None
    return SurfacePoint((u, ctx.f_base.evaluate_exact(z) / u, *z), True)


def sample_points(ctx: SuspensionContext, spec: SamplingSpec) -> list[SurfacePoint]:
    """`spec.count` seeded exact draws on the chart u != 0: pick z and u,
    then v = f(z)/u, admitting every draw with u != 0 (see `_draws`).

    Points satisfy the surface equation exactly by construction, so they
    are not checked again; sampling is pure given the seed.
    """
    return _draws(ctx, spec, lambda point: [], "sampling")[0]


def sample_zero_fiber(ctx: SuspensionContext,
                      spec: SamplingSpec) -> list[SurfacePoint]:
    """Points with u = 0, found by scanning a grid of step 1/2 for zeros
    of f.

    Only real-rational grid nodes are scanned; this is a best-effort
    helper for the chart the generic sampler cannot reach.
    """
    lo, hi = spec.region
    values: list[Fraction] = []
    x = lo
    while x <= hi:
        values.append(Fraction(x))
        x += Fraction(1, 2)
    scalar = _exact_scalar_draw(random.Random(spec.seed + 1), spec)
    out: list[SurfacePoint] = []

    def scan(prefix: list[Fraction]):
        if len(out) >= spec.count:
            return
        if len(prefix) == ctx.n:
            z = [gr(c) for c in prefix]
            if ctx.f_base.evaluate_exact(z).is_zero:
                # u = 0 and f(z) = 0: on the surface by construction
                out.append(SurfacePoint((ZERO, scalar(), *z), True))
            return
        for c in values:
            scan(prefix + [c])

    scan([])
    return out


# ---------------------------------------------------------------------------
# smoothness reporting


@dataclass
class SmoothnessReport:
    zero_fiber: int
    singular_points: list
    certificate: dict | None

    @property
    def ok(self) -> bool:
        return not self.singular_points


def smoothness_witness(ctx: SuspensionContext, z_samples: Iterable,
                       certificate_degree: int) -> SmoothnessReport:
    """Check d f != 0 at every sampled zero of f, and search for an exact
    combination  g0*f + sum_j gj*df/dzj = 1  up to a degree bound, which
    certifies smoothness everywhere rather than just on samples."""
    singular = []
    zero_count = 0
    for z in z_samples:
        if not ctx.f_base.evaluate_exact(z).is_zero:
            continue
        zero_count += 1
        if all(p.evaluate_exact(z).is_zero for p in ctx.partials):
            singular.append(tuple(z))
    return SmoothnessReport(
        zero_fiber=zero_count, singular_points=singular,
        certificate=smoothness_certificate(ctx, certificate_degree))


def smoothness_certificate(ctx: SuspensionContext, degree_bound: int) -> dict | None:
    """Exact cofactors writing 1 as a combination of f and its partials,
    with cofactor degree <= degree_bound; None if none exists at this bound."""
    ring = ctx.base_ring
    factors = [ctx.f_base, *ctx.partials]
    monomials = list(ring.exponents_up_to(degree_bound))
    columns: list[Poly] = []
    labels: list[tuple[int, tuple[int, ...]]] = []
    for fi, factor in enumerate(factors):
        for e in monomials:
            columns.append(ring.monomial(e) * factor)
            labels.append((fi, e))
    sol = span_solve(columns, [ring.one()])[0]
    if sol is None:
        return None
    cofactors = [ring.zero() for _ in factors]
    for j, c in sol.items():
        fi, e = labels[j]
        cofactors[fi] = cofactors[fi] + ring.monomial(e, c)
    return {"f": cofactors[0],
            "partials": cofactors[1:],
            "degree_bound": degree_bound}


# ---------------------------------------------------------------------------
# basepoint search with per-condition reporting


@dataclass
class RejectionReport:
    attempts: int = 0
    rejected: dict = field(default_factory=dict)

    def reject(self, condition: str):
        self.rejected[condition] = self.rejected.get(condition, 0) + 1


def basepoint_rules(ctx: SuspensionContext,
                    ideals: Sequence[Sequence[Poly]] = ()
                    ) -> list[tuple[str, tuple[Poly, ...]]]:
    """The preconditions of the spanning construction, in the order
    u_nonzero, v_nonzero, df_nonzero, ideal_{k}_nonzero (one per nonempty
    ideal): each is a name and ambient polynomials that may not all vanish
    at the point."""
    ring = ctx.ring
    rules = [("u_nonzero", (ring.var(U),)), ("v_nonzero", (ring.var(V),)),
             ("df_nonzero", tuple(p.extend_to(ring) for p in ctx.partials))]
    rules += [(f"ideal_{k}_nonzero", tuple(g.extend_to(ring) for g in gens))
              for k, gens in enumerate(ideals) if gens]
    return rules


def basepoint_check(ctx: SuspensionContext,
                    ideals: Sequence[Sequence[Poly]] = ()):
    """A function of a point listing the rules of `basepoint_rules` that
    fail there (a float point fails `exact` alone); the rules' polynomials
    are compiled once, here."""
    rules = basepoint_rules(ctx, ideals)
    evaluate = compile_values(
        ctx.ring, [p for _, polys in rules for p in polys], EXACT)

    def failures(point: SurfacePoint) -> list[str]:
        if not point.exact:
            return ["exact"]
        values = evaluate(point.coords)
        out, k = [], 0
        for name, polys in rules:
            if all(v.is_zero for v in values[k:k + len(polys)]):
                out.append(name)
            k += len(polys)
        return out
    return failures


def basepoint_search(ctx: SuspensionContext, spec: SamplingSpec,
                     ideals: Sequence[Sequence[Poly]] = ()
                     ) -> tuple[list[SurfacePoint], RejectionReport]:
    """`spec.count` seeded exact draws at which `basepoint_check` finds
    nothing (see `_draws`); from the same seed they are the draws of
    `sample_points` that pass the check."""
    return _draws(ctx, spec, basepoint_check(ctx, ideals), "basepoint search")


def _draws(ctx: SuspensionContext, spec: SamplingSpec, failures_at,
           what: str) -> tuple[list[SurfacePoint], RejectionReport]:
    """The one seeded sampling loop: exact draws (`_draw_exact`) until
    `spec.count` are admitted.  A draw with u = 0 is rejected under
    `u_nonzero`, any other under the first condition `failures_at` lists
    for it; `MAX_REJECTIONS` rejections end the run, however many points
    were admitted."""
    scalar = _exact_scalar_draw(random.Random(spec.seed), spec)
    report = RejectionReport()
    found: list[SurfacePoint] = []
    while len(found) < spec.count:
        if report.attempts - len(found) == MAX_REJECTIONS:
            raise SamplingError(
                f"{what} stopped after {MAX_REJECTIONS} rejected draws; "
                f"rejections: {report.rejected}", report)
        report.attempts += 1
        point = _draw_exact(ctx, scalar)
        failures = ["u_nonzero"] if point is None else failures_at(point)
        if failures:
            report.reject(failures[0])
        else:
            found.append(point)
    return found, report
