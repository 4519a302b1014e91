"""Lifting base fields to the suspension and flowing along the lifts.

A base field on C^n extends trivially to the ambient space (zero
coefficients on u and v).  Each divergence-free base field then admits two
distinguished tangent lifts,

    side u:  v * (trivial extension) + (field applied to f) * d_u
    side v:  u * (trivial extension) + (field applied to f) * d_v

both of which are volume preserving on the surface; the test suite checks
this divergence transfer exactly.

Flows: for "shear chain" base fields (each coefficient independent of its
own variable, dependencies acyclic) the flow is polynomial in time and is
computed symbolically, including the time-remainder polynomial g with
f(flow(x, t)) = f(x) + t * g(x, t).  The lifted flow is then the closed
form (u + t*g(x, t*v), v, flow(x, t*v)) on side u, mirrored on side v.
Everything else falls back to numeric integration, and the returned map is
flagged accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .fields import VectorField
from .poly import Poly, PolyRing
from .scalars import ZERO, GaussianRational, gr
from .surface import (SurfacePoint, SuspensionContext, SuspensionField,
                      surface_point, tangent_field)


class LiftError(ValueError):
    pass


class ShearChainError(LiftError):
    """Raised where a symbolic flow is requested for a generic field."""


class BasepointError(LiftError):
    def __init__(self, failures: list[str]):
        super().__init__("inadmissible basepoint: " + "; ".join(failures))
        self.failures = failures


# ---------------------------------------------------------------------------
# base fields


@dataclass(frozen=True)
class BaseField:
    """A polynomial field on the base C^n, in the z-variables only."""

    ring: PolyRing
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ring.nvars:
            raise LiftError("one coefficient per base variable is required")

    @staticmethod
    def from_texts(ring: PolyRing, texts: Sequence[str]) -> "BaseField":
        return BaseField(ring, tuple(ring.parse(t) for t in texts))

    @staticmethod
    def coordinate(ring: PolyRing, var: int | str) -> "BaseField":
        i = var if isinstance(var, int) else ring.index(var)
        coeffs = [ring.zero()] * ring.nvars
        coeffs[i] = ring.one()
        return BaseField(ring, tuple(coeffs))

    def apply(self, p: Poly) -> Poly:
        out = self.ring.zero()
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                out = out + c * p.derivative(i)
        return out

    def divergence(self) -> Poly:
        out = self.ring.zero()
        for i, c in enumerate(self.coeffs):
            out = out + c.derivative(i)
        return out

    def evaluate_exact(self, z) -> list[GaussianRational]:
        return [c.evaluate_exact(z) for c in self.coeffs]

    @property
    def flow_kind(self) -> str:
        return "shear_chain" if _shear_order(self) is not None else "generic"

    def __str__(self) -> str:
        parts = [f"({c})*d_{name}" for name, c in zip(self.ring.variables, self.coeffs)
                 if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def _shear_order(theta: BaseField) -> list[int] | None:
    """Topological order in which the flow integrates one variable at a
    time, or None when no such order exists (self-dependence or a cycle)."""
    support = [i for i, c in enumerate(theta.coeffs) if not c.is_zero]
    deps = {}
    for i in support:
        if theta.coeffs[i].uses_variable(i):
            return None
        deps[i] = {j for j in support if theta.coeffs[i].uses_variable(j)}
    order: list[int] = []
    remaining = set(support)
    while remaining:
        ready = sorted(i for i in remaining if not (deps[i] & remaining))
        if not ready:
            return None
        order.extend(ready)
        remaining -= set(ready)
    return order


# ---------------------------------------------------------------------------
# extension and lifts


def extend_trivially(theta: BaseField, ctx: SuspensionContext) -> VectorField:
    """The ambient field with the same z-coefficients and zero on u, v."""
    coeffs = [ctx.ring.zero(), ctx.ring.zero()]
    coeffs += [c.extend_to(ctx.ring) for c in theta.coeffs]
    return VectorField(ctx.ring, tuple(coeffs))


def lift(theta: BaseField, ctx: SuspensionContext, side: str) -> SuspensionField:
    """The tangent lift on the requested side ("u" or "v")."""
    if side not in ("u", "v"):
        raise LiftError(f"side must be 'u' or 'v', not {side!r}")
    ext = extend_trivially(theta, ctx)
    theta_f = theta.apply(ctx.f_base).extend_to(ctx.ring)
    mult = ctx.ring.var("v" if side == "u" else "u")
    scaled = ext.scale(mult)
    coeffs = list(scaled.coeffs)
    coeffs[0 if side == "u" else 1] = coeffs[0 if side == "u" else 1] + theta_f
    return tangent_field(VectorField(ctx.ring, tuple(coeffs)), ctx)


# ---------------------------------------------------------------------------
# symbolic flows


@dataclass(frozen=True)
class FlowRemainder:
    """Symbolic flow data of a shear-chain base field: the flow ring is the
    base ring with a trailing time variable, `solutions` are the flowed
    coordinates, and f(flow(x,t)) = f(x) + t * remainder."""

    base_field: BaseField
    flow_ring: PolyRing
    solutions: tuple[Poly, ...]
    remainder: Poly


def symbolic_flow(theta: BaseField) -> tuple[PolyRing, tuple[Poly, ...]] | None:
    """Integrate a shear-chain field coordinate by coordinate; the result
    is polynomial in the time variable t appended to the base ring."""
    order = _shear_order(theta)
    if order is None:
        return None
    ring = theta.ring
    flow_ring = ring.with_extra("t")
    t_index = flow_ring.nvars - 1
    sols: list[Poly] = [flow_ring.var(name) for name in ring.variables]

    def integrate_t(p: Poly) -> Poly:
        out = flow_ring.zero()
        for e, c in p.terms.items():
            d = list(e)
            k = d[t_index]
            d[t_index] = k + 1
            out = out + flow_ring.monomial(d, c / (k + 1))
        return out

    for i in order:
        images = {name: sols[j] for j, name in enumerate(ring.variables)}
        along = theta.coeffs[i].substitute(flow_ring, images)
        sols[i] = sols[i] + integrate_t(along)
    return flow_ring, tuple(sols)


def flow_remainder(theta: BaseField, ctx: SuspensionContext) -> FlowRemainder:
    """The polynomial g with f(flow(x,t)) = f(x) + t*g(x,t); raises
    ShearChainError for fields without a symbolic flow."""
    got = symbolic_flow(theta)
    if got is None:
        raise ShearChainError(
            "base field is not a shear chain; use the numeric fallback")
    flow_ring, sols = got
    images = {name: sols[j] for j, name in enumerate(theta.ring.variables)}
    f_along = ctx.f_base.substitute(flow_ring, images)
    diff = f_along - ctx.f_base.extend_to(flow_ring)
    g = diff.divide_exact(flow_ring.var("t"))
    if g is None:
        raise LiftError("flow remainder is not divisible by t; this is a bug")
    return FlowRemainder(theta, flow_ring, sols, g)


@dataclass(frozen=True)
class LiftedFlowMap:
    """Time-t map of a lifted field on points of the surface.

    `symbolic` distinguishes the closed form (exact-capable, polynomial in
    all coordinates and t) from the numeric fallback (floating RK4 on the
    ambient lift)."""

    ctx: SuspensionContext
    side: str
    symbolic: bool
    components: tuple[Poly, ...] | None = None      # in ring (u,v,z...,t)
    numeric_field: SuspensionField | None = None
    steps: int = 2048

    def apply(self, point: SurfacePoint, t) -> SurfacePoint:
        if self.symbolic:
            if not isinstance(t, GaussianRational) and isinstance(t, (int, Fraction)):
                t = gr(t)
            if point.exact and isinstance(t, GaussianRational):
                values = point.coords + (t,)
                coords = [c.evaluate_exact(values) for c in self.components]
            else:
                values = point.complex_coords() + (complex(t),)
                coords = [c.evaluate_complex(values) for c in self.components]
            return surface_point(self.ctx, coords, tol=1e-9)
        start = list(point.complex_coords())
        coords = rk4_flow(self.numeric_field.ambient.evaluate_complex,
                          start, complex(t), self.steps)
        return surface_point(self.ctx, coords, tol=1e-9)


def lifted_flow(theta: BaseField, ctx: SuspensionContext, side: str) -> LiftedFlowMap:
    """Closed-form flow of the side lift when the base flow is symbolic,
    numeric fallback otherwise (flagged on the result)."""
    if side not in ("u", "v"):
        raise LiftError(f"side must be 'u' or 'v', not {side!r}")
    try:
        rem = flow_remainder(theta, ctx)
    except ShearChainError:
        return LiftedFlowMap(ctx, side, symbolic=False,
                             numeric_field=lift(theta, ctx, side))
    amb_t = ctx.ring.with_extra("t")
    partner = amb_t.var("v" if side == "u" else "u")
    scaled_time = {"t": amb_t.var("t") * partner}
    sols_amb = [s.substitute(amb_t, scaled_time) for s in rem.solutions]
    g_amb = rem.remainder.substitute(amb_t, scaled_time)
    if side == "u":
        comp_u = amb_t.var("u") + amb_t.var("t") * g_amb
        comp_v = amb_t.var("v")
    else:
        comp_u = amb_t.var("u")
        comp_v = amb_t.var("v") + amb_t.var("t") * g_amb
    components = (comp_u, comp_v, *sols_amb)
    return LiftedFlowMap(ctx, side, symbolic=True, components=components)


def rk4_flow(eval_fn: Callable[[Sequence[complex]], Sequence[complex]],
             start: Sequence[complex], t_total: complex,
             steps: int = 2048) -> list[complex]:
    """Classical fourth-order integration along the straight time segment
    from 0 to t_total (complex time is traversed linearly)."""
    x = [complex(c) for c in start]
    h = complex(t_total) / steps

    def scaled(vec):
        return [h * c for c in vec]

    for _ in range(steps):
        k1 = scaled(eval_fn(x))
        k2 = scaled(eval_fn([a + b / 2 for a, b in zip(x, k1)]))
        k3 = scaled(eval_fn([a + b / 2 for a, b in zip(x, k2)]))
        k4 = scaled(eval_fn([a + b for a, b in zip(x, k3)]))
        x = [a + (p + 2 * q + 2 * r + s) / 6
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
    return x


# ---------------------------------------------------------------------------
# pullback along kernel-scaled shears


@dataclass(frozen=True)
class ShearPullback:
    """Pullback of `mu` under the inverse time-1 flow of (g - c)*theta,
    prepared once for every constant c: a constant shift changes neither
    the kernel condition theta(g) = 0 nor mu(g), so only the evaluation at
    a point remains, mu(p) + mu(g)(p) * theta(p), where g - c vanishes."""

    mu: VectorField
    theta: VectorField
    g: Poly
    mu_g: Poly

    @staticmethod
    def prepare(mu, theta, g: Poly) -> "ShearPullback":
        """Accepts plain ambient fields or tangent wrappers; checks that g
        lies in the kernel of theta."""
        mu = getattr(mu, "ambient", mu)
        theta = getattr(theta, "ambient", theta)
        if not theta.apply(g).is_zero:
            raise LiftError("the shear function must lie in the kernel of the field")
        return ShearPullback(mu, theta, g, mu.apply(g))

    def at(self, point: SurfacePoint,
           shift: GaussianRational = ZERO) -> list[GaussianRational]:
        """Value at `point` for the shear function g - shift."""
        if not point.exact:
            raise LiftError("pullback evaluation needs an exact point")
        coords = point.coords
        if self.g.evaluate_exact(coords) != shift:
            raise LiftError("the shear function must vanish at the point")
        factor = self.mu_g.evaluate_exact(coords)
        return [m + factor * th for m, th in zip(
            self.mu.evaluate_exact(coords), self.theta.evaluate_exact(coords))]


def shear_pullback(mu, theta, g: Poly,
                   point: SurfacePoint) -> list[GaussianRational]:
    """Value at `point` of the pullback of `mu` under the inverse time-1
    flow of g*theta, where g is in the kernel of theta and vanishes at the
    point:  mu(p) + mu(g)(p) * theta(p).

    Accepts plain ambient fields or tangent wrappers.  Completeness of
    g*theta is the caller's responsibility; it holds for the kernel-scaled
    complete fields this package constructs.
    """
    return ShearPullback.prepare(mu, theta, g).at(point)


def chart_jacobian_determinant(flow_map: LiftedFlowMap, point: SurfacePoint,
                               t, h: float = 1e-6) -> complex:
    """Determinant of the time-t map in the chart adapted to the flow's
    side: a side-u flow keeps v fixed and is audited in coordinates (v, z)
    on v != 0, a side-v flow in (u, z) on u != 0.  Volume preservation
    makes this exactly 1; finite differencing reports it numerically."""
    import numpy

    ctx = flow_map.ctx
    fiber = 1 if flow_map.side == "u" else 0
    other = 1 - fiber
    coords0 = point.complex_coords()
    chart0 = [coords0[fiber]] + list(coords0[2:])
    if abs(chart0[0]) < 1e-12:
        raise LiftError("the adapted chart needs a nonzero fiber coordinate")

    def chart_map(chart: Sequence[complex]) -> list[complex]:
        z = list(chart[1:])
        ambient = [0j] * ctx.ring.nvars
        ambient[fiber] = chart[0]
        ambient[other] = ctx.f_base.evaluate_complex(z) / chart[0]
        ambient[2:] = z
        moved = flow_map.apply(surface_point(ctx, ambient, tol=1e-6), t)
        out = moved.complex_coords()
        return [out[fiber]] + list(out[2:])

    m = len(chart0)
    jac = numpy.zeros((m, m), dtype=complex)
    for j in range(m):
        bumped = list(chart0)
        bumped[j] += h
        plus = chart_map(bumped)
        bumped[j] -= 2 * h
        minus = chart_map(bumped)
        for i in range(m):
            jac[i, j] = (plus[i] - minus[i]) / (2 * h)
    return complex(numpy.linalg.det(jac))


def twist_field(ctx: SuspensionContext, h: Poly) -> VectorField:
    """h(z) * (u d_u - v d_v), tangent and volume preserving for any h."""
    h_amb = h if h.ring.variables == ctx.ring.variables else h.extend_to(ctx.ring)
    if h_amb.uses_variable(0) or h_amb.uses_variable(1):
        raise LiftError("twist functions depend on the base variables only")
    return VectorField(ctx.ring, (
        h_amb * ctx.ring.var("u"), -(h_amb * ctx.ring.var("v")),
        *[ctx.ring.zero()] * ctx.n))


# ---------------------------------------------------------------------------
# the spanning family at a basepoint


@dataclass(frozen=True)
class SpanningPair:
    """Two exact tangent vectors at the basepoint, with the evaluation of
    the associated ideal there; the wedge enters the span scaled by it."""

    label: str
    a: tuple[GaussianRational, ...]
    b: tuple[GaussianRational, ...]
    ideal_value: GaussianRational


@dataclass
class SpanningFamily:
    basepoint: SurfacePoint
    pairs: list[SpanningPair]
    notes: dict = field(default_factory=dict)


def validate_basepoint(ctx: SuspensionContext, point: SurfacePoint,
                       ideals: Sequence[Sequence[Poly]] = ()) -> list[str]:
    """Conditions the spanning construction needs; empty list when fine."""
    partials = [ctx.f_base.derivative(j) for j in range(ctx.n)]
    return _basepoint_failures(point, partials, ideals)


def _basepoint_failures(point: SurfacePoint, partials: Sequence[Poly],
                        ideals: Sequence[Sequence[Poly]]) -> list[str]:
    failures = []
    if not point.exact:
        return ["basepoint must be exact"]
    if point.u.is_zero:
        failures.append("u vanishes at the basepoint")
    if point.v.is_zero:
        failures.append("v vanishes at the basepoint")
    z = point.z
    if all(p.evaluate_exact(z).is_zero for p in partials):
        failures.append("df vanishes at the basepoint")
    for k, gens in enumerate(ideals):
        if gens and all(g.evaluate_exact(z).is_zero for g in gens):
            failures.append(f"ideal {k} vanishes at the basepoint")
    return failures


@dataclass(frozen=True)
class _Candidate:
    """One source pair with its fields in one slot order (first, second),
    prepared for both pullbacks.  `twist` maps each base index j with a
    nonzero first-field coefficient to the pullbacks along z_j; with a
    given twist function its pullbacks sit under the key None."""

    idx: int
    swapped: bool
    gens: tuple[Poly, ...]
    first: BaseField
    first_f: Poly                  # first(f), base ring
    second_f: Poly                 # second(f), base ring
    shear: tuple[ShearPullback, ShearPullback]
    twist: dict[int | None, tuple[ShearPullback, ShearPullback]]
    twist_moves: Poly | None       # first(g_twist) when g_twist is given


@dataclass(frozen=True)
class SpanningPlan:
    """The symbolic half of `spanning_family`, built once per list of
    source pairs and evaluated at each basepoint: the four lifts of every
    pair, alpha(f) and beta(f), and the shear pullbacks.  The shear
    functions u - u0 and z_j - c differ between basepoints only by a
    constant, which changes neither the kernel check nor mu(g)."""

    ctx: SuspensionContext
    partials: tuple[Poly, ...]
    ideals: tuple[tuple[Poly, ...], ...]
    lifted: tuple[tuple[SuspensionField, ...], ...]   # alpha_u, alpha_v, beta_u, beta_v
    candidates: tuple[_Candidate, ...]
    g_twist: Poly | None

    def at(self, point: SurfacePoint) -> SpanningFamily:
        """The evaluated spanning family at an admissible basepoint."""
        failures = _basepoint_failures(point, self.partials, self.ideals)
        if failures:
            raise BasepointError(failures)
        ctx = self.ctx
        family: list[SpanningPair] = []
        notes: dict = {"twist": None, "shear": None}
        z = point.z

        def ideal_value_at(gens: Sequence[Poly]) -> GaussianRational:
            for g in gens:
                val = g.evaluate_exact(z)
                if not val.is_zero:
                    return val
            raise BasepointError(["ideal vanishes at the basepoint"])

        for idx, (gens, (alpha_u, alpha_v, beta_u, beta_v)) in enumerate(
                zip(self.ideals, self.lifted)):
            value = ideal_value_at(gens)
            family.append(SpanningPair(
                f"pair{idx}:lift(u,v)",
                tuple(alpha_u.evaluate_exact(point)),
                tuple(beta_v.evaluate_exact(point)), value))
            family.append(SpanningPair(
                f"pair{idx}:lift(v,u)",
                tuple(alpha_v.evaluate_exact(point)),
                tuple(beta_u.evaluate_exact(point)), value))

        # shear pullback: needs the first-slot field to move f at the basepoint
        for cand in self.candidates:
            if cand.first_f.evaluate_exact(z).is_zero:
                continue
            shear_a, shear_b = cand.shear
            family.append(SpanningPair(
                f"pair{cand.idx}:shear-pullback" + (":swapped" if cand.swapped else ""),
                tuple(shear_a.at(point, point.u)),
                tuple(shear_b.at(point, point.u)), ideal_value_at(cand.gens)))
            notes["shear"] = {"pair": cand.idx, "swapped": cand.swapped}
            break
        else:
            notes["shear"] = "no source pair moves f at the basepoint"

        # twist pullback: needs alpha(f) = 0 but beta(f) != 0 and alpha != 0
        for cand in self.candidates:
            if not cand.first_f.evaluate_exact(z).is_zero:
                continue
            if cand.second_f.evaluate_exact(z).is_zero:
                continue
            alpha_at = cand.first.evaluate_exact(z)
            if all(c.is_zero for c in alpha_at):
                continue
            if self.g_twist is not None:
                h = self.g_twist
                if not h.evaluate_exact(z).is_zero:
                    raise BasepointError(["the twist function must vanish at the basepoint"])
                if cand.twist_moves.evaluate_exact(z).is_zero:
                    raise BasepointError(
                        ["the twist function must move along the first lifted field"])
                twist_a, twist_b = cand.twist[None]
                shift = ZERO
            else:
                j = next(j for j, c in enumerate(alpha_at) if not c.is_zero)
                h = ctx.base_ring.var(j) - ctx.base_ring.const(z[j])
                twist_a, twist_b = cand.twist[j]
                shift = z[j]
            family.append(SpanningPair(
                f"pair{cand.idx}:twist-pullback" + (":swapped" if cand.swapped else ""),
                tuple(twist_a.at(point, shift)), tuple(twist_b.at(point, shift)),
                ideal_value_at(cand.gens)))
            notes["twist"] = {"pair": cand.idx, "swapped": cand.swapped,
                              "twist_function": str(h)}
            break
        else:
            notes["twist"] = "no source pair is stationary for f at the basepoint"

        return SpanningFamily(basepoint=point, pairs=family, notes=notes)


def spanning_plan(pairs: Sequence[tuple[BaseField, BaseField, Sequence[Poly]]],
                  ctx: SuspensionContext,
                  g_twist: Poly | None = None) -> SpanningPlan:
    """Lift every source pair and prepare its pullbacks, once; see
    `spanning_family` for what the plan evaluates at a basepoint."""
    ring = ctx.ring
    u = ring.var("u")
    radial = VectorField(ring, (
        ring.var("u"), -ring.var("v"), *[ring.zero()] * ctx.n))
    lifted = []
    candidates = []
    for idx, (alpha, beta, gens) in enumerate(pairs):
        alpha_u, alpha_v = lift(alpha, ctx, "u"), lift(alpha, ctx, "v")
        beta_u, beta_v = lift(beta, ctx, "u"), lift(beta, ctx, "v")
        lifted.append((alpha_u, alpha_v, beta_u, beta_v))
        alpha_f, beta_f = alpha.apply(ctx.f_base), beta.apply(ctx.f_base)
        for swapped, (first, first_u, first_v, first_f, second_v, second_f) in (
                (False, (alpha, alpha_u, alpha_v, alpha_f, beta_v, beta_f)),
                (True, (beta, beta_u, beta_v, beta_f, alpha_v, alpha_f))):
            if g_twist is not None:
                h_amb = g_twist.extend_to(ring)
                twist = {None: (ShearPullback.prepare(first_u, radial, h_amb),
                                ShearPullback.prepare(second_v, radial, h_amb))}
                twist_moves = first.apply(g_twist)
            else:
                twist = {}
                for j, c in enumerate(first.coeffs):
                    if c.is_zero:
                        continue
                    z_j = ring.var(ctx.base_ring.variables[j])
                    twist[j] = (ShearPullback.prepare(first_u, radial, z_j),
                                ShearPullback.prepare(second_v, radial, z_j))
                twist_moves = None
            candidates.append(_Candidate(
                idx=idx, swapped=swapped, gens=tuple(gens), first=first,
                first_f=first_f, second_f=second_f,
                shear=(ShearPullback.prepare(first_u, first_v, u),
                       ShearPullback.prepare(second_v, first_v, u)),
                twist=twist, twist_moves=twist_moves))
    return SpanningPlan(
        ctx=ctx,
        partials=tuple(ctx.f_base.derivative(j) for j in range(ctx.n)),
        ideals=tuple(tuple(gens) for _, _, gens in pairs),
        lifted=tuple(lifted), candidates=tuple(candidates), g_twist=g_twist)


def spanning_family(pairs: Sequence[tuple[BaseField, BaseField, Sequence[Poly]]],
                    ctx: SuspensionContext, point: SurfacePoint,
                    g_twist: Poly | None = None) -> SpanningFamily:
    """Evaluate at an admissible basepoint the family whose wedges are
    expected to span the second exterior power of the tangent space:

    * both opposite-side lifted pairs of every source pair, and
    * up to two pullback pairs, one along a shear by (u - u0) times a
      side-v lift, one along a twist by a base function vanishing at the
      basepoint (see the notes for which source pairs fed them).

    Source pairs come with their proposed ideal generators (base ring);
    every wedge is weighted by a nonvanishing ideal value at the point.
    Evaluating many basepoints?  Build `spanning_plan` once and call its
    `at` per point instead.
    """
    return spanning_plan(pairs, ctx, g_twist).at(point)
