"""Randomized exact identity suites.

Every suite draws seeded random inputs, evaluates both sides of an
algebraic identity in exact arithmetic, and records any mismatch; there
is no tolerance anywhere.  The suites back the command-line `verify`
subcommand and the acceptance tests, and double as a regression net for
the calculus layer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .fields import (VectorField, divergence, exterior_derivative,
                     interior_product, lie_bracket, lie_derivative,
                     lie_derivative_direct, pair_to_form, volume_form, wedge)
from .lifts import lift, twist_field
from .poly import Poly, PolyRing
from .randgen import (rand_divergence_free_field, rand_field, rand_form,
                      rand_poly)
from .scalars import gr
from .surface import divergence_on_suspension, is_tangent, make_suspension

GENERIC_RING = PolyRing(("x1", "x2", "x3"))
MAX_STORED_FAILURES = 5


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures


ALL_CHECKS: dict = {}

_VOLUME = volume_form(GENERIC_RING)
_SUSPENSIONS = [make_suspension(2, f) for f in ("z1", "z1^2", "z1*z2 - 1")]
_F_RING = PolyRing(("z1", "z2"))          # wedge-decomposition draws f here


def _check(name: str):
    """Register a trial body under `name`.  A body draws from the stream it
    is given and returns a failure message or None; `ALL_CHECKS` keeps the
    registration order, which is the order `verify` reports."""
    def register(body):
        ALL_CHECKS[name] = body
        return body
    return register


@_check("cartan")
def _cartan(rng):
    """Contract-then-differentiate formula against the slot-by-slot
    definition of the Lie derivative."""
    theta = rand_field(GENERIC_RING, rng)
    a = rand_form(GENERIC_RING, rng, rng.randint(0, 2))
    diff = lie_derivative(theta, a) + \
        lie_derivative_direct(theta, a).scale(gr(-1))
    if not diff.is_zero:
        return f"Lie derivative mismatch on degree {a.degree}"
    return None


@_check("dd-zero")
def _dd_zero(rng):
    a = rand_form(GENERIC_RING, rng, rng.randint(0, 2))
    if not exterior_derivative(exterior_derivative(a)).is_zero:
        return f"d(d a) != 0 on degree {a.degree}"
    return None


@_check("antiderivation")
def _antiderivation(rng):
    a = rand_form(GENERIC_RING, rng, rng.randint(0, 1))
    b = rand_form(GENERIC_RING, rng, rng.randint(0, 2))
    sign = gr(-1) if a.degree % 2 else gr(1)
    lhs = exterior_derivative(wedge(a, b))
    rhs = wedge(exterior_derivative(a), b) + \
        wedge(a, exterior_derivative(b)).scale(sign)
    if not (lhs + rhs.scale(gr(-1))).is_zero:
        return f"Leibniz rule fails on degrees ({a.degree}, {b.degree})"
    return None


@_check("jacobi")
def _jacobi(rng):
    x = rand_field(GENERIC_RING, rng, max_degree=3)
    y = rand_field(GENERIC_RING, rng, max_degree=3)
    z = rand_field(GENERIC_RING, rng, max_degree=3)
    total = lie_bracket(x, lie_bracket(y, z)) + \
        lie_bracket(y, lie_bracket(z, x)) + \
        lie_bracket(z, lie_bracket(x, y))
    if not total.is_zero:
        return "Jacobi sum is nonzero"
    return None


@_check("divergence-leibniz")
def _divergence_leibniz(rng):
    """Divergence against Cartan's formula, then its product rule."""
    theta = rand_field(GENERIC_RING, rng)
    h = rand_poly(GENERIC_RING, rng)
    cartan = lie_derivative(theta, _VOLUME) - _VOLUME.scale(divergence(theta))
    if not cartan.is_zero:
        return "L_field(volume) != div(field) * volume"
    lhs = divergence(theta.scale(h))
    rhs = h * divergence(theta) + theta.apply(h)
    if not (lhs - rhs).is_zero:
        return "div(h*field) != h*div(field) + field(h)"
    return None


@_check("bracket-form")
def _bracket_form(rng):
    """For divergence-free fields, contracting the bracket into the volume
    form is the exterior derivative of the double contraction."""
    nu = rand_divergence_free_field(GENERIC_RING, rng, max_degree=3)
    mu = rand_divergence_free_field(GENERIC_RING, rng, max_degree=3)
    lhs = interior_product(lie_bracket(nu, mu), _VOLUME)
    rhs = exterior_derivative(pair_to_form(nu, mu))
    if not (lhs + rhs.scale(gr(-1))).is_zero:
        return "bracket contraction disagrees with d of the pair form"
    return None


@_check("lift-divergence")
def _lift_divergence(rng):
    """Both side lifts of a divergence-free base field stay tangent with
    zero divergence for the induced volume; twists do too."""
    ctx = rng.choice(_SUSPENSIONS)
    theta = rand_divergence_free_field(ctx.base_ring, rng, max_degree=3)
    for side in ("u", "v"):
        lifted = lift(theta, ctx, side)
        if not is_tangent(lifted, ctx).is_zero:
            return f"side {side} lift is not strictly tangent"
        if not divergence_on_suspension(lifted, ctx).is_zero:
            return f"side {side} lift has nonzero divergence"
    h = rand_poly(ctx.base_ring, rng, max_degree=3)
    if not divergence_on_suspension(twist_field(ctx, h), ctx).is_zero:
        return "twist field has nonzero divergence"
    return None


def _bivector(a, b, nvars: int):
    out = {}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            p = a[i] * b[j] - a[j] * b[i]
            if not p.is_zero:
                out[(i, j)] = p
    return out


@_check("wedge-decomposition")
def _wedge_decomposition(rng):
    """Dropping the dv-components of the wedge of two opposite-side lifts
    leaves uv times the base wedge minus a correction along d_u."""
    f = rand_poly(_F_RING, rng, max_degree=3)
    if f.is_constant():
        return None                       # suspension needs nonconstant f
    ctx = make_suspension(2, f)
    alpha = rand_field(ctx.base_ring, rng, max_degree=3)
    beta = rand_field(ctx.base_ring, rng, max_degree=3)
    lifted_a = lift(alpha, ctx, "u").coeffs
    lifted_b = lift(beta, ctx, "v").coeffs
    nvars = ctx.ring.nvars
    projected = {key: p for key, p in
                 _bivector(lifted_a, lifted_b, nvars).items()
                 if 1 not in key}

    ext = ctx.ring
    a_ext = [ext.zero(), ext.zero()] + \
        [c.extend_to(ext) for c in alpha.coeffs]
    b_ext = [ext.zero(), ext.zero()] + \
        [c.extend_to(ext) for c in beta.coeffs]
    du = [ext.one() if i == 0 else ext.zero() for i in range(nvars)]
    uv = ext.var("u") * ext.var("v")
    u_af = ext.var("u") * alpha.apply(ctx.f_base).extend_to(ext)
    want = {}
    for key, p in _bivector(a_ext, b_ext, nvars).items():
        want[key] = uv * p
    for key, p in _bivector(b_ext, du, nvars).items():
        want[key] = want.get(key, ext.zero()) - u_af * p
    keys = set(projected) | set(want)
    for key in keys:
        lhs = projected.get(key, ext.zero())
        rhs = want.get(key, ext.zero())
        if not (lhs - rhs).is_zero:
            return f"wedge component {key} disagrees"
    return None


def compatible_bracket_failure(nu: VectorField, mu: VectorField, h: Poly,
                               f: Poly, g: Poly) -> str | None:
    """Check the bracket identity expressing a scaled field as a
    difference of brackets,

        f*g*nu(h) * mu  ==  [f*nu, g*h*mu] - [f*h*nu, g*mu],

    which holds when nu(h) and f lie in Ker nu and h and g in Ker mu.
    Returns the first failed precondition or the failed identity, or None
    when everything holds."""
    preconditions = (("nu(h) in Ker nu", nu.apply(nu.apply(h))),
                     ("h in Ker mu", mu.apply(h)),
                     ("f in Ker nu", nu.apply(f)),
                     ("g in Ker mu", mu.apply(g)))
    for label, value in preconditions:
        if not value.is_zero:
            return f"precondition {label} fails"
    lhs = mu.scale(f * g * nu.apply(h))
    rhs = lie_bracket(nu.scale(f), mu.scale(g * h)) - \
        lie_bracket(nu.scale(f * h), mu.scale(g))
    if not (lhs - rhs).is_zero:
        return "f*g*nu(h)*mu != [f*nu, g*h*mu] - [f*h*nu, g*mu]"
    return None


@_check("compatible-bracket")
def _compatible_bracket(rng):
    """The bracket identity on coordinate fields nu = d_xi, mu = d_xj with
    h, f, g drawn to meet its kernel preconditions by construction."""
    ring = GENERIC_RING
    i, j = rng.sample(range(3), 2)
    k = 3 - i - j
    nu = VectorField.coordinate(ring, i)
    mu = VectorField.coordinate(ring, j)
    h = rand_poly(ring, rng, max_degree=2, indices=[k]) * ring.var(i) + \
        rand_poly(ring, rng, max_degree=3, indices=[k])
    f = rand_poly(ring, rng, max_degree=3, indices=[j, k])
    g = rand_poly(ring, rng, max_degree=3, indices=[i, k])
    return compatible_bracket_failure(nu, mu, h, f, g)


def run_checks(names=None, trials: int = 200, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (all by default), each on its own seeded
    stream so the set requested does not change any one suite's draws."""
    picked = list(ALL_CHECKS) if names is None else list(names)
    results = []
    for name in picked:
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown identity suite: {name}")
        body, rng = ALL_CHECKS[name], random.Random(f"{seed}:{name}")
        failures: list[str] = []
        start = time.perf_counter()
        for k in range(trials):
            msg = body(rng)
            if msg and len(failures) < MAX_STORED_FAILURES:
                failures.append(f"trial {k}: {msg}")
        results.append(SuiteResult(name, trials, failures,
                                   time.perf_counter() - start))
    return results
