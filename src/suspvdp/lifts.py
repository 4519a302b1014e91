"""Lifting base fields to the suspension and flowing along the lifts.

A base field on C^n, a `VectorField` on the base ring, extends trivially
to the ambient space (zero coefficients on u and v).  Each divergence-free
base field then admits two distinguished tangent lifts,

    side u:  v * (trivial extension) + (field applied to f) * d_u
    side v:  u * (trivial extension) + (field applied to f) * d_v

both of which are volume preserving on the surface; the test suite checks
this divergence transfer exactly.

Flows: one exact flow serves every locally nilpotent field, the
exponential series exp(t*xi)(x) = sum_k t^k xi^k(x) / k!, which is a
polynomial in time when every xi^k(x) vanishes from some k on.  The side-u
lift xi of a locally nilpotent base field theta is locally nilpotent too:
xi(v) = 0, xi^k(z_j) = v^k theta^k(z_j) and xi^k(u) = v^(k-1) theta^k(f),
so the lifted flow is the series of the lift itself (mirrored on side v).
Shear chains, each coefficient free of its own variable and the
dependencies acyclic, are the triangular case.  A lift whose series does
not terminate within the guard falls back to numeric integration, and the
returned map is flagged accordingly.  The same series on the base ring
is the criterion's completeness witness (`shown_complete`).

Independent numeric jobs, such as the audited points of a flow, run on
every CPU of the affinity mask through `map_on_cpus`.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Callable, Sequence, TypeVar

from .fields import VectorField
from .poly import COMPLEX, EXACT, Evaluated, Poly, PolyError
from .scalars import GaussianRational, gr
from .surface import (SurfacePoint, SuspensionContext, basepoint_rules,
                      is_tangent, surface_point)


class LiftError(ValueError):
    pass


class BasepointError(LiftError):
    def __init__(self, failures: list[str]):
        super().__init__("inadmissible basepoint: " + "; ".join(failures))
        self.failures = failures


# ---------------------------------------------------------------------------
# extension and lifts


def extend_trivially(theta: VectorField, ctx: SuspensionContext) -> VectorField:
    """The ambient field with the same z-coefficients and zero on u, v."""
    coeffs = [ctx.ring.zero(), ctx.ring.zero()]
    coeffs += [c.extend_to(ctx.ring) for c in theta.coeffs]
    return VectorField(ctx.ring, tuple(coeffs))


def lift(theta: VectorField, ctx: SuspensionContext, side: str) -> VectorField:
    """The tangent lift on the requested side ("u" or "v"), certified
    tangent by `is_tangent`."""
    if side not in ("u", "v"):
        raise LiftError(f"side must be 'u' or 'v', not {side!r}")
    ext = extend_trivially(theta, ctx)
    theta_f = theta.apply(ctx.f_base).extend_to(ctx.ring)
    mult = ctx.ring.var("v" if side == "u" else "u")
    scaled = ext.scale(mult)
    coeffs = list(scaled.coeffs)
    coeffs[0 if side == "u" else 1] = coeffs[0 if side == "u" else 1] + theta_f
    lifted = VectorField(ctx.ring, tuple(coeffs))
    is_tangent(lifted, ctx)
    return lifted


# ---------------------------------------------------------------------------
# exact flows

# A series past this many terms (all coordinates together) is given up
# on: the iterates of a field that is not locally nilpotent grow without
# end, and a closed form this large would cost more to build and to
# evaluate than the numeric fallback.
SERIES_TERMS = 2000


def exponential_flow(xi: VectorField) -> tuple[Poly, ...] | None:
    """exp(t*xi)(x) = sum_k t^k xi^k(x) / k! for every coordinate x of
    the field's ring, in that ring with a trailing time variable t; None
    where some xi^k(x) is still nonzero at the guard.

    The guard on k is the index bound of a triangular field of the same
    coefficient degree d on the same m variables: xi^k(x) = 0 for every
    k > D_m, where D_1 = 1 and D_i = 1 + d * D_(i-1), so every shear chain
    terminates within it.  A field whose iterates vanish is locally
    nilpotent, and the series is its exact, complete flow."""
    ring = xi.ring
    flow_ring = ring.with_extra("t")
    degree = max(0, *(c.total_degree() for c in xi.coeffs))
    cap = 1
    for _ in range(ring.nvars - 1):
        cap = 1 + degree * cap
    size = 0
    components = []
    for i in range(ring.nvars):
        iterate, terms, k = ring.var(i), {}, 0
        while not iterate.is_zero:
            size += len(iterate.terms)
            if k > cap or size > SERIES_TERMS:
                return None
            factorial = math.factorial(k)
            for e, c in iterate.terms.items():
                terms[(*e, k)] = c / factorial
            iterate, k = xi.apply(iterate), k + 1
        # term order is float semantics (compiled evaluators sum in it):
        # the coordinate, then by descending degree in the field's
        # variables, ties by ascending exponents
        order = sorted(terms, key=lambda e: (e[-1] > 0, -sum(e[:-1]), e))
        components.append(Poly(flow_ring, {e: terms[e] for e in order}))
    return tuple(components)


def shown_complete(theta: VectorField) -> bool:
    """Whether the field is shown complete: affine linear (every
    coefficient of degree at most 1, flow exp(tA)) or locally nilpotent
    within the guard of `exponential_flow`."""
    return all(c.total_degree() <= 1 for c in theta.coeffs) or \
        exponential_flow(theta) is not None


FLOW_STEPS = 2048            # RK4 steps of a numeric lifted flow


@dataclass(frozen=True)
class LiftedFlowMap(Evaluated):
    """Time-t map of a lifted field on points of the surface.

    `components` holds the closed form, the exponential series of the
    lift (exact-capable, polynomial in all coordinates and t; its
    evaluators compute them); without it the map is the numeric fallback,
    FLOW_STEPS of RK4 on the lift."""

    ctx: SuspensionContext
    side: str
    lifted: VectorField
    components: tuple[Poly, ...] | None = None      # in ring (u,v,z...,t)

    @property
    def symbolic(self) -> bool:
        return self.components is not None

    def evaluated(self):
        return self.components[0].ring, self.components

    def apply(self, point: SurfacePoint, t) -> SurfacePoint:
        if self.symbolic:
            if not isinstance(t, GaussianRational) and isinstance(t, (int, Fraction)):
                t = gr(t)
            if point.exact and isinstance(t, GaussianRational):
                return surface_point(self.ctx, self.evaluator(EXACT)(
                    point.coords + (t,)))
            coords = self.evaluator(COMPLEX)(
                point.complex_coords() + (complex(t),))
        else:
            coords = rk4_flow(self.lifted.evaluate_complex,
                              list(point.complex_coords()), complex(t),
                              FLOW_STEPS)
        return surface_point(self.ctx, coords,
                             tol=_end_point_tolerance(self.ctx, coords))


def _end_point_tolerance(ctx: SuspensionContext,
                         coords: Sequence[complex]) -> float:
    """Surface-residual tolerance of a flowed float point: 1e-9 relative to
    the size of the terms of u*v - f(z) there, sum |c_e| * |x|^e (at least
    1).  That size bounds the rounding in the residual, and the effect on
    the residual of an end point known to a relative accuracy."""
    size = [abs(x) for x in coords]
    terms = sum(abs(c.to_complex()) * math.prod(s ** k for s, k in zip(size, e))
                for e, c in ctx.defining.terms.items())
    return 1e-9 * max(1.0, terms)


def lifted_flow(theta: VectorField, ctx: SuspensionContext, side: str) -> LiftedFlowMap:
    """The exponential series of the side lift where it terminates
    (`exponential_flow`), the numeric fallback otherwise (flagged on the
    result)."""
    lifted = lift(theta, ctx, side)
    return LiftedFlowMap(ctx, side, lifted, exponential_flow(lifted))


def rk4_flow(eval_fn: Callable[[Sequence[complex]], Sequence[complex]],
             start: Sequence[complex], t_total: complex,
             steps: int) -> list[complex]:
    """Classical fourth-order integration along the straight time segment
    from 0 to t_total (complex time is traversed linearly).

    `eval_fn` is a compiled evaluator (`poly.compile_values` over COMPLEX
    or `compile_complex_sum`) or a `VectorField.evaluate_complex`, which
    resolves to its field's; the loop calls its `field` body on local
    complex variables.  Any other callable is refused."""
    if steps < 1:
        raise LiftError(f"RK4 needs at least one step, not {steps}")
    x = [complex(c) for c in start]
    h = complex(t_total) / steps
    return _rk4_loop(len(x))(_field_body(eval_fn, len(x)), h, steps, *x)


def _field_body(eval_fn, m: int):
    """The `field` body of a compiled evaluator: a function of m complex
    arguments returning the m field values."""
    if getattr(eval_fn, "__func__", None) is VectorField.evaluate_complex:
        eval_fn = eval_fn.__self__.evaluator(COMPLEX)
    body = getattr(eval_fn, "field", None)
    if body is None:
        raise LiftError("RK4 integrates a compiled evaluator or "
                        "VectorField.evaluate_complex, not a plain callable")
    if body.__code__.co_argcount != m:
        raise PolyError("wrong number of coordinates")
    return body


@cache
def _rk4_loop(m: int):
    """The RK4 loop for m coordinates, generated once: the stages and the
    update run on locals, with the float operations of the list form

        k1 = [h * c for c in field(x)]
        k2 = [h * c for c in field([a + b / 2 for a, b in zip(x, k1)])]
        k3 = [h * c for c in field([a + b / 2 for a, b in zip(x, k2)])]
        k4 = [h * c for c in field([a + b for a, b in zip(x, k3)])]
        x = [a + (p + 2 * q + 2 * r + s) / 6 for ... in zip(x, k1, ..., k4)]

    in the same order, so its results are bit-identical to it."""
    idx = range(m)

    def stage(name: str, args: str) -> list[str]:
        return [f"[{', '.join(f'{name}{i}' for i in idx)}] = field({args})",
                *(f"{name}{i} = h * {name}{i}" for i in idx)]

    def shifted(name: str, half: bool) -> str:
        return ", ".join(f"x{i} + {name}{i}" + (" / 2" if half else "")
                         for i in idx)

    body = [*stage("a", ", ".join(f"x{i}" for i in idx)),
            *stage("b", shifted("a", True)),
            *stage("c", shifted("b", True)),
            *stage("d", shifted("c", False)),
            *(f"x{i} = x{i} + (a{i} + 2 * b{i} + 2 * c{i} + d{i}) / 6"
              for i in idx)]
    params = ", ".join(["field", "h", "steps", *(f"x{i}" for i in idx)])
    source = "".join([
        f"def rk4({params}):\n",
        "    for _ in range(steps):\n",
        *(f"        {line}\n" for line in body),
        f"    return [{', '.join(f'x{i}' for i in idx)}]\n"])
    namespace: dict = {}
    exec(compile(source, f"<rk4 loop, {m} coordinates>", "exec"), namespace)
    return namespace["rk4"]


# ---------------------------------------------------------------------------
# independent jobs on every CPU

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")

# set in a forked worker only, whose own maps then run serially
_in_worker = False


def cpu_blocks(count: int) -> list[int]:
    """Sizes of the contiguous blocks `map_on_cpus` splits `count` jobs
    into, the parent's first: one block per CPU this process may run on
    (one in all where there is no `os.fork` or inside a worker), at most
    one per job, and the leading blocks one job longer where the count
    does not divide."""
    cpus = 1
    if hasattr(os, "fork") and not _in_worker:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    k = max(1, min(cpus, count))
    q, r = divmod(count, k)
    return [q + (i < r) for i in range(k)]


def map_on_cpus(fn: Callable[[_Job], _Result],
                jobs: Sequence[_Job]) -> list[_Result]:
    """`[fn(j) for j in jobs]`, in job order, over the blocks of
    `cpu_blocks`.  The parent runs the first block while one forked
    worker per other block runs its own and sends the results back
    through a pipe with `marshal`; only theirs must be marshal-able
    (numbers, strings, lists, dicts), since the parent's never cross a
    pipe.  `fn` and the jobs reach a worker through the fork, so nothing
    is pickled.  The parent runs again the block of any worker that fails,
    whether by an exception, a signal or a short reply, so a job's
    exception is raised here with its own traceback.  Every worker is
    reaped before this returns or raises, and killed first where the
    parent raises.  A map costs a few milliseconds (a fork, a reply, a
    reap and copy-on-write faults on both sides), so it pays only for
    jobs that total well above that.

    A forked worker has only the thread that forked it: `fn` must not
    call native code that keeps a thread pool, such as numpy's BLAS."""
    bounds = list(accumulate(cpu_blocks(len(jobs)), initial=0))
    blocks = [jobs[a:b] for a, b in zip(bounds, bounds[1:])]
    workers: list[tuple[int, int] | None] = [None] * len(blocks)
    try:
        for k in range(1, len(blocks)):
            workers[k] = _fork_worker(fn, blocks[k])
        results = [fn(j) for j in blocks[0]]
        for k in range(1, len(blocks)):
            # taken out first: reading the reply reaps it, failed or not
            worker, workers[k] = workers[k], None
            got = _worker_results(worker, len(blocks[k]))
            results += [fn(j) for j in blocks[k]] if got is None else got
        return results
    finally:
        for worker in filter(None, workers):    # left by an exception
            os.kill(worker[0], signal.SIGKILL)
            _worker_results(worker, 0)


def _fork_worker(fn, block) -> tuple[int, int] | None:
    """Fork a worker for `block`: its pid and the read end of its pipe,
    or None where the fork failed and the parent runs the block."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        global _in_worker
        _in_worker = True
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps([fn(j) for j in block]))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _worker_results(worker: tuple[int, int] | None,
                    count: int) -> list | None:
    """Read a worker's reply and reap it: its `count` results, or None
    where it failed or was not forked."""
    if worker is None:
        return None
    pid, read_end = worker
    try:
        with open(read_end, "rb") as pipe:
            reply = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return None
    try:
        got = marshal.loads(reply)
    except (EOFError, ValueError, TypeError):
        return None
    return got if isinstance(got, list) and len(got) == count else None


# ---------------------------------------------------------------------------
# pullback along kernel-scaled shears


def _shear_factor(mu: VectorField, theta: VectorField, g: Poly) -> Poly:
    """mu(g), after checking that g lies in the kernel of theta.  It serves
    the shear function g - c for every constant c, which changes neither
    the kernel condition nor mu(g): where g - c vanishes, the pullback of
    mu under the inverse time-1 flow of (g - c)*theta is mu + mu(g)*theta."""
    if not theta.apply(g).is_zero:
        raise LiftError("the shear function must lie in the kernel of the field")
    return mu.apply(g)


def shear_pullback(mu: VectorField, theta: VectorField, g: Poly,
                   point: SurfacePoint) -> list[GaussianRational]:
    """Value at `point` of the pullback of `mu` under the inverse time-1
    flow of g*theta, where g is in the kernel of theta and vanishes at the
    point:  mu(p) + mu(g)(p) * theta(p).

    g*theta is complete where theta is, g being constant along theta's
    orbits; the lift of a complete base field is complete, and the
    criterion certifies only when every base field it lifts is shown
    complete (`shown_complete`).
    """
    mu_g = _shear_factor(mu, theta, g)
    if not point.exact:
        raise LiftError("pullback evaluation needs an exact point")
    coords = point.coords
    if not g.evaluate_exact(coords).is_zero:
        raise LiftError("the shear function must vanish at the point")
    factor = mu_g.evaluate_exact(coords)
    return [m + factor * th for m, th in zip(
        mu.evaluate_exact(coords), theta.evaluate_exact(coords))]


def flow_chart_jacobian(flow_map: LiftedFlowMap, point: SurfacePoint,
                        t) -> list[list[complex]]:
    """`chart_jacobian` of the time-t map in the chart adapted to the
    flow's side: a side-u flow keeps v fixed and is audited in coordinates
    (v, z) on v != 0, a side-v flow in (u, z) on u != 0.  Volume
    preservation makes its determinant exactly 1."""
    ctx = flow_map.ctx
    return chart_jacobian(
        ctx, 1 if flow_map.side == "u" else 0, point.complex_coords(),
        lambda ambient: flow_map.apply(
            surface_point(ctx, ambient, tol=1e-6), t).complex_coords())


def chart_jacobian(ctx: SuspensionContext, fiber: int,
                   coords0: Sequence[complex],
                   move: Callable[[list[complex]], Sequence[complex]]
                   ) -> list[list[complex]]:
    """Columns of the Jacobian at `coords0` of a map of the surface, in the
    chart (x_fiber, z) on x_fiber != 0: a chart point is embedded with the
    other fiber coordinate set to f(z)/x_fiber, `move` maps its ambient
    coordinates, and the image is read back in the chart.  Each column is
    a central difference of step 1e-6.  The 2m probes run in this
    process, in pure Python, so a forked job may take a whole Jacobian."""
    if abs(coords0[fiber]) < 1e-12:
        raise LiftError("the adapted chart needs a nonzero fiber coordinate")
    h = 1e-6
    other = 1 - fiber
    chart0 = [coords0[fiber]] + list(coords0[2:])

    def chart_map(chart: Sequence[complex]) -> list[complex]:
        z = list(chart[1:])
        ambient = [0j] * ctx.ring.nvars
        ambient[fiber] = chart[0]
        ambient[other] = ctx.f_base.evaluate_complex(z) / chart[0]
        ambient[2:] = z
        out = move(ambient)
        return [out[fiber]] + list(out[2:])

    columns = []
    for j in range(len(chart0)):
        bumped = list(chart0)
        bumped[j] += h
        plus = chart_map(bumped)
        bumped[j] -= 2 * h
        columns.append([(p - q) / (2 * h)
                        for p, q in zip(plus, chart_map(bumped))])
    return columns


def chart_jacobian_determinant(columns: Sequence[Sequence[complex]]) -> complex:
    """The determinant of the matrix of these columns (`chart_jacobian`),
    with numpy, so in the parent process only (`map_on_cpus`)."""
    import numpy
    return complex(numpy.linalg.det(numpy.array(columns, dtype=complex).T))


def twist_field(ctx: SuspensionContext, h: Poly) -> VectorField:
    """h(z) * (u d_u - v d_v), tangent and volume preserving for any h."""
    h_amb = h.extend_to(ctx.ring)
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
    the associated ideal there; the wedge enters the span scaled by it.
    (The rank screen builds the same pairs from residues mod p.)"""

    label: str
    a: tuple[GaussianRational, ...]
    b: tuple[GaussianRational, ...]
    ideal_value: GaussianRational


@dataclass
class SpanningFamily:
    basepoint: SurfacePoint
    pairs: list[SpanningPair]

    def wedge_rows(self) -> list[list]:
        """One row per pair: the wedge a^b scaled by the ideal value, in
        the chart (v, z) of the tangent space, built with + and * alone,
        so the exact rank and the screen mod p rank the same matrix.

        At a basepoint v != 0, so the tangent basis of
        `surface.tangent_basis` pivots on the u column and the coordinates
        of a tangent vector a in it are a[1:]; the family's vectors are
        tangent, being values of certified tangent fields at an exact
        point of the surface."""
        rows = []
        for sp in self.pairs:
            a, b, scale = sp.a[1:], sp.b[1:], sp.ideal_value
            rows.append([scale * (a[i] * b[j] - a[j] * b[i])
                         for i in range(len(a)) for j in range(i + 1, len(a))])
        return rows


# a pullback's mu, theta and `_shear_factor` mu(g) as indices into a plan's
# polynomials: where the shear function vanishes, the value is
# mu + mu(g) * theta
_Pullback = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class _Candidate:
    """One source pair with its fields in one slot order (first, second),
    as indices into a plan's polynomials.  `twist` maps each base index j
    with a nonzero first-field coefficient to the pullbacks along z_j."""

    idx: int
    swapped: bool
    gens: tuple[int, ...]
    first: tuple[int, ...]         # the first-slot base field
    first_f: int                   # first(f)
    second_f: int                  # second(f)
    shear: tuple[_Pullback, _Pullback]
    twist: dict[int, tuple[_Pullback, _Pullback]]


@dataclass(frozen=True)
class SpanningPlan(Evaluated):
    """The symbolic half of `spanning_family`, built once per list of
    source pairs and evaluated at each basepoint.  `polys` holds once,
    in the ambient ring, every polynomial the family reads: those of the
    basepoint rules, the four lifts of every pair, the ideal generators,
    alpha(f) and beta(f), and the shear pullbacks.  The shear functions
    u - u0 and z_j - c differ between basepoints only by a constant,
    which changes neither the kernel check nor mu(g).  Its evaluators
    compute `polys`, one per scalar domain."""

    ctx: SuspensionContext
    polys: tuple[Poly, ...]
    rules: tuple[tuple[str, tuple[int, ...]], ...]
    lifted: tuple[tuple[tuple[int, ...], ...], ...]   # alpha_u, alpha_v, beta_u, beta_v
    gens: tuple[tuple[int, ...], ...]
    candidates: tuple[_Candidate, ...]

    def evaluated(self):
        return self.ctx.ring, self.polys

    def at(self, point: SurfacePoint) -> SpanningFamily:
        """The evaluated spanning family at an admissible basepoint."""
        if not point.exact:
            raise BasepointError(["exact"])
        return self.family(point, self.evaluator(EXACT)(point.coords),
                           lambda value: not value.is_zero)

    def family(self, point: SurfacePoint, values: Sequence,
               nonzero: Callable[[object], bool]) -> SpanningFamily:
        """The spanning family at `point` from `values`, the values there
        of `polys` in one scalar domain.  Each zero test of the
        construction asks `nonzero` about the value of a polynomial that
        is not identically zero; it may raise where its domain cannot
        tell.  The vectors and ideal values are built from `values` with
        + and * alone."""
        polys = self.polys

        def nonzero_at(k: int) -> bool:
            return not polys[k].is_zero and nonzero(values[k])

        failures = [name for name, ks in self.rules
                    if not any(nonzero_at(k) for k in ks)]
        if failures:
            raise BasepointError(failures)

        # tuples of known length: tuple(<generator>) resizes a guessed
        # one, and the resized tuples pile up in the free list
        def vector(ks):
            return tuple([values[k] for k in ks])

        def pulled(pullback: _Pullback):
            mu, theta, mu_g = pullback
            return tuple([values[m] + values[mu_g] * values[t]
                          for m, t in zip(mu, theta)])

        def ideal_value(gens):
            for k in gens:
                if nonzero_at(k):
                    return values[k]
            raise BasepointError(["ideal vanishes at the basepoint"])

        family: list[SpanningPair] = []
        for idx, (gens, (alpha_u, alpha_v, beta_u, beta_v)) in enumerate(
                zip(self.gens, self.lifted)):
            value = ideal_value(gens)
            family.append(SpanningPair(f"pair{idx}:lift(u,v)", vector(alpha_u),
                                       vector(beta_v), value))
            family.append(SpanningPair(f"pair{idx}:lift(v,u)", vector(alpha_v),
                                       vector(beta_u), value))

        # shear pullback: needs the first-slot field to move f at the basepoint
        for cand in self.candidates:
            if not nonzero_at(cand.first_f):
                continue
            shear_a, shear_b = cand.shear
            family.append(SpanningPair(
                f"pair{cand.idx}:shear-pullback" + (":swapped" if cand.swapped else ""),
                pulled(shear_a), pulled(shear_b), ideal_value(cand.gens)))
            break

        # twist pullback: needs alpha(f) = 0 but beta(f) != 0 and alpha != 0
        for cand in self.candidates:
            if nonzero_at(cand.first_f) or not nonzero_at(cand.second_f):
                continue
            j = next((j for j, k in enumerate(cand.first) if nonzero_at(k)),
                     None)
            if j is None:
                continue
            twist_a, twist_b = cand.twist[j]
            family.append(SpanningPair(
                f"pair{cand.idx}:twist-pullback" + (":swapped" if cand.swapped else ""),
                pulled(twist_a), pulled(twist_b), ideal_value(cand.gens)))
            break

        return SpanningFamily(basepoint=point, pairs=family)


def spanning_plan(pairs: Sequence[tuple[VectorField, VectorField, Sequence[Poly]]],
                  ctx: SuspensionContext) -> SpanningPlan:
    """Lift every source pair and prepare its pullbacks, once; see
    `spanning_family` for what the plan evaluates at a basepoint.  Every
    family vector is built from fields that `is_tangent` certified (the
    lifts and the radial field), so it is tangent at any exact point
    of the surface."""
    ring = ctx.ring
    u = ring.var("u")
    radial = twist_field(ctx, ctx.base_ring.one())
    is_tangent(radial, ctx)
    polys: dict[Poly, int] = {}

    def slot(p: Poly) -> int:
        return polys.setdefault(p.extend_to(ring), len(polys))

    def slots(ps: Sequence[Poly]) -> tuple[int, ...]:
        return tuple(slot(p) for p in ps)

    def pullback(mu: VectorField, theta: VectorField, g: Poly) -> _Pullback:
        mu_g = _shear_factor(mu, theta, g)
        return slots(mu.coeffs), slots(theta.coeffs), slot(mu_g)

    rules = tuple((name, slots(ps)) for name, ps in
                  basepoint_rules(ctx, [gens for _, _, gens in pairs]))
    lifted, gens_slots, candidates = [], [], []
    for idx, (alpha, beta, gens) in enumerate(pairs):
        alpha_u, alpha_v = lift(alpha, ctx, "u"), lift(alpha, ctx, "v")
        beta_u, beta_v = lift(beta, ctx, "u"), lift(beta, ctx, "v")
        lifted.append(tuple(slots(f.coeffs)
                            for f in (alpha_u, alpha_v, beta_u, beta_v)))
        gens_slots.append(slots(gens))
        alpha_f, beta_f = alpha.apply(ctx.f_base), beta.apply(ctx.f_base)
        for swapped, (first, first_u, first_v, first_f, second_v, second_f) in (
                (False, (alpha, alpha_u, alpha_v, alpha_f, beta_v, beta_f)),
                (True, (beta, beta_u, beta_v, beta_f, alpha_v, alpha_f))):
            twist = {}
            for j, c in enumerate(first.coeffs):
                if c.is_zero:
                    continue
                z_j = ring.var(ctx.base_ring.variables[j])
                twist[j] = (pullback(first_u, radial, z_j),
                            pullback(second_v, radial, z_j))
            candidates.append(_Candidate(
                idx=idx, swapped=swapped, gens=gens_slots[-1],
                first=slots(first.coeffs), first_f=slot(first_f),
                second_f=slot(second_f),
                shear=(pullback(first_u, first_v, u),
                       pullback(second_v, first_v, u)),
                twist=twist))
    return SpanningPlan(
        ctx=ctx, polys=tuple(polys), rules=rules, lifted=tuple(lifted),
        gens=tuple(gens_slots), candidates=tuple(candidates))


def spanning_family(pairs: Sequence[tuple[VectorField, VectorField, Sequence[Poly]]],
                    ctx: SuspensionContext, point: SurfacePoint) -> SpanningFamily:
    """Evaluate at an admissible basepoint the family whose wedges are
    expected to span the second exterior power of the tangent space:

    * both opposite-side lifted pairs of every source pair, and
    * up to two pullback pairs, one along a shear by (u - u0) times a
      side-v lift, one along a twist by z_j - z_j(p), for the first base
      index j where the first-slot field is nonzero at the basepoint p
      (each pair's label names the source pair that fed it, and whether
      its fields were swapped).

    Source pairs come with their proposed ideal generators (base ring);
    every wedge is weighted by a nonvanishing ideal value at the point.
    Evaluating many basepoints?  Build `spanning_plan` once and call its
    `at` per point instead.
    """
    return spanning_plan(pairs, ctx).at(point)
