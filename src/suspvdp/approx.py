"""Numerical harness: approximate volume-preserving fields on the surface
by combinations of complete fields and their brackets.

The dictionary collects exactly divergence-free building blocks: kernel
multiples of both lifted fields of each pair, twist fields h(z)(u d_u -
v d_v), and single brackets across the two kernel families of a pair
(same-family brackets vanish identically and are skipped).  Every entry is
divergence-checked in exact arithmetic before any numeric work; a failure
there is a programming error, not data.

Fitting happens per sample point inside the tangent space: residuals are
measured against an orthonormal frame for the kernel of d(uv - f), never
in ambient coordinates.  The complex least-squares problem is solved
through the real doubling embedding with column scaling, and the
minimum-norm solution is taken on rank deficiency, which keeps results
deterministic for redundant dictionaries.

f is a polynomial.  The audits integrate compiled fields with
`lifts.rk4_flow`.  The flow audit's checks run through `map_on_cpus`; the
volume audit is a pure Python job that `cli` maps beside the residual
curve, and `volume_result` takes its determinant in the parent.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy

from .certify import LiftedPair, monomial_closure
from .fields import VectorField, lie_bracket
from .lifts import (chart_jacobian, chart_jacobian_determinant, map_on_cpus,
                    rk4_flow, twist_field)
from .poly import COMPLEX, compile_complex_sum, compile_values
from .surface import (SurfacePoint, SuspensionContext,
                      divergence_on_suspension, is_tangent)


class ApproxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dictionaries


@dataclass(frozen=True)
class DictionaryEntry:
    field: VectorField
    label: str      # a kernel multiple, a twist, or "[a, b]" for a bracket


@dataclass
class Dictionary:
    ctx: SuspensionContext
    entries: list[DictionaryEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def _entry_key(theta: VectorField):
    return tuple(c.key() for c in theta.coeffs)


def _term_key(theta: VectorField):       # with term order: equal bits
    return tuple((*c.terms, *c.terms.values()) for c in theta.coeffs)


def build_dictionary(ctx: SuspensionContext, pairs: Sequence[LiftedPair],
                     degree: int, memo: dict | None = None) -> Dictionary:
    """Kernel multiples, twists, and cross-family brackets, all verified
    strictly tangent (zero multiplier) and divergence-free in exact
    arithmetic before use.  A shared `memo` keeps checked `_entry_key`s and
    brackets by their parents' `_term_key`s."""
    memo = {} if memo is None else memo
    entries: list[DictionaryEntry] = []
    seen = set()

    def push(theta: VectorField, label: str) -> int | None:
        key = _entry_key(theta)
        if key not in memo:
            if not is_tangent(theta, ctx).is_zero:
                raise ApproxError(f"dictionary entry is not tangent: {label}")
            if not divergence_on_suspension(theta, ctx).is_zero:
                raise ApproxError(f"dictionary entry has divergence: {label}")
            memo[key] = True
        if key in seen:
            return None
        seen.add(key)
        entries.append(DictionaryEntry(theta, label))
        return len(entries) - 1

    for pi, pair in enumerate(pairs):
        nu_ids, mu_ids = [], []
        closure_nu = monomial_closure(pair.kernel_nu, ctx.ring, degree)
        closure_mu = monomial_closure(pair.kernel_mu, ctx.ring, degree)
        for k in closure_nu:
            idx = push(pair.nu.scale(k), f"pair{pi}:({k})*nu")
            if idx is not None:
                nu_ids.append(idx)
        for k in closure_mu:
            idx = push(pair.mu.scale(k), f"pair{pi}:({k})*mu")
            if idx is not None:
                mu_ids.append(idx)
        # same-family brackets are identically zero; only cross brackets
        # contribute new directions
        for i in nu_ids:
            for j in mu_ids:
                a, b = entries[i].field, entries[j].field
                key = ("bracket", _term_key(a), _term_key(b))
                if key not in memo:
                    bracket = lie_bracket(a, b)
                    memo[key] = None if bracket.is_zero else bracket
                if memo[key] is not None:
                    label = f"[{entries[i].label}, {entries[j].label}]"
                    push(memo[key], label)

    for e in ctx.base_ring.exponents_up_to(degree):
        h = ctx.base_ring.monomial(e)
        push(twist_field(ctx, h), f"({h})*(u*d_u - v*d_v)")

    return Dictionary(ctx, entries)


# ---------------------------------------------------------------------------
# tangent frames and least squares


def tangent_frame(gradient: Sequence[complex]) -> numpy.ndarray:
    """`frame_h`: rows conjugate to an orthonormal basis of the complement
    of a nonzero gradient row, the tangent space; `frame_h @ v` is v in it."""
    row = numpy.array([gradient], dtype=complex)
    if numpy.linalg.norm(row) < 1e-13:
        raise ApproxError("singular point: the defining gradient vanishes")
    return numpy.linalg.svd(row)[2][1:]


@dataclass
class FitResult:
    labels: list[str]
    coefficients: list[complex]
    residuals: list[float]           # one l2 norm per sample point
    sup_residual: float


def _solve_scaled_lstsq(a: numpy.ndarray, b: numpy.ndarray) -> numpy.ndarray:
    scales = numpy.linalg.norm(a, axis=0)
    scales[scales == 0] = 1.0
    scaled = a / scales
    # the half-width blocks are temporaries, freed before lstsq allocates
    # its own copies: that lstsq is the peak memory of an approx run
    big = numpy.vstack([numpy.hstack([scaled.real, -scaled.imag]),
                        numpy.hstack([scaled.imag, scaled.real])])
    rhs = numpy.concatenate([b.real, b.imag])
    sol, *_ = numpy.linalg.lstsq(big, rhs, rcond=None)
    k = a.shape[1]
    return (sol[:k] + 1j * sol[k:]) / scales


def projected_system(target: VectorField, ctx: SuspensionContext,
                     samples: Sequence[SurfacePoint],
                     dictionaries: Sequence[Dictionary]) -> tuple:
    """`(rhs, column, blocks)`: per sample, the target and the distinct
    entries of the dictionaries in its tangent frame, each entry by the gemv
    `frame_h @ v` of one stacked product, as column `column[_term_key(e)]`."""
    if not samples:
        raise ApproxError("no sample points were given")
    if not divergence_on_suspension(target, ctx).is_zero:
        raise ApproxError("the target is not volume preserving")
    column: dict = {}
    polys = []
    for e in (e for dictionary in dictionaries for e in dictionary.entries):
        key = _term_key(e.field)
        if key not in column:
            column[key] = len(column)
            polys += e.field.coeffs
    evaluate_all = compile_values(ctx.ring, polys, COMPLEX)
    gradient = ctx.defining_gradient(COMPLEX)
    rhs, blocks = [], []
    for p in samples:
        coords = p.complex_coords()
        frame_h = tangent_frame(gradient(coords))
        rhs.append(frame_h @ numpy.array(target.evaluate_complex(coords)))
        values = numpy.array(evaluate_all(coords)).reshape(-1, ctx.ring.nvars)
        stacked = numpy.matmul(frame_h[None], values[:, :, None])
        blocks.append(stacked[:, :, 0].T)
    return rhs, column, blocks


def fit_field(dictionary: Dictionary, system: tuple) -> FitResult:
    """Least-squares coefficients reproducing the target at the samples,
    with errors measured inside the tangent space at each point.
    `system` is a `projected_system` of the target and samples over
    dictionaries including this one, shared between fits."""
    if not dictionary.entries:
        raise ApproxError("the dictionary is empty")
    rhs_blocks, column, top = system
    idx = [column[_term_key(e.field)] for e in dictionary.entries]
    # C order, as vstack gave: the layout picks the BLAS paths, so the bits
    a = numpy.concatenate([numpy.take(b, idx, axis=1) for b in top])
    b = numpy.concatenate(rhs_blocks)
    coeffs = _solve_scaled_lstsq(a, b)

    rows = len(a) // len(top)           # per sample, as C-ordered views
    residuals = [float(numpy.linalg.norm(a[i:i + rows] @ coeffs - r))
                 for i, r in zip(range(0, len(a), rows), rhs_blocks)]
    return FitResult(labels=dictionary.labels(),
                     coefficients=[complex(c) for c in coeffs],
                     residuals=residuals,
                     sup_residual=max(residuals))


def residual_curve(target: VectorField, ctx: SuspensionContext,
                   pairs: Sequence[LiftedPair],
                   samples: Sequence[SurfacePoint],
                   degrees: Sequence[int]
                   ) -> tuple[list[dict], Dictionary, FitResult]:
    """sup-residual of the best fit as the dictionary degree grows, with
    the dictionary and fit of the top degree, max(degrees).

    Dictionaries are nested in the degree, so the curve is non-increasing
    up to solver noise.  The builds share a memo and the fits one
    `projected_system`: each distinct entry is checked and projected once."""
    if not degrees:
        raise ApproxError("no curve degrees were given")
    top_degree = max(degrees)
    dicts = list(map(partial(build_dictionary, ctx, pairs, memo={}), degrees))
    system = projected_system(target, ctx, samples, dicts)
    out = []
    for d, dictionary in zip(degrees, dicts):
        fit = fit_field(dictionary, system)
        out.append({"degree": d, "entries": len(dictionary),
                    "sup_residual": fit.sup_residual})
        if d == top_degree:
            top = dictionary, fit
    return out, *top


# ---------------------------------------------------------------------------
# flow audits


AUDIT_CHECKPOINTS = 4       # flow audit times per point, up to t = 0.1


def fitted_evaluator(dictionary: Dictionary, coeffs: Sequence[complex]):
    """Pointwise evaluator of the coefficient combination of the entries,
    compiled into one function; entries with zero coefficient are left
    out."""
    kept = [(c, e.field.coeffs) for c, e in
            zip(coeffs, dictionary.entries) if abs(c) > 0]
    return compile_complex_sum(dictionary.ctx.ring, [c for c, _ in kept],
                               [row for _, row in kept])


def flow_deviation_audit(target: VectorField, dictionary: Dictionary,
                         fit: FitResult,
                         samples: Sequence[SurfacePoint]) -> list[dict]:
    """Integrate the fitted field and the target from each point with 64
    RK4 steps to t = 0.025, 0.05, 0.075, 0.1 and report their deviation
    against the bound 10 * sup_residual * t plus a small absolute
    allowance for integrator error.  The AUDIT_CHECKPOINTS checks per
    point are independent jobs of `lifts.map_on_cpus`."""
    fitted = fitted_evaluator(dictionary, fit.coefficients)
    reference = target.evaluate_complex
    starts = [list(p.complex_coords()) for p in samples]

    def check(job: tuple[int, int]) -> dict:
        i, k = job
        start = starts[i]
        t = 0.1 * k / AUDIT_CHECKPOINTS
        a = rk4_flow(fitted, start, t, 64)
        b = rk4_flow(reference, start, t, 64)
        deviation = max(abs(x - y) for x, y in zip(a, b))
        allowed = 10.0 * fit.sup_residual * t + 1e-9
        return {"t": t, "deviation": deviation,
                "allowed": allowed, "ok": deviation <= allowed}

    rows = map_on_cpus(check, [(i, k) for i in range(len(starts))
                               for k in range(1, AUDIT_CHECKPOINTS + 1)])
    audits = []
    for i, start in enumerate(starts):
        checks = rows[i * AUDIT_CHECKPOINTS:(i + 1) * AUDIT_CHECKPOINTS]
        audits.append({"point": [str(c) for c in start], "checks": checks,
                       "ok": all(r["ok"] for r in checks)})
    return audits


def volume_audit(theta: VectorField, ctx: SuspensionContext,
                 point: SurfacePoint) -> list:
    """Numeric witness of the divergence transfer formula: the chart
    determinant of the time-t flow, weighted by the chart density of the
    induced volume, must match exp of the integral of the surface
    divergence along the trajectory; t = 0.25 in 512 RK4 steps, with
    central differences of step 1e-6.
    Chart: (u, z) on u != 0, where the density is proportional to 1/u.
    Pure Python, so a forked job may run it: `[columns, end_u, expected]`,
    the chart Jacobian's columns, the flow's end u and the exponential,
    which `volume_result` turns into the report."""
    t, steps = 0.25, 512
    coords0 = point.complex_coords()
    if abs(coords0[0]) < 1e-9:
        raise ApproxError("the audit chart needs u != 0")
    columns = chart_jacobian(ctx, 0, coords0, lambda ambient: rk4_flow(
        theta.evaluate_complex, ambient, t, steps))
    # Simpson integral of the divergence along the trajectory; the path
    # takes the same steps dt = t/steps as one full pass, so its last
    # point is the flow's end point
    div = divergence_on_suspension(theta, ctx)
    dt, path = t / steps, [list(coords0)]
    for _ in range(steps):
        path.append(rk4_flow(theta.evaluate_complex, path[-1], dt, 1))
    values = [div.evaluate_complex(c) for c in path]
    integral = 0j
    for a, b, c in zip(values[::2], values[1::2], values[2::2]):
        integral += (a + 4 * b + c) * dt / 3
    return [columns, path[-1][0], cmath.exp(integral)]


def volume_result(parts: Sequence, point: SurfacePoint) -> dict:
    """The report from `volume_audit`'s parts; numpy takes the determinant."""
    columns, end_u, expected = parts
    weighted = (chart_jacobian_determinant(columns)
                * point.complex_coords()[0] / end_u)
    return {"weighted_determinant": weighted, "expected": expected,
            "error": abs(weighted - expected)}
