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

f is a polynomial.  The flow audits integrate compiled fields with
`lifts.rk4_flow`, and the volume audit takes its chart determinant from
`lifts.chart_determinant`, as the flow subcommand does.  Both audits run
their independent integrations through `lifts.map_on_cpus`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy

from .certify import LiftedPair, monomial_closure
from .fields import lie_bracket
from .lifts import chart_determinant, map_on_cpus, rk4_flow, twist_field
from .poly import COMPLEX, compile_complex_sum, compile_values
from .surface import (SurfacePoint, SuspensionContext, SuspensionField,
                      divergence_on_suspension, tangent_field)


class ApproxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dictionaries


@dataclass(frozen=True)
class DictionaryEntry:
    field: SuspensionField
    label: str
    provenance: str                  # kernel-multiple / twist-field / bracket
    parents: tuple[int, int] | None = None


@dataclass
class Dictionary:
    ctx: SuspensionContext
    entries: list[DictionaryEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]


def _entry_key(sf: SuspensionField):
    return tuple(c.key() for c in sf.ambient.coeffs)


def build_dictionary(ctx: SuspensionContext, pairs: Sequence[LiftedPair],
                     degree: int) -> Dictionary:
    """Kernel multiples, twists, and cross-family brackets, all verified
    divergence-free in exact arithmetic before use."""
    entries: list[DictionaryEntry] = []
    seen = set()

    def push(sf: SuspensionField, label: str, provenance: str,
             parents=None) -> int | None:
        if not sf.multiplier.is_zero:
            raise ApproxError(f"dictionary entry is not tangent: {label}")
        if not divergence_on_suspension(sf, ctx).is_zero:
            raise ApproxError(f"dictionary entry has divergence: {label}")
        key = _entry_key(sf)
        if key in seen:
            return None
        seen.add(key)
        entries.append(DictionaryEntry(sf, label, provenance, parents))
        return len(entries) - 1

    for pi, pair in enumerate(pairs):
        nu_ids, mu_ids = [], []
        closure_nu = monomial_closure(pair.kernel_nu.generators, ctx.ring,
                                      degree)
        closure_mu = monomial_closure(pair.kernel_mu.generators, ctx.ring,
                                      degree)
        for k in closure_nu:
            idx = push(pair.nu.scale(k), f"pair{pi}:({k})*nu",
                       "kernel-multiple")
            if idx is not None:
                nu_ids.append(idx)
        for k in closure_mu:
            idx = push(pair.mu.scale(k), f"pair{pi}:({k})*mu",
                       "kernel-multiple")
            if idx is not None:
                mu_ids.append(idx)
        # same-family brackets are identically zero; only cross brackets
        # contribute new directions
        for i in nu_ids:
            for j in mu_ids:
                amb = lie_bracket(entries[i].field.ambient,
                                  entries[j].field.ambient)
                if amb.is_zero:
                    continue
                sf = tangent_field(amb, ctx)
                push(sf, f"[{entries[i].label}, {entries[j].label}]",
                     "bracket", parents=(i, j))

    for e in ctx.base_ring.exponents_up_to(degree):
        h = ctx.base_ring.monomial(e)
        push(tangent_field(twist_field(ctx, h), ctx),
             f"({h})*(u*d_u - v*d_v)", "twist-field")

    return Dictionary(ctx, entries)


# ---------------------------------------------------------------------------
# tangent frames and least squares


def tangent_frame(gradient: Sequence[complex]) -> numpy.ndarray:
    """Orthonormal basis, as columns, of the orthogonal complement of a
    nonzero gradient row; this is the tangent space at the point."""
    row = numpy.array([gradient], dtype=complex)
    norm = numpy.linalg.norm(row)
    if norm < 1e-13:
        raise ApproxError("singular point: the defining gradient vanishes")
    _, _, vh = numpy.linalg.svd(row)
    return vh[1:].conj().T


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


@dataclass(frozen=True)
class TangentSample:
    """One sample point prepared for fitting: its coordinates, the
    conjugate transpose of its tangent frame, and the target's value in
    that frame.  None of it depends on the dictionary."""

    coords: tuple[complex, ...]
    frame_h: numpy.ndarray
    rhs: numpy.ndarray


def tangent_samples(target: SuspensionField, ctx: SuspensionContext,
                    samples: Sequence[SurfacePoint]) -> list[TangentSample]:
    """Check the target and prepare every sample once, for any number of
    fits of it (one per dictionary degree in `residual_curve`)."""
    if not samples:
        raise ApproxError("no sample points were given")
    if not divergence_on_suspension(target, ctx).is_zero:
        raise ApproxError("the target is not volume preserving")
    gradient = ctx.defining_gradient(COMPLEX)
    out = []
    for p in samples:
        coords = p.complex_coords()
        frame_h = tangent_frame(gradient(coords)).conj().T
        tvec = numpy.array(target.ambient.evaluate_complex(coords))
        out.append(TangentSample(coords, frame_h, frame_h @ tvec))
    return out


def fit_field(target: SuspensionField, dictionary: Dictionary,
              samples: Sequence[SurfacePoint],
              prepared: Sequence[TangentSample] | None = None) -> FitResult:
    """Least-squares coefficients reproducing the target at the samples,
    with errors measured inside the tangent space at each point.
    `prepared` is `tangent_samples(target, dictionary.ctx, samples)` when
    the caller already has it."""
    if not dictionary.entries:
        raise ApproxError("the dictionary is empty")
    ctx = dictionary.ctx
    if prepared is None:
        prepared = tangent_samples(target, ctx, samples)

    # one evaluator for the whole dictionary; each entry's m values are
    # consecutive in its output
    polys = [c for e in dictionary.entries for c in e.field.ambient.coeffs]
    evaluate_all = compile_values(ctx.ring, polys, COMPLEX)
    m = ctx.ring.nvars
    blocks = []
    for s in prepared:
        values = evaluate_all(s.coords)
        cols = [s.frame_h @ numpy.array(values[k:k + m])
                for k in range(0, len(values), m)]
        blocks.append(numpy.column_stack(cols))
    rhs_blocks = [s.rhs for s in prepared]

    a = numpy.vstack(blocks)
    b = numpy.concatenate(rhs_blocks)
    coeffs = _solve_scaled_lstsq(a, b)

    residuals = []
    for block, rblock in zip(blocks, rhs_blocks):
        r = block @ coeffs - rblock
        residuals.append(float(numpy.linalg.norm(r)))
    return FitResult(labels=dictionary.labels(),
                     coefficients=[complex(c) for c in coeffs],
                     residuals=residuals,
                     sup_residual=max(residuals))


def residual_curve(target: SuspensionField, ctx: SuspensionContext,
                   pairs: Sequence[LiftedPair],
                   samples: Sequence[SurfacePoint],
                   degrees: Sequence[int]
                   ) -> tuple[list[dict], Dictionary, FitResult]:
    """sup-residual of the best fit as the dictionary degree grows, with
    the dictionary and fit of the top degree, max(degrees).

    Dictionaries are nested in the degree, so the curve is non-increasing
    up to solver noise."""
    if not degrees:
        raise ApproxError("no curve degrees were given")
    top_degree = max(degrees)
    prepared = tangent_samples(target, ctx, samples)
    out = []
    for d in degrees:
        dictionary = build_dictionary(ctx, pairs, d)
        fit = fit_field(target, dictionary, samples, prepared)
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
    kept = [(c, e.field.ambient.coeffs) for c, e in
            zip(coeffs, dictionary.entries) if abs(c) > 0]
    return compile_complex_sum(dictionary.ctx.ring, [c for c, _ in kept],
                               [row for _, row in kept])


def flow_deviation_audit(target: SuspensionField, dictionary: Dictionary,
                         fit: FitResult,
                         samples: Sequence[SurfacePoint]) -> list[dict]:
    """Integrate the fitted field and the target from each point with 64
    RK4 steps to t = 0.025, 0.05, 0.075, 0.1 and report their deviation
    against the bound 10 * sup_residual * t plus a small absolute
    allowance for integrator error.  The AUDIT_CHECKPOINTS checks per
    point are independent jobs of `lifts.map_on_cpus`."""
    fitted = fitted_evaluator(dictionary, fit.coefficients)
    reference = target.ambient.evaluate_complex
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


def volume_audit(sf: SuspensionField, ctx: SuspensionContext,
                 point: SurfacePoint) -> dict:
    """Numeric witness of the divergence transfer formula: the chart
    determinant of the time-t flow, weighted by the chart density of the
    induced volume, must match exp of the integral of the surface
    divergence along the trajectory; t = 0.25 in 512 RK4 steps, with
    central differences of step 1e-6.

    Chart: (u, z) on u != 0, where the density is proportional to 1/u.
    """
    t, steps = 0.25, 512
    div = divergence_on_suspension(sf, ctx)
    coords0 = point.complex_coords()
    if abs(coords0[0]) < 1e-9:
        raise ApproxError("the audit chart needs u != 0")
    det = chart_determinant(ctx, 0, coords0, lambda ambient: rk4_flow(
        sf.ambient.evaluate_complex, ambient, t, steps))

    # Simpson integral of the divergence along the trajectory; the path
    # takes the same steps dt = t/steps as one full pass, so its last
    # point is the flow's end point
    path = [list(coords0)]
    dt = t / steps
    x = list(coords0)
    for _ in range(steps):
        x = rk4_flow(sf.ambient.evaluate_complex, x, dt, 1)
        path.append(x)
    weighted = det * coords0[0] / path[-1][0]
    values = [div.evaluate_complex(c) for c in path]
    integral = 0j
    for k in range(0, steps, 2):
        integral += (values[k] + 4 * values[k + 1] + values[k + 2]) * dt / 3
    expected = cmath.exp(integral)
    return {"weighted_determinant": weighted, "expected": expected,
            "error": abs(weighted - expected)}
