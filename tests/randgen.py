"""Seeded random generators for polynomials, fields and forms.

Shared by the identity suites and the other tests.  Everything
takes an explicit `random.Random` so runs are reproducible; coefficients
are drawn from a small exact pool, keeping the symbolic checks fast.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from forms import DiffForm
from suspvdp.fields import VectorField
from suspvdp.poly import Poly, PolyRing
from suspvdp.scalars import GaussianRational, gr

COEFF_POOL = (
    gr(1), gr(-1), gr(0, 1), gr(0, -1),
    gr(Fraction(1, 2)), gr(Fraction(-1, 2)),
)


def rand_coeff(rng: random.Random) -> GaussianRational:
    return rng.choice(COEFF_POOL)


def rand_exponents(ring: PolyRing, rng: random.Random, max_degree: int,
                   indices: Sequence[int] | None = None) -> tuple[int, ...]:
    idx = tuple(range(ring.nvars)) if indices is None else tuple(indices)
    e = [0] * ring.nvars
    for _ in range(rng.randint(0, max_degree)):
        e[rng.choice(idx)] += 1
    return tuple(e)


def rand_poly(ring: PolyRing, rng: random.Random, max_degree: int = 4,
              max_terms: int = 3,
              indices: Sequence[int] | None = None) -> Poly:
    p = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        p = p + ring.monomial(rand_exponents(ring, rng, max_degree, indices),
                              rand_coeff(rng))
    return p


def rand_field(ring: PolyRing, rng: random.Random, max_degree: int = 4,
               max_terms: int = 2) -> VectorField:
    return VectorField(ring, tuple(
        rand_poly(ring, rng, max_degree, max_terms) for _ in range(ring.nvars)))


def rand_form(ring: PolyRing, rng: random.Random, degree: int,
              max_poly_degree: int = 4, max_terms: int = 2) -> DiffForm:
    coeffs = {}
    keys = list(itertools.combinations(range(ring.nvars), degree))
    rng.shuffle(keys)
    for key in keys[:max(1, len(keys) // 2)]:
        p = rand_poly(ring, rng, max_poly_degree, max_terms)
        if not p.is_zero:
            coeffs[key] = p
    return DiffForm(ring, degree, coeffs)


def rand_divergence_free_field(ring: PolyRing, rng: random.Random,
                               max_degree: int = 4, parts: int = 2) -> VectorField:
    """Sum of rotational pieces dh/dx_j * d/dx_i - dh/dx_i * d/dx_j, which
    are divergence-free for any h by equality of mixed partials."""
    n = ring.nvars
    out = VectorField(ring, (ring.zero(),) * n)
    if n < 2:
        return out
    for _ in range(parts):
        i, j = rng.sample(range(n), 2)
        h = rand_poly(ring, rng, max_degree, max_terms=2)
        coeffs = [ring.zero()] * n
        coeffs[i] = h.derivative(j)
        coeffs[j] = -h.derivative(i)
        out = out + VectorField(ring, tuple(coeffs))
    return out
