"""Polynomial differential forms on affine space, the reference calculus
the identity suites and the field tests check `suspvdp.fields` against.

Conventions, fixed once and tested:

* a k-form stores one polynomial coefficient per strictly increasing
  k-tuple of variable indices;
* the interior product contracts the first slot of a form;
* the exterior derivative wedges the new differential from the left;
* the Lie derivative on forms is computed by Cartan's formula
  L = d i + i d, and an independent slot-by-slot evaluator
  (`lie_derivative_direct`) exists purely to cross-check it;
* `divergence` is the divergence against the standard volume form
  `volume_form`, which the `divergence-leibniz` suite checks against
  Cartan's formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from suspvdp.fields import FieldError, VectorField
from suspvdp.poly import Poly, PolyRing


def coordinate_field(ring: PolyRing, var: int | str) -> VectorField:
    """The coordinate derivation d/dx_var."""
    i = var if isinstance(var, int) else ring.index(var)
    coeffs = [ring.zero()] * ring.nvars
    coeffs[i] = ring.one()
    return VectorField(ring, tuple(coeffs))


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation sign; sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1, i, -1):
            if idx[j - 1] > idx[j]:
                idx[j - 1], idx[j] = idx[j], idx[j - 1]
                sign = -sign
    return tuple(idx), sign


@dataclass(frozen=True)
class DiffForm:
    """A k-form: polynomial coefficients keyed by increasing index tuples."""

    ring: PolyRing
    degree: int
    coeffs: dict[tuple[int, ...], Poly]

    def __post_init__(self):
        for key, c in self.coeffs.items():
            if len(key) != self.degree or tuple(sorted(set(key))) != key:
                raise FieldError(f"malformed index tuple {key} for degree {self.degree}")
            if c.ring.variables != self.ring.variables:
                raise FieldError("coefficient lives in the wrong ring")

    @staticmethod
    def zero(ring: PolyRing, degree: int) -> "DiffForm":
        return DiffForm(ring, degree, {})

    @staticmethod
    def from_function(p: Poly) -> "DiffForm":
        if p.is_zero:
            return DiffForm(p.ring, 0, {})
        return DiffForm(p.ring, 0, {(): p})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def component(self, indices: Sequence[int]) -> Poly:
        """Coefficient at an arbitrary index tuple, with the sign of sorting."""
        skey, sign = sort_with_sign(indices)
        if sign == 0:
            return self.ring.zero()
        c = self.coeffs.get(skey)
        if c is None:
            return self.ring.zero()
        return c if sign == 1 else -c

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            _accumulate(out, key, c)
        return DiffForm(self.ring, self.degree, out)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.ring, self.degree, {k: -c for k, c in self.coeffs.items()})

    def scale(self, h) -> "DiffForm":
        """Multiply by a polynomial or by a scalar."""
        if isinstance(h, Poly) and h.ring.variables != self.ring.variables:
            raise FieldError("scaling function lives in the wrong ring")
        out = {}
        for key, c in self.coeffs.items():
            p = h * c if isinstance(h, Poly) else c.scale(h)
            if not p.is_zero:
                out[key] = p
        return DiffForm(self.ring, self.degree, out)

    def _check(self, other: "DiffForm"):
        if self.ring.variables != other.ring.variables:
            raise FieldError("mismatched rings")
        if self.degree != other.degree:
            raise FieldError("mismatched form degrees")


def _accumulate(out: dict, key: tuple[int, ...], p: Poly) -> None:
    """Add `p` into `out[key]`, dropping the key when the sum cancels."""
    acc = out.get(key)
    acc = p if acc is None else acc + p
    if acc.is_zero:
        out.pop(key, None)
    else:
        out[key] = acc


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.ring.variables != b.ring.variables:
        raise FieldError("mismatched rings")
    degree = a.degree + b.degree
    if degree > a.ring.nvars:
        return DiffForm.zero(a.ring, degree)
    out: dict[tuple[int, ...], Poly] = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            key, sign = sort_with_sign(ka + kb)
            if sign == 0:
                continue
            p = ca * cb
            _accumulate(out, key, p if sign > 0 else -p)
    return DiffForm(a.ring, degree, out)


def exterior_derivative(a: DiffForm) -> DiffForm:
    """d, wedging each new differential from the left."""
    if a.degree >= a.ring.nvars:
        return DiffForm.zero(a.ring, a.degree + 1)
    out: dict[tuple[int, ...], Poly] = {}
    for key, c in a.coeffs.items():
        for j in range(a.ring.nvars):
            dc = c.derivative(j)
            if dc.is_zero:
                continue
            skey, sign = sort_with_sign((j,) + key)
            if sign == 0:
                continue
            _accumulate(out, skey, dc if sign == 1 else -dc)
    return DiffForm(a.ring, a.degree + 1, out)


def interior_product(theta: VectorField, a: DiffForm) -> DiffForm:
    """Contraction of the first slot of `a` with `theta`."""
    if theta.ring.variables != a.ring.variables:
        raise FieldError("mismatched rings")
    if a.degree == 0:
        raise FieldError("cannot contract a 0-form")
    out: dict[tuple[int, ...], Poly] = {}
    for key, c in a.coeffs.items():
        for t, i in enumerate(key):
            coeff = theta.coeffs[i]
            if coeff.is_zero:
                continue
            p = coeff * c
            _accumulate(out, key[:t] + key[t + 1:], -p if t % 2 else p)
    return DiffForm(a.ring, a.degree - 1, out)


def lie_derivative(theta: VectorField, a: DiffForm) -> DiffForm:
    """Cartan's formula: contract-then-differentiate plus differentiate-
    then-contract."""
    if a.degree == 0:
        return DiffForm.from_function(theta.apply(a.coeffs.get((), a.ring.zero())))
    return exterior_derivative(interior_product(theta, a)) + \
        interior_product(theta, exterior_derivative(a))


def lie_derivative_direct(theta: VectorField, a: DiffForm) -> DiffForm:
    """Slot-by-slot evaluation against coordinate fields; an independent
    cross-check of Cartan's formula."""
    ring = a.ring
    if theta.ring.variables != ring.variables:
        raise FieldError("mismatched rings")
    out: dict[tuple[int, ...], Poly] = {}
    for key in itertools.combinations(range(ring.nvars), a.degree):
        total = theta.apply(a.component(key))
        for t in range(a.degree):
            for j in range(ring.nvars):
                factor = theta.coeffs[j].derivative(key[t])
                if factor.is_zero:
                    continue
                replaced = key[:t] + (j,) + key[t + 1:]
                comp = a.component(replaced)
                if not comp.is_zero:
                    total = total + factor * comp
        if not total.is_zero:
            out[key] = total
    return DiffForm(ring, a.degree, out)


def volume_form(ring: PolyRing) -> DiffForm:
    """The standard top-degree form dx_1 ^ ... ^ dx_n of `ring`."""
    return DiffForm(ring, ring.nvars, {tuple(range(ring.nvars)): ring.one()})


def pair_to_form(nu: VectorField, mu: VectorField) -> DiffForm:
    """Double contraction of the standard volume form: first `mu`, then
    `nu`."""
    return interior_product(nu, interior_product(mu, volume_form(nu.ring)))
