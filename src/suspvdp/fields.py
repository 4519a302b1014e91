"""Polynomial vector fields on affine space: `VectorField`, the one field
type, its Lie bracket and its divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import COMPLEX, EXACT, Evaluated, Poly, PolyRing
from .scalars import GaussianRational


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class VectorField(Evaluated):
    """A derivation sum_j coeffs[j] * d/dx_j with polynomial coefficients."""

    ring: PolyRing
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ring.nvars:
            raise FieldError("one coefficient per variable is required")
        for c in self.coeffs:
            if c.ring.variables != self.ring.variables:
                raise FieldError("coefficient lives in the wrong ring")

    @staticmethod
    def from_texts(ring: PolyRing, texts: Sequence[str]) -> "VectorField":
        """Parse one coefficient per variable of `ring`."""
        return VectorField(ring, tuple(ring.parse(t) for t in texts))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def apply(self, p: Poly) -> Poly:
        """The derivation applied to a function."""
        out = self.ring.zero()
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                out = out + c * p.derivative(i)
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.ring, tuple(-a for a in self.coeffs))

    def scale(self, h) -> "VectorField":
        """Multiply by a polynomial or scalar function."""
        if isinstance(h, Poly):
            if h.ring.variables != self.ring.variables:
                raise FieldError("scaling function lives in the wrong ring")
            return VectorField(self.ring, tuple(h * c for c in self.coeffs))
        return VectorField(self.ring, tuple(c.scale(h) for c in self.coeffs))

    def evaluated(self):
        return self.ring, self.coeffs

    def evaluate_exact(self, values) -> list[GaussianRational]:
        return self.evaluator(EXACT)(values)

    def evaluate_complex(self, values) -> list[complex]:
        return self.evaluator(COMPLEX)(values)

    def _check(self, other: "VectorField"):
        if self.ring.variables != other.ring.variables:
            raise FieldError("mismatched rings")

    def __str__(self) -> str:
        parts = [f"({c})*d_{name}" for name, c in zip(self.ring.variables, self.coeffs)
                 if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b] acting as a(b(.)) - b(a(.))."""
    a._check(b)
    coeffs = tuple(a.apply(bc) - b.apply(ac) for ac, bc in zip(a.coeffs, b.coeffs))
    return VectorField(a.ring, coeffs)


def divergence(theta: VectorField) -> Poly:
    """The coefficient trace sum_j d coeffs[j] / dx_j, the divergence
    against the standard volume form dx_1 ^ ... ^ dx_n."""
    return sum((c.derivative(j) for j, c in enumerate(theta.coeffs)),
               theta.ring.zero())
