"""Spanning ranks screened over a prime field.

The prime P = 1 (mod 4) has a square root R of -1.  A Gaussian rational
(a + b*i)/d whose denominator d is prime to P then has the residue
(a + b*R)/d mod P, and taking residues is a ring homomorphism on those
numbers.  Reducing a matrix this way can only lower its rank: a nonzero
minor mod P is the residue of a nonzero minor.  So a family whose wedges
have full rank mod P has full rank exactly, and the rank written to the
report is the one the exact computation would write.

`RankScreen` reduces the point once, evaluates every polynomial of the
spanning plan with the plan's evaluator over `residues(P, R)` (its
coefficients reduced once per plan; the exact fallback `SpanningPlan.at`
passes `poly.EXACT` instead) and builds the family with the plan's own
routine, `SpanningPlan.family`, and its wedges with the family's own
`wedge_rows`, the rows the exact fallback ranks.  Every value stays the
residue of the exact value, since both are built with + and * alone.  A
zero test there accepts only a nonzero residue, since a zero residue
need not be an exact zero.

Witness: the rows that the elimination pivots on form a square minor,
and `minor_determinant` recomputes its determinant mod P by cofactor
expansion, apart from the eliminator; a point counts as screened only if
that determinant is nonzero.

A point the screen cannot decide goes to the exact computation.  This
happens for a denominator divisible by P, a zero residue where the
construction tests for zero, a rank below full mod P, or a witness that
fails.
"""

from __future__ import annotations

import functools
import itertools
import math

from .lifts import SpanningPlan
from .poly import Domain
from .scalars import GaussianRational
from .surface import SurfacePoint

P = 2305843009213693921          # 2**61 - 31, a prime = 1 (mod 4)
R = 583529827753931384           # R*R = -1 (mod P)
WITNESS_MAX = 10                 # largest minor expanded by cofactors (n <= 4)


class Undecided(Exception):
    """The screen cannot decide a point; the message is the reason."""


def residue(c: GaussianRational, p: int, r: int) -> int:
    """The residue of c mod p with i sent to r; Undecided when p divides
    the denominator.  Reads the canonical integer triple directly; the
    `re`/`im` properties would build two `Fraction`s per call."""
    den = c._den
    if not den % p:
        raise Undecided("denominator")
    return (c._re + c._im * r) * pow(den, -1, p) % p


@functools.cache
def residues(p: int, r: int) -> Domain:
    """Integers standing for residues mod p, i sent to r; one domain per
    (p, r), so a plan compiles its evaluator over it once."""
    return Domain("0", lambda c: residue(c, p, r), "values[{i}]")


def _nonzero(value: int) -> bool:
    """Zero test on a residue: nonzero mod p is nonzero exactly, a zero
    residue decides nothing."""
    if value:
        return True
    raise Undecided("zero_residue")


def pivot_rows(rows: list[list[int]], p: int) -> list[int]:
    """Indices of the rows an elimination mod p pivots on, column by
    column, on the first remaining row nonzero there; their number is the
    rank mod p."""
    work = [[x % p for x in row] for row in rows]
    remaining = list(range(len(rows)))
    pivots = []
    for c in range(len(work[0]) if work else 0):
        i = next((i for i in remaining if work[i][c]), None)
        if i is None:
            continue
        remaining.remove(i)
        pivots.append(i)
        pivot = work[i]
        for j in remaining:
            factor = work[j][c]
            if factor:
                # fraction-free: a nonzero multiple of the row, minus a
                # multiple of the pivot row, keeps the row space
                work[j] = [(x * pivot[c] - factor * y) % p
                           for x, y in zip(work[j], pivot)]
    return pivots


@functools.cache
def _cofactor_plan(k: int) -> tuple:
    """The structure of `minor_determinant` for k rows, built once per k:
    for each row r from the last up, each set of k - r columns with the
    (sign, column, sub-columns) terms of its expansion along row r."""
    return tuple(
        (r, tuple((cols, tuple(((-1) ** pos, c, cols[:pos] + cols[pos + 1:])
                               for pos, c in enumerate(cols)))
                  for cols in itertools.combinations(range(k), k - r)))
        for r in reversed(range(k)))


def minor_determinant(rows: list[list[int]], p: int) -> int:
    """Determinant mod p of a square matrix by cofactor expansion along
    its rows in order, computed from the last row up: the minor of the
    last rows on each set of columns is expanded once, 2**k minors for k
    rows."""
    k = len(rows)
    minors = {(): 1}
    for r, level in _cofactor_plan(k):
        row = rows[r]
        minors = {cols: sum(sign * row[c] * minors[sub]
                            for sign, c, sub in terms) % p
                  for cols, terms in level}
    return minors[tuple(range(k))]


class RankScreen:
    """The spanning ranks of one plan, screened point by point, with the
    count of screened points and of the reasons the others fell back."""

    def __init__(self, plan: SpanningPlan):
        self.plan = plan
        self.prime, self.root = P, R
        self.full = math.comb(plan.ctx.n + 1, 2)
        self.screened = 0
        self.fallback_reasons: dict[str, int] = {}
        # a reason that holds for every point of the plan, or None
        self.unusable = None
        try:
            if self.full > WITNESS_MAX:
                raise Undecided("witness_size")
            self.evaluate = plan.evaluator(residues(self.prime, self.root))
        except Undecided as exc:
            self.unusable = str(exc)

    def rank(self, point: SurfacePoint) -> int | None:
        """The full rank where the screen proves it, else None."""
        try:
            if self.unusable:
                raise Undecided(self.unusable)
            return self._full_rank(point)
        except Undecided as exc:
            reason = str(exc)
            self.fallback_reasons[reason] = \
                self.fallback_reasons.get(reason, 0) + 1
            return None

    def _full_rank(self, point: SurfacePoint) -> int:
        p, r = self.prime, self.root
        coords = [residue(c, p, r) for c in point.coords]
        values = [v % p for v in self.evaluate(coords)]
        family = self.plan.family(point, values, _nonzero)
        rows = family.wedge_rows()
        pivots = pivot_rows(rows, p)
        if len(pivots) < self.full:
            raise Undecided("rank")
        # the witness trusts no count of the eliminator: a full x full minor
        minor = [[x % p for x in rows[i]] for i in pivots]
        if len(minor) != self.full or not minor_determinant(minor, p):
            raise Undecided("witness")
        self.screened += 1
        return self.full

    def counts(self) -> dict:
        return {"prime": self.prime, "screened": self.screened,
                "fallback": sum(self.fallback_reasons.values()),
                "fallback_reasons": dict(sorted(
                    self.fallback_reasons.items()))}
