"""Multivariate polynomials over the Gaussian rationals.

A polynomial is a map from dense exponent tuples to nonzero coefficients.
The variable order is fixed by the ring; for the ambient space of a
suspension it is (u, v, z1, ..., zn), and flow computations extend that
ring by a trailing time variable.  Zero coefficients are never stored, so
two polynomials are equal exactly when their term maps are equal.

The module also implements the text grammar used by scenario files and
reports: variables by name, integer and a/b rational literals, the
imaginary unit i, operators + - * ^ and parentheses.  Example:

    (1/2 + 3i)*z1^2*v - u

Printing is canonical and `parse(str(p))` recovers `p` exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .scalars import GaussianRational, gr, ONE, ZERO


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    """Syntax error in polynomial text, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PolyRing:
    """A fixed, ordered tuple of variable names."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise PolyError(f"duplicate variable names: {self.variables}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r} in ring {self.variables}")

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(ONE)

    def const(self, c) -> "Poly":
        c = _as_scalar(c)
        if c.is_zero:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Poly":
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): ONE})

    def monomial(self, exponents: Sequence[int], coeff=ONE) -> "Poly":
        c = _as_scalar(coeff)
        e = tuple(exponents)
        if len(e) != self.nvars or any(k < 0 for k in e):
            raise PolyError(f"bad exponent tuple {e} for ring {self.variables}")
        if c.is_zero:
            return Poly(self, {})
        return Poly(self, {e: c})

    def from_terms(self, terms: Mapping[tuple[int, ...], GaussianRational]) -> "Poly":
        out = {}
        for e, c in terms.items():
            if len(e) != self.nvars:
                raise PolyError("exponent tuple length mismatch")
            if not c.is_zero:
                out[tuple(e)] = c
        return Poly(self, out)

    def parse(self, text: str) -> "Poly":
        return _parse(self, text)

    def with_extra(self, *names: str) -> "PolyRing":
        return PolyRing(self.variables + names)

    def exponents_up_to(self, max_degree: int,
                        indices: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
        """All exponent tuples of total degree <= max_degree, supported on
        `indices` (default: every variable).  Ascending graded order."""
        idx = tuple(range(self.nvars)) if indices is None else tuple(indices)
        for total in range(max_degree + 1):
            for combo in _compositions(total, len(idx)):
                e = [0] * self.nvars
                for pos, k in zip(idx, combo):
                    e[pos] = k
                yield tuple(e)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _as_scalar(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    return gr(c)


@dataclass(frozen=True)
class Poly:
    """Immutable sparse polynomial.  `terms` maps exponent tuples to
    nonzero GaussianRational coefficients; never mutate it."""

    ring: PolyRing
    terms: dict[tuple[int, ...], GaussianRational] = field(default_factory=dict)

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return ZERO
        if not self.is_constant():
            raise PolyError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int | str) -> int:
        i = var if isinstance(var, int) else self.ring.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def uses_variable(self, var: int | str) -> bool:
        i = var if isinstance(var, int) else self.ring.index(var)
        return any(e[i] for e in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> GaussianRational:
        return self.terms.get(tuple(exponents), ZERO)

    def key(self) -> tuple:
        """Hashable canonical identity (for dedup sets)."""
        return tuple(sorted(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring.variables != other.ring.variables:
            raise PolyError(
                f"mismatched rings {self.ring.variables} vs {other.ring.variables}")

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        try:
            return self.ring.const(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_ring(o)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, ZERO) + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_ring(o)
        out: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError("polynomial powers take a nonnegative integer")
        if exponent == 0:
            return self.ring.one()
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def scale(self, c) -> "Poly":
        c = _as_scalar(c)
        if c.is_zero:
            return self.ring.zero()
        return Poly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ring.variables == other.ring.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.variables, self.key()))

    # -- calculus -----------------------------------------------------------

    def derivative(self, var: int | str) -> "Poly":
        i = var if isinstance(var, int) else self.ring.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return Poly(self.ring, out)

    # -- evaluation and substitution -----------------------------------------

    def evaluate_exact(self, values: Sequence[GaussianRational]) -> GaussianRational:
        if len(values) != self.ring.nvars:
            raise PolyError("wrong number of coordinates")
        values = [_as_scalar(x) for x in values]
        cache: dict[tuple[int, int], GaussianRational] = {}

        def power(i: int, k: int) -> GaussianRational:
            got = cache.get((i, k))
            if got is None:
                got = values[i] ** k
                cache[(i, k)] = got
            return got

        total = ZERO
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k == 1:
                    term = term * values[i]
                elif k:
                    term = term * power(i, k)
            total = total + term
        return total

    def evaluate_complex(self, values: Sequence[complex]) -> complex:
        if len(values) != self.ring.nvars:
            raise PolyError("wrong number of coordinates")
        total = 0j
        for e, c in self.terms.items():
            term = c.to_complex()
            for i, k in enumerate(e):
                if k:
                    term *= complex(values[i]) ** k
            total += term
        return total

    def substitute(self, target: PolyRing,
                   images: Mapping[str, "Poly"] | None = None) -> "Poly":
        """Map this polynomial into `target`, sending each variable to
        `images[name]` when given and to the same-named target variable
        otherwise."""
        images = images or {}
        plan: list[Poly] = []
        for name in self.ring.variables:
            if name in images:
                img = images[name]
                if img.ring.variables != target.variables:
                    raise PolyError("substitution image lives in the wrong ring")
                plan.append(img)
            else:
                plan.append(target.var(name) if name in target.variables else None)
        cache: dict[tuple[int, int], Poly] = {}

        def power(i: int, k: int) -> Poly:
            got = cache.get((i, k))
            if got is None:
                got = plan[i] ** k
                cache[(i, k)] = got
            return got

        total = target.zero()
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if not k:
                    continue
                if plan[i] is None:
                    raise PolyError(
                        f"variable {self.ring.variables[i]!r} has no image in target ring")
                term = term * power(i, k)
            total = total + term
        return total

    def extend_to(self, target: PolyRing) -> "Poly":
        """Reinterpret in a larger ring containing all of this ring's
        variables by name."""
        positions = [target.index(name) for name in self.ring.variables]
        out = {}
        for e, c in self.terms.items():
            d = [0] * target.nvars
            for pos, k in zip(positions, e):
                d[pos] = k
            out[tuple(d)] = c
        return Poly(target, out)

    def restrict_to(self, target: PolyRing) -> "Poly":
        """Reinterpret in a smaller ring; fails if a dropped variable is used."""
        positions = []
        for name in self.ring.variables:
            positions.append(target.variables.index(name) if name in target.variables else None)
        out = {}
        for e, c in self.terms.items():
            d = [0] * target.nvars
            for pos, k in zip(positions, e):
                if pos is None:
                    if k:
                        raise PolyError("polynomial uses a variable absent from target ring")
                else:
                    d[pos] = k
            out[tuple(d)] = c
        return Poly(target, out)

    def divide_exact(self, den: "Poly") -> "Poly | None":
        """Exact quotient self/den, or None if den does not divide self."""
        self._check_ring(den)
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], GaussianRational] = {}
        den_lead = max(den.terms, key=_grlex_key)
        den_lead_c = den.terms[den_lead]
        while rem:
            lead = max(rem, key=_grlex_key)
            diff = tuple(a - b for a, b in zip(lead, den_lead))
            if any(k < 0 for k in diff):
                return None
            c = rem[lead] / den_lead_c
            quot[diff] = c
            for e, k in den.terms.items():
                tgt = tuple(a + b for a, b in zip(diff, e))
                s = rem.get(tgt, ZERO) - c * k
                if s.is_zero:
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = s
        return Poly(self.ring, quot)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.ring.variables}, {format_poly(self)!r})"


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


# ---------------------------------------------------------------------------
# printing


def _format_rational(q: Fraction) -> str:
    return str(q)


def _format_coeff(c: GaussianRational) -> tuple[str, bool]:
    """Render a coefficient; the flag says whether the string needs
    parentheses when attached to a monomial with '*'."""
    if c.im == 0:
        return _format_rational(c.re), False
    if c.re == 0:
        if c.im == 1:
            return "i", False
        if c.im == -1:
            return "-i", False
        return f"{_format_rational(c.im)}i", False
    im = c.im
    if im > 0:
        imag = "i" if im == 1 else f"{_format_rational(im)}i"
        return f"{_format_rational(c.re)} + {imag}", True
    imag = "i" if im == -1 else f"{_format_rational(-im)}i"
    return f"{_format_rational(c.re)} - {imag}", True


def _format_monomial(ring: PolyRing, e: tuple[int, ...]) -> str:
    parts = []
    for name, k in zip(ring.variables, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical text form; parsing it recovers the polynomial exactly."""
    if p.is_zero:
        return "0"
    pieces = []
    for e in sorted(p.terms, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = p.terms[e]
        mono = _format_monomial(p.ring, e)
        cs, needs_paren = _format_coeff(c)
        if not mono:
            pieces.append(f"({cs})" if needs_paren else cs)
        elif needs_paren:
            pieces.append(f"({cs})*{mono}")
        elif cs == "1":
            pieces.append(mono)
        elif cs == "-1":
            pieces.append(f"-{mono}")
        else:
            pieces.append(f"{cs}*{mono}")
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


# ---------------------------------------------------------------------------
# parsing


_OPS = set("+-*^()")


@dataclass
class _Token:
    kind: str       # "num", "name", "op", "end"
    text: str
    value: Fraction | None
    imag: bool
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch == "−":  # unicode minus
            tokens.append(_Token("op", "-", None, False, line, start_col))
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, None, False, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1:k])
                j = k
                if den == 0:
                    raise ParseError("zero denominator", line, start_col)
            imag = False
            if j < n and text[j] == "i" and not (j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_")):
                imag = True
                j += 1
            tokens.append(_Token("num", text[i:j], Fraction(num, den), imag, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], None, False, line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", None, False, line, col))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r}", tok)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                q = self.term()
                p = p + q if tok.text == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                if tok.text == "-":
                    sign = -sign
            else:
                break
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> Poly:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            etok = self.next()
            if etok.kind != "num" or etok.imag or etok.value.denominator != 1:
                self.fail("exponent must be a nonnegative integer", etok)
            return base ** int(etok.value)
        return base

    def atom(self) -> Poly:
        tok = self.next()
        if tok.kind == "num":
            c = gr(0, tok.value) if tok.imag else gr(tok.value)
            return self.ring.const(c)
        if tok.kind == "name":
            if tok.text == "i":
                return self.ring.const(gr(0, 1))
            if tok.text in self.ring.variables:
                return self.ring.var(tok.text)
            self.fail(f"unknown variable {tok.text!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            p = self.expr()
            closing = self.next()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail("expected ')'", closing)
            return p
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)


def _parse(ring: PolyRing, text: str) -> Poly:
    return _Parser(ring, text).parse()
