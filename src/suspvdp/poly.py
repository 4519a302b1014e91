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

import cmath
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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


class Evaluated:
    """An owner of the polynomials its `evaluated()` returns, with their
    ring.  `evaluator` compiles their `compile_values` over a domain at its
    first use and keeps it on the instance, one per domain; copies and
    pickles leave that cache out, and `==` and hashes never see it."""

    def evaluator(self, domain: Domain):
        cache = self.__dict__.setdefault("_compiled", {})
        evaluate = cache.get(domain)
        if evaluate is None:
            evaluate = cache[domain] = compile_values(*self.evaluated(), domain)
        return evaluate

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


@dataclass(frozen=True)
class Poly(Evaluated):
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

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def uses_variable(self, var: int | str) -> bool:
        i = var if isinstance(var, int) else self.ring.index(var)
        return any(e[i] for e in self.terms)

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

    # -- evaluation and re-embedding -----------------------------------------

    def evaluated(self):
        return self.ring, (self,)

    def evaluate_exact(self, values: Sequence[GaussianRational]) -> GaussianRational:
        return self.evaluator(EXACT)(values)[0]

    def evaluate_complex(self, values: Sequence[complex]) -> complex:
        return self.evaluator(COMPLEX)(values)[0]

    def extend_to(self, target: PolyRing) -> "Poly":
        """Reinterpret in `target`, matching variables by name; fails only
        if the polynomial uses a variable that `target` lacks."""
        positions = [target.variables.index(name)
                     if name in target.variables else None
                     for name in self.ring.variables]
        out = {}
        for e, c in self.terms.items():
            d = [0] * target.nvars
            for pos, k in zip(positions, e):
                if pos is not None:
                    d[pos] = k
                elif k:
                    raise PolyError("polynomial uses a variable absent "
                                    "from target ring")
            out[tuple(d)] = c
        return Poly(target, out)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.ring.variables}, {format_poly(self)!r})"


# ---------------------------------------------------------------------------
# evaluation
#
# Every polynomial value comes from one generated Python function of a
# coordinate sequence, `compile_values`, over a `Domain`: the name that
# starts every sum and the conversions of a coefficient (once, when
# compiling) and of an argument (per call).  EXACT computes in Q(i) from
# ZERO, taking ints and Fractions through `_as_scalar`; COMPLEX in floats
# through complex(); `modrank` passes integers standing for residues mod p.
#
# The function converts each used coordinate once, computes each power
# x_i ** k once (x ** 1 is kept: over COMPLEX it raises OverflowError on
# an infinite part and can flip the sign of a zero), and computes a
# polynomial's value as Z + K*p*p + ..., Z the domain's zero, terms in
# dictionary order, coefficient first, factors in variable order; a product
# prefix K*p*... or a polynomial (terms in the same order) that recurs is
# computed once.  A weighted sum of COMPLEX values is 0j + w1*v1 + ....
# Over COMPLEX this fixes every float operation and its order, so term
# order is float semantics.  The values v of a weighted sum start at their
# first term: 0j + v differs from v only in the sign of a zero part, so w*v
# does at most, which the sum (from 0j, so never -0.0) cannot show.
#
# The body is its own function `field(x0, ..., x{m-1})` of converted
# arguments, exposed as the evaluator's `field` attribute, which
# integrators call directly on complex values; `evaluate` checks the
# coordinate count, converts the used coordinates and calls it.
# Coefficients and weights are bound as names in the function's
# namespace, so the source holds only generated identifiers, integer
# exponents and operators.  Owners evaluated at many points (`Evaluated`)
# keep their evaluators, each compiled once per owner and domain.

_SUMMANDS_PER_LINE = 32      # keeps each generated expression shallow


@dataclass(frozen=True, eq=False)       # compared and hashed by identity
class Domain:
    zero: str                                   # name starting each sum
    coefficient: Callable[[GaussianRational], object]
    argument: str                               # conversion of values[{i}]


EXACT = Domain("ZERO", _as_scalar, "_as_scalar(values[{i}])")
COMPLEX = Domain("0j", GaussianRational.to_complex, "complex(values[{i}])")


class _Source:
    """Straight-line source of one evaluator of `polys`, built output by
    output; `uses` counts the product prefixes K*p*... of them all."""

    def __init__(self, ring: PolyRing, polys: Sequence[Poly],
                 domain: Domain = COMPLEX, lead: bool = True):
        self.nvars = ring.nvars
        self.domain = domain
        self.lead = lead            # whether the values' sums start at Z
        self.namespace: dict = {"PolyError": PolyError, "ZERO": ZERO,
                                "_as_scalar": _as_scalar}
        self.coeffs: dict[GaussianRational, str] = {}
        self.powers: dict[tuple[int, int], str] = {}
        self.uses: Counter[str] = Counter()
        for key in dict.fromkeys(tuple(p.terms.items()) for p in polys):
            for e, c in key:
                f = self.factors(e, c)
                self.uses.update("*".join(f[:n]) for n in range(2, len(f) + 1))
        self.products: dict[str, str] = {}
        self.values: dict[tuple, str] = {}
        self.lines: list[str] = []

    def bind(self, value) -> str:
        name = f"K{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def factors(self, e: tuple[int, ...], c: GaussianRational) -> list[str]:
        """The names of one term's coefficient and powers, in order."""
        name = self.coeffs.get(c)
        if name is None:
            name = self.coeffs[c] = self.bind(self.domain.coefficient(c))
        return [name, *(self.powers.setdefault((i, k), f"p{i}_{k}")
                        for i, k in enumerate(e) if k)]

    def terms(self, p: Poly) -> list[str]:
        """Per term of p, K*p*p..., each prefix that recurs named once."""
        out = []
        for e, c in p.terms.items():
            f = self.factors(e, c)
            expr = f[0]
            for n in range(2, len(f) + 1):
                expr, key = f"{expr}*{f[n - 1]}", "*".join(f[:n])
                if self.uses[key] > 1:
                    if key not in self.products:
                        self.products[key] = f"m{len(self.products)}"
                        self.lines.append(f"{self.products[key]} = {expr}")
                    expr = self.products[key]
            out.append(expr)
        return out

    def value(self, p: Poly) -> str:
        """Name holding the value of p, assigned at its first use.  The key
        keeps the term order, which fixes the order of the additions."""
        key = tuple(p.terms.items())
        name = self.values.get(key)
        if name is None:
            name = self.values[key] = self.assign_sum(
                f"t{len(self.values)}", self.terms(p), self.lead)
        return name

    def assign_sum(self, target: str, summands: list[str],
                   lead: bool = True) -> str:
        """target = Z + s1 + s2 + ..., without Z where `lead` is false and
        there are summands, added left to right; long sums continue on
        further lines, which keeps the order."""
        if lead or not summands:
            summands = [self.domain.zero, *summands]
        head: list[str] = []
        for i in range(0, len(summands), _SUMMANDS_PER_LINE):
            chunk = summands[i:i + _SUMMANDS_PER_LINE]
            self.lines.append(f"{target} = " + " + ".join([*head, *chunk]))
            head = [target]
        return target

    def build(self, outputs: list[str]):
        used = {i for i, _ in self.powers}
        body = [f"{name} = x{i} ** {k}"
                for (i, k), name in sorted(self.powers.items())]
        body += self.lines + [f"return [{', '.join(outputs)}]"]
        params = ", ".join(f"x{i}" for i in range(self.nvars))
        args = ", ".join(self.domain.argument.format(i=i) if i in used
                         else "None" for i in range(self.nvars))
        source = "".join([
            f"def field({params}):\n",
            *(f"    {line}\n" for line in body),
            "def evaluate(values):\n",
            f"    if len(values) != {self.nvars}:\n",
            "        raise PolyError('wrong number of coordinates')\n",
            f"    return field({args})\n"])
        exec(compile(source, "<compiled polynomial evaluator>", "exec"),
             self.namespace)
        evaluate = self.namespace["evaluate"]
        evaluate.field = self.namespace["field"]
        return evaluate


def compile_values(ring: PolyRing, polys: Sequence[Poly], domain: Domain):
    """One function mapping coordinates to the list of values of `polys`
    in `domain`.  Its `field` attribute is the same computation as a
    function of the ring.nvars converted coordinates."""
    src = _Source(ring, polys, domain)
    return src.build([src.value(p) for p in polys])


def compile_complex_sum(ring: PolyRing, weights: Sequence[complex],
                        rows: Sequence[Sequence[Poly]]):
    """One function mapping coordinates to the weighted sum of the value
    lists of `rows` (each one polynomial per variable of `ring`): output i
    is 0j + w1*rows[0][i](x) + w2*rows[1][i](x) + ..., bit-identical to
    accumulating the interpreted values in that order.  Its `field`
    attribute is as for `compile_values`.  Each value rows[k][i](x) is
    summed from its first term: 0j + t differs from t only in the sign of
    a zero part, so w*t does at most, and adding a signed zero to the
    output sum, which starts at 0j and so is never -0.0, changes no bit."""
    src = _Source(ring, [p for row in rows for p in row], lead=False)
    names = [src.bind(complex(w)) for w in weights]
    outputs = []
    for i in range(ring.nvars):
        summands = []
        for w, name, row in zip(weights, names, rows):
            if row[i].is_zero and cmath.isfinite(w):
                # w*0j has zero parts, and adding a zero to a running sum
                # that starts at 0j leaves it unchanged (the sum is never -0.0)
                continue
            summands.append(f"{name}*{src.value(row[i])}")
        outputs.append(src.assign_sum(f"o{i}", summands))
    return src.build(outputs)


# ---------------------------------------------------------------------------
# printing


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
        cs = f"({c})" if c.re and c.im else str(c)
        if not mono:
            pieces.append(cs)
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


# One match per token or run of blanks, in order.  `name` also takes a word
# that starts with a numeric character that is no decimal digit (`²`, `½`,
# `Ⅷ`); such a word is refused as an unexpected character.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+)
  | (?P<num>(?P<top>\d+)(?:/(?P<den>\d+))?(?P<imag>i(?!\w))?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>[-+*^()−])
  | (?P<bad>.)""", re.VERBOSE | re.DOTALL)


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
    line, line_start = 1, 0         # columns count characters from 1
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "num":
            try:
                top, den = int(m["top"]), int(m["den"] or 1)
            except ValueError:      # past int's limit on decimal digits
                raise ParseError("number literal has too many digits",
                                 line, col) from None
            if den == 0:
                raise ParseError("zero denominator", line, col)
            tokens.append(_Token("num", m[0], Fraction(top, den),
                                 bool(m["imag"]), line, col))
        elif kind == "name" and (m[0][0].isalpha() or m[0][0] == "_"):
            tokens.append(_Token("name", m[0], None, False, line, col))
        elif kind == "op":
            tokens.append(_Token("op", m[0].replace("−", "-"), None, False,
                                 line, col))
        elif kind != "space":
            raise ParseError(f"unexpected character {m[0][0]!r}", line, col)
    tokens.append(_Token("end", "", None, False, line,
                         len(text) - line_start + 1))
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
