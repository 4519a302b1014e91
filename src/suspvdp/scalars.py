"""Exact scalars: the Gaussian rationals Q(i).

Every symbolic computation in this package bottoms out in arithmetic on
complex numbers a + b*i with rational a and b.  A value is stored as one
integer triple (re_num, im_num, den) meaning (re_num + im_num*i) / den, in
canonical form: den > 0 and gcd(re_num, im_num, den) == 1.  Arithmetic
works on Python ints with one gcd normalisation per result, so it is exact
and equality is decidable; nothing in this layer rounds.  The `re` and
`im` properties hand out `fractions.Fraction` parts.  Conversion to
floating point happens only at the numeric boundary (point sampling,
least squares, flow integration).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational

_object_new = object.__new__
_object_setattr = object.__setattr__


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational value, denominator > 0."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, Rational):
        x = Fraction(x)
        return x.numerator, x.denominator
    raise TypeError(f"not a rational value: {x!r}")


def _raw(re: int, im: int, den: int) -> "GaussianRational":
    """Construct from a triple already in canonical form."""
    obj = _object_new(GaussianRational)
    _object_setattr(obj, "_re", re)
    _object_setattr(obj, "_im", im)
    _object_setattr(obj, "_den", den)
    return obj


def _canonical(re: int, im: int, den: int) -> "GaussianRational":
    """Construct from any triple with den > 0."""
    g = gcd(re, im, den)
    if g != 1:
        re //= g
        im //= g
        den //= g
    return _raw(re, im, den)


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    Values are immutable and always in canonical form, so `==` (true only
    between two GaussianRationals) means true equality.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        rn, rd = _parts(re)
        im_n, im_d = _parts(im)
        # both parts are in lowest terms, so over their lcm the triple is
        # already canonical
        den = rd * im_d // gcd(rd, im_d)
        _object_setattr(self, "_re", rn * (den // rd))
        _object_setattr(self, "_im", im_n * (den // im_d))
        _object_setattr(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._re and not self._im

    @property
    def is_real(self) -> bool:
        return not self._im

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return (self._re == other._re and self._im == other._im
                and self._den == other._den)

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = GaussianRational(other)
        d, e = self._den, other._den
        if d == e:
            return _canonical(self._re + other._re, self._im + other._im, d)
        return _canonical(self._re * e + other._re * d,
                          self._im * e + other._im * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = GaussianRational(other)
        d, e = self._den, other._den
        if d == e:
            return _canonical(self._re - other._re, self._im - other._im, d)
        return _canonical(self._re * e - other._re * d,
                          self._im * e - other._im * d, d * e)

    def __rsub__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return GaussianRational(other) - self

    def __neg__(self):
        return _raw(-self._re, -self._im, self._den)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = GaussianRational(other)
        a, b, c, f = self._re, self._im, other._re, other._im
        return _canonical(a * c - b * f, a * f + b * c,
                          self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            if not isinstance(other, Rational):
                return NotImplemented
            other = GaussianRational(other)
        c, f = other._re, other._im
        n = c * c + f * f
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, e = self._re, self._im, other._den
        return _canonical(e * (a * c + b * f), e * (b * c - a * f),
                          self._den * n)

    def __rtruediv__(self, other):
        if not isinstance(other, Rational):
            return NotImplemented
        return GaussianRational(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        if exponent == 0:
            return ONE
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

    # -- conversions ------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _raw(self._re, -self._im, self._den)

    def norm_sq(self) -> Fraction:
        return Fraction(self._re * self._re + self._im * self._im,
                        self._den * self._den)

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        d = self._den
        return complex(self._re / d, self._im / d)

    __complex__ = to_complex

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        re, im = self.re, self.im
        parts = []
        if re:
            parts.append(str(re))
        if im:
            if im == 1:
                imag = "i"
            elif im == -1:
                imag = "-i"
            else:
                imag = f"{im}i"
            if parts and im > 0:
                parts.append(f"+ {imag}")
            elif parts:
                parts.append(f"- {imag.lstrip('-')}")
            else:
                parts.append(imag)
        return " ".join(parts)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational(re, im)


ZERO = _raw(0, 0, 1)
ONE = _raw(1, 0, 1)
I = _raw(0, 1, 1)
