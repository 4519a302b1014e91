import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from suspvdp.scalars import (GaussianRational, _canonical, gr, ONE, ZERO,
                             I)


def test_construction_normalizes_ints():
    x = GaussianRational(2, -3)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    assert x.re == 2 and x.im == -3


def test_basic_identities():
    assert I * I == gr(-1)
    assert (ONE + I) * (ONE - I) == gr(2)
    assert gr(Fraction(1, 2)) + gr(Fraction(1, 3)) == gr(Fraction(5, 6))


def test_division_and_inverse():
    x = gr(3, 4)
    assert x / x == ONE
    assert (ONE / x) * x == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers_match_repeated_multiplication():
    x = gr(Fraction(2, 3), Fraction(-1, 5))
    acc = ONE
    for k in range(8):
        assert x ** k == acc
        acc = acc * x
    assert x ** -2 == ONE / (x * x)


def test_lowest_terms_after_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        a = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for val in (a + b, a * b, a - b):
            # Fraction guarantees canonical form; make that explicit here.
            assert val.re.denominator > 0 and val.im.denominator > 0
            assert gcd(val.re.numerator, val.re.denominator) == 1
            assert gcd(val.im.numerator, val.im.denominator) == 1


def test_int_and_fraction_coercion():
    x = gr(1, 1)
    assert x + 1 == gr(2, 1)
    assert 1 + x == gr(2, 1)
    assert x * Fraction(1, 2) == gr(Fraction(1, 2), Fraction(1, 2))
    assert 2 - x == gr(1, -1)
    assert 2 / gr(0, 2) == gr(0, -1)


def test_to_complex():
    assert gr(Fraction(1, 2), 3).to_complex() == 0.5 + 3j


# -- property tests against a plain Fraction-pair reference -----------------

RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.builds(Fraction, st.integers(-10**30, 10**30),
              st.integers(1, 10**30)))
GAUSSIANS = st.builds(GaussianRational, RATIONALS, RATIONALS)
EXPONENTS = st.integers(-4, 7)


def ref(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


def ref_pow(a, k):
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        acc = ref_mul(acc, a)
    return ref_div((Fraction(1), Fraction(0)), acc) if k < 0 else acc


def ref_str(re: Fraction, im: Fraction) -> str:
    if not re and not im:
        return "0"
    parts = [str(re)] if re else []
    if im:
        imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
        if parts:
            parts.append(f"+ {imag}" if im > 0 else f"- {imag.lstrip('-')}")
        else:
            parts.append(imag)
    return " ".join(parts)


def assert_canonical(x):
    assert isinstance(x, GaussianRational)
    assert x._den > 0
    assert gcd(x._re, x._im, x._den) == 1


@given(GAUSSIANS, GAUSSIANS)
def test_arithmetic_matches_reference(x, y):
    for got, want in ((x + y, ref_add(ref(x), ref(y))),
                      (x - y, ref_sub(ref(x), ref(y))),
                      (x * y, ref_mul(ref(x), ref(y)))):
        assert_canonical(got)
        assert ref(got) == want
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        got = x / y
        assert_canonical(got)
        assert ref(got) == ref_div(ref(x), ref(y))


@given(GAUSSIANS, RATIONALS)
def test_mixed_operands_match_reference(x, q):
    rq = ref(q)
    for got, want in ((x + q, ref_add(ref(x), rq)),
                      (q + x, ref_add(rq, ref(x))),
                      (x - q, ref_sub(ref(x), rq)),
                      (q - x, ref_sub(rq, ref(x))),
                      (x * q, ref_mul(ref(x), rq)),
                      (q * x, ref_mul(rq, ref(x)))):
        assert_canonical(got)
        assert ref(got) == want
    if q:
        assert ref(x / q) == ref_div(ref(x), rq)
    else:
        with pytest.raises(ZeroDivisionError):
            x / q
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            q / x
    else:
        assert ref(q / x) == ref_div(rq, ref(x))


@given(GAUSSIANS, EXPONENTS)
def test_powers_match_reference(x, k):
    if x.is_zero and k < 0:
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    got = x ** k
    assert_canonical(got)
    assert ref(got) == ref_pow(ref(x), k)


@given(GAUSSIANS)
def test_unary_and_conversions_match_reference(x):
    re, im = ref(x)
    assert_canonical(x)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    assert ref(-x) == (-re, -im)
    assert x.to_complex() == complex(float(re), float(im))
    assert complex(x) == x.to_complex()
    assert str(x) == ref_str(re, im)
    assert x.is_zero == (not re and not im)


TRIPLE_PARTS = st.one_of(st.integers(-50, 50),
                         st.integers(-10**30, 10**30))


def fraction_str(x: GaussianRational) -> str:
    """`GaussianRational.__str__` as it was written on the Fraction parts
    before it printed from the integer triple."""
    if x.is_zero:
        return "0"
    re, im = x.re, x.im
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


@given(TRIPLE_PARTS, TRIPLE_PARTS, st.integers(1, 60) | st.integers(1, 10**30))
def test_str_of_a_triple_matches_the_fraction_rendering(re, im, den):
    x = _canonical(re, im, den)
    assert str(x) == fraction_str(x)


@given(GAUSSIANS, GAUSSIANS)
def test_equality_agrees_with_hash(x, y):
    same = GaussianRational(x.re, x.im)
    assert same == x and hash(same) == hash(x)
    if not y.is_zero:
        back = (x * y) / y
        assert back == x and hash(back) == hash(x)
    assert (x == y) == (ref(x) == ref(y))
    if x == y:
        assert hash(x) == hash(y)
    assert (x == GaussianRational(x.re)) == (not x.im)


def test_equality_only_between_gaussian_rationals():
    assert not gr(1) == 1
    assert gr(1) != Fraction(1)
    assert gr(0) != 0


def test_values_are_immutable():
    x = gr(1, 2)
    with pytest.raises(AttributeError):
        x._re = 3
    with pytest.raises(AttributeError):
        x.re = Fraction(3)
    with pytest.raises(AttributeError):
        x.extra = 1


def test_zero_division_raises():
    for den in (ZERO, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            gr(1, 1) / den
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_pickle_and_copy_round_trip():
    import copy
    import pickle

    x = gr(Fraction(-3, 4), Fraction(5, 6))
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert y == x and hash(y) == hash(x)
