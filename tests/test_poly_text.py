"""Polynomial text against the hand-written versions it replaced.

The scanner is one token pattern and the printer prints each coefficient
with `str`.  The oracles below are the character loop and the coefficient
printer they replaced, kept verbatim: on random text the pattern gives the
same tokens or the same `ParseError`, and on random polynomials the printer
the same bytes.
"""

import random
from fractions import Fraction

import pytest

from suspvdp.poly import (ParseError, PolyRing, _format_monomial, _Token,
                          _tokenize, format_poly)
from suspvdp.scalars import GaussianRational, gr

R = PolyRing(("u", "v", "z1", "z2"))

_OPS = set("+-*^()")


def oracle_tokenize(text: str) -> list[_Token]:
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


def _format_rational(q: Fraction) -> str:
    return str(q)


def oracle_format_coeff(c: GaussianRational) -> tuple[str, bool]:
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


def oracle_format_poly(p) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for e in sorted(p.terms, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = p.terms[e]
        mono = _format_monomial(p.ring, e)
        cs, needs_paren = oracle_format_coeff(c)
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


# digits (decimal, a superscript and an Arabic-Indic one), letters, the
# operators, blanks and line breaks, U+2212, a vulgar fraction, a Roman
# numeral and a combining accent
ALPHABET = list("0123456789" * 3 + "i" * 6 + "uvz_/+-*^()  \n\r") + [
    "z1", "xy", "−", "²", "½", "Ⅷ", "\u0301", "٣"]


def scan(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return ("ParseError", err.message, err.line, err.column)


def test_token_pattern_matches_the_character_loop():
    rng = random.Random(30)
    compared = 0
    for _ in range(20000):
        text = "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randint(0, 12)))
        try:
            want = scan(oracle_tokenize, text)
        except Exception:
            continue        # the loop's own faults, e.g. int("²")
        assert scan(_tokenize, text) == want, text
        compared += 1
    assert compared > 15000


@pytest.mark.parametrize("text, message, column", [
    ("z1 + 2²", "unexpected character '²'", 7),
    ("z1^2²", "unexpected character '²'", 5),
    ("1/2²", "unexpected character '²'", 4),
    ("½*u", "unexpected character '½'", 1),
    ("u*Ⅷ", "unexpected character 'Ⅷ'", 3),
])
def test_a_non_decimal_digit_is_a_parse_error(text, message, column):
    # the character loop took '²' for a digit and failed inside int()
    with pytest.raises(ParseError) as err:
        R.parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (
        message, 1, column)


@pytest.mark.parametrize("text, line, column", [
    ("z1 + " + "1" * 5000, 1, 6),
    ("z1 +\n 2/" + "3" * 5000 + "i", 2, 2),
])
def test_a_literal_past_the_digit_limit_is_a_parse_error(text, line, column):
    # int() refuses decimal text of more than 4,300 digits by default
    with pytest.raises(ParseError) as err:
        R.parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (
        "number literal has too many digits", line, column)


def rand_rational(rng):
    return Fraction(rng.choice([0, 0, 1, -1, rng.randint(-99, 99)]),
                    rng.choice([1, 1, 2, 3, rng.randint(1, 99)]))


def test_printer_matches_the_coefficient_formatter():
    rng = random.Random(31)
    for _ in range(5000):
        p = R.zero()
        for _ in range(rng.randint(0, 4)):
            e = [rng.choice([0, 0, 1, 2]) for _ in range(R.nvars)]
            p = p + R.monomial(e, gr(rand_rational(rng), rand_rational(rng)))
        assert format_poly(p) == oracle_format_poly(p)
