import random
import re
from fractions import Fraction

import pytest
from helpers import render_class_oracle, suite_fans
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toriccsm import (
    hirzebruch,
    parse_class,
    parse_fan_text,
    render_class,
    render_fan,
)
from toriccsm.errors import ValidationError

H5_DOC = """
# the fifth Hirzebruch surface
name: h5
dim: 2
rays:
  1 0
  0 1
  -1 5
  0 -1
max_cones:
  0 1
  1 2
  2 3
  3 0
"""


def test_parse_fan_document():
    fan, name = parse_fan_text(H5_DOC)
    assert name == "h5"
    assert fan.rays == hirzebruch(5).rays
    assert [c.ray_indices for c in fan.max_cones] == [(0, 1), (1, 2), (2, 3), (0, 3)]


def test_fan_round_trip():
    for name, fan in suite_fans():
        if len(fan.rays) > 10:
            continue
        again, parsed_name = parse_fan_text(render_fan(fan, name))
        assert parsed_name == name
        assert again.ambient_dim == fan.ambient_dim
        assert again.rays == fan.rays
        assert [c.ray_indices for c in again.max_cones] == [
            c.ray_indices for c in fan.max_cones
        ]


def test_parse_fan_reports_line_numbers():
    bad = "dim: 2\nrays:\n  1 0\n  0 one\nmax_cones:\n  0 1\n"
    with pytest.raises(ValidationError, match="line 4"):
        parse_fan_text(bad)


def test_parse_fan_surfaces_validation_verbatim():
    doc = H5_DOC.replace("1 0", "2 0", 1)
    with pytest.raises(ValidationError, match="ray not primitive"):
        parse_fan_text(doc)


def test_parse_fan_missing_sections():
    with pytest.raises(ValidationError, match="missing 'dim'"):
        parse_fan_text("rays:\n 1 0\nmax_cones:\n 0\n")
    with pytest.raises(ValidationError, match="max_cones"):
        parse_fan_text("dim: 1\nrays:\n 1\n -1\n")
    with pytest.raises(ValidationError, match="outside"):
        parse_fan_text("dim: 1\n1 0\n")


def test_render_class_golden():
    c = {
        (): Fraction(1),
        ((1, 1),): Fraction(2),
        ((2, 1),): Fraction(7),
        ((1, 1), (2, 1)): Fraction(4),
    }
    assert render_class(c) == "1 + 2*x1 + 7*x2 + 4*x1*x2"


def test_render_class_signs_fractions_exponents():
    c = {((0, 3),): Fraction(-1, 2), ((1, 1),): Fraction(1), (): Fraction(-3)}
    assert render_class(c) == "-3 + x1 - 1/2*x0^3"
    assert render_class({}) == "0"
    # a zero coefficient takes a minus sign
    assert render_class({((0, 1),): 0}) == "-0*x0"
    assert render_class({(): 1, ((0, 1),): Fraction(0)}) == "1 - 0*x0"
    assert parse_class("x1^0 + 1") == {(): Fraction(2)}
    assert render_class(parse_class("x1^0 + 1")) == "2"
    assert parse_class("3*x0^0*x2^2") == {((2, 2),): Fraction(3)}


def test_class_round_trip_random():
    rng = random.Random(17)
    for _ in range(200):
        c = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(
                sorted((v, rng.randint(1, 3)) for v in rng.sample(range(5), rng.randint(0, 3)))
            )
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if q:
                c[mono] = q
        c = {m: q for m, q in c.items() if q}
        assert parse_class(render_class(c)) == c


_MONOMIALS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=3, unique_by=lambda t: t[0]
).map(lambda pairs: tuple(sorted(pairs)))
_COEFFICIENTS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
)


@settings(max_examples=300, deadline=None, database=None)
@given(c=st.dictionaries(_MONOMIALS, _COEFFICIENTS, max_size=8))
@example(c={((0, 1),): 0})
@example(c={(): 1, ((0, 1),): 0})
@example(c={(): Fraction(0), ((0, 2), (3, 1)): Fraction(-1, 2)})
def test_render_class_equals_oracle(c):
    # int and Fraction coefficients, zero ones included, a constant term
    # and exponents above 1.
    assert render_class(c) == render_class_oracle(c)


def test_class_round_trip_past_the_int_digit_limit():
    big = 10**5000 + 7
    c = {(): Fraction(-big, 3), ((1, 2),): Fraction(big)}
    text = render_class(c)
    assert text.startswith("-1" + "0" * 4999 + "7/3 + 1")
    assert parse_class(text) == c


def test_fan_round_trip_past_the_int_digit_limit():
    # A coordinate of 5,001 digits is written and read back exactly; the
    # parser's fallback past the digit limit reads ASCII integers only.
    digits = "1" + "0" * 4999 + "7"
    fan = hirzebruch(10**5000 + 7)
    text = render_fan(fan, "big")
    assert f"  -1 {digits}\n" in text
    parsed, name = parse_fan_text(text)
    assert (parsed.rays, name) == (fan.rays, "big")
    assert parse_fan_text(text.replace(digits, "+" + digits))[0].rays == fan.rays
    for token in ("1.5", "1e3", digits + ".0", digits + "e0"):
        with pytest.raises(ValidationError, match="line 6: expected whitespace-separated integers"):
            parse_fan_text(text.replace(digits, token))


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "1\u0660"], ids=["underscore", "arabic-indic", "fullwidth", "mixed"])
def test_fan_file_data_lines_read_only_ascii_integers(token):
    # int alone reads 1_0 as 10 and the Arabic-Indic or fullwidth one as 1,
    # which turned a ray or cone line into numbers the file does not hold.
    text = H5_DOC.replace("  0 1\n  -1 5", f"  0 1\n  -1 {token}", 1)
    with pytest.raises(ValidationError, match=f"line 8: expected whitespace-separated integers, got '-1 {token}'$"):
        parse_fan_text(text)
    cones = H5_DOC.replace("  2 3\n", f"  2 {token}\n", 1)
    with pytest.raises(ValidationError, match=f"line 13: expected whitespace-separated integers, got '2 {token}'$"):
        parse_fan_text(cones)
    # signs on ASCII integers still read
    assert parse_fan_text(H5_DOC.replace("  -1 5", "  -1 +5", 1))[0].rays == hirzebruch(5).rays


@pytest.mark.parametrize("value", ["\u0662", "2_0", "+\u0662"])
def test_fan_file_dim_reads_only_ascii_integers(value):
    with pytest.raises(ValidationError, match=re.escape(f"line 4: field 'dim' needs an integer, got '{value}'")):
        parse_fan_text(H5_DOC.replace("dim: 2", f"dim: {value}", 1))
    assert parse_fan_text(H5_DOC.replace("dim: 2", "dim: +2", 1))[0].ambient_dim == 2


def test_parse_class_reads_only_ascii_digits():
    # \d and $ let these through: an Arabic-Indic digit as a ray index, a
    # coefficient or an exponent, and a trailing newline.
    for s in ("x\u0661", "\u0663*x1", "x1^\u0662", "x1\n"):
        with pytest.raises(ValidationError, match="cannot parse term factor"):
            parse_class(s)
    assert parse_class("3*x1^2") == {((1, 2),): Fraction(3)}


def test_parse_class_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_class("2*y1")
    for s in ("2/0", "1/0*x1", "x1 - 3/0"):
        with pytest.raises(ValidationError, match="zero denominator"):
            parse_class(s)
    with pytest.raises(ValidationError):
        parse_class("")
