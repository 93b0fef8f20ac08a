"""Exact scalar field p + q*alpha: arithmetic, ordering, rendering."""

from collections import namedtuple
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.errors import IncompatibleBasisError
from ergolab.scalars import (GOLDEN, ONE, SQRT2M1, ZERO, IrrationalTag, Scalar,
                             get_tag, parse_scalar, render)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=64)
rationals = st.builds(Scalar, fractions)
goldens = st.builds(lambda p, q: Scalar(p, q, GOLDEN), fractions, fractions)


def gold(p, q):
    return Scalar(Fraction(p), Fraction(q), GOLDEN)


def bracket_sign(x):
    """Sign of x from IrrationalTag.bounds alone, refined until it decides."""
    if x.q == 0:
        return (x.p > 0) - (x.p < 0)
    k = 4
    while True:
        ends = [x.p + x.q * b for b in x.tag.bounds(k)]
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        k *= 2


def truncated(f, digits):
    """A rational's decimal digits, truncated toward zero."""
    whole, frac = divmod(abs(f.numerator) * 10**digits // f.denominator,
                         10**digits)
    return f"{'-' if f < 0 else ''}{whole}.{frac:0{digits}d}"


def bracket_rounding(x, digits):
    """(floor, to_decimal text) of x from IrrationalTag.bounds alone.

    Each result is constant on an interval, so once both ends of a bracket
    agree the whole bracket, x included, does too.
    """
    if x.q == 0:
        return x.p.numerator // x.p.denominator, truncated(x.p, digits)
    k = 4
    while True:
        ends = [x.p + x.q * b for b in x.tag.bounds(k)]
        floors = {e.numerator // e.denominator for e in ends}
        texts = {truncated(e, digits) for e in ends}
        if len(floors) == len(texts) == 1:
            return floors.pop(), texts.pop()
        k *= 2


def check_rounding(x):
    for digits in (1, 12, 40):
        floor, text = bracket_rounding(x, digits)
        assert x.floor() == floor
        assert x.to_decimal(digits) == text


def check_against_oracle(x, y):
    expected = bracket_sign(x - y)
    assert x.cmp(y) == expected
    assert y.cmp(x) == -expected
    assert (x - y).sign() == expected
    return expected


class TestArithmetic:
    def test_field_operations(self):
        a = gold(1, 2)
        b = gold(Fraction(1, 3), -1)
        assert (a + b) == gold(Fraction(4, 3), 1)
        assert (a - b) == gold(Fraction(2, 3), 3)
        assert (a * Scalar(Fraction(3, 2))) == gold(Fraction(3, 2), 3)
        assert (a / Scalar(2)) == gold(Fraction(1, 2), 1)

    def test_irrational_product_is_exact(self):
        # alpha**2 = 1 - a*alpha, and 1/alpha = alpha + a
        assert gold(0, 1) * gold(0, 1) == gold(1, -1)
        assert ONE / gold(0, 1) == gold(1, 1)
        beta = Scalar(0, 1, SQRT2M1)
        assert beta * beta == Scalar(1, -2, SQRT2M1)
        assert ONE / beta == Scalar(2, 1, SQRT2M1)
        assert gold(Fraction(1, 2), 3) * gold(-2, Fraction(1, 3)) == gold(
            0, Fraction(-41, 6))

    def test_mixed_tags_rejected(self):
        a, b = Scalar(0, 1, GOLDEN), Scalar(0, 1, SQRT2M1)
        for op in (lambda: a + b, lambda: a * b, lambda: a / b):
            with pytest.raises(IncompatibleBasisError):
                op()

    def test_equality_respects_tag(self):
        a, b = Scalar(0, 1, GOLDEN), Scalar(0, 1, SQRT2M1)
        assert a != b
        assert len({a, b}) == 2

    def test_canonical_zero_coefficient(self):
        a = gold(1, 1) - gold(0, 1)
        assert a.q == 0 and a.tag is None

    @given(goldens, goldens)
    def test_add_commutes(self, a, b):
        assert (a + b) == (b + a)

    @given(goldens)
    def test_sub_self_is_zero(self, a):
        assert (a - a) == ZERO


class TestOrdering:
    def test_golden_value_bracket(self):
        # alpha = (sqrt 5 - 1)/2, between 0.61 and 0.62
        alpha = gold(0, 1)
        assert Scalar(Fraction(61, 100)) < alpha < Scalar(Fraction(62, 100))

    def test_sqrt2_minus_one_bracket(self):
        beta = Scalar(0, 1, SQRT2M1)
        assert Scalar(Fraction(41, 100)) < beta < Scalar(Fraction(42, 100))

    def test_tight_comparison_refines(self):
        # 987/1597 < alpha < 610/987, which differ by 1/(987*1597)
        assert gold(0, 1) > Scalar(Fraction(987, 1597))
        assert gold(0, 1) < Scalar(Fraction(610, 987))

    def test_compare_never_consults_bracket(self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("bounds called")
        monkeypatch.setattr(IrrationalTag, "bounds", refuse)
        assert gold(0, 1).cmp(Scalar(Fraction(987, 1597))) == 1
        assert gold(1, -1).sign() == 1
        assert gold(Fraction(1, 2), Fraction(-1, 2)).cmp(gold(1, -1)) == -1

    @given(goldens, goldens)
    @settings(max_examples=60)
    def test_ordering_consistent_with_subtraction(self, a, b):
        assert (a < b) == ((a - b).sign() < 0)

    @given(goldens, goldens, goldens)
    @settings(max_examples=60)
    def test_translation_preserves_order(self, a, b, c):
        if a < b:
            assert a + c < b + c


def convergent_brackets(a):
    """Consecutive convergents p_i/q_i, p_{i+1}/q_{i+1} of [0; a, a, ...],
    as (lo, hi) pairs: each pair holds alpha strictly, and the pairs
    shrink to it."""
    p0, q0, p1, q1 = 0, 1, 1, a
    while True:
        yield tuple(sorted((Fraction(p0, q0), Fraction(p1, q1))))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0


@pytest.mark.parametrize("tag", [GOLDEN, SQRT2M1])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 16, 31, 64, 110, 400])
def test_bounds_against_convergents(tag, k):
    lo, hi = tag.bounds(k)
    assert 0 < hi - lo <= Fraction(1, 2**k)
    # some convergent bracket, and so alpha, lies strictly inside [lo, hi];
    # alpha is more than 2**-(2k + 5) from any m / 2**(k + 1) (Liouville),
    # so a narrower bracket lies inside if alpha does
    for c_lo, c_hi in convergent_brackets(tag._a):
        if lo < c_lo and c_hi < hi:
            break
        assert c_hi - c_lo > Fraction(1, 2**(2 * k + 5)), "alpha outside"


@pytest.mark.parametrize("tag", [GOLDEN, SQRT2M1])
class TestClosedFormAgainstBracket:
    """cmp/sign against a bracket oracle built from IrrationalTag.bounds."""

    @given(fractions, fractions, fractions, fractions)
    @settings(max_examples=40)
    def test_pairs(self, tag, p1, q1, p2, q2):
        x = Scalar(p1, q1, tag)
        check_against_oracle(x, Scalar(p2, q2, tag))
        assert check_against_oracle(x, Scalar(p1, q1, tag)) == 0
        check_against_oracle(x, Scalar(p2, q1, tag))   # equal q parts
        check_against_oracle(Scalar(p1), Scalar(p2))   # rational only
        check_against_oracle(Scalar(p1), Scalar(p2, q2, tag))
        assert x.cmp(p2) == x.cmp(Scalar(p2))          # bare rational
        assert x.cmp(p1.numerator) == x.cmp(Scalar(p1.numerator))

    @pytest.mark.parametrize("k", [110, 400])
    def test_differences_within_1e_30(self, tag, k):
        # lo < alpha < hi are at most 2**-k apart, so x - y = q*(c - alpha)
        # below is nonzero and within 1e-30 of zero
        lo, hi = tag.bounds(k)
        for c, side in ((lo, -1), (hi, 1)):
            for q in (Fraction(1), Fraction(-3), Fraction(7, 5)):
                assert abs(q) * (hi - lo) < Fraction(1, 10**30)
                expected = side if q > 0 else -side
                for r in (Fraction(0), Fraction(1, 3), Fraction(-2)):
                    # one rational side
                    x, y = Scalar(r + q * c), Scalar(r, q, tag)
                    assert check_against_oracle(x, y) == expected
                    # both sides irrational, p ~ -q*alpha in the difference
                    x, y = Scalar(r + q * c, 1, tag), Scalar(r, q + 1, tag)
                    assert check_against_oracle(x, y) == expected

    @given(fractions, fractions, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=40)
    def test_rounding(self, tag, p, q, shift):
        check_rounding(Scalar(p + shift, q, tag))
        check_rounding(Scalar(p * 10**6, q * 10**6, tag))
        check_rounding(Scalar(p))

    @pytest.mark.parametrize("k", [110, 400])
    def test_rounding_within_1e_30_of_a_boundary(self, tag, k):
        # r + q*(c - alpha) is nonzero and within 1e-30 of r, for the ends
        # c of the bracket of alpha that is at most 2**-k wide
        for c in tag.bounds(k):
            for q in (Fraction(1), Fraction(-3), Fraction(7, 5)):
                for r in (Fraction(0), Fraction(1), Fraction(-2),
                          Fraction(1, 10), Fraction(-37, 100)):
                    check_rounding(Scalar(r + q * c, -q, tag))


def bracket(x, k):
    """The interval of values x takes with alpha anywhere in its
    IrrationalTag.bounds(k) bracket (x is linear in alpha)."""
    if x.q == 0:
        return x.p, x.p
    ends = [x.p + x.q * b for b in x.tag.bounds(k)]
    return min(ends), max(ends)


@pytest.mark.parametrize("tag", [GOLDEN, SQRT2M1])
class TestField:
    """Same-tag scalars form a field: * and / never reject a tag."""

    @given(fractions, fractions, fractions, fractions)
    @settings(max_examples=40)
    def test_product_against_bracket(self, tag, p1, q1, p2, q2):
        # the exact product lies in the product of the factors' brackets
        # and in its own; at k = 64 both are narrower than 2**-50
        x, y = Scalar(p1, q1, tag), Scalar(p2, q2, tag)
        (xl, xh), (yl, yh) = bracket(x, 64), bracket(y, 64)
        corners = [u * v for u in (xl, xh) for v in (yl, yh)]
        zl, zh = bracket(x * y, 64)
        assert max(zl, min(corners)) <= min(zh, max(corners))

    @given(fractions, fractions, fractions, fractions)
    @settings(max_examples=40)
    def test_identities(self, tag, p1, q1, p2, q2):
        x, y = Scalar(p1, q1, tag), Scalar(p2, q2, tag)
        assert (x * y).sign() == x.sign() * y.sign()
        if y:
            assert (x * y) / y == x
            assert y / y == ONE
            assert (x / y) * y == x

    def test_division_by_zero(self, tag):
        x = Scalar(1, 1, tag)
        for zero in (ZERO, x - x):
            with pytest.raises(ZeroDivisionError):
                x / zero


def test_compare_mixed_tags_rejected():
    with pytest.raises(IncompatibleBasisError):
        Scalar(0, 1, GOLDEN).cmp(Scalar(0, 1, SQRT2M1))
    with pytest.raises(IncompatibleBasisError):
        Scalar(1, 1, GOLDEN) < Scalar(0, 2, SQRT2M1)
    assert Scalar(1).cmp(Scalar(0, 1, SQRT2M1)) == 1


class TestMod1:
    def test_floor_and_wrap(self):
        a = gold(2, 1)  # about 2.618
        assert a.mod1() == gold(0, 1).mod1()
        assert gold(0, 1).mod1() == gold(0, 1)

    @given(goldens)
    @settings(max_examples=60)
    def test_mod1_lands_in_unit(self, a):
        r = a.mod1()
        assert ZERO <= r < ONE

    @given(goldens, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=60)
    def test_mod1_invariant_under_integer_shift(self, a, k):
        assert (a + Scalar(k)).mod1() == a.mod1()


class TestRendering:
    def test_decimal_truncates_toward_zero(self):
        a = Scalar(Fraction(3, 4)) - gold(0, 1)  # about 0.131966
        assert a.to_decimal(4) == "0.1319"
        assert (-a).to_decimal(4) == "-0.1319"

    def test_decimal_exact_rational(self):
        assert Scalar(Fraction(1, 4)).to_decimal(3) == "0.250"

    def test_render_marks_irrationals(self):
        assert render(gold(0, 1), 4) == "~0.6180"
        assert render(Scalar(Fraction(1, 2)), 4) == "0.5000"
        assert Scalar(Fraction(1, 8)).to_decimal(2) == "0.12"

    def test_text_round_trip(self):
        for text in ("3/4", "1/2+1*alpha", "1/2-2/3*alpha", "0", "-1/4",
                     "3/4-3/2*alpha", "5", "-1/2", "-5+1/3*alpha"):
            assert parse_scalar(text, GOLDEN).to_text() == text

    def test_text_builds_no_fraction(self, monkeypatch):
        values = [gold(Fraction(3, 4), Fraction(-3, 2)), Scalar(5),
                  Scalar(Fraction(-1, 2)), Scalar(0, 1, SQRT2M1), ZERO]
        expected = [x.to_text() for x in values]
        calls = 0
        build = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal calls
            calls += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        texts = [x.to_text() for x in values]
        monkeypatch.undo()
        assert calls == 0
        assert texts == expected == ["3/4-3/2*alpha", "5", "-1/2",
                                     "0+1*alpha", "0"]

    @pytest.mark.parametrize("text, p, q", [
        ("alpha", 0, 1), ("-alpha", 0, -1), ("1-alpha", 1, -1),
        ("2*alpha", 0, 2), ("1/2+alpha", Fraction(1, 2), 1),
        ("1/2-3/4*alpha", Fraction(1, 2), Fraction(-3, 4)),
    ])
    def test_linear_forms(self, text, p, q):
        a = parse_scalar(text, GOLDEN)
        assert a == gold(p, q)
        assert parse_scalar(a.to_text(), GOLDEN).to_text() == a.to_text()

    @pytest.mark.parametrize("text", ["1-2-alpha", "alpha+1", "2alpha",
                                      "1-*alpha", "*alpha", "alphax"])
    def test_malformed_linear_forms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text, GOLDEN)

    @pytest.mark.parametrize("text", [
        "0", "3", "-3", "+3", "10/5", "-6/4", "+7/14", "0/9", " 3/4 ",
        "\t-1/2\n", "007/010", "0.5", "-1.25", "1e-3", "2E2", ".5",
        "1_000", "12345678901234567890123/98765432109876543210",
    ])
    def test_rational_texts_parse_as_fraction_does(self, text):
        # n and n/d go straight to integers; every other form is read by
        # Fraction, so both agree on all of them
        got, want = parse_scalar(text), Scalar(Fraction(text.strip()))
        assert (got.n, got.m, got.d, got.tag) == (want.n, want.m, want.d,
                                                  want.tag)

    def test_rational_texts_build_no_fraction(self, monkeypatch):
        calls = 0
        build = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal calls
            calls += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        values = [parse_scalar(t, GOLDEN) for t in ("3/4", "-2", "1/2-alpha",
                                                    "3/4-3/2*alpha")]
        monkeypatch.undo()
        assert calls == 0
        assert [v.to_text() for v in values] == [
            "3/4", "-2", "1/2-1*alpha", "3/4-3/2*alpha"]

    @pytest.mark.parametrize("text", ["1/0", "-3/00", "1/0+alpha",
                                      "1/2-1/0*alpha"])
    def test_zero_denominator_raises(self, text):
        with pytest.raises(ZeroDivisionError):
            parse_scalar(text, GOLDEN)

    @pytest.mark.parametrize("text", ["", "1/", "/2", "1/-2", "one", "1 / 2"])
    def test_malformed_rationals_rejected(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)

    def test_alpha_without_tag_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("alpha")

    @given(goldens)
    @settings(max_examples=60)
    def test_parse_inverts_to_text(self, a):
        assert parse_scalar(a.to_text(), GOLDEN) == a

    def test_get_tag(self):
        assert get_tag("golden") is GOLDEN
        assert get_tag("sqrt2") is SQRT2M1
        with pytest.raises(KeyError):
            get_tag("pi")


# -- differential tests: Scalar against a model in Fractions --------------

#: p + q*alpha as two Fractions and the tag; bracket_sign and
#: bracket_rounding read a Model as they read a Scalar
Model = namedtuple("Model", "p q tag")

wide = st.builds(Fraction, st.integers(-2**400, 2**400),
                 st.integers(1, 2**400))
coefficients = st.one_of(fractions, wide)
tags = st.sampled_from([GOLDEN, SQRT2M1])


def model_of(p, q, tag):
    return Model(Fraction(p), Fraction(q), tag if q else None)


def check_matches(x, model):
    """x equals the model and its fields are in canonical form."""
    assert x.d > 0
    assert gcd(x.n, x.m, x.d) == 1
    assert x.m != 0 or x.tag is None
    assert (x.p, x.q, x.tag) == tuple(model)


@pytest.mark.parametrize("tag", [GOLDEN, SQRT2M1])
class TestAgainstModel:
    @given(coefficients, coefficients, coefficients, coefficients,
           coefficients.filter(bool))
    @settings(max_examples=60)
    def test_arithmetic(self, tag, p1, q1, p2, q2, r):
        for q in (q1, 0):
            x, y = Scalar(p1, q, tag), Scalar(p2, q2, tag)
            check_matches(x, model_of(p1, q, tag))
            check_matches(x + y, model_of(p1 + p2, q + q2, tag))
            check_matches(x - y, model_of(p1 - p2, q - q2, tag))
            check_matches(-x, model_of(-p1, -q, tag))
            check_matches(x * r, model_of(p1 * r, q * r, tag))
            check_matches(r * x, model_of(p1 * r, q * r, tag))
            check_matches(x / r, model_of(p1 / r, q / r, tag))
            check_matches(x - x, model_of(0, 0, None))

    @given(coefficients, coefficients, coefficients, coefficients)
    @settings(max_examples=60)
    def test_order_and_equality(self, tag, p1, q1, p2, q2):
        for x, y in ((Scalar(p1, q1, tag), Scalar(p2, q2, tag)),
                     (Scalar(p1, q1, tag), Scalar(p2, q1, tag)),
                     (Scalar(p1), Scalar(p2, q2, tag))):
            diff = Model(x.p - y.p, x.q - y.q, tag)
            expected = bracket_sign(diff)
            assert x.cmp(y) == expected and y.cmp(x) == -expected
            assert (x < y) == (expected < 0)
            assert (x == y) == (diff.p == 0 and diff.q == 0)
        x = Scalar(p1, q1, tag)
        assert x.cmp(p2) == bracket_sign(Model(p1 - p2, q1, tag))

    @given(coefficients, coefficients)
    @settings(max_examples=40)
    def test_rounding(self, tag, p, q):
        for x, model in ((Scalar(p, q, tag), Model(p, q, tag)),
                         (Scalar(p), Model(p, Fraction(0), None))):
            floor, text = bracket_rounding(model, 12)
            assert x.floor() == floor
            assert x.to_decimal(12) == text

    @given(coefficients, coefficients)
    @settings(max_examples=40)
    def test_text_round_trip(self, tag, p, q):
        x = Scalar(p, q, tag)
        if q == 0:
            expected = str(p)
        else:
            expected = f"{p}-{-q}*alpha" if q < 0 else f"{p}+{q}*alpha"
        assert x.to_text() == expected
        assert parse_scalar(x.to_text(), tag) == x


@given(st.one_of(st.integers(-2**400, 2**400), coefficients))
def test_hash_matches_the_rational(x):
    assert Scalar(x) == x
    assert hash(Scalar(x)) == hash(x)


def test_integer_fields_are_canonical():
    x = gold(Fraction(1, 6), Fraction(-1, 4))
    assert (x.n, x.m, x.d, x.tag) == (2, -3, 12, GOLDEN)
    y = x - gold(0, Fraction(-1, 4))
    assert (y.n, y.m, y.d, y.tag) == (1, 0, 6, None)
    with pytest.raises(AttributeError):
        x.p = Fraction(1)


@pytest.mark.parametrize("args", [(0.1,), ("1/3",), (1, 0.5, GOLDEN)])
def test_constructor_takes_int_or_fraction_parts_only(args):
    # a float would be taken at its binary value; text is parse_scalar's
    with pytest.raises(TypeError):
        Scalar(*args)
    assert parse_scalar("1/3") == Scalar(Fraction(1, 3))
