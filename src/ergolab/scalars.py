"""Exact scalar arithmetic: rationals extended by one formal irrational.

A scalar is a value p + q*alpha with p, q rational and alpha a fixed
irrational known through a refinable interval oracle.  Comparison of two
distinct scalars always terminates because p + q*alpha = p' + q'*alpha can
only happen componentwise, so the difference of unequal scalars is bounded
away from zero and refining the oracle eventually separates it from 0.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import IncompatibleBasisError, RefinementBudgetError

#: default number of refinement rounds allowed when deciding a comparison
DEFAULT_REFINEMENT_BUDGET = 256

RationalLike = Union[int, Fraction]


class IrrationalTag:
    """A certified irrational, given by its continued-fraction expansion.

    ``bounds(k)`` yields a rational interval [l, u] containing alpha with
    u - l <= 2**-k.  Bounds are nested in k (l non-decreasing, u
    non-increasing) because they are read off consecutive continued-fraction
    convergents, which bracket the value ever more tightly.
    """

    def __init__(self, name: str, partial_quotient: int):
        # period-1 continued fraction [0; a, a, a, ...] with a >= 1;
        # such a value is a quadratic irrational, hence certified irrational.
        if partial_quotient < 1:
            raise ValueError("partial quotient must be >= 1")
        self.name = name
        self._a = partial_quotient
        self._lock = threading.Lock()
        # convergents p/q; start with p_{-1}/q_{-1} = 1/0 and p_0/q_0 = 0/1
        self._ps = [1, 0]
        self._qs = [0, 1]

    def _extend(self) -> None:
        a = self._a
        self._ps.append(a * self._ps[-1] + self._ps[-2])
        self._qs.append(a * self._qs[-1] + self._qs[-2])

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        """Rational bracket [l, u] containing alpha with u - l <= 2**-k."""
        with self._lock:
            i = 2
            while True:
                while len(self._ps) < i + 2:
                    self._extend()
                # consecutive convergents bracket the value; width is
                # 1/(q_i * q_{i+1})
                if self._qs[i] * self._qs[i + 1] >= 1 << max(k, 0):
                    lo = Fraction(self._ps[i], self._qs[i])
                    hi = Fraction(self._ps[i + 1], self._qs[i + 1])
                    if lo > hi:
                        lo, hi = hi, lo
                    return lo, hi
                i += 1

    def __repr__(self) -> str:
        return f"IrrationalTag({self.name!r})"


#: (sqrt(5) - 1) / 2, the golden-ratio conjugate: [0; 1, 1, 1, ...]
GOLDEN = IrrationalTag("golden", 1)
#: sqrt(2) - 1: [0; 2, 2, 2, ...]
SQRT2M1 = IrrationalTag("sqrt2", 2)

TAGS = {t.name: t for t in (GOLDEN, SQRT2M1)}


def get_tag(name: str) -> IrrationalTag:
    try:
        return TAGS[name]
    except KeyError:
        raise KeyError(
            f"unknown irrational tag {name!r}; built-in tags: {sorted(TAGS)}"
        ) from None


def _merge_tags(a: Optional[IrrationalTag], b: Optional[IrrationalTag]):
    if a is None:
        return b
    if b is None or a is b:
        return a
    raise IncompatibleBasisError(f"mixed irrational tags {a.name!r} and {b.name!r}")


class Scalar:
    """Exact value p + q*alpha.  Immutable; canonical (q == 0 => no tag)."""

    __slots__ = ("p", "q", "tag")

    def __init__(self, p: RationalLike, q: RationalLike = 0,
                 tag: Optional[IrrationalTag] = None):
        p = Fraction(p)
        q = Fraction(q)
        if q == 0:
            tag = None
        elif tag is None:
            raise ValueError("nonzero irrational coefficient requires a tag")
        self.p = p
        self.q = q
        self.tag = tag

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        tag = _merge_tags(self.tag, other.tag)
        return Scalar(self.p + other.p, self.q + other.q, tag)

    __radd__ = __add__

    def __sub__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        tag = _merge_tags(self.tag, other.tag)
        return Scalar(self.p - other.p, self.q - other.q, tag)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.p, -self.q, self.tag)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if self.q != 0 and other.q != 0:
            # would need an alpha**2 term; not in the field we model
            raise IncompatibleBasisError(
                "product of two irrational scalars is not representable")
        if other.q == 0:
            return Scalar(self.p * other.p, self.q * other.p, self.tag)
        return Scalar(self.p * other.p, self.p * other.q, other.tag)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other.q != 0:
            raise IncompatibleBasisError("division by an irrational scalar")
        if other.p == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.p / other.p, self.q / other.p, self.tag)

    # -- comparisons --------------------------------------------------

    def sign(self, budget: int = DEFAULT_REFINEMENT_BUDGET) -> int:
        """Exact sign (-1, 0, 1), refining the oracle as needed."""
        if self.q == 0:
            p = self.p
            return (p > 0) - (p < 0)
        k = 4
        for _ in range(budget):
            lo, hi = self.tag.bounds(k)
            if self.q > 0:
                vlo, vhi = self.p + self.q * lo, self.p + self.q * hi
            else:
                vlo, vhi = self.p + self.q * hi, self.p + self.q * lo
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            k *= 2
        raise RefinementBudgetError(
            f"sign of {self} undecided after {budget} refinements")

    def cmp(self, other) -> int:
        other = _coerce(other)
        if self.q == other.q and (self.q == 0 or self.tag is other.tag):
            # common case: same irrational part cancels exactly
            return (self.p > other.p) - (self.p < other.p)
        if self.p == other.p and self.q == other.q:
            if self.q != 0:
                _merge_tags(self.tag, other.tag)
            return 0
        return (self - other).sign()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.p == other.p and self.q == other.q
                and self.tag is other.tag)

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self.cmp(other) >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, id(self.tag)))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- rounding and rendering ---------------------------------------

    def is_rational(self) -> bool:
        return self.q == 0

    def floor(self) -> int:
        if self.q == 0:
            return self.p.numerator // self.p.denominator
        k = 8
        while True:
            lo, hi = self.tag.bounds(k)
            if self.q > 0:
                vlo, vhi = self.p + self.q * lo, self.p + self.q * hi
            else:
                vlo, vhi = self.p + self.q * hi, self.p + self.q * lo
            flo = vlo.numerator // vlo.denominator
            fhi = vhi.numerator // vhi.denominator
            if flo == fhi:
                return flo
            k *= 2  # value is irrational, so a separating bracket exists

    def mod1(self) -> "Scalar":
        return self - self.floor()

    def rational_bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, width <= |q| * 2**-k."""
        if self.q == 0:
            return self.p, self.p
        lo, hi = self.tag.bounds(k)
        if self.q > 0:
            return self.p + self.q * lo, self.p + self.q * hi
        return self.p + self.q * hi, self.p + self.q * lo

    def to_decimal(self, digits: int) -> str:
        """Fixed-point decimal, round toward zero, correct to `digits`."""
        if digits < 1:
            raise ValueError("digits must be positive")
        scale = 10 ** digits
        if self.q == 0:
            v = self.p * scale
            t = abs(v.numerator) // v.denominator
        else:
            # the value is irrational so value*scale is never an integer;
            # refine until the truncation is pinned down
            k = 8
            while True:
                lo, hi = self.rational_bracket(k)
                tlo = abs(lo.numerator * scale) // lo.denominator
                thi = abs(hi.numerator * scale) // hi.denominator
                if lo >= 0 and tlo == thi:
                    t = tlo
                    break
                if hi <= 0 and tlo == thi:
                    t = thi
                    break
                k *= 2
        sign = "-" if self.sign() < 0 else ""
        whole, frac = divmod(t, scale)
        return f"{sign}{whole}.{frac:0{digits}d}"

    def approx(self) -> float:
        lo, hi = self.rational_bracket(64)
        return float((lo + hi) / 2)

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        if self.q == 0:
            return str(self.p)
        if self.q < 0:
            return f"{self.p}-{-self.q}*alpha"
        return f"{self.p}+{self.q}*alpha"

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


ZERO = Scalar(0)
ONE = Scalar(1)


def parse_scalar(text: str, tag: Optional[IrrationalTag] = None) -> Scalar:
    """Parse the canonical text form produced by ``Scalar.to_text``."""
    s = text.strip()
    if "alpha" in s:
        if tag is None:
            raise ValueError(f"scalar {text!r} uses alpha but no tag was given")
        body = s[: s.rindex("*")] if s.endswith("*alpha") else None
        if body is None:
            raise ValueError(f"malformed scalar {text!r}")
        # split body into p and q at the last +/- that is not inside a fraction
        split = None
        for i in range(len(body) - 1, 0, -1):
            if body[i] in "+-" and body[i - 1] not in "+-/":
                split = i
                break
        if split is None:
            p_part, q_part = "0", body
        else:
            p_part, q_part = body[:split], body[split:]
        q = Fraction(q_part.replace("+", "", 1)) if q_part[0] == "+" else Fraction(q_part)
        return Scalar(Fraction(p_part), q, tag)
    return Scalar(Fraction(s))


# -- operation-style wrappers (value semantics) ------------------------

def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    return a + b


def scalar_cmp(a: Scalar, b: Scalar) -> int:
    """-1, 0 or 1 as a <, ==, > b."""
    return a.cmp(b)


def scalar_mod1(a: Scalar) -> Scalar:
    return a.mod1()


def scalar_to_decimal(a: Scalar, digits: int) -> str:
    return a.to_decimal(digits)


def render(a: Scalar, digits: int = 12) -> str:
    """Report rendering: decimal string, '~'-prefixed when irrational."""
    d = a.to_decimal(digits)
    return f"~{d}" if a.q != 0 else d
