"""Exact scalar arithmetic: rationals extended by one formal irrational.

A scalar is a value p + q*alpha with p, q rational and alpha a fixed
quadratic irrational, the root in (0, 1) of x**2 + a*x - 1 = 0.  It is
stored as three integers over one denominator, (n + m*alpha) / d, in a
canonical form, so every operation runs on plain ``int``s.  Signs and
comparisons are decided in closed form by comparing two integers (see
``_sign``), and so is the floor of (u + v*alpha) / z, from one ``isqrt``
(``_floor_of``), which ``to_decimal`` and the integer keys of
``_floor_key`` read.  ``floor`` alone, and ``mod1`` through it, still
refines a rational bracket of alpha (``IrrationalTag.bounds``) until the
floor is pinned down.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

from .errors import IncompatibleBasisError, InvalidInputError

RationalLike = Union[int, Fraction]


class IrrationalTag:
    """A certified irrational alpha = (sqrt(a*a + 4) - a) / 2, a >= 1.

    alpha is the positive root of x**2 + a*x - 1 = 0, with continued
    fraction [0; a, a, a, ...], and ``Scalar.cmp`` decides order from ``_a``
    alone.  ``bounds(k)`` serves only ``Scalar.floor``, and so ``mod1``;
    ``to_decimal`` rounds in closed form (``_floor_of``).  It yields a
    rational interval [l, u] holding alpha strictly, with u - l =
    2**-(j+1) for j = max(k, 0).  It is read off s = isqrt((a*a + 4) *
    4**j), since s < sqrt(a*a + 4) * 2**j < s + 1 (a*a + 4 is never a
    square), and the brackets are nested in k because the next s is 2*s or
    2*s + 1.  Each bracket is kept once computed, per k.
    """

    def __init__(self, name: str, a: int):
        if a < 1:
            raise ValueError("a must be >= 1")
        self.name = name
        self._a = a
        self._bounds: dict[int, tuple[Fraction, Fraction]] = {}

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        """Rational bracket [l, u] containing alpha with u - l <= 2**-k."""
        found = self._bounds.get(k)
        if found is None:
            a, j = self._a, max(k, 0)
            s = isqrt((a * a + 4) << 2 * j)
            shift, den = a << j, 2 << j
            found = self._bounds[k] = (Fraction(s - shift, den),
                                       Fraction(s + 1 - shift, den))
        return found

    def __reduce__(self):
        # tags compare by identity, so a copy of a built-in tag is the tag
        if TAGS.get(self.name) is self:
            return get_tag, (self.name,)
        return IrrationalTag, (self.name, self._a)

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


def _sign(u: int, v: int, a: int) -> int:
    """Sign of u + v*alpha, alpha the positive root of x**2 + a*x - 1.

    alpha = (sqrt(a*a + 4) - a) / 2, so 2*(u + v*alpha) = w + v*sqrt(a*a + 4)
    with w = 2*u - a*v.  When w and v disagree in sign the larger of w**2 and
    v**2 * (a*a + 4) wins; they never tie, since a*a + 4 is not a square.
    """
    w = 2 * u - a * v
    if v > 0:
        return 1 if w >= 0 or v * v * (a * a + 4) > w * w else -1
    if v < 0:
        return -1 if w <= 0 or v * v * (a * a + 4) > w * w else 1
    return (w > 0) - (w < 0)


def _floor_of(u: int, v: int, a: int, z: int) -> int:
    """floor((u + v*alpha) / z) for z > 0, alpha as in ``_sign``.

    (u + v*alpha) / z = (w + v*sqrt(a*a + 4)) / (2*z) with w = 2*u - a*v.
    r = isqrt(v*v * (a*a + 4)) is the floor of |v| * sqrt(a*a + 4), which
    is irrational when v != 0, so the floor F of v * sqrt(a*a + 4) is r for
    v >= 0 (r = 0 for v == 0) and -r - 1 for v < 0.  The fraction that F
    drops is less than 1, so (w + F) // (2*z) is the floor of the whole.
    """
    r = isqrt(v * v * (a * a + 4))
    return (2 * u - a * v + (r if v >= 0 else -r - 1)) // (2 * z)


def _floor_key(u: int, v: int, a: int) -> int:
    """floor(2**62 * (u + v*alpha)), alpha as in ``_sign``."""
    return _floor_of(u << 62, v << 62, a, 1)


class Scalar:
    """Exact value p + q*alpha, stored as (n + m*alpha) / d in integers.

    Immutable and canonical: d > 0, gcd(n, m, d) == 1, and m == 0 => no
    tag, so equal values have equal fields.  The constructor takes the
    rational parts p and q as ``int`` or ``Fraction`` and raises
    ``TypeError`` on anything else: a float would be taken at its binary
    value, and text is read by ``parse_scalar`` alone.  ``p`` and ``q``
    read the parts back as ``Fraction``s.  Those properties allocate, so
    library code reads ``n``, ``m`` and ``d``, and builds scalars from
    integers only through ``_make``.
    """

    __slots__ = ("n", "m", "d", "tag")

    def __init__(self, p: RationalLike, q: RationalLike = 0,
                 tag: Optional[IrrationalTag] = None):
        if not (isinstance(p, (int, Fraction))
                and isinstance(q, (int, Fraction))):
            raise TypeError(f"scalar parts {p!r}, {q!r} must be int or "
                            "Fraction")
        if q == 0:
            tag = None
        elif tag is None:
            raise ValueError("nonzero irrational coefficient requires a tag")
        # over the lcm of two reduced denominators no common factor is left
        pd, qd = p.denominator, q.denominator
        d = pd // gcd(pd, qd) * qd
        self.n = p.numerator * (d // pd)
        self.m = q.numerator * (d // qd)
        self.d = d
        self.tag = tag

    @property
    def p(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def q(self) -> Fraction:
        return Fraction(self.m, self.d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        tag = _merge_tags(self.tag, other.tag)
        d, od = self.d, other.d
        return _make(self.n * od + other.n * d, self.m * od + other.m * d,
                     d * od, tag)

    __radd__ = __add__

    def __sub__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        tag = _merge_tags(self.tag, other.tag)
        d, od = self.d, other.d
        return _make(self.n * od - other.n * d, self.m * od - other.m * d,
                     d * od, tag)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return _make(-self.n, -self.m, self.d, self.tag)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        tag = _merge_tags(self.tag, other.tag)
        n, m, on, om = self.n, self.m, other.n, other.m
        # k*alpha**2 = k - a*k*alpha, since alpha**2 = 1 - a*alpha
        k = m * om
        a = tag._a if k else 0
        return _make(n * on + k, n * om + m * on - a * k, self.d * other.d,
                     tag)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        on, om, od = other.n, other.m, other.d
        if not (on or om):
            raise ZeroDivisionError("scalar division by zero")
        # (on + om*alpha) * ((on - a*om) - om*alpha) is the norm
        # on**2 - a*on*om - om**2, an integer that is nonzero because alpha
        # is irrational; its sign moves to the numerator
        a = other.tag._a if om else 0
        norm = on * on - a * on * om - om * om
        if norm < 0:
            norm, od = -norm, -od
        return self * _make(od * (on - a * om), -od * om, norm, other.tag)

    # -- comparisons --------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1."""
        return self.cmp(ZERO)

    def cmp(self, other) -> int:
        """-1, 0 or 1 as self <, ==, > other, in integer arithmetic only."""
        if isinstance(other, Scalar):
            on, om, od, otag = other.n, other.m, other.d, other.tag
        elif isinstance(other, int):
            on, om, od, otag = other, 0, 1, None
        elif isinstance(other, Fraction):
            on, om, od, otag = other.numerator, 0, other.denominator, None
        else:
            raise TypeError(f"cannot interpret {other!r} as a scalar")
        # self - other = (u + v*alpha) / (d * od) with d * od > 0
        d = self.d
        u = self.n * od - on * d
        if self.tag is None and otag is None:
            return (u > 0) - (u < 0)
        a = _merge_tags(self.tag, otag)._a
        return _sign(u, self.m * od - om * d, a)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = Scalar(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return (self.n == other.n and self.m == other.m
                and self.d == other.d and self.tag is other.tag)

    def __lt__(self, other) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self.cmp(other) >= 0

    def __hash__(self):
        if self.m == 0:
            # equal to the hash of the equal int or Fraction
            return hash(self.n) if self.d == 1 else hash(self.p)
        return hash((self.n, self.m, self.d, id(self.tag)))

    def __bool__(self) -> bool:
        return self.n != 0 or self.m != 0

    # -- rounding and rendering ---------------------------------------

    def floor(self) -> int:
        """Largest integer <= the value; the only code that refines alpha."""
        x, y, z = self.n, self.m, self.d
        if y == 0:
            return x // z
        # the value at a rational a/b in place of alpha is
        # (x*b + y*a) / (z*b), which is monotone in a/b, so equal floors at
        # both ends of a bracket pin the floor down
        k = 8
        while True:
            lo, hi = self.tag.bounds(k)
            f = (x * lo.denominator + y * lo.numerator) // (z * lo.denominator)
            if f == ((x * hi.denominator + y * hi.numerator)
                     // (z * hi.denominator)):
                return f
            k *= 2  # value is irrational, so a separating bracket exists

    def mod1(self) -> "Scalar":
        return self - self.floor()

    def to_decimal(self, digits: int) -> str:
        """Fixed-point decimal, round toward zero, correct to `digits`."""
        if digits < 1:
            raise ValueError("digits must be positive")
        scale = 10 ** digits
        negative = self.sign() < 0
        n, m = (-self.n, -self.m) if negative else (self.n, self.m)
        if m == 0:
            t = n * scale // self.d
        else:
            # value*scale is irrational, so its floor is its truncation
            t = _floor_of(n * scale, m * scale, self.tag._a, self.d)
        whole, frac = divmod(t, scale)
        return f"{'-' if negative else ''}{whole}.{frac:0{digits}d}"

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        """``p``, ``p+q*alpha`` or ``p-|q|*alpha``, each part written as
        ``str`` writes a ``Fraction``."""
        return _text(self.n, self.m, self.d)

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


def _make(n: int, m: int, d: int, tag: Optional[IrrationalTag]) -> Scalar:
    """The scalar (n + m*alpha) / d for d > 0, put in canonical form."""
    g = gcd(n, m, d)
    if g != 1:
        n //= g
        m //= g
        d //= g
    s = object.__new__(Scalar)
    s.n = n
    s.m = m
    s.d = d
    s.tag = tag if m else None
    return s


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction; an
    ``InvalidInputError`` when ``str`` refuses a part for its length."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError as exc:
        raise InvalidInputError(
            "an exact value has too many digits to write as text") from exc


def _text(n: int, m: int, d: int) -> str:
    """``Scalar.to_text`` of (n + m*alpha) / d, in lowest terms or not."""
    p = _ratio_text(n, d)
    if m == 0:
        return p
    if m < 0:
        return f"{p}-{_ratio_text(-m, d)}*alpha"
    return f"{p}+{_ratio_text(m, d)}*alpha"


def _coerce(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


ZERO = Scalar(0)
ONE = Scalar(1)


#: a rational written as an integer or a ratio of integers: "3", "-1/2"
_RATIO = re.compile(r"([+-]?\d+)(?:/(\d+))?")

#: p + q*alpha with either part optional and q defaulting to 1: "alpha",
#: "-alpha", "1-alpha", "2*alpha", "1/2+alpha", "1/2-3/4*alpha"
_LINEAR = re.compile(r"(?:(?P<p>[+-]?\d[\d./]*)\s*(?=[+-]))?"
                     r"(?P<sign>[+-]?)\s*(?:(?P<q>\d[\d./]*)\s*\*\s*)?alpha")


def _ratio(text: str) -> tuple[int, int]:
    """(n, d) with d > 0 for a rational text: integers straight from
    ``n`` or ``n/d``, and ``Fraction`` for any other form (``0.5``,
    ``1e-3``); a ``ValueError`` on a zero denominator."""
    m = _RATIO.fullmatch(text)
    if m and (d := int(m[2] or 1)):
        return int(m[1]), d
    try:
        return Fraction(text).as_integer_ratio()
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parts(text: str, tag: Optional[IrrationalTag]) -> tuple[int, int, int]:
    """(n, m, d) with d > 0 for the value (n + m*alpha) / d that `text`
    writes, not necessarily in lowest terms: the grammar of scalar text."""
    s = text.strip()
    if "alpha" not in s:
        n, d = _ratio(s)
        return n, 0, d
    if tag is None:
        raise ValueError(f"scalar {text!r} uses alpha but no tag was given")
    m = _LINEAR.fullmatch(s)
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    pn, pd = _ratio(m["p"] or "0")
    qn, qd = _ratio(m["q"] or "1")
    if m["sign"] == "-":
        qn = -qn
    return pn * qd, qn * pd, pd * qd


def parse_scalar(text: str, tag: Optional[IrrationalTag] = None) -> Scalar:
    """Parse a rational, or a linear form in alpha such as ``1/2-alpha``;
    the text of ``Scalar.to_text`` round-trips."""
    return _make(*_parts(text, tag), tag)


def render(a: Scalar, digits: int = 12) -> str:
    """Report rendering: decimal string, '~'-prefixed when irrational."""
    d = a.to_decimal(digits)
    return f"~{d}" if a.m != 0 else d
