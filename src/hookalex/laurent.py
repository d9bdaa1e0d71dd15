"""Exact arithmetic for integer Laurent polynomials and rational functions in q.

`LaurentPoly` is the universal value type of the engine: every knot invariant
it produces is an honest Laurent polynomial with integer coefficients, and
every intermediate value is one too.  The evaluator's single division of the
vertex sum by its factored denominator goes through `exact_div`, which fails
loudly if the division is not exact.  `RationalFunc` serves only the Schur
oracle (quantum-dimension ratios and the Jacobi-Trudi determinant).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder (internal inconsistency)."""


Scalar = Union[int, Fraction, float]


@dataclass(init=False, frozen=True)
class LaurentPoly:
    """An integer Laurent polynomial, stored as a valuation plus dense coefficients.

    ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``.  Construction
    trims zero coefficients at both ends, so equal polynomials have equal
    representations; the zero polynomial is canonically ``(0, ())``.

    >>> LaurentPoly(-1, (1, 0, 1))
    LaurentPoly('q + q^-1')
    >>> LaurentPoly(2, (0, 0)) == LaurentPoly.zero()
    True
    """

    min_exp: int
    coeffs: tuple[int, ...]

    def __init__(self, min_exp: int, coeffs: Sequence[int]):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            min_exp += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls(0, ())

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls(0, (1,))

    @classmethod
    def constant(cls, n: int) -> LaurentPoly:
        return cls(0, (n,))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> LaurentPoly:
        """The monomial ``coeff * q**exp``."""
        return cls(exp, (coeff,))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,) and self.min_exp == 0

    def degree(self) -> int:
        """Exponent of the highest term (garbage 0 for the zero polynomial)."""
        return self.min_exp + len(self.coeffs) - 1 if self.coeffs else 0

    def coefficient(self, exp: int) -> int:
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.degree(), other.degree())
        out = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp + i - lo] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp + i - lo] += c
        return LaurentPoly(lo, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly(self.min_exp, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return LaurentPoly(self.min_exp + other.min_exp, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if len(self.coeffs) == 1 and self.coeffs[0] in (1, -1):
                return LaurentPoly.monomial(self.coeffs[0], -self.min_exp) ** (-n)
            raise ValueError("negative power of a non-unit Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions and evaluation ---------------------------------------

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by ``q**k``."""
        return LaurentPoly(self.min_exp + k, self.coeffs)

    def substitute_power(self, k: int) -> LaurentPoly:
        """Substitute q -> q**k, scaling every exponent by k (k >= 1).

        >>> LaurentPoly(-2, (1, 0, -1, 0, 1)).substitute_power(3)
        LaurentPoly('q^6 - 1 + q^-6')
        """
        if k < 1:
            raise ValueError(f"substitution power must be >= 1, got {k}")
        if k == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return LaurentPoly(self.min_exp * k, out)

    def invert_variable(self) -> LaurentPoly:
        """Substitute q -> q**-1."""
        return LaurentPoly(-self.degree(), tuple(reversed(self.coeffs)))

    def evaluate(self, q: Scalar) -> Scalar:
        """Evaluate at a nonzero number; exact when ``q`` is int or Fraction."""
        if isinstance(q, int):
            q = Fraction(q)
        acc = 0
        for exp in range(self.degree(), self.min_exp - 1, -1):
            acc = acc * q + self.coefficient(exp)
        return acc * q ** self.min_exp

    def at_one(self) -> int:
        return sum(self.coeffs)

    def summary(self) -> str:
        """A bounded description for error messages: exponents, lead term, coefficient size."""
        if self.is_zero():
            return "0"
        lead = self.coeffs[-1]
        if abs(lead).bit_length() > 64:
            lead = f"{'-' if lead < 0 else ''}<{abs(lead).bit_length()}-bit>"
        bits = max(abs(c).bit_length() for c in self.coeffs)
        return (f"exponents {self.min_exp}..{self.degree()}, lead {lead}q^{self.degree()}, "
                f"{bits}-bit coefficients")

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.to_text()}')"

    def to_text(self) -> str:
        """Render as monomials in descending exponent, e.g. ``q^2 - 1 + q^-2``."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for exp in range(self.degree(), self.min_exp - 1, -1):
            c = self.coefficient(exp)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "q" if exp == 1 else f"q^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    _TERM = re.compile(r"([+-]?)(\d+)?(q(?:\^(-?\d+))?)?")

    @classmethod
    def from_text(cls, text: str) -> LaurentPoly:
        """Parse the ``to_text`` format back into a polynomial."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        terms: dict[int, int] = {}
        pos = 0
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if m is None or m.end() == pos or (m.group(2) is None and m.group(3) is None):
                raise ValueError(f"malformed polynomial text at {s[pos:]!r}")
            sign = -1 if m.group(1) == "-" else 1
            coeff = int(m.group(2)) if m.group(2) is not None else 1
            if m.group(3) is None:
                exp = 0
            elif m.group(4) is None:
                exp = 1
            else:
                exp = int(m.group(4))
            terms[exp] = terms.get(exp, 0) + sign * coeff
            pos = m.end()
        if not terms:
            return cls.zero()
        lo, hi = min(terms), max(terms)
        return cls(lo, [terms.get(e, 0) for e in range(lo, hi + 1)])

    def to_json_dict(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> LaurentPoly:
        return cls(int(data["min_exp"]), [int(c) for c in data["coeffs"]])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> LaurentPoly:
        return cls.from_json_dict(json.loads(text))


def qnum(n: int) -> LaurentPoly:
    """The q-number [n] = q^(n-1) + q^(n-3) + ... + q^(1-n), for n >= 1.

    >>> qnum(4)
    LaurentPoly('q^3 + q + q^-1 + q^-3')
    """
    if n < 1:
        raise ValueError(f"q-number index must be >= 1, got {n}")
    return LaurentPoly(1 - n, tuple(1 if i % 2 == 0 else 0 for i in range(2 * n - 1)))


def qnum_bullet(n: int, base: int) -> LaurentPoly:
    """The q-number [n] with q replaced by q**base.

    Equals (q^(n*base) - q^(-n*base)) / (q^base - q^(-base)); ``base`` is the
    box count of the hook coloring the strands.
    """
    if base < 1:
        raise ValueError(f"substitution power must be >= 1, got {base}")
    return qnum(n).substitute_power(base)


def _not_divisible(num: LaurentPoly, den: LaurentPoly) -> InexactDivisionError:
    return InexactDivisionError(f"({num.summary()}) is not divisible by ({den.summary()})")


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Divide ``num`` by ``den`` in the Laurent ring, requiring zero remainder.

    Raises :class:`InexactDivisionError` when ``den`` does not divide ``num``
    over the integers; division by zero raises :class:`ZeroDivisionError`.

    >>> exact_div(LaurentPoly(-3, (1, 0, 0, 0, 0, 0, 1)), qnum(2))
    LaurentPoly('q^2 - 1 + q^-2')
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    a = list(num.coeffs)
    b = den.coeffs
    top = len(b) - 1
    if len(a) <= top:
        raise _not_divisible(num, den)
    lower = [(j, bc) for j, bc in enumerate(b[:top]) if bc]
    quo = [0] * (len(a) - top)
    for i in range(len(quo) - 1, -1, -1):
        c, rem = divmod(a[i + top], b[top])
        if rem:
            raise _not_divisible(num, den)
        quo[i] = c
        if c:
            for j, bc in lower:
                a[i + j] -= c * bc
    if any(a[:top]):
        raise _not_divisible(num, den)
    return LaurentPoly(num.min_exp - den.min_exp, quo)


@dataclass(init=False, frozen=True, eq=False)
class RationalFunc:
    """A quotient of integer Laurent polynomials with a nonzero denominator.

    Normalization strips common monomial factors and integer content and makes
    the denominator's leading coefficient positive; full gcd reduction is not
    performed, so equality goes through cross-multiplication.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LaurentPoly.one()):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = LaurentPoly.zero(), LaurentPoly.one()
        else:
            drop = min(num.min_exp, den.min_exp)
            num, den = num.shift(-drop), den.shift(-drop)
            g = math.gcd(num.content(), den.content())
            if g > 1:
                num = LaurentPoly(num.min_exp, tuple(c // g for c in num.coeffs))
                den = LaurentPoly(den.min_exp, tuple(c // g for c in den.coeffs))
            if den.leading_coefficient() < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> RationalFunc:
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> RationalFunc:
        return cls(LaurentPoly.one())

    @classmethod
    def from_int(cls, n: int) -> RationalFunc:
        return cls(LaurentPoly.constant(n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations ------------------------------------------------------

    def __add__(self, other: RationalFunc | LaurentPoly | int) -> RationalFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RationalFunc:
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other: RationalFunc | LaurentPoly | int) -> RationalFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalFunc | LaurentPoly | int) -> RationalFunc:
        return (-self) + other

    def __mul__(self, other: RationalFunc | LaurentPoly | int) -> RationalFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> RationalFunc:
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunc(self.den, self.num)

    def __truediv__(self, other: RationalFunc | LaurentPoly | int) -> RationalFunc:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: RationalFunc | LaurentPoly | int) -> RationalFunc:
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int) -> RationalFunc:
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunc(self.num ** n, self.den ** n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = _coerce(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # cross-multiplied equality is incompatible with hashing

    # -- extraction ------------------------------------------------------------

    def as_laurent(self) -> LaurentPoly:
        """Extract an exact polynomial quotient; raises if division is inexact."""
        return exact_div(self.num, self.den)

    def evaluate(self, q: Scalar) -> Scalar:
        """Evaluate at a nonzero number; exact when ``q`` is int or Fraction."""
        return self.num.evaluate(q) / self.den.evaluate(q)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunc('{self}')"


def _coerce(value: RationalFunc | LaurentPoly | int):
    if isinstance(value, RationalFunc):
        return value
    if isinstance(value, LaurentPoly):
        return RationalFunc(value)
    if isinstance(value, int):
        return RationalFunc.from_int(value)
    return NotImplemented
