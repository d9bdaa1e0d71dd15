"""Exact arithmetic for integer Laurent polynomials in q.

`LaurentPoly` is the one value type of the engine: every knot invariant it
produces is an honest Laurent polynomial with integer coefficients, and every
intermediate value is one too, down to the crossing eigenvalues and the
framing factor, signed monomials ``+-q^e`` whose powers ``**`` takes in closed
form (negative ones included).  It is stored strided, as
``q**min_exp * p(q**step)`` with ``step`` the gcd of its exponent gaps, so
polynomials in ``q**N`` (colored invariants, bullet q-numbers) carry no runs
of zeros.  `poly_sum` is the one addition routine: it adds any number of
polynomials in one pass at their common step, and ``+`` calls it on two.
The evaluator's single division of the vertex sum by its factored
denominator goes through `exact_div`, which fails loudly if the division is
not exact; it runs on packed ints too.  `pack` and `unpack` map a
polynomial in q**step to its value at q**step = 2**width and back
(Kronecker substitution); the operator product runs on such packed ints and
decodes its result once, each coefficient at its own size.  At a
machine-word width (8, 16, 32 or 64 bits) `pack_digits` and `unpack_digits`
convert between an int and its whole digit list in one ``array`` call, and
at any other width one digit per call.  `exact_div` and `power_product`,
which each pack once at a width of their own choosing, round a width of at
most 64 bits up to 16, 32 or 64 bits so that their digits take that path;
the operator product keeps its least width, since every letter reuses its
ints.
`LaurentPoly.substitute_neg_inverse` (q -> -q**-1) gives the evaluator the
traces of its mirrored vertices.  `unit_normalize` brings a result to the
canonical form that both the evaluator and the Burau oracle return.  `det`
is the one determinant routine, Bareiss elimination over any ring with an
exact division: the Burau oracle runs it on packed ints, and the tests'
Jacobi-Trudi check on `Fraction` values.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from operator import add
from typing import Callable, Sequence, TypeVar


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder (internal inconsistency)."""


class NormalizationError(ArithmeticError):
    """The assembled polynomial is not a unit multiple of a centered, monic-at-1 one."""


Ring = TypeVar("Ring")


@dataclass(init=False, frozen=True, slots=True)
class LaurentPoly:
    """An integer Laurent polynomial ``q**min_exp * p(q**step)``.

    ``terms[i]`` is the coefficient of ``q**(min_exp + i * step)``, and
    ``step`` is the gcd of the gaps between the exponents of the nonzero
    terms (1 for at most one term).  A polynomial in ``q**N`` times a monomial,
    such as a bullet q-number or a colored invariant, therefore stores no
    zeros between its terms.  Construction takes dense coefficients, trims
    zeros at both ends and takes that gcd, so equal polynomials have equal
    representations; the zero polynomial is canonically ``(0, 1, ())``.
    ``coeffs`` gives the dense coefficients back.

    >>> LaurentPoly(-1, (1, 0, 1))
    LaurentPoly('q + q^-1')
    >>> p = LaurentPoly(-2, (1, 0, 0, 0, -3))
    >>> p.step, p.terms, p.coeffs
    (4, (1, -3), (1, 0, 0, 0, -3))
    >>> LaurentPoly(2, (0, 0)) == LaurentPoly.zero()
    True
    """

    min_exp: int
    step: int
    terms: tuple[int, ...]

    def __init__(self, min_exp: int, coeffs: Sequence[int]):
        _assign(self, min_exp, 1, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _raw(0, 1, ())

    @classmethod
    def one(cls) -> LaurentPoly:
        return _raw(0, 1, (1,))

    @classmethod
    def constant(cls, n: int) -> LaurentPoly:
        return cls.monomial(n, 0)

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> LaurentPoly:
        """The monomial ``coeff * q**exp``."""
        return _raw(exp, 1, (coeff,)) if coeff else _raw(0, 1, ())

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficients: ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``."""
        return tuple(_spread(self.terms, self.step))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == (1,) and self.min_exp == 0

    def degree(self) -> int:
        """Exponent of the highest term (garbage 0 for the zero polynomial)."""
        return self.min_exp + (len(self.terms) - 1) * self.step if self.terms else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return poly_sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _raw(self.min_exp, self.step, tuple([-c for c in self.terms]))

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
            if other == 1:
                return self
            if other == 0:
                return LaurentPoly.zero()
            return _raw(self.min_exp, self.step, tuple([c * other for c in self.terms]))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        p, mono = (other, self) if len(self.terms) == 1 else (self, other)
        if len(mono.terms) == 1:  # a scaled shift keeps p's step and terms
            c = mono.terms[0]
            terms = p.terms if c == 1 else tuple([x * c for x in p.terms])
            return _raw(p.min_exp + mono.min_exp, p.step, terms)
        step = math.gcd(self.step, other.step)
        a = _spread(self.terms, self.step // step)
        b = _spread(other.terms, other.step // step)
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return _build(self.min_exp + other.min_exp, step, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        """``self**n``; a one-term base ``c q^e`` gives ``c**n q^(e n)`` in closed form.

        A negative ``n`` needs a unit base ``+-q^e``; any other base is raised
        by :func:`power_product`.

        >>> LaurentPoly.monomial(-1, 3) ** -3
        LaurentPoly('-q^-9')
        """
        if n < 0 and not (len(self.terms) == 1 and self.terms[0] in (1, -1)):
            raise ValueError("negative power of a non-unit Laurent polynomial")
        if len(self.terms) == 1:  # closed form, so no product grows with n
            return _raw(self.min_exp * n, 1, (self.terms[0] ** abs(n),))
        return power_product([(self, n)])

    # -- substitutions and evaluation ---------------------------------------

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by ``q**k``."""
        if self.is_zero():
            return self
        return _raw(self.min_exp + k, self.step, self.terms)

    def substitute_power(self, k: int) -> LaurentPoly:
        """Substitute q -> q**k, scaling every exponent by k (k >= 1).

        >>> LaurentPoly(-2, (1, 0, -1, 0, 1)).substitute_power(3)
        LaurentPoly('q^6 - 1 + q^-6')
        """
        if k < 1:
            raise ValueError(f"substitution power must be >= 1, got {k}")
        if k == 1 or self.is_zero():
            return self
        step = self.step * k if len(self.terms) > 1 else 1
        return _raw(self.min_exp * k, step, self.terms)

    def substitute_neg_inverse(self) -> LaurentPoly:
        """Substitute q -> -q**-1, the transposition symmetry of one-hook colors.

        The terms are reversed, and the term at an odd exponent changes sign:
        reversed term ``j`` sits at ``-(top - j * step)``, odd when ``top + j *
        step`` is.  The result is again canonical.

        >>> LaurentPoly(-1, (2, 3, 0, 5)).substitute_neg_inverse()
        LaurentPoly('-2q + 3 + 5q^-2')
        >>> qnum_bullet(2, 3).substitute_neg_inverse()
        LaurentPoly('-q^3 - q^-3')
        """
        if self.is_zero():
            return self
        top, step = self.degree(), self.step
        return _raw(-top, step, tuple([-c if (top + j * step) % 2 else c
                                       for j, c in enumerate(self.terms[::-1])]))

    def at_one(self) -> int:
        return sum(self.terms)

    def summary(self) -> str:
        """A bounded description for error messages: exponents, lead term, coefficient size."""
        if self.is_zero():
            return "0"
        lead = self.terms[-1]
        if abs(lead).bit_length() > 64:
            lead = f"{'-' if lead < 0 else ''}<{abs(lead).bit_length()}-bit>"
        bits = max(abs(c).bit_length() for c in self.terms)
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
        for i in range(len(self.terms) - 1, -1, -1):
            c = self.terms[i]
            if c == 0:
                continue
            exp = self.min_exp + i * self.step
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

    def to_json_dict(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": list(self.coeffs)}


# Tuples here are built from lists, never from generators: a tuple built from a
# generator (or unpacked from one into arguments) is allocated at one size and
# freed at another, which fills CPython's small-tuple free lists and, over a
# long run, holds on to memory.

def _raw(min_exp: int, step: int, terms: tuple[int, ...]) -> LaurentPoly:
    """A polynomial from fields already in canonical form."""
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "min_exp", min_exp)
    object.__setattr__(p, "step", step)
    object.__setattr__(p, "terms", terms)
    return p


def _assign(p: LaurentPoly, min_exp: int, step: int, seq: Sequence[int]) -> None:
    """Set ``p`` to ``sum seq[i] q**(min_exp + i * step)`` in canonical form."""
    lo, hi = 0, len(seq)
    while lo < hi and seq[lo] == 0:
        lo += 1
    while lo < hi and seq[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        min_exp, step, terms = 0, 1, ()
    elif hi - lo == 1:
        min_exp, step, terms = min_exp + lo * step, 1, (seq[lo],)
    else:
        gap = 1 if seq[lo + 1] else math.gcd(*[i - lo for i in range(lo + 1, hi) if seq[i]])
        min_exp, step, terms = min_exp + lo * step, step * gap, tuple(seq[lo:hi:gap])
    object.__setattr__(p, "min_exp", min_exp)
    object.__setattr__(p, "step", step)
    object.__setattr__(p, "terms", terms)


def _build(min_exp: int, step: int, seq: Sequence[int]) -> LaurentPoly:
    """The canonical ``sum seq[i] q**(min_exp + i * step)``."""
    p = object.__new__(LaurentPoly)
    _assign(p, min_exp, step, seq)
    return p


def _spread(terms: Sequence[int], stride: int) -> Sequence[int]:
    """``terms`` with ``stride - 1`` zeros between neighbours."""
    if stride == 1:
        return terms
    out = [0] * ((len(terms) - 1) * stride + 1)
    out[::stride] = terms
    return out


def poly_sum(polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """The sum of ``polys``, added in one pass into one buffer at their common step.

    The buffer's step is the gcd of the summands' steps (a monomial has
    none) and of the gaps between their lowest exponents, so every term has
    a slot; the canonical result is built from it once.

    >>> poly_sum([qnum(3), -qnum_bullet(2, 2), LaurentPoly.monomial(2, 1)])
    LaurentPoly('2q + 1')
    """
    polys = [p for p in polys if p.terms]
    if not polys:
        return LaurentPoly.zero()
    lo = min([p.min_exp for p in polys])
    step = math.gcd(*[p.step if len(p.terms) > 1 else 0 for p in polys],
                    *[p.min_exp - lo for p in polys]) or 1
    out = [0] * ((max([p.degree() for p in polys]) - lo) // step + 1)
    for p in polys:
        start, stride = (p.min_exp - lo) // step, p.step // step or 1
        stop = start + (len(p.terms) - 1) * stride + 1
        out[start:stop:stride] = map(add, out[start:stop:stride], p.terms)
    return _build(lo, step, out)


def qnum(n: int) -> LaurentPoly:
    """The q-number [n] = q^(n-1) + q^(n-3) + ... + q^(1-n), for n >= 1.

    >>> qnum(4)
    LaurentPoly('q^3 + q + q^-1 + q^-3')
    """
    if n < 1:
        raise ValueError(f"q-number index must be >= 1, got {n}")
    return _raw(1 - n, 2 if n > 1 else 1, (1,) * n)


def qnum_bullet(n: int, base: int) -> LaurentPoly:
    """The q-number [n] with q replaced by q**base.

    Equals (q^(n*base) - q^(-n*base)) / (q^base - q^(-base)); ``base`` is the
    box count of the hook coloring the strands, at least 1.
    """
    return qnum(n).substitute_power(base)


# -- Kronecker substitution ------------------------------------------------------
#
# Evaluating at q**step = 2**width maps Z[q**step] into Z as a ring
# homomorphism, so sums and products of packed polynomials are plain int sums
# and products.  The image is decodable when every coefficient of the result
# is below 2**(width - 1) in absolute value: the coefficients are then its
# balanced base-2**width digits.  Packing a polynomial in q**step at that step
# leaves out the step - 1 zero digits between its terms.

# The signed array typecodes by item size in bytes: digits of 1, 2, 4 or 8
# bytes are converted by one ``array`` call.  An array holds its words in the
# host's byte order, so a big-endian host swaps them to the little-endian
# order of the packed int's bytes.
_WORD_CODES = {array(code).itemsize: code for code in "bhilq"}
_BIG_ENDIAN = sys.byteorder == "big"


def packing_width(bound: int) -> int:
    """The least multiple of 8 bits whose signed digits hold every integer up to ``bound``."""
    return 8 * ((bound.bit_length() + 8) // 8)


def _word_width(bound: int) -> int:
    """A width that holds every integer up to ``bound``, in machine words up to 64 bits.

    :func:`packing_width`, rounded up to 16, 32 or 64 bits when it is at
    most 64, so that the digits take the one-call path of
    :func:`pack_digits` and :func:`unpack_digits`; wider widths are kept.
    """
    width = packing_width(bound)
    return width if width > 64 else max(16, 1 << (width - 1).bit_length())


def pack(p: LaurentPoly, width: int, step: int = 1) -> int:
    """The value of ``q**-p.min_exp * p`` at ``q**step = 2**width``.

    ``width`` is a multiple of 8, ``step`` divides every exponent gap of
    ``p``, and every coefficient is below ``2**(width - 1)`` in absolute
    value: each caller proves that its width holds them.  The coefficients
    are laid out as digits of bytes by :func:`pack_digits` and read as one
    int, in time linear in its size.  A larger coefficient raises
    :class:`OverflowError`.

    >>> pack(LaurentPoly(-1, (3, 0, -1)), 8) == 3 - 2**16
    True
    >>> pack(LaurentPoly(-1, (3, 0, -1)), 8, 2) == 3 - 2**8
    True
    """
    return pack_digits(_spread(p.terms, p.step // step) if len(p.terms) > 1 else p.terms, width)


def pack_digits(digits: Sequence[int], width: int) -> int:
    """``sum digits[i] * 2**(i * width)``, each digit below ``2**(width - 1)`` in absolute value.

    The inverse of :func:`unpack_digits`, up to zero digits at the top.  At
    a machine-word width one ``array`` lays the digits out in two's
    complement; flipping each digit's top bit (``^ bias``) biases them, and
    subtracting the bias leaves the balanced sum.  At any other width each
    digit is biased and laid out by its own ``to_bytes``.  Either way a
    digit out of range raises :class:`OverflowError`.
    """
    size = width // 8
    bias = _bias(size, len(digits))
    code = _WORD_CODES.get(size)
    if code is None:
        half = 1 << (width - 1)
        return int.from_bytes(b"".join([(c + half).to_bytes(size, "little") for c in digits]),
                              "little") - bias
    words = array(code, digits)
    if _BIG_ENDIAN:
        words.byteswap()
    return (int.from_bytes(words.tobytes(), "little") ^ bias) - bias


def _bias(size: int, count: int) -> int:
    """``2**(8 * size - 1)`` in each of ``count`` digits of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def unpack(value: int, width: int, min_exp: int, step: int = 1) -> LaurentPoly:
    """The polynomial ``q**min_exp * p(q**step)`` whose ``pack`` at ``width, step`` is ``value``.

    Exact when ``width`` is a multiple of 8 and every coefficient of ``p`` is
    below ``2**(width - 1)`` in absolute value: adding ``2**(width - 1)`` to
    every digit makes all digits nonnegative with no carries, and clearing
    that bit again leaves each digit in two's complement, which one
    ``to_bytes`` pass lays out and :func:`unpack_digits` reads off: one
    ``array`` call at a machine-word width, else a signed ``from_bytes`` per
    digit.  Each coefficient is thus allocated at its own size, not at the
    width's.  The digit count follows from the bit length: the bias of ``n``
    digits lies in ``[2**(width*n - 1), 2**(width*n - 1) * 256/255]``, so
    every ``|value| < 2**(width*n - 2)`` plus the bias is a nonnegative int
    of ``n`` digits.  Any ``value`` thus decodes to the balanced
    base-``2**width`` digits of itself, the top digit perhaps 0.  A value
    just below ``2**(width*n - 1)`` may need ``n + 1`` digits: at width 8
    the digits of ``32765`` are ``-3, -128, 1``.

    >>> unpack(pack(LaurentPoly(-1, (3, 0, -1)), 8), 8, -1)
    LaurentPoly('-q + 3q^-1')
    >>> unpack(3 - 2**8, 8, -1, 2)
    LaurentPoly('-q + 3q^-1')
    """
    return _build(min_exp, step, unpack_digits(value, width))


def unpack_digits(value: int, width: int) -> list[int]:
    """The balanced base-``2**width`` digits of ``value``, lowest first (see :func:`unpack`).

    >>> unpack_digits(3 - 2**16, 8)
    [3, 0, -1]
    """
    size = width // 8
    count = (abs(value).bit_length() + 1) // width + 1
    bias = _bias(size, count)
    raw = ((value + bias) ^ bias).to_bytes(count * size, "little")
    code = _WORD_CODES.get(size)
    if code is None:
        view = memoryview(raw)
        return [int.from_bytes(view[i:i + size], "little", signed=True)
                for i in range(0, count * size, size)]
    words = array(code, raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def power_product(factors: Sequence[tuple[LaurentPoly, int]]) -> LaurentPoly:
    """``prod p**n`` over the ``(p, n)`` in ``factors``, on one packed int per factor.

    Every factor is a polynomial in ``q**g`` up to a monomial, ``g`` the gcd
    of their steps.  Each is packed at ``q**g = 2**w`` and raised to its
    power with ``pow``; the powers are multiplied and the product is decoded
    once.  Every coefficient of the product is at most ``prod ||p||_1**n``,
    since ``||pr||_1 <= ||p||_1 ||r||_1`` and a coefficient is at most its
    polynomial's 1-norm, and ``w`` is a width that holds it: the least one,
    rounded up to a machine word at 64 bits or less.

    >>> power_product([(qnum(2), 2), (qnum_bullet(3, 2), 1)])
    LaurentPoly('q^6 + 2q^4 + 2q^2 + 2 + 2q^-2 + 2q^-4 + q^-6')
    """
    if not factors:
        return LaurentPoly.one()
    width = _word_width(math.prod([sum(map(abs, p.terms)) ** n for p, n in factors]))
    step = math.gcd(*[p.step for p, _ in factors])
    value = math.prod([pow(pack(p, width, step), n) for p, n in factors])
    return unpack(value, width, sum([p.min_exp * n for p, n in factors]), step)


def unit_normalize(p: LaurentPoly) -> LaurentPoly:
    """Multiply by the unit +-q^j giving a symmetric exponent range and value +1 at q=1."""
    if p.is_zero():
        raise NormalizationError("normalization: the polynomial is 0")
    span = p.min_exp + p.degree()
    if span % 2 != 0:
        raise NormalizationError(
            f"normalization: the exponent range of ({p.summary()}) cannot be centered")
    centered = p.shift(-span // 2)
    v = centered.at_one()
    if v == 1:
        return centered
    if v == -1:
        return -centered
    value = v if abs(v).bit_length() <= 64 else f"a {abs(v).bit_length()}-bit integer"
    raise NormalizationError(
        f"normalization: the value at q=1 of ({p.summary()}) is {value}, not a unit")


def _not_divisible(num: LaurentPoly, den: LaurentPoly) -> InexactDivisionError:
    return InexactDivisionError(f"({num.summary()}) is not divisible by ({den.summary()})")


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Divide ``num`` by ``den`` in the Laurent ring, requiring zero remainder.

    Raises :class:`InexactDivisionError` when ``den`` does not divide ``num``
    over the integers; division by zero raises :class:`ZeroDivisionError`.

    The division runs on packed ints: both operands are polynomials in
    ``q**g``, ``g`` the gcd of their steps, up to a monomial, and so is the
    quotient.  Pack both at ``q**g = 2**W``, with ``W`` a width holding
    ``||num||_inf * ||den||_1`` (the least one, rounded up to a machine word
    at 64 bits or less), and take one ``divmod``.  If ``den``
    divides ``num``, the packed ``den`` divides the packed ``num``
    (evaluation is a ring homomorphism), so a nonzero remainder proves the
    division inexact.  Otherwise decode the integer quotient: it is the value
    at ``2**W`` of the polynomial ``quo`` decoded from it (:func:`unpack`).
    If ``||den||_1 * ||quo||_inf < 2**(W - 1)``, the coefficients of ``den *
    quo`` and of ``num`` are all below ``2**(W - 1)`` in absolute value, and
    both take the same value at ``2**W``; they are therefore the same
    balanced digits, and ``den * quo == num``.  A quotient that fails this
    check, which takes coefficients above ``||num||_inf``, goes to the
    schoolbook loop, exact at any size.

    >>> exact_div(LaurentPoly(-3, (1, 0, 0, 0, 0, 0, 1)), qnum(2))
    LaurentPoly('q^2 - 1 + q^-2')
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    step = math.gcd(num.step, den.step)
    den_norm = sum(map(abs, den.terms))
    width = _word_width(max(map(abs, num.terms)) * den_norm)
    value, rem = divmod(pack(num, width, step), pack(den, width, step))
    if rem:
        raise _not_divisible(num, den)
    quo = unpack(value, width, num.min_exp - den.min_exp, step)
    if max(map(abs, quo.terms)) * den_norm < 1 << (width - 1):
        return quo
    return _schoolbook_div(num, den)


def _schoolbook_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """``exact_div`` one coefficient at a time, from the top; exact at any coefficient size."""
    # both are polynomials in q**step up to a monomial, and so is the quotient
    step = math.gcd(num.step, den.step)
    a = list(_spread(num.terms, num.step // step))
    b = _spread(den.terms, den.step // step)
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
    return _build(num.min_exp - den.min_exp, step, quo)


def _exact_int_div(num: int, den: int) -> int:
    quo, rem = divmod(num, den)
    if rem:
        raise InexactDivisionError(f"a {num.bit_length()}-bit integer is not divisible "
                                   f"by a {den.bit_length()}-bit one")
    return quo


def det(mat: Sequence[Sequence[Ring]], divide: Callable[[Ring, Ring], Ring] = _exact_int_div,
        zero: Ring = 0, one: Ring = 1) -> Ring:
    """Determinant over an integral domain by fraction-free (Bareiss) elimination.

    Step k replaces each entry below and right of the pivot by the 2 x 2
    minor with the pivot row and column, divided by the previous pivot; the
    division is exact (Sylvester's identity), so ``divide`` must return the
    exact quotient or raise :class:`InexactDivisionError`, which comes back
    naming the step and the entry.  Every entry stays in the ring, and the
    last one is the determinant.  A zero pivot swaps in a lower row with a
    nonzero entry, flipping the sign; none means the determinant is zero.
    The defaults are the integers; ``exact_div`` with the zero and one of
    `LaurentPoly` gives the polynomial determinant, and true division with
    ``Fraction(0)`` and ``Fraction(1)`` the rational one.

    >>> det([[0, 2, 3], [4, 5, 6], [7, 8, 10]])
    -5
    >>> from fractions import Fraction
    >>> det([[Fraction(1, 2), 1], [Fraction(1, 3), 2]], lambda x, y: x / y,
    ...     Fraction(0), Fraction(1))
    Fraction(2, 3)
    """
    a = [list(r) for r in mat]
    n = len(a)
    sign, prev = 1, one
    try:
        for k in range(n - 1):
            if a[k][k] == zero:
                swap = next((i for i in range(k + 1, n) if a[i][k] != zero), None)
                if swap is None:
                    return zero
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            pivot, top = a[k][k], a[k]
            for i in range(k + 1, n):
                row = a[i]
                lead = row[k]
                for j in range(k + 1, n):
                    row[j] = divide(row[j] * pivot - lead * top[j], prev)
            prev = pivot
    except InexactDivisionError as e:
        raise InexactDivisionError(f"Bareiss step {k}, entry ({i}, {j}): {e}") from None
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]
