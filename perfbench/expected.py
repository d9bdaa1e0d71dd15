"""Expected answers that do not come from the engine under test.

Polynomials are compared in the engine's JSON form ``{"min_exp", "coeffs"}``
(``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``), computed here
with plain integer lists so that no check reuses the engine's arithmetic.
"""

from __future__ import annotations

import hashlib
import json


def digest(poly: dict) -> str:
    """Fingerprint of a polynomial's canonical JSON; equal iff bit-identical."""
    text = json.dumps(poly, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:32]


def substitute_power(poly: dict, k: int) -> dict:
    """``q -> q**k`` on a polynomial in JSON form, the scaling identity's right side.

    >>> substitute_power({"min_exp": -1, "coeffs": [1, 0, 1]}, 3)
    {'min_exp': -3, 'coeffs': [1, 0, 0, 0, 0, 0, 1]}
    """
    coeffs = poly["coeffs"]
    if not coeffs:
        return {"min_exp": 0, "coeffs": []}
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return {"min_exp": poly["min_exp"] * k, "coeffs": out}


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _div_monic(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (ascending coefficients), ``den`` monic."""
    rem = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        quo[i] = c
        for j, d in enumerate(den):
            rem[i + j] -= c * d
    if any(rem):
        raise ArithmeticError("torus closed form did not divide exactly")
    return quo


def _power_minus_one(n: int) -> list[int]:
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(p: int, r: int) -> dict:
    """``T(p, r)``'s polynomial ``(t^pr - 1)(t - 1) / ((t^p - 1)(t^r - 1))`` at ``t = q^2``.

    The result is centered and has value 1 at ``q = 1``, the engine's unit
    normalization.

    >>> torus_alexander(2, 3)
    {'min_exp': -2, 'coeffs': [1, 0, -1, 0, 1]}
    """
    delta = _div_monic(_mul(_power_minus_one(p * r), _power_minus_one(1)),
                       _mul(_power_minus_one(p), _power_minus_one(r)))
    while delta and delta[-1] == 0:
        delta.pop()
    if sum(delta) != 1:
        raise ArithmeticError(f"T({p},{r}) closed form has value {sum(delta)} at t = 1")
    degree = len(delta) - 1  # even: a knot's Alexander polynomial is symmetric
    return substitute_power({"min_exp": -(degree // 2), "coeffs": delta}, 2)
