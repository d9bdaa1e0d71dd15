"""Exact colored Alexander polynomials of knots for one-hook colors.

Braid closures are evaluated by quantum traces of sparse block operators over
the one-hook tensor-power graph, entirely in integer Laurent arithmetic.  The
headline capability is verifying the scaling identity
``A_color(q) == A_fundamental(q^size)`` exactly, knot by knot.
"""

from .braid import BraidWord, closure_is_knot, parse_braid
from .evaluator import AlexanderResult, ScalingReport, alexander, check_scaling
from .laurent import LaurentPoly, qnum, qnum_bullet
from .oracle import burau_alexander
from .young import Hook

__all__ = [
    "AlexanderResult",
    "BraidWord",
    "Hook",
    "LaurentPoly",
    "ScalingReport",
    "alexander",
    "burau_alexander",
    "check_scaling",
    "closure_is_knot",
    "parse_braid",
    "qnum",
    "qnum_bullet",
]
