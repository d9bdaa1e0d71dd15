"""The public surface of the package is pinned: changing it must change this test too."""

import hookalex

PUBLIC_API = [
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


def test_public_api_is_pinned_and_imports():
    assert sorted(hookalex.__all__) == PUBLIC_API
    namespace: dict = {}
    exec("from hookalex import *", namespace)  # raises if a listed name is missing
    assert set(PUBLIC_API) <= set(namespace)
