"""Pinned outputs: a speed-up must leave every evaluation bit-identical.

Each digest is the SHA-256 of one ``alexander`` result, its polynomial,
its per-vertex contributions and its shared denominator, as recorded before
the post-product layers (denominators, trace decoding, exact division) were
moved onto packed ints.  The cases are seeded mixed-sign knots on 2 to 8
strands at every hook of up to 3 boxes (2 on 8 strands), and the torus knot
T(3, 31).
"""

import hashlib
import json
import random

import pytest

from conftest import random_knot, torus_braid
from hookalex.evaluator import alexander
from hookalex.young import Hook, hooks_up_to_size


def _braid(name):
    if name == "T(3,31)":
        return torus_braid(3, 31)
    return random_knot(random.Random(name), name, 3 * name - 1)


def digest(name, arm, leg):
    res = alexander(Hook(arm, leg), _braid(name))
    data = [res.polynomial.to_json_dict(),
            [[h.arm, h.leg, p.to_json_dict()] for h, p in res.contributions],
            res.denominator.to_json_dict()]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


CASES = [(m, h.arm, h.leg) for m in range(2, 9) for h in hooks_up_to_size(2 if m == 8 else 3)]
CASES += [("T(3,31)", h.arm, h.leg) for h in hooks_up_to_size(3)]

DIGESTS = {
    (2, 0, 0): 'c657db50cc7c9f11285548d7be66baa5a5fcf920bb1d43b23100a301b0591140',
    (2, 1, 0): '960679b176112f2f6cdf7926914e2a959e675d25f790f76c1044bba7c0d6c539',
    (2, 0, 1): 'a9b997e12e54a3cc5feeb706ce91cafe7cc279d4fdf9bfb61287462901eefcce',
    (2, 2, 0): '9f643760d0e64ef9f0b6e410f3392f3dc08c20f29dce4c6ed143dfb1c82a6869',
    (2, 1, 1): 'cc1ce8035bad66a4c99b4dab2ed43bf37f0abd7ca21508f083f37fd080f470dd',
    (2, 0, 2): '4eda881cdd9b5597bf340711bdc8d9ad3422a9a830633b3a56a635de0cc15ea7',
    (3, 0, 0): '2fa41a95db3bb42e04cee914593333265668d862d475add62fbd22989a7dcd61',
    (3, 1, 0): '8741b11ce57f125f83fa2da51b838009fa64ddeb875df2350b07fe1b742ad438',
    (3, 0, 1): 'ab65c7f85bd66579cda62467478bb4290509aa32f8cb2b96652ccabbd7786241',
    (3, 2, 0): '90f87c4bf2c88c21118f0f71ff7485209119605add3f3b5ef8fbb1bb1bf6c694',
    (3, 1, 1): 'c8e402bf36882c25ddf68448aae5f728f0ec57ce0170891deb7bcff9aec323a2',
    (3, 0, 2): '56f4f58d1b628029021c1b692a632e1cf2848eb6e9451e9b278854e160813e9a',
    (4, 0, 0): '9f615687863895a223b7f87860d23b7a3b276697e1917b0d9f9850e76e4b32e4',
    (4, 1, 0): '063cbe0b17f0c93030404f51dadef084e5e4ccb1f678737a24854f763c77008a',
    (4, 0, 1): '3afc153fe33eae351e747314f2b7be86f6be8c59b9e81e1458e9b49d25bcf81b',
    (4, 2, 0): '11552b722f90983b9d6fc84586793bdc8dc1d3055efa1287459008ec3cac4fe3',
    (4, 1, 1): '1ee0a1a7038a162f5b67372e5b138cbd1127a6124fffa01ce0386cb2fbf9b65b',
    (4, 0, 2): 'd8fa2b26e12c227c6c62dd98acd05f6ddcbe0b84c1d84807d40a1fc084890ea7',
    (5, 0, 0): 'e8b65384a234eb857ce60fa2c838a0cf8fa9156679c0fc8d69181893b751a139',
    (5, 1, 0): '94871495cdf71b7f666a67d948e95a45f2f105169a7bbab36ccadb6cd1421c42',
    (5, 0, 1): '817f0101eb1d74ef3e7b7770da9c08e4e332f312316daf5d847dd65316404532',
    (5, 2, 0): 'f92d06a6ef65200fb7073fb8606dd0d3ce81e768f3ff736a7a1090405e222549',
    (5, 1, 1): 'a5fe9624f37dcb9f5a71245f004080f97df1dadd799f5826bde9d24bbc624d85',
    (5, 0, 2): 'f7fe8545f42676928baac933f21b38edd0a2c68a0a3f0e980cf09af9b4f1e7b2',
    (6, 0, 0): '9cb001b5f4256933a45adae44b08279153b02df7683b9f4c6bc4608109adb6a3',
    (6, 1, 0): '2ec2105e1077b2605a9b8dff7bf6790ca63254317a23c671af437a60511652a2',
    (6, 0, 1): 'cb12e1a52f575fd5ed2286c590835925ef2583d5890def90371b822bd8d1404c',
    (6, 2, 0): '435c0bb6c45ef3d01904c7cbf546de02c6e76b1b8ce39aafe8eabb9bce50f3f1',
    (6, 1, 1): 'b2ed5431de579e0eb47c546713ba0e5cab11fc2bfcd1f21d880c2c2c0e9c6043',
    (6, 0, 2): 'b24cdc8d58515e9719580c5a85140d96930710e3797d5389324ff7ff801a1e1e',
    (7, 0, 0): '3091404227cbd7e0363fdb4eaa96a8e9b425d1d87e32f33bcf2dbdc194ebc868',
    (7, 1, 0): 'fddb324150a289d74fcec4a348ea605ce509fa141653d01425526fc92fbe5dd6',
    (7, 0, 1): '18cac88cbd96b30f10b1d9bf675e00ddca94cc6da9c40e3d43b57f8e6c69740e',
    (7, 2, 0): 'b5c963db7b291923144281e84f91202ac13dca0a7801538d6c9298fab2cfba54',
    (7, 1, 1): 'f8ce76b94686479b1aa26b459eca2729fa9355e7f72c328448cd095ef395417c',
    (7, 0, 2): '0b6ec92d46ac179938a6c9f3bc91ea9f1e49a71418da3f5538909d7131f2dd31',
    (8, 0, 0): '67185237d7c6ebd8818bf35394ac35e5faf6f89213fdb228ab4ed17671e6ed30',
    (8, 1, 0): '889b4f6d6a59c1af2975159ed1b34d1047a8b648b2ee870527fb588b0340ed1a',
    (8, 0, 1): '4bc74f3610bd0d452e26c1a9ad13c44f84fd7e804b615ef6d9d4ea0ae168d7cd',
    ('T(3,31)', 0, 0): 'b61dab1f3fc8e8448383617e596368457e4ba7b3371e7edd3e85997310aa9544',
    ('T(3,31)', 1, 0): 'da04615e73248df008562ce3b5cc414e74b7629f7b5c00513a3e01dbabfdd595',
    ('T(3,31)', 0, 1): '0c38e137e617a9afa73f69e83daac870894e0159c1dc152c9c353e697b7c118b',
    ('T(3,31)', 2, 0): '3576747c486d25faaba151918a89cfe6f39ad9415386e0397c758092667c4a3f',
    ('T(3,31)', 1, 1): '5cc76f83d77013824a4b717235fac7f0a7554d5870760c197b9a12da42fdeac4',
    ('T(3,31)', 0, 2): '51150da5d8a505bbdd71d7a8a42401adfd9b6706c994f56fa5564e295a305d69',
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "{}-({},{})".format(*c))
def test_output_is_bit_identical(case):
    assert digest(*case) == DIGESTS[case]
