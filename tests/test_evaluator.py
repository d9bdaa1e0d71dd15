import random
from fractions import Fraction

import pytest

from hookalex.braid import BraidWord, NotAKnotError, parse_braid
from hookalex.cli import main
from hookalex.evaluator import (PLAN_CACHE_SIZE, alexander, check_scaling, hook_weight,
                                vertex_plan)
from hookalex.laurent import (InexactDivisionError, LaurentPoly, NormalizationError, exact_div,
                              qnum_bullet, unit_normalize)
from hookalex.oracle import burau_alexander
from hookalex.rmatrix import (DEN_PRODUCT_CACHE_SIZE, BlockOperator, assemble_R, den_product,
                              framing_factor, trace_product)
from hookalex.young import Hook, HookGraph, hooks_up_to_size

from conftest import expected, markov_variants, random_knot, torus_braid

TREFOIL = parse_braid("1 1 1", 2)
FIGURE8 = parse_braid("1 -2 1 -2", 3)
KNOT4 = parse_braid("1 -2 3 -2 1 2 -3", 4)


# -- unit normalization -----------------------------------------------------------

def test_unit_normalize_centers_and_signs():
    p = LaurentPoly(0, (1, -1, 1))  # q^2 - q + 1, value 1 at q=1
    n = unit_normalize(p)
    assert n == LaurentPoly(-1, (1, -1, 1))
    assert unit_normalize(-p) == n


def test_unit_normalize_rejects_nonunits():
    for p in (LaurentPoly.zero(),
              LaurentPoly(0, (1, 1)),  # odd span
              LaurentPoly(-1, (1, 1, 1))):  # value 3 at q=1
        with pytest.raises(NormalizationError) as exc:
            unit_normalize(p)
        assert str(exc.value).startswith("normalization:") and p.summary() in str(exc.value)


def test_uncenterable_message_is_bounded():
    for p in (LaurentPoly(0, [10 ** 30] * 1000),  # odd span
              LaurentPoly(-999, [2 ** 200] * 1999)):  # a 211-bit value at q=1
        with pytest.raises(NormalizationError) as exc:
            unit_normalize(p)
        assert p.summary() in str(exc.value) and len(str(exc.value)) < 300


@pytest.mark.parametrize("hook", [Hook(0, 0), Hook(1, 0), Hook(0, 1), Hook(2, 1)])
def test_normalization_absorbs_every_unit(knots, hook):
    # so the framing correction phi^(-writhe), a signed monomial, needs no multiply
    for b in knots:
        poly = alexander(hook, b).polynomial
        for sign in (1, -1):
            for j in range(-7, 8):
                assert unit_normalize(poly * LaurentPoly.monomial(sign, j)) == poly, (b, j)


# -- reference values -----------------------------------------------------------------

def test_unknot_is_one():
    for text in ("1", "-1"):
        assert alexander(Hook(0, 0), parse_braid(text, 2)).polynomial == LaurentPoly.one()


def test_trefoil_fundamental():
    assert alexander(Hook(0, 0), TREFOIL).polynomial == LaurentPoly(-2, (1, 0, -1, 0, 1))


def test_trefoil_row_hook():
    # two-strand trace: [2](q^6 + q^-6)/[4] = q^4 - 1 + q^-4
    expected = LaurentPoly(-4, (1, 0, 0, 0, -1, 0, 0, 0, 1))
    assert alexander(Hook(1, 0), TREFOIL).polynomial == expected


def test_figure8_matches_burau_oracle():
    engine = alexander(Hook(0, 0), FIGURE8).polynomial
    assert engine == burau_alexander(FIGURE8)
    # a unit multiple of q^2 - 3 + q^-2
    assert engine == -LaurentPoly(-2, (1, 0, -3, 0, 1))


def test_links_rejected():
    with pytest.raises(NotAKnotError):
        alexander(Hook(0, 0), parse_braid("1 1", 3))


# -- result structure --------------------------------------------------------------------

def test_contributions_reassemble_polynomial():
    res = alexander(Hook(1, 1), FIGURE8)
    assert len(res.contributions) == FIGURE8.strands
    total = sum((num for _, num in res.contributions), LaurentPoly.zero())
    correction = framing_factor(Hook(1, 1)) ** (-FIGURE8.writhe)
    raw = exact_div(total, res.denominator) * correction
    assert unit_normalize(raw) == res.polynomial


def test_evaluation_constructs_no_fraction(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction constructed on the evaluation path")

    b = parse_braid("1 -2 3 -2 1 2 -3", 4)
    fundamental = alexander(Hook(0, 0), b).polynomial
    expected = fundamental.substitute_power(4)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError, match="evaluation path"):
        Fraction(1)
    assert alexander(Hook(2, 1), b).polynomial == expected
    assert burau_alexander(b) == fundamental


@pytest.mark.parametrize("strands,length", [(3, 3), (4, 20), (5, 2)])
def test_random_knot_refuses_impossible_lengths_at_once(strands, length):
    rng = random.Random(0)
    with pytest.raises(ValueError, match=f"on {strands} strands"):
        random_knot(rng, strands, length)
    assert rng.random() == random.Random(0).random()  # nothing was drawn


def test_operators_assembled_once_per_distinct_letter(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return assemble_R(*args)

    monkeypatch.setattr("hookalex.evaluator.assemble_R", counted)
    for b in (FIGURE8, random_knot(random.Random(3), 4, 61), torus_braid(3, 31)):
        for h in (Hook(0, 0), Hook(2, 1)):
            vertex_plan.cache_clear()  # a cached plan already holds the operators
            calls.clear()
            alexander(h, b)
            assert 0 < len(calls) <= b.strands * len(set(b.letters))
            calls.clear()
            alexander(h, b)
            assert not calls


def test_vertex_sum_multiplications_do_not_grow_with_length(monkeypatch):
    rng = random.Random(11)
    short, long = random_knot(rng, 3, 40), random_knot(rng, 3, 160)
    for b in (short, long):  # warm the operator caches
        alexander(Hook(1, 0), b)
    count = [0]
    mul = LaurentPoly.__mul__

    def counted(self, other):
        count[0] += isinstance(other, LaurentPoly)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    counts = []
    for b in (short, long):
        count[0] = 0
        alexander(Hook(1, 0), b)
        counts.append(count[0])
    assert counts[0] == counts[1]


def _fields(res):
    return res.polynomial, res.contributions, res.denominator


def test_cold_and_warm_caches_give_equal_results():
    cases = [(h, b) for b in (TREFOIL, FIGURE8, torus_braid(3, 7),
                              random_knot(random.Random(5), 4, 21))
             for h in hooks_up_to_size(3)]
    cold = []
    for h, b in cases:
        for cache in (vertex_plan, den_product, assemble_R):
            cache.cache_clear()
        cold.append(_fields(alexander(h, b)))
    for _ in range(2):
        assert [_fields(alexander(h, b)) for h, b in cases] == cold


def test_plan_and_denominator_caches_stay_bounded():
    # More plans (hook, strands) and more denominator products than either
    # bound holds; the caches evict and every result still scales.
    braids = (TREFOIL, FIGURE8, torus_braid(3, 7), parse_braid("1 -2 3 -2 1 2 -3", 4))
    for cache in (vertex_plan, den_product):
        cache.cache_clear()
    for b in braids:
        fundamental = alexander(Hook(0, 0), b).polynomial
        for h in hooks_up_to_size(5):
            assert alexander(h, b).polynomial == fundamental.substitute_power(h.size)
    for cache, bound in ((vertex_plan, PLAN_CACHE_SIZE), (den_product, DEN_PRODUCT_CACHE_SIZE)):
        info = cache.cache_info()
        assert info.maxsize == bound and info.currsize <= bound < info.misses


@pytest.mark.parametrize("hook", [Hook(0, 0), Hook(1, 1), Hook(2, 1)])
def test_denominator_is_the_product_of_bullets(hook):
    for b in (TREFOIL, FIGURE8, parse_braid("1 -2 3 -2 1 2 -3", 4), torus_braid(3, 7)):
        expected = qnum_bullet(b.strands, hook.size)
        for g in b.letters:
            if abs(g) >= 2:
                expected = expected * qnum_bullet(abs(g), hook.size)
        assert alexander(hook, b).denominator == expected


def test_failed_lift_names_the_vertex(monkeypatch):
    b = KNOT4  # hook (2, 1) traces both interior vertices, k = 1 and 2
    common = exact_div(alexander(Hook(2, 1), b).denominator, qnum_bullet(4, 4))
    traces = []

    def patched(ops):  # vertex 2's denominator becomes 2, which is not the common one
        traces.append(trace_product(ops))
        t = traces[-1]
        return t._replace(den=LaurentPoly.constant(2)) if len(traces) == 2 else t

    monkeypatch.setattr("hookalex.evaluator.trace_product", patched)
    with pytest.raises(InexactDivisionError) as exc:
        alexander(Hook(2, 1), b)
    message = str(exc.value)
    assert "vertex k=2" in message and len(message) < 300
    assert LaurentPoly.constant(2).summary() in message
    assert common.summary() in message


def _wrong_final_denominator(monkeypatch):
    """Make the evaluator's final denominator [m]_N * (q + 2), which no vertex sum divides by."""
    bullet = qnum_bullet
    monkeypatch.setattr("hookalex.evaluator.qnum_bullet",
                        lambda n, base: bullet(n, base) * LaurentPoly(0, (2, 1)))


@pytest.mark.parametrize("b", [FIGURE8, random_knot(random.Random(11), 3, 160)])
def test_failed_final_division_names_its_layer(monkeypatch, b):
    _wrong_final_denominator(monkeypatch)
    with pytest.raises(InexactDivisionError) as exc:
        alexander(Hook(1, 0), b)
    message = str(exc.value)
    assert message.startswith("vertex sum: final division") and f"m={b.strands}" in message
    assert "-bit coefficients" in message and message.count("exponents") == 2
    assert len(message) < 300


def test_failed_final_division_is_cli_exit_3(monkeypatch, capsys):
    _wrong_final_denominator(monkeypatch)
    code = main(["eval", "--strands", "3", "--braid", "1 -2 1 -2", "--arm", "1", "--leg", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal inconsistency: vertex sum: final division")


# -- mirrored vertices of self-transpose colors ------------------------------------------------

def _traces(hook, b):
    """The trace at every vertex, each from its own operator product."""
    graph = HookGraph(hook, b.strands)
    return [trace_product([assemble_R(graph, k, abs(g), g < 0) for g in b.letters])
            for k in range(b.strands)]


def _mirror_equal(t, u):
    """``t == u`` at q -> -q^-1, as fractions compared by cross-multiplying."""
    return t.num * u.den.substitute_neg_inverse() == u.num.substitute_neg_inverse() * t.den


def test_traces_of_transposed_hooks_mirror_each_other():
    for m in range(2, 8):
        rng = random.Random(m)
        for b in [random_knot(rng, m, 3 * (m - 1)) for _ in range(3)]:
            traces = {h: _traces(h, b) for h in hooks_up_to_size(4)}  # closed under transpose
            for h, own in traces.items():
                mirrored = traces[Hook(h.leg, h.arm)]
                for k in range(m):
                    assert _mirror_equal(own[k], mirrored[m - 1 - k]), (h, b, k)
                if h.arm == h.leg and m % 2:  # the middle vertex is its own mirror
                    assert _mirror_equal(own[m // 2], own[m // 2]), (h, b)


def test_self_transpose_colors_trace_half_the_vertices(monkeypatch):
    calls = [0]

    def counted(ops):
        calls[0] += 1
        return trace_product(ops)

    monkeypatch.setattr("hookalex.evaluator.trace_product", counted)
    for m in range(2, 9):
        b = random_knot(random.Random(m), m, m + 3)
        for h in (Hook(0, 0), Hook(1, 1), Hook(1, 0), Hook(0, 1), Hook(2, 1)):
            calls[0] = 0
            alexander(h, b)
            # only interior vertices are traced; the end vertices are read in closed form
            assert calls[0] == ((m - 1) // 2 if h.arm == h.leg else m - 2), (h, m)


def test_failed_mirror_names_the_vertex(monkeypatch):
    def patched(ops):  # 2 + q is not +- itself at q -> -q^-1
        return trace_product(ops)._replace(den=LaurentPoly(0, (2, 1)))

    monkeypatch.setattr("hookalex.evaluator.trace_product", patched)
    with pytest.raises(InexactDivisionError) as exc:
        alexander(Hook(0, 0), KNOT4)  # vertex 2 is vertex 1 mirrored
    message = str(exc.value)
    assert "vertex k=2" in message and len(message) < 300


def _full_vertex_sum(color, b):
    """``(polynomial, contributions, denominator)`` from an operator product at every vertex."""
    m = b.strands
    graph = HookGraph(color, m)
    common = LaurentPoly.one()
    for g in b.letters:
        if abs(g) >= 2:
            common = common * qnum_bullet(abs(g), color.size)
    contributions = []
    for k, (num, den) in enumerate(_traces(color, b)):
        vertex = graph.vertex(m, k)
        sign, _ = hook_weight(color, vertex)
        contributions.append((vertex, num * exact_div(common, den) * sign))
    denominator = qnum_bullet(m, color.size) * common
    total = sum((num for _, num in contributions), LaurentPoly.zero())
    correction = framing_factor(color) ** (-b.writhe)
    poly = unit_normalize(exact_div(total, denominator) * correction)
    return poly, tuple(contributions), denominator


def test_mirrored_vertices_match_the_full_vertex_sum(knots):
    rng = random.Random(8)
    seeded = [random_knot(rng, m, m + 3) for m in range(2, 9)]
    for b in knots + seeded:
        for h in (Hook(0, 0), Hook(1, 1), Hook(2, 2)):
            res = alexander(h, b)
            assert (res.polynomial, res.contributions, res.denominator) == _full_vertex_sum(h, b)


# -- end vertices in closed form --------------------------------------------------------------

def _mirror_image(b):
    return BraidWord(b.strands, tuple(-g for g in b.letters))


def test_end_vertices_are_their_traces_lifted_by_common():
    rng = random.Random(25)
    braids = [torus_braid(2, 2 * j + 1) for j in range(1, 5)]
    for m in range(2, 9):
        for length in (m - 1, m + 3, 3 * m + 1):
            b = random_knot(rng, m, length)
            braids.append(b if b.writhe < 0 else _mirror_image(b))
    braids += [_mirror_image(b) for b in braids[:4]]  # T(2, -(2j+1))
    assert sum(b.writhe < 0 for b in braids) > len(braids) // 2
    for b in braids:
        m = b.strands
        for h in hooks_up_to_size(3):
            res = alexander(h, b)
            common = exact_div(res.denominator, qnum_bullet(m, h.size))
            graph = HookGraph(h, m)
            for k in (0, m - 1):
                num, den = trace_product([assemble_R(graph, k, abs(g), g < 0) for g in b.letters])
                vertex = graph.vertex(m, k)
                sign, _ = hook_weight(h, vertex)
                assert den.is_one() and len(num.terms) == 1, (h, b, k)
                assert res.contributions[k] == (vertex, common * num * sign), (h, b, k)


@pytest.mark.parametrize("b", [TREFOIL, FIGURE8], ids=["2-strand", "3-strand"])
def test_evaluation_reads_the_operator_entries(monkeypatch, b):
    # the benchmark's tracer wraps BlockOperator.numerator_rows and expects it in
    # every evaluation, a 2-strand knot's (no interior vertex) included
    calls = [0]
    numerator_rows = BlockOperator.numerator_rows

    def counted(self):
        calls[0] += 1
        return numerator_rows(self)

    monkeypatch.setattr(BlockOperator, "numerator_rows", counted)
    for h in (Hook(0, 0), Hook(2, 1)):
        calls[0] = 0
        alexander(h, b)
        assert calls[0] > 0, h


def test_value_at_one_is_one(knots):
    for b in knots:
        for h in (Hook(0, 0), Hook(1, 1)):
            assert alexander(h, b).polynomial.at_one() == 1


def test_inversion_symmetry(knots):
    for b in knots:
        for h in (Hook(0, 0), Hook(1, 0), Hook(1, 1)):
            p = alexander(h, b).polynomial
            assert p.min_exp == -p.degree()
            assert p.coeffs == p.coeffs[::-1]


# -- the scaling identity --------------------------------------------------------------------

def test_scaling_trefoil_square_hook():
    report = check_scaling(Hook(1, 1), TREFOIL)
    assert report.equal
    assert report.colored == report.scaled_fundamental
    assert report.diff == LaurentPoly.zero()


def test_scaling_fundamental_is_tautology(knots):
    for b in knots:
        assert check_scaling(Hook(0, 0), b).equal


def test_scaling_figure8_large_hook():
    assert check_scaling(Hook(2, 1), FIGURE8).equal


# -- torus knots: a closed form independent of the engine ------------------------------------

@pytest.mark.parametrize("p,r,hook", [(2, 3, Hook(1, 0)), (2, 5, Hook(0, 1)), (2, 7, Hook(1, 1)),
                                      (3, 4, Hook(2, 0)), (3, 5, Hook(0, 2)),
                                      (4, 5, Hook(1, 0))])
def test_torus_knots_match_closed_form(p, r, hook):
    b = torus_braid(p, r)
    for h in (Hook(0, 0), hook):
        poly = alexander(h, b).polynomial
        want = expected.substitute_power(expected.torus_alexander(p, r), h.size)
        assert poly.to_json_dict() == want, (p, r, h)


# Deep products, where the width bound of the packed product is furthest above the
# real coefficients.

@pytest.mark.parametrize("hook", [Hook(0, 0), Hook(2, 1)])
def test_deep_torus_knot_matches_closed_form(hook):
    poly = alexander(hook, torus_braid(3, 31)).polynomial
    assert poly.to_json_dict() == expected.substitute_power(expected.torus_alexander(3, 31),
                                                            hook.size)


def test_deep_random_knot_matches_oracle():
    b = random_knot(random.Random(100), 3, 100)
    reference = burau_alexander(b)
    assert alexander(Hook(0, 0), b).polynomial == reference
    assert alexander(Hook(2, 1), b).polynomial == reference.substitute_power(4)


# -- topological invariance ---------------------------------------------------------------------

def test_markov_invariance_spot_check():
    for h in (Hook(0, 0), Hook(1, 1)):
        reference = alexander(h, FIGURE8).polynomial
        mv = markov_variants(FIGURE8, count=3, seed=5)
        for variant in mv.conjugates + (mv.stabilized_pos, mv.stabilized_neg):
            assert alexander(h, variant).polynomial == reference


# -- the Burau oracle ---------------------------------------------------------------------------

def test_oracle_agreement_on_corpus(knots):
    for b in knots:
        assert alexander(Hook(0, 0), b).polynomial == burau_alexander(b)
