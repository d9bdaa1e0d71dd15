"""Braiding operators on path bases of the one-hook graph.

Crossing strands colored by a hook ``(a, l)`` acts on each irreducible summand
of the tensor square by a signed monomial: with ``K = 2a^2 + 2a - 2l^2 - 2l``
and ``N = a + l + 1``,

    arm summand:  (-1)^l     q^(K + N)
    leg summand:  (-1)^(l+1) q^(K - N)

On the path basis of the hook graph, the operator for crossing ``(i, i+1)``
splits into singlets (paths stepping arm-arm or leg-leg through level ``i``)
and 2x2 doublets pairing the two paths that differ only at level ``i``.  A
path is a bit word, 1 for a leg step (:func:`hookalex.young.enumerate_paths`),
so its steps around level ``i`` are two adjacent bits, and its doublet partner
is the word with both flipped.  The doublet depends only on the level ``n``,
never on the horizontal position.  With ``phi = (-1)^l q^K`` the framing
factor, so that the eigenvalues are ``phi q^N`` and ``-phi q^-N``, and ``[n].``
the q-number at q -> q^N, its entries are integer numerators over the single
denominator ``[n].``:

    [n]. r11 = -phi q^(-nN)       [n]. r12 = q^K [n+1]. [n-1].
    [n]. r21 =      q^K           [n]. r22 =  phi q^(nN)

Since ``[n].^2 - [n+1].[n-1]. = 1``, the determinant is the monomial -q^(2K),
the product of the two eigenvalues, and the inverse doublet has the same
closed form with phi -> phi^-1 (so K -> -K) and nN -> -nN.

A trace of a product is therefore an integer numerator over the product of
the operators' bullet q-numbers; the evaluator sums such traces over their
factored denominators and divides once.

The symmetric form splits ``r12 * r21`` into two equal square roots, which
would leave the rational field.  Every closed trace uses upper and lower
entries in equal numbers at each level, so we keep the rational gauge above
(a diagonal path-basis rescaling away from symmetric; traces, products, and
the Yang-Baxter identity are unchanged).  Every operator is therefore an
integer-polynomial matrix over one bullet q-number.

Products run packed: every numerator is evaluated at q = 2^w (Kronecker
substitution), the matrix product runs on Python ints, with +-q^e entries as
signed shifts, and the trace is decoded into a Laurent polynomial once.  The
width w is proven from the operators so that the decoding is exact: the
column sums of entry 1-norms carried through the product bound every
coefficient (see ``_packed_product``).  Each column of the running product
carries a pending signed monomial beside its ints.  A crossing without a
doublet acts by its eigenvalues alone, so its operator only updates those
factors and leaves the ints as they are; the decoding applies them.  An
operator with a doublet starts each new column from its term of least
exponent, and a +-1 such term costs no pass: the new column reuses that
column's ints and carries the term's sign in its factor.  Since a factor
moves a stored polynomial by a signed power of q only, the width proof does
not change.  Each operator is built once, by :func:`assemble_R`, as a
:class:`BlockOperator`: its numerator rows, the entry norms the width bound
needs, and either its diagonal signs and exponents or, for an operator with
a doublet, its packed terms, one tuple per column, memoized for at most
``PLAN_WIDTHS`` widths; a column of one or two terms is read by unpacking
it, and only the longer ones of spread q-numbers are sorted.  Operators
repeat across letters, vertices and braids, so a product only shifts and adds.

What follows the product stays packed too.  The trace's denominator is the
product of a few distinct bullet q-numbers, each raised to its count on one
int packed in ``q^(2N)`` (:func:`hookalex.laurent.power_product`).  Every
interior vertex of a braid has the same one, and so does every hook of one
size, so :func:`den_product` memoizes these products by the factors' values,
for at most ``DEN_PRODUCT_CACHE_SIZE`` keys; the evaluator's final
denominator, ``[m]_N`` times the common one, goes through it too.  Every
term of a trace lies in one class mod ``2N`` (proof in :func:`trace_product`),
so its numerator is decoded at that grade, reading one digit in ``2N``, and a
decoded coefficient too wide for one digit reveals a nonzero digit between.
The evaluator takes the trace at either end vertex, whose one path no
doublet touches, off its operators' single entries and runs the product only
at interior vertices; a direct call on such a product decodes its identity
column like any other.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .laurent import (InexactDivisionError, LaurentPoly, pack, packing_width, power_product,
                      qnum_bullet, unpack)
from .laurent import exact_div  # noqa: F401  (the benchmark's tracer patches it here)
from .young import Hook, HookGraph, enumerate_paths


def framing_exponent(h: Hook) -> int:
    return 2 * h.arm * h.arm + 2 * h.arm - 2 * h.leg * h.leg - 2 * h.leg


def framing_factor(h: Hook) -> LaurentPoly:
    """The per-crossing monomial ``phi = (-1)^l q^K`` from vertical framing to the normalized pair.

    Dividing both eigenvalues by it leaves exactly (q^N, -q^-N) with N the
    hook size, the fundamental pair under q -> q^N.
    """
    return LaurentPoly.monomial(-1 if h.leg % 2 else 1, framing_exponent(h))


def hook_eigenvalues(h: Hook) -> tuple[LaurentPoly, LaurentPoly]:
    """The signed monomials ``(arm, leg) = (phi q^N, -phi q^-N)`` on the one-hook tensor square.

    >>> hook_eigenvalues(Hook(1, 0))
    (LaurentPoly('q^6'), LaurentPoly('-q^2'))
    """
    phi = framing_factor(h)
    return phi.shift(h.size), -phi.shift(-h.size)


def doublet_block(h: Hook, n: int, inverse: bool) -> tuple[LaurentPoly, ...]:
    """The level-``n`` doublet ``(r11, r12, r21, r22)`` of hook ``h`` over ``[n]_N`` (n >= 2).

    Row/column 1 is the path through the arm-side vertex (lexicographically
    first), row/column 2 the leg-side path.  ``inverse`` gives the inverse
    doublet, over the same denominator.

    >>> doublet_block(Hook(0, 0), 2, False)
    (LaurentPoly('-q^-2'), LaurentPoly('q^2 + 1 + q^-2'), LaurentPoly('1'), LaurentPoly('q^2'))
    >>> doublet_block(Hook(0, 0), 2, True)[0]
    LaurentPoly('-q^2')
    """
    if n < 2:
        raise ValueError(f"doublets start at level 2, got {n}")
    phi, shift = framing_factor(h), n * h.size
    if inverse:
        phi, shift = phi ** -1, -shift
    off = qnum_bullet(n + 1, h.size) * qnum_bullet(n - 1, h.size)
    return (-phi.shift(-shift), off.shift(phi.min_exp), LaurentPoly.monomial(1, phi.min_exp),
            phi.shift(shift))


# Operators held by the assemble_R cache.  The widest benchmark workload
# (4-strand knots, six hooks) keeps 144 operators live, so this bound never
# evicts there while still capping memory on long runs over many graphs.  The
# evaluator's vertex plans hold the operators of their letters too, so an
# operator evicted here stays alive until its plan is evicted as well; at most
# ``evaluator.PLAN_CACHE_SIZE`` plans of ``m * 2(m - 1)`` operators each.
OPERATOR_CACHE_SIZE = 1024

# Denominator products held by the den_product cache.  A trace's denominator
# is the same product of bullet q-numbers at every interior vertex, and for
# every hook of one size, on one braid; the final division's ``[m]_N`` times
# that common denominator repeats with it.  Over two passes of each benchmark
# pool, 32 entries serve 50-88% of the calls.
DEN_PRODUCT_CACHE_SIZE = 32

# Widths at which each operator keeps its packed terms.  The width follows the
# bound on the whole product in steps of 8 bits, so the products of one
# operator visit few widths: up to 4 per operator over the fund-wide benchmark
# corpus, 6 over long-braid and 3 over colored-scaling.  Past this bound the
# oldest width is dropped.
PLAN_WIDTHS = 8

NumeratorRows = list[dict[int, LaurentPoly]]

# An operator's terms at one width, one flat tuple per column: row,
# multiplier, exponent for each term, so a column of one or two terms is read
# by unpacking its tuple.
Terms = tuple[tuple[int, ...], ...]


def _norm(p: LaurentPoly) -> int:
    return sum(map(abs, p.terms))


class BlockOperator(list):
    """A crossing operator: numerator rows (the list itself) over one denominator ``den``.

    Row ``r`` maps column ``c`` to entry ``(r, c)``; zero entries are omitted,
    and each row has at most two.  ``den`` is the bullet q-number of the
    doublet level, or 1 for an operator without a doublet, so products stay
    "integer-polynomial matrix over one polynomial denominator" and never need
    gcd reduction.  Built once by :func:`assemble_R` and shared by every
    product, so callers must not mutate the rows.

    What products need of the rows is computed with them: ``col_norms`` holds
    the 1-norm of every entry, flat as column, row, norm, column, row, norm,
    ...  An operator without a doublet is diagonal with entries ``+-q**exps[c]``,
    the sign negative where bit ``c`` of ``neg`` is set; for any other operator
    ``exps`` is None and :meth:`packed` gives its terms at one width.
    ``grade`` divides every exponent gap on the diagonal: for an operator
    with a doublet it is ``2N``, the step of its ``den`` (a bullet q-number
    ``[n]_N`` with ``n >= 2``); for a diagonal one it is the gcd of those
    gaps, ``2N`` with both eigenvalues and 0 with a single one.

    The middle vertex of 3 strands has one level-2 doublet:

    >>> op = assemble_R(HookGraph(Hook(0, 0), 3), 1, 2)
    >>> for row in op:
    ...     print(row)
    {0: LaurentPoly('-q^-2'), 1: LaurentPoly('q^2 + 1 + q^-2')}
    {0: LaurentPoly('1'), 1: LaurentPoly('q^2')}
    >>> op.den, op.grade
    (LaurentPoly('q + q^-1'), 2)
    """

    __slots__ = ("den", "col_norms", "neg", "exps", "grade", "_widths")

    def __init__(self, rows: NumeratorRows, den: LaurentPoly):
        super().__init__(rows)
        self.den = den
        self.col_norms = tuple(x for r, row in enumerate(rows) for c, p in row.items()
                               for x in (c, r, _norm(p)))
        self.neg, self.exps, self.grade = 0, None, den.step
        if den.is_one():
            diagonal = [row[c] for c, row in enumerate(rows)]
            self.neg = sum(1 << c for c, e in enumerate(diagonal) if e.terms[0] < 0)
            self.exps = tuple(e.min_exp for e in diagonal)
            self.grade = math.gcd(*[e - self.exps[0] for e in self.exps])
        self._widths: dict[int, Terms] = {}

    def numerator_rows(self) -> BlockOperator:
        """The operator itself: its entries as integer numerators over ``den``."""
        return self

    def packed(self, width: int) -> Terms:
        """The entries' terms at q = 2**width: per column, row, multiplier, exponent per term."""
        found = self._widths.get(width)
        if found is None:
            if len(self._widths) >= PLAN_WIDTHS:
                del self._widths[next(iter(self._widths))]
            entry: dict[LaurentPoly, list[tuple[int, int]]] = {}  # equal entries share ints
            columns: list[list[int]] = [[] for _ in self]
            for k, row in enumerate(self):
                for c, p in row.items():
                    if p not in entry:
                        entry[p] = _terms(p, width)
                    for m, e in entry[p]:
                        columns[c] += (k, m, e)
            found = self._widths[width] = tuple([tuple(col) for col in columns])
        return found


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def assemble_R(graph: HookGraph, target_k: int, i: int, inverse: bool = False) -> BlockOperator:
    """The crossing operator for strands ``(i, i+1)`` on the target's path basis.

    Paths stepping arm-arm (resp. leg-leg) through level ``i`` are singlets
    with the arm (resp. leg) eigenvalue; mixed paths pair with their level-i
    partner, the word with both steps flipped, in the level-``i`` doublet.
    ``inverse`` reciprocates the singlets and takes the inverse doublet's
    closed form.  With a doublet, every entry is a numerator over ``[i]_N``,
    the singlets' included.
    """
    m = graph.levels
    if not 1 <= i <= m - 1:
        raise ValueError(f"crossing index {i} outside 1..{m - 1}")
    paths = enumerate_paths(graph, target_k)
    # the steps into and out of level i are the two bits at ``shift``; the first
    # crossing sees one step only
    shift, mask = m - 1 - i, 1 if i == 1 else 3
    steps = [p >> shift & mask for p in paths]
    den = LaurentPoly.one()
    if mask == 3 and 1 in steps:  # every doublet of the operator is this level-i block
        den, block = qnum_bullet(i, graph.base.size), doublet_block(graph.base, i, inverse)
    arm, leg = hook_eigenvalues(graph.base)
    if inverse:
        arm, leg = arm ** -1, leg ** -1
    arm, leg = arm * den, leg * den
    index = {p: idx for idx, p in enumerate(paths)}
    rows: NumeratorRows = [{} for _ in paths]
    for idx, (p, s) in enumerate(zip(paths, steps)):
        if s == 0:
            rows[idx][idx] = arm
        elif s == mask:
            rows[idx][idx] = leg
        elif s == 1:  # arm-leg: the doublet partner steps leg-arm
            j = index[p ^ 3 << shift]
            rows[idx][idx], rows[idx][j], rows[j][idx], rows[j][j] = block
        # the leg-arm member is recorded by its arm-leg partner
    return BlockOperator(rows, den)


# -- exact products and traces ------------------------------------------------
#
# A product is evaluated at q = 2**w (Kronecker substitution: a ring
# homomorphism Z[q] -> Z), so it runs entirely on Python ints and only its
# result is decoded, once per trace.  The running product is kept by columns:
# column c of P * B combines the columns of P named by column c of B, which
# has at most two entries.  Each column carries a pending factor, a signed
# monomial +-q^e, beside its ints: the column's true value is its ints,
# decoded, times that factor.
#
# An operator without a doublet (den = 1) is diagonal, each entry a crossing
# eigenvalue +-q^e, so it only multiplies the factors and touches no big int:
# the columns keep their very lists.  Such operators are letter 1 at every
# vertex and every letter at the two end vertices.  An operator with a
# doublet rebuilds every column in one pass per term after a +-1 lead.  A
# term is a multiplier times q^e times a column of P, whose factor's sign
# goes into the multiplier.  The terms' combined exponents (e plus the
# factor's) are taken relative to their least one, the new column's
# factor, so every shift is nonnegative.  The term of least exponent leads:
# if its multiplier is +-1, the new column is that column of P, the very
# list, and the multiplier's sign goes into the new factor, so each later
# term is added times that sign.  No pass changes a list in place, so a
# list may be shared by columns of several products.  Any other lead costs
# one multiplying pass.  A later +-1 multiplier (r11, r21, r22, and each
# term of a spread q-number) acts as a signed shift.  An entry with few
# terms spread over many bits acts as one signed shift per term, since a
# shift-and-add pass costs one pass over the running entry and a
# multiplication costs one pass per machine digit of the multiplier.  The denominator is not carried
# through the loop: the product counts each distinct den object and raises
# it to its count once, at the end.
#
# A stored column differs from the true one only by its factor, a signed
# power of q, so their coefficients are the same and the width proof of
# :func:`_packed_product` holds unchanged.  Decoding applies the factors: the
# trace adds the diagonal entries shifted to their least exponent and reads
# the sum at its q^(2N) grade, and product_numerators decodes each entry at
# its column's exponent.
#
# What a product needs of one operator is computed once, when assemble_R
# builds it (:class:`BlockOperator`): its rows, the entry norms of the width
# bound and, for a diagonal operator, its signs and exponents.  The packed
# terms of an operator with a doublet depend on the width too, so each
# operator memoizes them for its last PLAN_WIDTHS widths.  A product then
# only looks its operators' terms up and shifts and adds.

# Bits of packed span per nonzero term above which an entry is applied as one
# signed shift per term.  A q-number [n]_N has n terms over 2N(n-1) exponents,
# so it spreads once N * width > 64 n / (n - 1): short fundamental-color
# products (width 64 or less) keep one multiplication per entry, while deep
# and colored products, whose packed entries are mostly zero bits, shift.
SPREAD_BITS_PER_TERM = 128

def _terms(p: LaurentPoly, width: int) -> list[tuple[int, int]]:
    """``p`` at q = 2**width as (multiplier, exponent) terms, ``p = sum m * q**e``."""
    nonzero = len(p.terms) - p.terms.count(0)
    if nonzero > 1 and (len(p.terms) - 1) * p.step * width > SPREAD_BITS_PER_TERM * nonzero:
        return [(c, p.min_exp + i * p.step) for i, c in enumerate(p.terms) if c]
    return [(pack(p, width), p.min_exp)]


def _apply(cols: list[list[int]], neg: int, exps: list[int], terms: Terms,
           width: int) -> tuple[list[list[int]], list[int], int]:
    """The columns of P * B, their exponents and signs, P given by ``cols``, ``exps`` and ``neg``.

    Column c of the result sums ``m * q**e`` times column ``k`` of P, its
    factor included, over the terms (k, m, e) of B's column c.  The terms are
    shifted over their least combined exponent, which becomes the new
    column's; of two terms at one exponent the first leads.  The new column
    starts from that term: a +-1 one is its column of P, the very list, and
    its sign becomes bit ``c`` of the returned mask, so every later term is
    added with its multiplier times that sign.
    """
    out: list[list[int]] = []
    out_exps: list[int] = []
    out_neg = 0
    for c, col in enumerate(terms):
        # A column of one or two terms (a singlet over den, a doublet's column)
        # is unpacked, since on short products sorting costs more than the passes.
        n = len(col)
        if n == 3:
            k, m, base = col
            base += exps[k]
        elif n == 6:  # the second term leads only if its exponent is less
            k, m, base, k2, m2, e2 = col
            base, e2 = base + exps[k], e2 + exps[k2]
            if e2 < base:
                k, m, base, k2, m2, e2 = k2, m2, e2, k, m, base
            if neg >> k2 & 1:
                m2 = -m2
        else:  # a spread q-number: the terms in order of exponent, multipliers signed
            it = iter(col)
            (base, m, k), *rest = sorted([(exps[k] + e, -m if neg >> k & 1 else m, k)
                                          for k, m, e in zip(it, it, it)])
        if n <= 6 and neg >> k & 1:
            m = -m
        if m == 1 or m == -1:  # no pass: the column of P itself, its sign in the factor
            acc, lead = cols[k], m
            out_neg |= (m < 0) << c
        else:
            acc, lead = [x * m for x in cols[k]], 1
        if n == 6:
            acc = _add_shifted(acc, cols[k2], (e2 - base) * width, m2 * lead)
        elif n > 6:
            for e, m, k in rest:
                acc = _add_shifted(acc, cols[k], (e - base) * width, m * lead)
        out.append(acc)
        out_exps.append(base)
    return out, out_exps, out_neg


def _add_shifted(acc: list[int], src: list[int], shift: int, m: int) -> list[int]:
    """``acc + m * src * 2**shift``, entry by entry, as a new list."""
    if m == 1:
        return [a + (x << shift) for a, x in zip(acc, src)]
    if m == -1:
        return [a - (x << shift) for a, x in zip(acc, src)]
    return [a + (x * m << shift) for a, x in zip(acc, src)]


@lru_cache(maxsize=DEN_PRODUCT_CACHE_SIZE)
def den_product(factors: tuple[tuple[LaurentPoly, int], ...]) -> LaurentPoly:
    """``prod p**n`` over the ``(p, n)`` in ``factors`` (:func:`hookalex.laurent.power_product`).

    Memoized by the factors' values, so equal denominators built by different
    operators, vertices or evaluations share one product.
    """
    return power_product(factors)


def _column_bound(ops: Sequence[BlockOperator]) -> int:
    """``sum_c u_c``, with ``u`` the column sums of entry 1-norms carried through the product.

    It bounds every coefficient of every entry and of the trace of the
    product (see :func:`_packed_product`).
    """
    u = [1] * len(ops[0])
    for op in ops:
        if op.exps is not None:  # diagonal, every entry a signed monomial: u is unchanged
            continue
        nxt = [0] * len(u)
        it = iter(op.col_norms)
        for c, r, n in zip(it, it, it):
            nxt[c] += u[r] * n
        u = nxt
    return sum(u)


def _packed_product(ops: Sequence[BlockOperator]
                    ) -> tuple[list[list[int]], int, int, list[int], LaurentPoly, int]:
    """The ordered product at q = 2**width as (columns, width, neg, exps, denominator, grade).

    Entry (r, c) is ``unpack(columns[c][r], width, exps[c])``, negated where
    bit ``c`` of ``neg`` is set; the denominator is the product of the
    operators' ``den``, and ``grade`` the gcd of the operators' grades (1 if
    all are 0), a modulus in which every term of the trace lies in one class
    (see :func:`trace_product`).  Calls ``numerator_rows`` once per operator.

    Width bound: let ``||p||_1`` be the sum of the absolute values of p's
    coefficients.  Every coefficient of an entry or of the trace is at most
    :func:`_column_bound`.  Proof: ``||pq||_1 <= ||p||_1 ||q||_1``, and a
    coefficient is at most its polynomial's 1-norm.  Let ``P`` be the
    running product and ``u_c`` a bound on ``sum_r ||P_rc||_1``, 1 for the
    identity.  Since ``(PB)_rc = sum_j P_rj B_jc``, summing over ``r`` gives
    ``sum_r ||(PB)_rc||_1 <= sum_j u_j ||B_jc||_1``, the next ``u_c``.  So
    each entry of column ``c`` is bounded by ``u_c``, and the trace, one
    entry per column, by ``sum_c u_c``.  A diagonal operator, whose entries
    are signed monomials, leaves ``u`` as it is, so ``_column_bound`` skips
    it, and a product of diagonal operators has the bound ``dim``.
    ``width`` is the least multiple of 8 with ``2**(width - 1)`` above the
    bound, which is what makes :func:`hookalex.laurent.unpack` exact.  The pending factors change
    none of this, nor does a column that reuses its lead term's ints: a
    stored column is its entries' polynomials times a signed power of q,
    with the same coefficients, and the trace decoded is the same
    polynomial.

    The denominator is computed by factors: each distinct ``den`` object
    (operators repeat, so few do) is raised to its count by
    :func:`den_product`, on ints packed in ``q**(2N)`` at the width that
    holds ``prod ||op.den||_1``, or found in its memo.
    """
    if not ops:
        raise ValueError("empty operator product")
    dims = {len(op) for op in ops}
    if len(dims) != 1:
        raise ValueError(f"operators act on different path bases: dims {sorted(dims)}")
    dim = len(ops[0])
    ops = [op.numerator_rows() for op in ops]
    width = packing_width(_column_bound(ops))

    cols = [[int(r == c) for r in range(dim)] for c in range(dim)]
    neg, exps = 0, [0] * dim
    dens: dict[int, list] = {}  # id(den) -> [den, count]; hashing a polynomial costs more
    for op in ops:
        if op.exps is not None:
            neg ^= op.neg
            exps = [a + b for a, b in zip(exps, op.exps)]
        else:
            cols, exps, neg = _apply(cols, neg, exps, op.packed(width), width)
            found = dens.get(id(op.den))
            if found is None:
                dens[id(op.den)] = [op.den, 1]
            else:
                found[1] += 1
    grade = math.gcd(*[op.grade for op in ops]) or 1
    den = den_product(tuple([(p, n) for p, n in dens.values()]))
    return cols, width, neg, exps, den, grade


def product_numerators(ops: Sequence[BlockOperator]) -> tuple[NumeratorRows, LaurentPoly]:
    """Ordered product as (numerator rows, common denominator); zero entries are omitted."""
    cols, width, neg, exps, den, _ = _packed_product(ops)
    rows: NumeratorRows = [dict() for _ in cols]
    for c, (col, e) in enumerate(zip(cols, exps)):
        sign = -1 if neg >> c & 1 else 1
        for r, value in enumerate(col):
            if value:
                rows[r][c] = unpack(sign * value, width, e)
    return rows, den


class Trace(NamedTuple):
    """An exact trace: integer numerator ``num`` over the product ``den`` of operator ``den``s."""

    num: LaurentPoly
    den: LaurentPoly


def trace_product(ops: Sequence[BlockOperator]) -> Trace:
    """Exact trace of the ordered product of block operators on one path basis.

    The numerator is read at its grade: every term lies in one class mod
    ``2N``, so only every ``2N``-th digit of the packed trace is decoded.

    Proof.  All congruences are of exponents, mod ``2N``.  Take a letter of
    level ``n`` (``n = 1``, den 1, for a letter without a doublet) and let
    ``k = K``, or ``-K`` for an inverse letter, whose entries have the same
    closed forms with ``K -> -K`` and ``nN -> -nN``.  The exponents of
    ``[n]_N`` are ``= (n-1)N``, so a singlet numerator ``+-q^(k +- N)
    [n]_N`` has exponents ``= k + nN``, as ``-N = N``; so do the doublet's
    diagonal entries ``r11`` and ``r22``, at ``k -+ nN``.  Off the diagonal,
    ``r12 = q^k [n+1]_N [n-1]_N`` has exponents ``= k + 2(n-1)N = k``, and
    ``r21 = q^k``.  A term of the trace is a closed walk through the path
    basis, one entry per letter.  It leaves the diagonal only at a doublet,
    toggling the path's step at that letter's level: from the arm side to
    the leg side by an ``r12``, back by an ``r21``.  To close, the walk
    toggles each level an even number of times, alternately by ``r12`` and
    ``r21``, so these pair up at each level.  A pair at letters ``i`` and
    ``j`` of level ``n`` gives ``k_i + k_j``, and diagonal entries there
    would give ``k_i + k_j + 2nN = k_i + k_j``.  So every term is ``= sum
    over the letters of (k + nN)``, one class for the whole trace.

    The grade is taken from the operators (:class:`BlockOperator`), and the
    claim is checked on every product: a nonzero digit off the grade is an
    internal inconsistency.  From the lowest term up, the packed trace is
    read at ``q**grade = 2**(grade * width)``.  Each wide digit ``D`` is a
    group of ``grade`` balanced digits of ``width`` bits, ``D = sum_i d_i
    2**(i * width)``, and the claim is that every ``d_i`` above ``d_0`` is
    zero.  That holds exactly when ``-2**(width - 1) <= D < 2**(width - 1)``:
    if the digits above are zero, ``D = d_0`` lies in that range; if the
    highest nonzero one is ``d_j``, ``j >= 1``, the digits below it add up
    to less than ``2**(j * width - 1)`` in absolute value, so ``|D| >
    2**(j * width - 1) >= 2**(width - 1)``.  The width proof puts every
    coefficient strictly inside that range, so a decoded coefficient of
    ``2**(width - 1)`` or more in absolute value is a digit off the grade.
    At grade 1 this is the plain decode, and the check fires only on what
    the width proof excludes.
    """
    cols, width, neg, exps, den, grade = _packed_product(ops)
    base = min(exps)
    total = 0
    for c, (col, e) in enumerate(zip(cols, exps)):
        x = col[c] << (e - base) * width
        total = total - x if neg >> c & 1 else total + x
    # drop the zero digits below the lowest term, whose lowest set bit lies in its own digit
    low = ((total & -total).bit_length() - 1) // width if total else 0
    num = unpack(total >> low * width, grade * width, base + low, grade)
    top = 1 << (width - 1)
    if num.terms and (max(num.terms) >= top or min(num.terms) <= -top):
        raise InexactDivisionError(
            f"trace of {len(ops)} operators on a path basis of {len(cols)}: a digit off "
            f"the q^{grade} grade is nonzero (width {width})")
    return Trace(num, den)


def _same_quotient(ra: NumeratorRows, da: LaurentPoly,
                    rb: NumeratorRows, db: LaurentPoly) -> bool:
    zero = LaurentPoly.zero()
    if len(ra) != len(rb):
        return False
    for rowa, rowb in zip(ra, rb):
        for c in set(rowa) | set(rowb):
            if rowa.get(c, zero) * db != rowb.get(c, zero) * da:
                return False
    return True


def yang_baxter_holds(graph: HookGraph, target_k: int, i: int) -> bool:
    """Check R^(i) R^(i+1) R^(i) == R^(i+1) R^(i) R^(i+1) exactly on one target."""
    a = assemble_R(graph, target_k, i)
    b = assemble_R(graph, target_k, i + 1)
    left = product_numerators([a, b, a])
    right = product_numerators([b, a, b])
    return _same_quotient(*left, *right)


def transpose_holds(graph: HookGraph, target_k: int, i: int, inverse: bool = False) -> bool:
    """Check the transposition identity on one crossing operator exactly.

    With ``omega: q -> -q^-1``, the operator of hook ``(a, l)`` at vertex
    ``k`` must match the operator of ``(l, a)`` at vertex ``m - 1 - k`` with
    every path flipped (basis index ``j -> dim - 1 - j``) wherever a closed
    trace can see it: the same support, equal diagonal quotients after
    ``omega``, and equal doublet products ``r12 r21`` after ``omega``.  The
    evaluator's mirrored vertices rest on this identity.
    """
    h = graph.base
    flipped = HookGraph(Hook(h.leg, h.arm), graph.levels)
    a = assemble_R(graph, target_k, i, inverse).numerator_rows()
    b = assemble_R(flipped, graph.levels - 1 - target_k, i, inverse).numerator_rows()
    dim = len(a)
    if len(b) != dim or ({(dim - 1 - r, dim - 1 - c) for r, row in enumerate(a) for c in row}
                         != {(r, c) for r, row in enumerate(b) for c in row}):
        return False
    zero = LaurentPoly.zero()
    da = a.den.substitute_neg_inverse()
    for r, row in enumerate(a):
        for c, entry in row.items():
            fr, fc = dim - 1 - r, dim - 1 - c
            if r == c:
                if entry.substitute_neg_inverse() * b.den != b[fr][fr] * da:
                    return False
            elif r < c:
                mirrored = (entry * a[c].get(r, zero)).substitute_neg_inverse()
                if mirrored * b.den * b.den != b[fr][fc] * b[fc].get(fr, zero) * da * da:
                    return False
    return True


def commutation_holds(graph: HookGraph, target_k: int, i: int, j: int) -> bool:
    a = assemble_R(graph, target_k, i)
    b = assemble_R(graph, target_k, j)
    left = product_numerators([a, b])
    right = product_numerators([b, a])
    return _same_quotient(*left, *right)
