"""Braiding operators on path bases of the one-hook graph.

Crossing strands colored by a hook ``(a, l)`` acts on each irreducible summand
of the tensor square by a signed monomial: with ``K = 2a^2 + 2a - 2l^2 - 2l``
and ``N = a + l + 1``,

    arm summand:  (-1)^l     q^(K + N)
    leg summand:  (-1)^(l+1) q^(K - N)

On the path basis of the hook graph, the operator for crossing ``(i, i+1)``
splits into singlets (paths stepping arm-arm or leg-leg through level ``i``)
and 2x2 doublets pairing the two paths that differ only at level ``i``.  The
doublet depends only on the level ``n``, never on the horizontal position.
With ``s = (-1)^l`` and ``[n].`` the q-number at q -> q^N, its entries are
integer numerators over the single denominator ``[n].``:

    [n]. r11 = -s q^(K - nN)      [n]. r12 = q^K [n+1]. [n-1].
    [n]. r21 =    q^K             [n]. r22 =  s q^(K + nN)

Since ``[n].^2 - [n+1].[n-1]. = 1``, the determinant is the monomial -q^(2K),
the product of the two eigenvalues, and the inverse doublet has the same
closed form with K -> -K and nN -> -nN.

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
width w is proven from the operators so that the decoding is exact: a row
norm bound first, and where that asks for more than the least width, the
column sums of entry 1-norms carried through the product (see
``_packed_product``).  Each column of the running product carries a pending
signed monomial beside its ints.  A crossing without a doublet acts by its
eigenvalues alone, so its operator only updates those factors and leaves the
ints as they are; the decoding applies them.  Since a factor moves a stored
polynomial by a signed power of q only, the width proof does not change.
Each operator is compiled once, the first time it enters a product, into a
plan (:class:`OperatorPlan`): its numerator rows, the norms the width bound
needs, and either its diagonal signs and exponents or, for an operator with
a doublet, its packed terms memoized for at most ``PLAN_WIDTHS`` widths.
Operators repeat across letters, vertices and braids, so a product only
shifts and adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import NamedTuple, Sequence

from .laurent import LaurentPoly, pack, qnum_bullet, unpack
from .laurent import exact_div  # noqa: F401  (the benchmark's tracer patches it here)
from .young import Hook, HookGraph, Path, enumerate_paths


@dataclass(frozen=True)
class SignedMonomial:
    """A value of the form ``sign * q**exponent`` with sign +-1; exactly invertible."""

    sign: int
    exponent: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def as_laurent(self) -> LaurentPoly:
        return LaurentPoly.monomial(self.sign, self.exponent)

    def inverse(self) -> SignedMonomial:
        return SignedMonomial(self.sign, -self.exponent)

    def __mul__(self, other: SignedMonomial) -> SignedMonomial:
        return SignedMonomial(self.sign * other.sign, self.exponent + other.exponent)

    def __pow__(self, n: int) -> SignedMonomial:
        return SignedMonomial(self.sign if n % 2 else 1, self.exponent * n)

    def evaluate(self, q):
        """Evaluate at a nonzero number; exact when ``q`` is int or Fraction."""
        return self.as_laurent().evaluate(q)

    def __str__(self) -> str:
        return str(self.as_laurent())


@dataclass(frozen=True)
class HookEigenvalues:
    """Crossing eigenvalues on the arm and leg summands of the tensor square."""

    arm: SignedMonomial
    leg: SignedMonomial


def framing_exponent(h: Hook) -> int:
    return 2 * h.arm * h.arm + 2 * h.arm - 2 * h.leg * h.leg - 2 * h.leg


def hook_eigenvalues(h: Hook) -> HookEigenvalues:
    """The two signed monomials acting on the one-hook tensor square.

    >>> ev = hook_eigenvalues(Hook(1, 0))
    >>> str(ev.arm), str(ev.leg)
    ('q^6', '-q^2')
    """
    k = framing_exponent(h)
    sign = -1 if h.leg % 2 else 1
    return HookEigenvalues(arm=SignedMonomial(sign, k + h.size),
                           leg=SignedMonomial(-sign, k - h.size))


def framing_factor(h: Hook) -> SignedMonomial:
    """Per-crossing monomial relating vertical framing to the normalized pair.

    Dividing both eigenvalues by it leaves exactly (q^N, -q^-N) with N the
    hook size, the fundamental pair under q -> q^N.
    """
    return SignedMonomial(-1 if h.leg % 2 else 1, framing_exponent(h))


@dataclass(frozen=True)
class DoubletBlock:
    """A 2x2 block on the two paths through neighboring level-``level`` vertices.

    The entries are integer numerators over the bullet q-number ``[level]_N``.
    Row/column 1 is the path through the arm-side vertex (lexicographically
    first), row/column 2 the leg-side path.
    """

    level: int
    r11: LaurentPoly
    r12: LaurentPoly
    r21: LaurentPoly
    r22: LaurentPoly


# Entries held by each operator cache.  The widest benchmark workload (4-strand
# knots, six hooks) keeps 144 operators live, so this bound never evicts there
# while still capping memory on long runs over many graphs.
OPERATOR_CACHE_SIZE = 1024


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def doublet_block(h: Hook, n: int, inverse: bool) -> DoubletBlock:
    """The level-``n`` doublet for base hook ``h`` as numerators over ``[n]_N`` (n >= 2).

    ``inverse`` gives the inverse doublet, over the same denominator.

    >>> b = doublet_block(Hook(0, 0), 2, False)
    >>> b.r11, b.r12, b.r21, b.r22
    (LaurentPoly('-q^-2'), LaurentPoly('q^2 + 1 + q^-2'), LaurentPoly('1'), LaurentPoly('q^2'))
    >>> doublet_block(Hook(0, 0), 2, True).r11
    LaurentPoly('-q^2')
    """
    if n < 2:
        raise ValueError(f"doublets start at level 2, got {n}")
    k = framing_exponent(h)
    shift = n * h.size
    if inverse:
        k, shift = -k, -shift
    sign = -1 if h.leg % 2 else 1
    off = qnum_bullet(n + 1, h.size) * qnum_bullet(n - 1, h.size)
    return DoubletBlock(n, LaurentPoly.monomial(-sign, k - shift), off.shift(k),
                        LaurentPoly.monomial(1, k), LaurentPoly.monomial(sign, k + shift))


NumeratorRows = list[dict[int, LaurentPoly]]


@dataclass(frozen=True)
class BlockOperator:
    """A block-diagonal operator on the lexicographic path basis of one target vertex.

    Every basis index appears in exactly one singlet or one doublet pair; each
    row therefore has at most two nonzero entries.  All entries share the
    single denominator ``den`` (the bullet q-number of the doublet level, or 1
    for a purely singlet operator), so products of operators stay in the form
    "integer-polynomial matrix over one polynomial denominator" and never need
    gcd reduction.
    """

    dim: int
    singlets: tuple[tuple[int, SignedMonomial], ...]
    doublets: tuple[tuple[tuple[int, int], DoubletBlock], ...]
    den: LaurentPoly

    def numerator_rows(self) -> OperatorPlan:
        """Entries as integer numerators over ``den``, with the operator's product plan.

        Built on the first call and shared by every later one, so callers must
        not mutate the rows.
        """
        return self._plan

    @cached_property
    def _plan(self) -> OperatorPlan:
        return OperatorPlan(self)


def _classify(path: Path, i: int) -> tuple[int, int] | int:
    """Step pair of ``path`` around level ``i``; the first crossing sees one step only."""
    if i == 1:
        return path.choices[0]
    return path.choices[i - 2], path.choices[i - 1]


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def assemble_R(graph: HookGraph, target_k: int, i: int, inverse: bool = False) -> BlockOperator:
    """The crossing operator for strands ``(i, i+1)`` on the target's path basis.

    Paths stepping arm-arm (resp. leg-leg) through level ``i`` are singlets
    with the arm (resp. leg) eigenvalue; mixed paths pair with their level-i
    toggle partner in the level-``i`` doublet.  ``inverse`` reciprocates the
    singlets and takes the inverse doublet's closed form.
    """
    m = graph.levels
    if not 1 <= i <= m - 1:
        raise ValueError(f"crossing index {i} outside 1..{m - 1}")
    paths = enumerate_paths(graph, target_k)
    index = {p: idx for idx, p in enumerate(paths)}
    ev = hook_eigenvalues(graph.base)
    singlets: list[tuple[int, SignedMonomial]] = []
    doublets: list[tuple[tuple[int, int], DoubletBlock]] = []
    for idx, p in enumerate(paths):
        steps = _classify(p, i)
        if steps == 0 or steps == (0, 0):
            singlets.append((idx, ev.arm.inverse() if inverse else ev.arm))
        elif steps == 1 or steps == (1, 1):
            singlets.append((idx, ev.leg.inverse() if inverse else ev.leg))
        elif steps == (0, 1):
            partner = index[p.toggle(i - 1)]
            doublets.append(((idx, partner), doublet_block(graph.base, i, inverse)))
        # the (1, 0) member is recorded by its (0, 1) partner
    den = qnum_bullet(i, graph.base.size) if doublets else LaurentPoly.one()
    return BlockOperator(len(paths), tuple(singlets), tuple(doublets), den)


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
# doublet rebuilds every column in one pass per term.  A term is a
# multiplier times q^e times a column of P, whose factor's sign goes into
# the multiplier.  The terms' combined exponents (e plus the factor's) are
# taken relative to their least one, the new column's factor, so every shift
# is nonnegative.  A +-1 multiplier (r11, r21, r22, and each term of a
# spread q-number) acts as a signed shift.  An entry with few terms spread
# over many bits acts as one signed shift per term, since a shift-and-add
# pass costs one pass over the running entry and a multiplication costs one
# pass per machine digit of the multiplier.  The denominator product runs on
# one int, stored over the sum of the operators' least den exponents.
#
# A stored column differs from the true one only by its factor, a signed
# power of q, so their coefficients are the same and the width proof of
# :func:`_packed_product` holds unchanged.  Decoding applies the factors: the
# trace adds the diagonal entries shifted to their least exponent, and
# product_numerators decodes each entry at its column's.
#
# What a product needs of one operator is compiled once, into the operator's
# plan (:class:`OperatorPlan`): its rows, the norms of the width bounds and,
# for a diagonal operator, its signs and exponents.  The packed terms of an
# operator with a doublet depend on the width too, so each plan memoizes them
# for its last PLAN_WIDTHS widths.  A product then only looks its operators'
# terms up and shifts and adds.

# Bits of packed span per nonzero term above which an entry is applied as one
# signed shift per term.  A q-number [n]_N has n terms over 2N(n-1) exponents,
# so it spreads once N * width > 64 n / (n - 1): short fundamental-color
# products (width 64 or less) keep one multiplication per entry, while deep
# and colored products, whose packed entries are mostly zero bits, shift.
SPREAD_BITS_PER_TERM = 128

# Widths at which each plan keeps its packed terms.  The width follows the
# bound on the whole product in steps of 8 bits, so the products of one
# operator visit few widths: with the column bound, up to 4 per operator over
# the fund-wide benchmark corpus, 6 over long-braid and 3 over colored-scaling
# (5, 8 and 3 under the scalar bound alone).  Past this bound the oldest width
# is dropped.
PLAN_WIDTHS = 8

# An operator's terms at one width, flat and column by column: the column's
# term count, then row, multiplier, exponent for each term.  One tuple per
# width keeps a plan small.
Terms = tuple[int, ...]


def _norm(p: LaurentPoly) -> int:
    return sum(map(abs, p.terms))


def _terms(p: LaurentPoly, width: int) -> list[tuple[int, int]]:
    """``p`` at q = 2**width as (multiplier, exponent) terms, ``p = sum m * q**e``."""
    nonzero = len(p.terms) - p.terms.count(0)
    if nonzero > 1 and (len(p.terms) - 1) * p.step * width > SPREAD_BITS_PER_TERM * nonzero:
        return [(c, p.min_exp + i * p.step) for i, c in enumerate(p.terms) if c]
    return [(pack(p, width), p.min_exp)]


class OperatorPlan(list):
    """One operator's numerator rows (the list itself) and what products need of them.

    ``norm`` is ``||op||``, the largest row sum of coefficient 1-norms;
    ``col_norms`` holds the 1-norm of every entry, flat as column, row, norm,
    column, row, norm, ...; ``den_norm`` is ``||op.den||_1``.  An operator
    without a doublet is diagonal with entries ``+-q**exps[c]``, the sign
    negative where bit ``c`` of ``neg`` is set; for any other operator
    ``exps`` is None and :meth:`packed` gives its terms at one width.
    """

    __slots__ = ("den", "norm", "col_norms", "den_norm", "neg", "exps", "_widths")

    def __init__(self, op: BlockOperator):
        super().__init__([{} for _ in range(op.dim)])
        singlet: dict[SignedMonomial, LaurentPoly] = {}  # one numerator per eigenvalue
        for idx, e in op.singlets:
            if e not in singlet:
                singlet[e] = op.den.shift(e.exponent) * e.sign
            self[idx][idx] = singlet[e]
        for (i, j), b in op.doublets:
            self[i][i], self[i][j], self[j][i], self[j][j] = b.r11, b.r12, b.r21, b.r22
        self.den = op.den
        norms = [{c: _norm(p) for c, p in row.items()} for row in self]
        self.norm = max(sum(row.values()) for row in norms)
        self.col_norms = tuple(x for r, row in enumerate(norms) for c, n in row.items()
                               for x in (c, r, n))
        self.den_norm = _norm(op.den)
        self.neg, self.exps = 0, None
        if not op.doublets:
            self.neg = sum(1 << idx for idx, e in op.singlets if e.sign < 0)
            self.exps = tuple(e.exponent for _, e in sorted(op.singlets))
        self._widths: dict[int, tuple[Terms, tuple[int, ...]]] = {}

    def packed(self, width: int) -> tuple[Terms, tuple[int, ...]]:
        """The entries' terms at q = 2**width, and those of ``den``.

        ``den``'s terms are flat as multiplier, shift, multiplier, shift, ...,
        the shifts in bits over ``den.min_exp``.
        """
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
            low = self.den.min_exp
            den = tuple(x for m, e in _terms(self.den, width) for x in (m, (e - low) * width))
            terms = tuple(x for col in columns for x in (len(col) // 3, *col))
            found = self._widths[width] = (terms, den)
        return found


def _apply(cols: list[list[int]], neg: int, exps: list[int], terms: Terms,
           width: int) -> tuple[list[list[int]], list[int]]:
    """The columns of P * B and their exponents, P given by ``cols``, ``neg`` and ``exps``.

    Column c of the result sums ``m * q**e`` times column ``k`` of P, its
    factor included, over the terms (k, m, e) of B's column c.  The terms are
    shifted over their least combined exponent, which becomes the new
    column's, with sign +1.
    """
    out: list[list[int]] = []
    out_exps: list[int] = []
    it = iter(terms)
    for n in it:
        # A singlet over den or a doublet column is read term by term: on short
        # products, zip, islice and a second list cost more than the passes.
        if n <= 2:
            k, m, e = next(it), next(it), next(it)
            found = [(k, -m if neg >> k & 1 else m, exps[k] + e)]
            base = found[0][2]
            if n == 2:
                k, m, e = next(it), next(it), next(it)
                found.append((k, -m if neg >> k & 1 else m, exps[k] + e))
                base = min(base, exps[k] + e)
        else:
            found = [(k, -m if neg >> k & 1 else m, exps[k] + e)
                     for k, m, e in islice(zip(it, it, it), n)]
            base = min([e for _, _, e in found])
        acc = None
        for k, m, e in found:
            src, shift = cols[k], (e - base) * width
            if acc is None:
                if m == 1:
                    acc = [x << shift for x in src]
                elif m == -1:
                    acc = [-x << shift for x in src]
                else:
                    acc = [x * m << shift for x in src]
            elif m == 1:
                acc = [a + (x << shift) for a, x in zip(acc, src)]
            elif m == -1:
                acc = [a - (x << shift) for a, x in zip(acc, src)]
            else:
                acc = [a + (x * m << shift) for a, x in zip(acc, src)]
        out.append(acc)
        out_exps.append(base)
    return out, out_exps


def _width(bound: int) -> int:
    """The least multiple of 8 bits whose signed digits hold every integer up to ``bound``."""
    return 8 * ((bound.bit_length() + 8) // 8)


def _column_bound(plans: Sequence[OperatorPlan]) -> int:
    """``sum_c u_c``, with ``u`` the column sums of entry 1-norms carried through the product.

    It bounds every coefficient of every entry and of the trace of the
    product (see :func:`_packed_product`).
    """
    u = [1] * len(plans[0])
    for plan in plans:
        nxt = [0] * len(u)
        it = iter(plan.col_norms)
        for c, r, n in zip(it, it, it):
            nxt[c] += u[r] * n
        u = nxt
    return sum(u)


def _packed_product(ops: Sequence[BlockOperator]
                    ) -> tuple[list[list[int]], int, int, list[int], LaurentPoly]:
    """The ordered product at q = 2**width as (columns, width, neg, exps, denominator).

    Entry (r, c) is ``unpack(columns[c][r], width, exps[c])``, negated where
    bit ``c`` of ``neg`` is set; the denominator is the decoded product of
    the operators' ``den``.  Calls ``numerator_rows`` once per operator, for
    its plan.

    Width bound: let ``||p||_1`` be the sum of the absolute values of p's
    coefficients and, for a numerator matrix, ``||A|| = max_r sum_c
    ||A_rc||_1``.  Every coefficient of the denominator is at most
    ``prod ||op.den||_1``, and every coefficient of an entry or of the trace
    at most ``dim * prod ||op||`` (the scalar bound) and at most
    :func:`_column_bound`.  Proofs: ``||pq||_1 <= ||p||_1 ||q||_1``, and a
    coefficient is at most its polynomial's 1-norm.  For the scalar bound,
    the norm is then submultiplicative, and the trace sums ``dim`` entries of
    one product.  For the column bound, let ``P`` be the running product and
    ``u_c`` a bound on ``sum_r ||P_rc||_1``, 1 for the identity.  Since
    ``(PB)_rc = sum_j P_rj B_jc``, summing over ``r`` gives ``sum_r
    ||(PB)_rc||_1 <= sum_j u_j ||B_jc||_1``, the next ``u_c``.  So each entry
    of column ``c`` is bounded by ``u_c``, and the trace, one entry per column,
    by ``sum_c u_c``.  That sum is at most the scalar bound (``u`` is the row
    vector of ones times the product of the matrices of entry 1-norms, whose
    row sums are the ``||op||``), so the column bound never widens a product.
    ``width`` is the least multiple of 8 with ``2**(width - 1)`` above the
    bounds, which is what makes :func:`hookalex.laurent.unpack` exact.  The
    column bound costs a pass over the plans, so it is taken only when the
    scalar bound asks for more than the least width, 8 bits.  The pending
    factors change none of this: a stored column is its entries' polynomials
    times a signed power of q, with the same coefficients, and the trace
    decoded is the same polynomial.
    """
    if not ops:
        raise ValueError("empty operator product")
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise ValueError(f"operators act on different path bases: dims {sorted(dims)}")
    dim = ops[0].dim
    plans = [op.numerator_rows() for op in ops]
    den_bound = math.prod([plan.den_norm for plan in plans])
    width = _width(max(dim * math.prod([plan.norm for plan in plans]), den_bound))
    if width > 8:
        width = _width(max(_column_bound(plans), den_bound))

    cols = [[int(r == c) for r in range(dim)] for c in range(dim)]
    neg, exps = 0, [0] * dim
    den, den_exp = 1, 0
    for plan in plans:
        if plan.exps is not None:
            neg ^= plan.neg
            exps = [a + b for a, b in zip(exps, plan.exps)]
        else:
            terms, den_terms = plan.packed(width)
            cols, exps = _apply(cols, neg, exps, terms, width)
            neg = 0
            it = iter(den_terms)
            den = sum([den << shift if m == 1 else den * m << shift for m, shift in zip(it, it)])
            den_exp += plan.den.min_exp
    return cols, width, neg, exps, unpack(den, width, den_exp)


def product_numerators(ops: Sequence[BlockOperator]) -> tuple[NumeratorRows, LaurentPoly]:
    """Ordered product as (numerator rows, common denominator); zero entries are omitted."""
    cols, width, neg, exps, den = _packed_product(ops)
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
    """Exact trace of the ordered product of block operators on one path basis."""
    cols, width, neg, exps, den = _packed_product(ops)
    base = min(exps)
    total = 0
    for c, (col, e) in enumerate(zip(cols, exps)):
        x = col[c] << (e - base) * width
        total = total - x if neg >> c & 1 else total + x
    return Trace(unpack(total, width, base), den)


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
