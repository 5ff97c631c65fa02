"""Registry of named identity cases, each with two or more independent side
evaluators, plus the verification kernel that compares them.

Every case is an :class:`IdentityCase`: a parameter schema and a tuple of
named evaluators whose values must all agree.  Its equality mode follows from
the schema: "truncated" for a series identity checked to an order n, "exact"
for a polynomial identity.  The first side is the reference; a report
records the verdict and the first mismatching coefficient if any.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from qcap.series import (
    ONE,
    Accumulator,
    QSeries,
    ZERO,
    _Classes,
    _limbs,
    compare,
    monomial,
    stretched_product_sum,
)
from qcap.qcombinat import (
    _div_one_minus,
    _poch_step,
    binomial_product_sum,
    inv_pochhammer,
    inv_pochhammer_inf,
    jacobi3,
    pochhammer_inf,
    product_of_inf,
    q_binomial,
    trinomial_t,
    warnaar_s,
)


class ParamOutOfRange(ValueError):
    """A case was invoked with missing, unknown, or out-of-range parameters."""


# ---------------------------------------------------------------------------
# Seed double sums (the base identities the hierarchies grow from)
#
# Each seed evaluator returns the exact left-hand side polynomial at bound M
# (or L); hierarchy evaluators reuse them per inner index, which is sound
# because the grouped Pochhammer quotients are themselves polynomials.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _base3_seeds(M: int) -> tuple[QSeries, QSeries, QSeries]:
    """seed_cap1_binomial, seed_cap2_binomial and seed_sum_cap at bound M, in
    one loop over their terms (m, n), which share e = 2m^2+6mn+6n^2 and the
    quotient (q^3)_M / [(q)_m (q^3)_n (q^3)_c], c = M-2n-m.  Each quotient
    steps from the one before: from 1 at (0, 0), along n at m = 0 by
    (1-q^{3c+3})(1-q^{3c+6}) / (1-q^{3n}), along m by (1-q^{3c+3}) / (1-q^m)."""
    sums, start = (Accumulator(), Accumulator(), Accumulator()), [1]
    for n in range(M // 2 + 1):
        c = M - 2 * n
        ratio = start = _poch_step(start, range(3 * c + 3, min(3 * c + 6, 3 * M) + 1, 3),
                                   (3 * n,) if n else ())
        for m in range(c + 1):
            if m:
                ratio = _poch_step(ratio, (3 * (c - m) + 3,), (m,))
            value, e = QSeries(0, ratio), 2 * m * m + 6 * m * n + 6 * n * n
            for i, x in ((0, e), (1, e + m + 3 * n), (1, e + 3 * m + 6 * n + 1),
                         (2, e - 2 * m - 3 * n), (2, e - 2 * m - 3 * n + 3 * M)):
                sums[i].add(value.shift(x))
    return tuple(total.value() for total in sums)


def seed_cap1_binomial(M: int) -> QSeries:
    """sum q^{2m^2+6mn+6n^2} (q^3)_M / [(q)_m (q^3)_n (q^3)_{M-2n-m}]."""
    return _base3_seeds(M)[0]


def seed_cap2_binomial(M: int) -> QSeries:
    """The printed two-sum layout over the seed_cap1_binomial quotient: the
    first sum has exponent 2m^2+6mn+6n^2+m+3n, the second carries the
    prefactor q and exponent 2m^2+6mn+6n^2+3m+6n."""
    return _base3_seeds(M)[1]


def seed_sum_cap(M: int) -> QSeries:
    """sum q^{2m^2+6mn+6n^2-2m-3n} (1+q^{3M}) (q^3)_M / [...] (same quotient)."""
    return _base3_seeds(M)[2]


def _base1_sum(L: int, terms: Callable[[int, int, int, int], Iterable[tuple[int, int]]],
               drop: int = 0) -> QSeries:
    """sum c q^x ratio over every m, n >= 0 with r = L-3n-2m-drop >= 0 and
    each (x, c) in terms(m, n, e, r), e = 2m^2+6mn+6n^2 and ratio = (q)_L /
    [(q)_r (q)_m (q^3)_n].  Each ratio steps from the one before: from
    (q)_L / (q)_{L-drop} at (0, 0), along n at m = 0 by (1-q^{r+1})(1-q^{r+2})
    (1-q^{r+3}) / (1-q^{3n}), along m by (1-q^{r+1})(1-q^{r+2}) / (1-q^m)."""
    total, start = Accumulator(), [1]
    for n in range((L - drop) // 3 + 1):
        r = L - 3 * n - drop
        ratio = start = _poch_step(start, range(r + 1, min(r + 3, L) + 1), (3 * n,) if n else ())
        for m in range(r // 2 + 1):
            if m:
                ratio = _poch_step(ratio, (r - 2 * m + 1, r - 2 * m + 2), (m,))
            value = QSeries(0, ratio)
            for x, c in terms(m, n, 2 * m * m + 6 * m * n + 6 * n * n, r - 2 * m):
                total.add(value.shift(x) * c)
    return total.value()


@lru_cache(maxsize=None)
def seed_cap1(L: int) -> QSeries:
    """sum q^{2m^2+6mn+6n^2} (q)_L / [(q)_{L-3n-2m} (q)_m (q^3)_n]."""
    return _base1_sum(L, lambda m, n, e, r: ((e, 1),))


@lru_cache(maxsize=None)
def s1_sum(L: int) -> QSeries:
    """First double sum of seed_cap2: the seed_cap1 summand times q^{m+3n}."""
    return _base1_sum(L, lambda m, n, e, r: ((e + m + 3 * n, 1),))


@lru_cache(maxsize=None)
def s2_sum(L: int) -> QSeries:
    """Second double sum of seed_cap2: prefactor q, exponent 2m^2+6mn+6n^2
    +3m+6n, and residual length L-3n-2m-1 (kept as printed, not absorbed)."""
    return _base1_sum(L, lambda m, n, e, r: ((e + 3 * m + 6 * n + 1, 1),), drop=1)


@lru_cache(maxsize=None)
def seed_cap2(L: int) -> QSeries:
    """The second identity's left-hand side: s1_sum + s2_sum."""
    return s1_sum(L) + s2_sum(L)


# ---------------------------------------------------------------------------
# Theta-style right-hand sides
# ---------------------------------------------------------------------------

def binomial_sum(L: int, a: int, base: int,
                 weight: Callable[[int], Iterable[tuple[int, int]]]) -> QSeries:
    """sum_j weight(j) * [2L+a, L-j] in the given base, over every j with a
    non-vanishing binomial, in one binomial_product_sum pass: a term c q^e
    [2L+a, L-j] for each pair (e, c) of weight(j)."""
    return binomial_product_sum([(e, c, ((2 * L + a, L - j),))
                                 for j in range(-L - a, L + 1) for e, c in weight(j)], base)


# ---------------------------------------------------------------------------
# Hierarchy families
# ---------------------------------------------------------------------------

class HierarchyFamily(NamedTuple):
    """One Bailey hierarchy: seed double sum, base, parity a, chain shape,
    the seed identity's Bailey pair alpha, and the product side of its
    f -> infinity limit."""

    name: str
    base: int  # 1 or 3: every Pochhammer of the chain lives in q^base
    a: int  # 0 or 1: kernel [2L+a, L-j] and chain weight q^{base(N^2+aN)}
    seed: Callable[[int], QSeries]  # exact seed LHS at inner bound n_f
    # accepts s; its chain adds N_{f-s+1}+...+N_f, which is no multiple of the
    # base, so base 1 only: both sides sum a chain in q and stretch it to q^base
    twisted: bool
    alpha: Callable[[int, int], Iterable[tuple[int, int]]]  # (s, j) -> alpha_j as (e, c) pairs
    # (p, s) -> lists of (shift, step, sign) infinite Pochhammers, p = f + 1;
    # the limit is the sum of their products over (q^base; q^base)_inf.
    limit_products: Callable[[int, int], tuple[tuple[tuple[int, int, int], ...], ...]]


FAMILIES: dict[str, HierarchyFamily] = {
    "cap1_binomial": HierarchyFamily(
        "cap1_binomial", 3, 0, seed_cap1_binomial, False,
        lambda s, j: ((3 * j * j + j, 1),),
        lambda p, s: (((6 * p, 6 * p, -1), (3 * p - 1, 6 * p, 1), (3 * p + 1, 6 * p, 1)),)),
    "cap2_binomial": HierarchyFamily(
        "cap2_binomial", 3, 1, seed_cap2_binomial, False,
        lambda s, j: ((3 * j * j + 2 * j, 1),),
        lambda p, s: (((6 * p, 6 * p, -1), (1, 6 * p, 1), (6 * p - 1, 6 * p, 1)),)),
    "sum_cap": HierarchyFamily(
        "sum_cap", 3, 0, seed_sum_cap, False,
        lambda s, j: ((3 * j * j - 2 * j, 1), (3 * j * j + j, 1)),
        lambda p, s: (((6 * p, 6 * p, -1), (3 * p - 2, 6 * p, 1), (3 * p + 2, 6 * p, 1)),
                      ((6 * p, 6 * p, -1), (3 * p - 1, 6 * p, 1), (3 * p + 1, 6 * p, 1)))),
    "cap1": HierarchyFamily(
        "cap1", 1, 0, seed_cap1, False,
        lambda s, j: ((j * j, jacobi3(j + 1)),),
        lambda p, s: (((p, p, -1), (3 * p, 3 * p, 1), (2 * p, 6 * p, 1), (4 * p, 6 * p, 1)),)),
    "cap2": HierarchyFamily(
        "cap2", 1, 0, seed_cap2, False,
        lambda s, j: ((j * j + j, jacobi3(j + 1)),),
        lambda p, s: (((p + 1, 6 * p, -1), (5 * p - 1, 6 * p, -1), (6 * p, 6 * p, -1),
                       (4 * p - 2, 12 * p, -1), (8 * p + 2, 12 * p, -1)),)),
    "cap2_analogue": HierarchyFamily(
        "cap2_analogue", 1, 1, seed_cap2, False,
        lambda s, j: ((j * j + j, jacobi3(j + 1)),),
        lambda p, s: (((2 * p, 2 * p, -1), (2 * p, 12 * p, -1), (10 * p, 12 * p, -1)),)),
    "double": HierarchyFamily(
        "double", 1, 0, seed_cap1, True,
        lambda s, j: ((j * j - s * j, jacobi3(j + 1)),),
        lambda p, s: (((p - s, 6 * p, -1), (5 * p + s, 6 * p, -1), (6 * p, 6 * p, -1),
                       (4 * p + 2 * s, 12 * p, -1), (8 * p - 2 * s, 12 * p, -1)),)),
}


def alpha_sum(fam: HierarchyFamily, f: int, L: int, s: int = 0) -> QSeries:
    """sum_j alpha_j q^{f*base*(j^2+aj)} [2L+a, L-j]_{q^base}: the seed
    identity's right-hand side after f Bailey steps (f = 0: the seed's own)."""
    b, a = fam.base, fam.a
    return binomial_sum(L, a, b, lambda j: [(e + f * b * (j * j + a * j), c)
                                            for e, c in fam.alpha(s, j)])


@lru_cache(maxsize=None)
def rhs_new_fin_cap(which: int, L: int) -> QSeries:
    return alpha_sum(FAMILIES["cap1" if which == 1 else "cap2"], 0, L)


def _family_checked(family: str, f: int, s: int) -> HierarchyFamily:
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise ParamOutOfRange(
            f"unknown hierarchy family {family!r}; valid: {', '.join(sorted(FAMILIES))}"
        ) from None
    if f < 1:
        raise ParamOutOfRange("hierarchy depth f must be >= 1")
    if s and not fam.twisted:
        raise ParamOutOfRange(f"family {family!r} takes no twist")
    if not 0 <= s <= f:
        raise ParamOutOfRange("twist s must satisfy 0 <= s <= f")
    return fam


Level = tuple[QSeries, ...]  # P_k(N) for N = 0, 1, ...: one level of a chain


def _level_up(level: Level, eps: int, kernel: Callable[[int, int], QSeries],
              order: int | None = None) -> Level:
    """The next level of a nested chain sum: P_k(N) = sum_{N' >= N}
    q^{N'^2+eps*N'} kernel(N, N') P_{k-1}(N'), for each N of the level.

    At an order n, P_k(N) is kept only to order n - (N^2+eps*N), all that
    survives the shift the next level gives it: each kernel is clipped to
    that order, and the terms N' whose shift lies beyond it are skipped."""
    weights = [n * n + eps * n for n in range(len(level))]
    weighted = [p.shift(w) for p, w in zip(level, weights)]
    out = []
    for N, w in enumerate(weights):
        keep = None if order is None else order - w
        total = Accumulator(keep)
        for n in range(N, len(level)):
            if keep is None:
                total.add(kernel(N, n) * weighted[n])
            elif weights[n] <= keep:
                total.add(kernel(N, n).truncate(keep) * weighted[n])
        out.append(total.value())
    return tuple(out)


def _rows(stacks: Callable[..., list], key: tuple, a: int, f: int, s: int,
          kernel: Callable[[int, int], QSeries], tails: Level,
          order: int | None = None) -> tuple[QSeries, ...]:
    """The row tail * q^{n_f^2+eps*n_f} P_{f-1}(n_f) of each n_f, for a chain
    of weight q^{N^2+aN} whose last s-1 levels add 1 to eps: P_{f-1} is the
    untwisted P_{f-s} (P_{f-1} for s = 0) of the kept stack stacks(a, *key),
    its missing levels built once and appended, extended by s-1 twisted
    levels.  At s = f every level is twisted: the untwisted chain of a + 1."""
    eps = a + bool(s)
    if s == f:
        a, s = a + 1, 0
    stack, depth = stacks(a, *key), f - max(s, 1)
    while len(stack) <= depth:
        stack.append(_level_up(stack[-1], a, kernel, order))
    level = stack[depth]
    for _ in range(s - 1):
        level = _level_up(level, a + 1, kernel, order)
    return tuple((tail * inner).shift(nf * nf + eps * nf)
                 for nf, (tail, inner) in enumerate(zip(tails, level)))


@lru_cache(maxsize=2)
def _chain_levels(a: int, L: int) -> list[Level]:
    """[P_0, P_1, ...], the untwisted levels of an (a, L) chain with P_0(N)
    = 1; _rows appends the deeper levels as they are asked for."""
    return [(ONE,) * (L + 1)]


@lru_cache(maxsize=2)
def _chain_tails(a: int, L: int) -> Level:
    """(q)_{2L+a} / [(q)_{L-n} (q)_{2n+a}] for n = 0..L: the tails of an (a,
    L) chain, stepped down from 1 at n = L by (1-q^{2n+a-1})(1-q^{2n+a}) /
    (1-q^{L-n+1})."""
    tails = [[1]]
    for n in range(L, 0, -1):
        tails.append(_poch_step(tails[-1], (2 * n + a - 1, 2 * n + a), (L - n + 1,)))
    return tuple(QSeries(0, tail) for tail in reversed(tails))


@lru_cache(maxsize=2)
def _chain_rows(a: int, f: int, s: int, L: int) -> tuple[_Classes, ...]:
    """The chains of n_f = 0..L at (f, s, L) for parity a, which every family
    of that a reads, each as its base-1 classes, packed once per limb width.
    With N_1 >= ... >= N_f = n_f, the chain quotient is (q)_{2L+a} /
    [(q)_{L-n_f} (q)_{2n_f+a}] times prod_{k<f} [L-N_{k+1}, N_k-N_{k+1}], so
    the sum over index vectors nests level by level from N_1 inward, into the
    rows of _rows.  verify_grid evaluates its instances grouped by (L, f, s),
    so the rows, levels and tails keep that L only."""
    return tuple(_Classes(row, 1) for row in _rows(
        _chain_levels, (L,), a, f, s, lambda N, n: q_binomial(L - N, n - N), _chain_tails(a, L)))


@lru_cache(maxsize=None)
def _seed_classes(seed: Callable[[int], QSeries], n: int, base: int) -> _Classes:
    """seed(n) split by exponent mod base, its classes packed once per limb width."""
    return _Classes(seed(n), base)


def hierarchy_finite_lhs(family: str, f: int, L: int, s: int = 0) -> QSeries:
    """Exact multi-sum: the chain of each n_f (_chain_rows) times the seed
    polynomial at n_f.  A base-b chain is summed in powers of q, and one
    stretched_product_sum pass adds up chain(q^b) * seed(n_f) over every n_f,
    by residue class of the seed, whose classes are tabled once per run."""
    fam = _family_checked(family, f, s)
    return stretched_product_sum([(row, _seed_classes(fam.seed, nf, fam.base))
                                  for nf, row in enumerate(_chain_rows(fam.a, f, s, L))], fam.base)


def hierarchy_finite_rhs(family: str, f: int, L: int, s: int = 0) -> QSeries:
    return alpha_sum(_family_checked(family, f, s), f, L, s)


@lru_cache(maxsize=None)
def _limit_levels(a: int, m: int) -> list[Level]:
    """[P_0, P_1, ...], the untwisted levels of a limit chain summed in
    powers of q to order m, with P_0(N) = 1 for N^2 <= m, as _chain_levels."""
    return [(ONE,) * (math.isqrt(m) + 1)]


def hierarchy_limit_lhs(family: str, f: int, n: int, s: int = 0) -> QSeries:
    """Truncated multi-sum: the chain of hierarchy_finite_lhs with its
    (q)_{2L+a} / (q)_{L-N_1} factor dropped, each kernel [L-N, N'-N] replaced
    by its L -> infinity limit 1 / (q)_{N'-N} and each tail by 1 / (q)_{2n_f+a}.
    As on the finite side it is summed in powers of q, to order m = ceil(n /
    base), and its packed pass stretches each row to q^base, so it is known
    to at least q^n.  One untwisted stack per (a, m) serves every family of
    that a and order in q; the twisted levels are not kept."""
    fam = _family_checked(family, f, s)
    m = -(-n // fam.base)
    tails = tuple(inv_pochhammer(2 * nf + fam.a, 1, m) for nf in range(math.isqrt(m) + 1))
    rows = _rows(_limit_levels, (m,), fam.a, f, s,
                 lambda N, k: inv_pochhammer(k - N, 1, m), tails, m)
    # a row's terms to q^m are exact and, stretched, reach q^{base*m} >= q^n
    return stretched_product_sum([(_Classes(QSeries(row.offset, row.truncate(m).coeffs), 1),
                                   _seed_classes(fam.seed, nf, fam.base))
                                  for nf, row in enumerate(rows)], fam.base).truncate(n)


def hierarchy_limit_rhs(family: str, f: int, n: int, s: int = 0) -> QSeries:
    fam = _family_checked(family, f, s)
    total = Accumulator(n)
    for factors in fam.limit_products(f + 1, s):
        total.add(product_of_inf(factors, n))
    return total.value() * inv_pochhammer_inf(fam.base, fam.base, n)


# ---------------------------------------------------------------------------
# Doubly bounded refinement hierarchy (the S-function ladder)
# ---------------------------------------------------------------------------

def _m_sum(n_last: int, i: int, SN: int, sq: int, m_max: int) -> QSeries:
    """The Warnaar-kernel m-sum, n = n_last: sum q^e [3n, m] [2n + (i-m-SN)/2,
    2n]_{q^3} over m = i + SN (mod 2) up to min(3n, i - SN, m_max), with e =
    (m^2 + 3i^2 + sq) / 2.  With sq = 3 * sum(N_k^2) that parity makes m^2 +
    3i^2 + sq even, and neither binomial vanishes in that range."""
    total = Accumulator()
    for m in range((i + SN) % 2, min(3 * n_last, i - SN, m_max) + 1, 2):
        t3 = q_binomial(3 * n_last, m, 1)
        t4 = q_binomial(2 * n_last + (i - m - SN) // 2, 2 * n_last, 3)
        total.add((t3 * t4).shift((m * m + 3 * i * i + sq) // 2))
    return total.value()


def _ladder_chains(nu: int, i: int, top: int,
                   sq_max: float = math.inf) -> Iterator[tuple[int, int, int, int, int, QSeries]]:
    """(N_1, N_nu, sum N, 3 sum N^2, m_top, mid) for every chain N_1 >= ...
    >= N_nu >= 0 with N_1 <= top and 3 sum N^2 <= sq_max whose m-sum is not
    empty, where m_top = min(3 N_nu, i - sum N, isqrt(sq_max - 3 sum N^2)),
    the m-sum runs over m = i + sum N (mod 2) up to m_top, and mid =
    prod_{k < nu} [i - C_k + n_k, n_k]_{q^3}, C_k = N_1 + ... + N_k and n_k =
    N_k - N_{k+1}.  No other chain has a term, and no middle binomial
    vanishes while every C_k <= i.  Each level's factor multiplies mid once
    for all the chains below it, the last level's only for a chain with a
    term; the walk stops descending once 3 sum N^2 passes sq_max, since it
    only grows."""
    def walk(level, N1, last, C, sq, mid):
        # extends N_1, ..., N_level (sum C, sum of squares sq) by one level
        for N in range(min(last, i - C) + 1):
            C_n, sq_n = C + N, sq + N * N
            if 3 * sq_n > sq_max:
                break
            if level + 1 == nu:
                m_top = min(3 * N, i - C_n)
                if sq_max < math.inf:
                    m_top = min(m_top, math.isqrt(sq_max - 3 * sq_n))
                if m_top < (i + C_n) % 2:
                    continue
            N1_n = N1 if level else N
            mid_n = mid * q_binomial(i - C + last - N, last - N, 3) if level else mid
            if level + 1 == nu:
                yield N1_n, N, C_n, 3 * sq_n, m_top, mid_n
            else:
                yield from walk(level + 1, N1_n, N, C_n, sq_n, mid_n)

    yield from walk(0, 0, top, 0, 0, ONE)


@lru_cache(maxsize=1)
def _refinement_groups(nu: int, L: int) -> tuple[list[_Classes], dict]:
    """(groups, packs): the groups i <= M of the largest M read, split by
    exponent mod 3, and packs.  No group depends on M, which runs innermost,
    so one table serves every M.  nu = 0: group i is the m-sum of n = L - i."""
    return [], {}


def _bounded_binomial_sum(L: int, M: int, groups: list[_Classes], packs: dict) -> QSeries:
    """sum [L+M-i, L]_{q^3} group_i over the groups i <= min(L, M), one packed
    pass per class mod 3: with group_i = sum_r q^r g_r(q^3), its term is sum_r
    q^r ([L+M-i, L] g_r)(q^3).  All coefficients lie in [0, bound], bound =
    sum comb(L+M-i, L) group_i(1), so in unsigned limbs with 2**(8w) > bound
    each class adds up carry-free, to bound.  The groups keep their classes
    packed per width, and packs the last width's [L+k, L] for later M."""
    bound = sum(math.comb(L + M - i, L) * group.one for i, group in enumerate(groups))
    limbs = _limbs(bound, signed=False)
    if limbs.width not in packs:
        packs.clear()
    binomials = packs.setdefault(limbs.width, [])
    binomials.extend(limbs.pack(q_binomial(L + k, L).coeffs) for k in range(len(binomials), M + 1))
    sums = [0] * 3
    for i, group in enumerate(groups):
        for (r, u, _, _), packed in zip(group.parts, group.packed(limbs)):
            sums[r] += binomials[M - i] * packed << 8 * limbs.width * u
    n = max(g.b.degree() // 3 + (M - i) * L for i, g in enumerate(groups)) + 1
    return QSeries(0, limbs.unpack_classes(sums, n, bound))


def refinement_hierarchy_lhs(nu: int, L: int, M: int) -> QSeries:
    """Exact parity-constrained multi-sum with the doubly bounded binomial
    kernel [L+M-i, L]_{q^3} [L-N_1, i]_{q^3}.  Group i sums, over the ladder
    chains with N_1 <= L - i, the m-sum times [L-N_1, i] and the middle
    binomials; [L+M-i, L] then multiplies each group, in one packed pass."""
    groups, packs = _refinement_groups(nu, L)
    while len(groups) <= min(L, M):
        i = len(groups)
        if not nu:
            groups.append(_Classes(_m_sum(L - i, i, 0, 0, i), 3))
            continue
        group = Accumulator()
        for N1, n_last, SN, sq, m_top, mid in _ladder_chains(nu, i, L - i):
            inner = _m_sum(n_last, i, SN, sq, m_top)
            group.add(q_binomial(L - N1, i, 3) * mid * inner)
        groups.append(_Classes(group.value(), 3))
    return _bounded_binomial_sum(L, M, groups[:min(L, M) + 1], packs)


def refinement_hierarchy_rhs(nu: int, L: int, M: int) -> QSeries:
    """sum_j q^(3cj^2 + j) S(L, M; (nu+2)j, (nu+1)j)_{q^3}, c = (nu+2)(nu+1)/2,
    summed over every (j, n) term in one binomial_product_sum pass.  S has a
    term only for |j| <= J = min(M // (nu+1), L // (nu+2)): past it the range
    max(0, -a) <= n <= min(M - a + b, M - b, (L - a) / 2) of warnaar_s is empty."""
    c, J = (nu + 2) * (nu + 1) // 2, min(M // (nu + 1), L // (nu + 2))
    terms = []
    for j in range(-J, J + 1):
        terms += warnaar_s(L, M, (nu + 2) * j, (nu + 1) * j, base=3, shift=3 * c * j * j + j)
    return binomial_product_sum(terms, 3)


@lru_cache(maxsize=None)  # the left side of s_hierarchy_limit and corollary_transform
def refinement_limit_lhs(nu: int, n: int) -> QSeries:
    """M, L -> infinity: the two bounded binomials collapse to 1/(q^3;q^3)_i."""
    total = Accumulator(n)
    for i in range(math.isqrt(2 * n // 3) + 1):
        # the exponent (m^2 + 3i^2 + sq) / 2 is <= n exactly when m^2 <= 2n -
        # 3i^2 - sq, so the walk's m_top leaves out every other m
        for _, n_last, SN, sq, m_top, mid in _ladder_chains(nu, i, i, 2 * n - 3 * i * i):
            # cut at order n, the product keeps only the part of mid below it
            inner = _m_sum(n_last, i, SN, sq, m_top).truncate(n)
            total.add(mid * inner * inv_pochhammer(i, 3, n))
    return total.value()


# ---------------------------------------------------------------------------
# Seed identity with Warnaar kernel and the trinomial identities
# ---------------------------------------------------------------------------

def roundtri_lhs(which: int, L: int) -> QSeries:
    total = Accumulator()
    for n in range(L // 2 + 1):
        for m in range(L - 2 * n + 1):
            r = L - 2 * n - m
            e = 2 * m * m + 6 * m * n + 6 * n * n
            if which == 1:
                t = q_binomial(3 * r, m, 1) * q_binomial(2 * r + n, n, 3)
                total.add(t.shift(e))
            else:
                t1 = q_binomial(3 * r + 2, m, 1) * q_binomial(2 * r + n + 1, n, 3)
                total.add(t1.shift(e + m + 3 * n))
                t2 = q_binomial(3 * r, m, 1) * q_binomial(2 * r + n, n, 3)
                total.add(t2.shift(e + 3 * m + 6 * n + 1))
    return total.value()


def roundtri_rhs(which: int, L: int) -> QSeries:
    """sum_j q^(3j^2 + j) T(L; 2j, 2j)_{q^3} (which 1) or sum_j q^(3j^2 + 2j)
    T(L+1; 2j+1, 2j+1)_{q^3} (which 2), summed over every (j, term of T) in
    one binomial_product_sum pass."""
    terms = []
    for j in range(-(L // 2 + 2), L // 2 + 3):
        if which == 1:
            terms += trinomial_t(L, 2 * j, 2 * j, base=3, shift=3 * j * j + j)
        else:
            terms += trinomial_t(L + 1, 2 * j + 1, 2 * j + 1, base=3, shift=3 * j * j + 2 * j)
    return binomial_product_sum(terms, 3)


# ---------------------------------------------------------------------------
# Analytic limits of the base identities
# ---------------------------------------------------------------------------

def cap_analytic_lhs(which: int, n: int) -> QSeries:
    total = Accumulator(n)
    m = 0
    while 2 * m * m <= n:
        k = 0
        while 2 * m * m + 6 * m * k + 6 * k * k <= n:
            e = 2 * m * m + 6 * m * k + 6 * k * k
            # only order n - e survives the shift by e
            base_term = inv_pochhammer(m, 1, n).truncate(n - e) * inv_pochhammer(k, 3, n)
            if which == 1:
                total.add(base_term.shift(e))
            else:
                t = base_term.shift(e + m + 3 * k)
                total.add(t)
                total.add(t.shift(1 + 2 * m + 3 * k))
            k += 1
        m += 1
    return total.value()


def cap_analytic_rhs(which: int, n: int) -> QSeries:
    """(-q^{3-which}, -q^{3+which}; q^6)_inf (-q^3; q^3)_inf."""
    return product_of_inf(((3 - which, 6, 1), (3 + which, 6, 1), (3, 3, 1)), n)


# ---------------------------------------------------------------------------
# Right-hand-side rewrites (three displayed forms each)
# ---------------------------------------------------------------------------

def rhs_rewrite_split(which: int, L: int) -> QSeries:
    """The 3k / 3k+1 split form."""
    total = Accumulator()
    for k in range(-(L // 3 + 2), L // 3 + 3):
        b0 = q_binomial(2 * L, L + 3 * k, 1)
        b1 = q_binomial(2 * L, L + 3 * k + 1, 1)
        if which == 1:
            e0, e1 = 9 * k * k, (3 * k + 1) ** 2
        else:
            e0, e1 = 3 * k * (3 * k + 1), (3 * k + 1) * (3 * k + 2)
        total.add(b0.shift(e0))
        total.add(-b1.shift(e1))
    return total.value()


def rhs_rewrite_rational(which: int, L: int) -> QSeries:
    """The rational-factor form: the common-denominator numerator divided by
    each factor (1 - q^{L+3j+1}) in turn, minus the divisibility correction."""
    js = range(-(L // 3), L // 3 + 1)
    dens = [L + 3 * j + 1 for j in js]
    numerator: list[int] = []
    for j, m in zip(js, dens):
        b = q_binomial(2 * L, L + 3 * j, 1)  # 0 <= L + 3j <= 2L: never zero
        if which == 1:
            piece = (ONE - monomial(6 * j + 1)).shift(9 * j * j) * b
        else:
            # exponent 3j(3j+1), not the 3j(3j-1) sometimes quoted: combining
            # the split form over the common denominator gives
            # q^{3j(3j+1)} (1 - q^{6j+2} - (1-q) q^{L+3j+1}); verified for L <= 8.
            factor = ONE - monomial(6 * j + 2) - (ONE - monomial(1)).shift(L + 3 * j + 1)
            piece = factor.shift(3 * j * (3 * j + 1)) * b
        # no negative power of q: 9j^2+6j+1 = (3j+1)^2, 9j^2+9j+2 = (3j+1)(3j+2)
        term = _poch_step([0] * piece.offset + list(piece.coeffs), [d for d in dens if d != m], ())
        numerator = list(map(sum, itertools.zip_longest(numerator, term, fillvalue=0)))
    for m in dens:
        numerator = _div_one_minus(numerator, m)
    total = QSeries(0, numerator)
    if (L - 2) % 3 == 0:
        total = total - monomial(L * L if which == 1 else L * (L - 1))
    return total


def vanishing_aux_sum(L: int) -> QSeries:
    """sum_j jacobi3(j) q^{j^2} [2L, L-j]: antisymmetric, hence zero."""
    return binomial_sum(L, 0, 1, lambda j: ((j * j, jacobi3(j)),))


def k_transform_lhs(k: int, L: int) -> QSeries:
    return binomial_sum(L, 0, 1, lambda j: ((k * j * (j - 1), jacobi3(j + 1)),))


def k_transform_rhs(k: int, L: int) -> QSeries:
    return binomial_sum(L, 0, 1, lambda j: ((k * j * j - (k - 1) * j + L, jacobi3(j + 1)),))


def cor_cap2_analogue_lhs(L: int) -> QSeries:
    return seed_cap1(L).shift(L)


# ---------------------------------------------------------------------------
# Dual identities (q -> 1/q) and their limits
# ---------------------------------------------------------------------------

def dual_lhs(which: int, L: int) -> QSeries:
    """sum (-1)^m q^{m(m-1)/2+Ln} (q)_L / [(q)_m (q)_n (q^3)_k] over n+2m+3k =
    L (which 1), or with q^{m(m+1)/2+(L+1)n}, minus the same sum over n+2m+3k =
    L-1 (which 2): the sums of _base1_sum, with k for its n and n for its r."""
    total = Accumulator()
    for drop, sign in ((0, 1), (1, -1))[:which]:
        total.add(_base1_sum(L, lambda m, k, e, n: (
            (m * (m - 1) // 2 + L * n if which == 1 else m * (m + 1) // 2 + (L + 1) * n,
             sign * (-1) ** m),), drop))
    return total.value()


def dual_rhs(which: int, L: int) -> QSeries:
    if which == 1:
        return binomial_sum(L, 0, 1, lambda j: ((0, jacobi3(j + 1)),))
    return binomial_sum(L, 0, 1, lambda j: ((L - j, jacobi3(j + 1)),))


def dual_construct(which: int, side: str, L: int) -> QSeries:
    """Apply q -> 1/q to the base identity and renormalize by q^{L^2} (+L)."""
    seed = seed_cap1 if which == 1 else seed_cap2
    value = seed(L) if side == "lhs" else rhs_new_fin_cap(which, L)
    return value.invert_q().shift(L * L + (which - 1) * L)


def dual_limit_reference(b: int, n: int) -> QSeries:
    total = Accumulator(n)
    for k in range(n + 1):
        c = jacobi3(k + b)
        if c:
            total.add((inv_pochhammer(k, 1, n) * c).shift(k))
    return total.value()


def _eta_ratio(n: int) -> QSeries:
    return (pochhammer_inf(1, 1, n) * inv_pochhammer_inf(3, 3, n)).truncate(n)


def dual_limit_unified(b: int, n: int) -> QSeries:
    total = Accumulator(n)
    m = 0
    while m * (m + 1) // 2 <= n:
        c = jacobi3(m - b)
        if c:
            sign = c * (-1) ** (m + 1)
            total.add((inv_pochhammer(m, 1, n) * sign).shift(m * (m + 1) // 2))
        m += 1
    return (_eta_ratio(n) * total.value()).truncate(n)


def dual_limit_specific(b: int, n: int) -> QSeries:
    total = Accumulator(n)
    m = 0
    while True:
        if b == 2:
            e, length, sign = 3 * m * (3 * m + 1) // 2, 3 * m + 1, (-1) ** (m + 1)
        elif b == 0:
            e, length, sign = (3 * m + 1) * (3 * m + 2) // 2, 3 * m + 2, (-1) ** m
        else:
            e, length, sign = 3 * m * (3 * m - 1) // 2, 3 * m, (-1) ** m
        if e > n:
            break
        total.add((inv_pochhammer(length, 1, n) * sign).shift(e))
        m += 1
    return (_eta_ratio(n) * total.value()).truncate(n)


# ---------------------------------------------------------------------------
# Case registry
# ---------------------------------------------------------------------------

class Bounds(NamedTuple):
    """Parameter grid for suite runs."""

    l_max: int = 8
    m_max: int = 8
    f_max: int = 3
    nu_max: int = 2
    s: int | None = None  # one twist, or None for every 0..f
    trunc: int = 30


@dataclass(frozen=True)
class IdentityCase:
    id: str
    params: tuple[str, ...]
    sides: tuple[tuple[str, Callable[..., QSeries]], ...]

    @property
    def mode(self) -> str:
        """The equality mode: "truncated" when the case checks to an order n."""
        return "truncated" if "n" in self.params else "exact"


class Report(NamedTuple):
    id: str
    params: dict
    mode: str
    verdict: bool
    first_mismatch: dict | None
    lhs_degree: int
    rhs_degree: int

    def to_json_dict(self) -> dict:
        out = self._asdict()
        if self.first_mismatch is None:
            del out["first_mismatch"]
        return out


CASES: dict[str, IdentityCase] = {}

# The least value of each parameter that does not start at 0.
LEAST = {"f": 1, "nu": 1, "k": 1}


def _register(case: IdentityCase) -> None:
    if case.id in CASES:
        raise ValueError(f"duplicate case id {case.id!r}")
    CASES[case.id] = case


def check_params(case: IdentityCase, params: Mapping[str, int]) -> None:
    for name in case.params:
        if name not in params:
            raise ParamOutOfRange(f"{case.id}: missing parameter {name!r}")
        value = params[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParamOutOfRange(f"{case.id}: parameter {name!r} must be an integer")
        minimum = LEAST.get(name, 0)
        if value < minimum:
            raise ParamOutOfRange(f"{case.id}: parameter {name!r} must be >= {minimum}")
    for name in params:
        if name not in case.params:
            raise ParamOutOfRange(f"{case.id}: unknown parameter {name!r}")
    if "b" in params and params["b"] not in (0, 1, 2):
        raise ParamOutOfRange("b must be 0, 1, or 2")


def verify_case(case_id: str, params: Mapping[str, int]) -> Report:
    """Evaluate all sides of a case, then compare each with the first until one differs."""
    try:
        case = CASES[case_id]
    except KeyError:
        raise ParamOutOfRange(
            f"unknown case {case_id!r}; valid ids: {', '.join(sorted(CASES))}"
        ) from None
    check_params(case, params)
    values = [(name, fn(**params)) for name, fn in case.sides]
    mismatch: dict | None = None
    reference = values[0][1]
    for name, value in values[1:]:
        outcome = compare(reference, value)
        if not outcome:
            mismatch = {
                "side": name,
                "exponent": outcome.mismatch_exponent,
                "reference_coeff": outcome.lhs_coeff,
                "side_coeff": outcome.rhs_coeff,
            }
            break
    return Report(
        id=case_id,
        params=dict(params),
        mode=case.mode,
        verdict=mismatch is None,
        first_mismatch=mismatch,
        lhs_degree=reference.degree(),
        rhs_degree=values[1][1].degree(),
    )


def iterate_grid(case_id: str, bounds: Bounds) -> Iterator[dict]:
    """Every instance of the case's grid: the product of each parameter's
    values in ``params`` order, keeping the instances with 0 <= s <= f."""
    names = CASES[case_id].params
    values = {
        "L": range(bounds.l_max + 1),
        "M": range(bounds.m_max + 1),
        "f": range(LEAST["f"], bounds.f_max + 1),
        "s": range(bounds.f_max + 1) if bounds.s is None else (bounds.s,),
        "nu": range(LEAST["nu"], bounds.nu_max + 1),
        "k": range(LEAST["k"], 4),
        "b": range(3),
        "n": (bounds.trunc,),
    }
    for combo in itertools.product(*(values[name] for name in names)):
        params = dict(zip(names, combo))
        if 0 <= params.get("s", 0) <= params.get("f", 0):
            yield params


def verify_grid(case_ids: Iterable[str], bounds: Bounds) -> list[Report]:
    """The report of every grid instance of each case, in case and grid
    order.  The instances are evaluated grouped by (L, f, s), an absent
    parameter as -1: the chain tables keep one L at a time, and the tables
    of a grid point serve all its cases in a row."""
    tasks = [(case_id, params) for case_id in case_ids
             for params in iterate_grid(case_id, bounds)]
    reports: list = [None] * len(tasks)
    for i in sorted(range(len(tasks)), key=lambda i: [tasks[i][1].get(p, -1) for p in "Lfs"]):
        reports[i] = verify_case(*tasks[i])
    return reports


def _build_registry() -> None:
    for which in (1, 2):
        _register(IdentityCase(
            f"cap_analytic_{which}", ("n",),
            (("lhs", lambda n, w=which: cap_analytic_lhs(w, n)),
             ("rhs", lambda n, w=which: cap_analytic_rhs(w, n)))))
    for which in (1, 2):
        _register(IdentityCase(
            f"fin_cap_roundtri_{which}", ("L",),
            (("lhs", lambda L, w=which: roundtri_lhs(w, L)),
             ("rhs", lambda L, w=which: roundtri_rhs(w, L)))))
    for which, name in ((1, "cap1_binomial"), (2, "cap2_binomial"), (3, "sum_cap")):
        _register(IdentityCase(
            f"fin_cap_binomial_{which}", ("M",),
            (("lhs", lambda M, fam=FAMILIES[name]: fam.seed(M)),
             ("rhs", lambda M, fam=FAMILIES[name]: alpha_sum(fam, 0, M)))))
    _register(IdentityCase(
        "seed_identity", ("L", "M"),
        (("lhs", lambda L, M: refinement_hierarchy_lhs(0, L, M)),
         ("rhs", lambda L, M: refinement_hierarchy_rhs(0, L, M)))))
    _register(IdentityCase(
        "s_hierarchy", ("nu", "L", "M"),
        (("lhs", refinement_hierarchy_lhs), ("rhs", refinement_hierarchy_rhs))))
    _register(IdentityCase(
        "s_hierarchy_limit", ("nu", "n"),
        (("lhs", refinement_limit_lhs),
         ("rhs", lambda nu, n: hierarchy_limit_rhs(
             "cap1_binomial", (nu + 2) * (nu + 1) // 2 - 1, n)))))
    for which, seed in ((1, seed_cap1), (2, seed_cap2)):
        _register(IdentityCase(
            f"new_fin_cap_{which}", ("L",),
            (("lhs", lambda L, fn=seed: fn(L)),
             ("rhs", lambda L, w=which: rhs_new_fin_cap(w, L)))))
    for which in (1, 2):
        _register(IdentityCase(
            f"rhs_rewrites_{which}", ("L",),
            (("jacobi", lambda L, w=which: rhs_new_fin_cap(w, L)),
             ("split", lambda L, w=which: rhs_rewrite_split(w, L)),
             ("rational", lambda L, w=which: rhs_rewrite_rational(w, L)))))
    _register(IdentityCase(
        "fin_cap2_rhs_alt", ("L",),
        (("lhs", lambda L: rhs_new_fin_cap(2, L)),
         ("rhs", lambda L: alpha_sum(FAMILIES["cap2_analogue"], 0, L)))))
    _register(IdentityCase(
        "vanishing_aux", ("L",),
        (("sum", vanishing_aux_sum), ("zero", lambda L: ZERO))))
    _register(IdentityCase(
        "k_transform", ("k", "L"),
        (("lhs", k_transform_lhs), ("rhs", k_transform_rhs))))
    _register(IdentityCase(
        "cor_cap2_analogue", ("L",),
        (("lhs", cor_cap2_analogue_lhs),
         ("rhs", lambda L: alpha_sum(FAMILIES["double"], 0, L, s=1)))))
    for name, fam in FAMILIES.items():
        twist = ("s",) if fam.twisted else ()
        _register(IdentityCase(
            f"hierarchy_finite_{name}", ("f", *twist, "L"),
            (("lhs", lambda f, L, s=0, fam=name: hierarchy_finite_lhs(fam, f, L, s)),
             ("rhs", lambda f, L, s=0, fam=name: hierarchy_finite_rhs(fam, f, L, s)))))
        _register(IdentityCase(
            f"hierarchy_limit_{name}", ("f", *twist, "n"),
            (("lhs", lambda f, n, s=0, fam=name: hierarchy_limit_lhs(fam, f, n, s)),
             ("rhs", lambda f, n, s=0, fam=name: hierarchy_limit_rhs(fam, f, n, s)))))
    _register(IdentityCase(
        "hierarchy_limit_cap2_f1_corollary", ("n",),
        (("lhs", lambda n: hierarchy_limit_lhs("cap2", 1, n)),
         ("rhs", lambda n: (pochhammer_inf(3, 3, n)
                            * inv_pochhammer_inf(1, 1, n)).truncate(n)))))
    _register(IdentityCase(
        "corollary_transform", ("nu", "n"),
        (("lhs", refinement_limit_lhs),
         ("rhs", lambda nu, n: hierarchy_limit_lhs(
             "cap1_binomial", nu * (nu + 3) // 2, n)))))
    for which in (1, 2):
        _register(IdentityCase(
            f"dual_identity_{which}", ("L",),
            (("lhs", lambda L, w=which: dual_lhs(w, L)),
             ("rhs", lambda L, w=which: dual_rhs(w, L)),
             ("construct_lhs", lambda L, w=which: dual_construct(w, "lhs", L)),
             ("construct_rhs", lambda L, w=which: dual_construct(w, "rhs", L)))))
    _register(IdentityCase(
        "dual_limit", ("b", "n"),
        (("reference", dual_limit_reference),
         ("specific", dual_limit_specific),
         ("unified", dual_limit_unified))))


_build_registry()
