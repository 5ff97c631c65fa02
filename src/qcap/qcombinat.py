"""q-special functions: Pochhammer symbols, q-binomial coefficients,
trinomial refinements, the mod-3 quadratic character, and the classical
theta-style sum/product evaluators.

Every "variable" other than q is a monomial specialization q**shift; all
values are :class:`~qcap.series.QSeries` with integer coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Iterable

from qcap.series import ONE, Accumulator, NonDivisible, QSeries, ZERO, inverse, monomial
from qcap.series import _Packed, _limbs


class NegativeLength(ValueError):
    """A finite Pochhammer symbol with negative length was requested directly."""


class UnboundedBelow(ValueError):
    """A product specialization whose exponents are not bounded below (or hit a
    vanishing (1 - q^0) factor)."""


# ---------------------------------------------------------------------------
# Pochhammer symbols
# ---------------------------------------------------------------------------

def pochhammer(length: int, shift: int = 1, base: int = 1) -> QSeries:
    """(q^shift; q^base)_length as an exact polynomial; length 0 gives 1."""
    if length < 0:
        raise NegativeLength(f"Pochhammer length {length} < 0")
    return math.prod((ONE - monomial(shift + base * i) for i in range(length)), start=ONE)


def pochhammer_inf(shift: int, base: int, n: int, sign: int = -1) -> QSeries:
    """prod_{i>=0} (1 + sign*q^(shift + i*base)), truncated at n: the
    one-factor product_of_inf."""
    return product_of_inf(((shift, base, sign),), n)


def product_of_inf(factors: tuple[tuple[int, int, int], ...], n: int) -> QSeries:
    """prod_{i>=0} (1 + sign*q^(shift + i*step)) over the (shift, step, sign)
    factors, truncated at n.

    Each step must be positive, so every tail converges coefficientwise, and
    a (1 - q^0) factor, which would annihilate the product, is rejected.  The
    factors with e <= 0 come out as c*q^v (1 + q^0 is 2; 1 + s*q^e is s*q^e*(1
    + s*q^-e)), and every factor left, of positive exponent, is shifted and
    added into one coefficient list to order n - v.
    """
    c, v = 1, 0
    for shift, step, sign in factors:
        if step <= 0:
            raise UnboundedBelow("factor step must be positive")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for e in range(shift, 1, step):
            if e == 0 and sign == -1:
                raise UnboundedBelow("vanishing (1 - q^0) factor")
            c *= sign if e else 2
            v += e
    order = n - v
    coeffs = [c] + [0] * order
    for shift, step, sign in factors:
        op = add if sign == 1 else sub
        for e in map(abs, range(shift, order + 1, step)):
            if e:
                # coeffs * (1 + sign*q^e) to order, shifted and added in place
                coeffs[e:] = map(op, coeffs[e:], coeffs[:-e])
    return QSeries(v, coeffs, n)


@lru_cache(maxsize=None)
def inv_pochhammer_inf(shift: int, base: int, n: int) -> QSeries:
    """1 / (q^shift; q^base)_infinity truncated at n; requires shift >= 1.

    Divides 1 by each factor (1 - q^m), m <= n, with a running sum; a factor
    with m > n is 1 to order n.  Cached: a run asks for the same few
    (shift, base, n) again and again.
    """
    if shift < 1:
        raise UnboundedBelow("inverse infinite product needs positive exponents")
    if base <= 0:
        raise UnboundedBelow("factor step must be positive")
    coeffs = [1] + [0] * n
    for m in range(shift, n + 1, base):
        coeffs = _running_sums(coeffs, m)
    return QSeries(0, coeffs, n)


def inv_pochhammer(length: int, base: int, n: int) -> QSeries:
    """1 / (q^base; q^base)_length truncated at n.

    Once base*length > n every further factor is 1 to order n, so the value
    stops changing.  The lengths are built in a loop, each from the one
    before by one running sum, into the cached (base, n) list of
    _inv_pochhammer_levels, so every call shares one value per length.
    """
    if length < 0:
        raise NegativeLength(f"Pochhammer length {length} < 0")
    if base * length > n:
        length = max(n // base, 0)
    levels = _inv_pochhammer_levels(base, n)
    for k in range(len(levels), length + 1):
        prev = levels[-1].coeffs
        coeffs = _running_sums(list(prev) + [0] * (n + 1 - len(prev)), base * k)
        levels.append(QSeries(0, _tight(coeffs), n))
    return levels[length]


@lru_cache(maxsize=None)
def _inv_pochhammer_levels(base: int, n: int) -> list[QSeries]:
    """[1 / (q^base; q^base)_0, 1 / (q^base; q^base)_1, ...] truncated at n,
    as far as inv_pochhammer has built them."""
    return [QSeries(0, (1,), n)]


# ---------------------------------------------------------------------------
# q-binomial coefficients and Pochhammer quotients
# ---------------------------------------------------------------------------

def _times_one_minus(coeffs: list[int], m: int) -> list[int]:
    """coeffs * (1 - q^m) on a coefficient list."""
    pad = [0] * m
    return list(map(sub, coeffs + pad, pad + coeffs))


def _running_sums(coeffs: list[int], m: int) -> list[int]:
    """coeffs / (1 - q^m) as a power series, to the length of coeffs: the
    running sum of each residue class mod m."""
    out = list(coeffs)
    for r in range(m):
        out[r::m] = accumulate(out[r::m])
    return out


def _div_one_minus(coeffs: list[int], m: int) -> list[int]:
    """Exact quotient coeffs / (1 - q^m) on a coefficient list.

    The power-series quotient (``_running_sums``) is a polynomial, of length
    len(coeffs) - m, exactly when its top m coefficients vanish.  Otherwise
    raises NonDivisible.
    """
    out = _running_sums(coeffs, m)
    if any(out[-m:]):
        raise NonDivisible(f"(1 - q^{m}) does not divide the numerator")
    return out[:-m]


def _poch_step(coeffs: list[int], times: Iterable[int], divs: Iterable[int]) -> list[int]:
    """coeffs * prod (1 - q^t) / prod (1 - q^d) over t in times and d in divs,
    every multiplication before any division.  If the quotient is a
    polynomial, so is each partial one, since what is left to divide divides
    it; if not, a division raises NonDivisible."""
    for t in times:
        coeffs = _times_one_minus(coeffs, t)
    for d in divs:
        coeffs = _div_one_minus(coeffs, d)
    return coeffs


def _tight(coeffs: list[int]) -> list[int]:
    """Copies of the ints, each allocated no wider than its value needs.

    CPython allocates a sum of two same-sign multi-digit ints one digit wider
    than its wider operand, and a running sum keeps that width; ``c - 0``
    copies c at its own width.  Applied to the lists the caches keep.
    """
    return [c - 0 for c in coeffs]


@lru_cache(maxsize=None)
def _q_binomial_base1(top: int, k: int) -> QSeries:
    if k < 0 or top < 0 or k > top:
        return ZERO
    k = min(k, top - k)
    if k == 0:
        return ONE
    # the diagonal below, bottom up: no call recurses past two levels when cold
    for j in range(1, k - 1):
        _q_binomial_base1(top - k + j, j)
    # [top, k] = [top-1, k-1] (1 - q^top) / (1 - q^k).
    prev = list(_q_binomial_base1(top - 1, k - 1).coeffs)
    return QSeries(0, _tight(_div_one_minus(_times_one_minus(prev, top), k)))


def q_binomial(top: int, k: int, base: int = 1) -> QSeries:
    """Gaussian binomial [top, k] in base q^base; zero outside 0 <= k <= top."""
    return _q_binomial_base1(top, k).substitute_q_power(base)


def poch_ratio(num: tuple[tuple[int, int], ...], den: tuple[tuple[int, int], ...]) -> QSeries:
    """Exact quotient of Pochhammer products.

    ``num`` and ``den`` are tuples of (length, base) pairs, each standing for
    (q^base; q^base)_length.  Any negative length in the denominator makes the
    whole quotient zero (the 1/(q;q)_n = 0 convention for n < 0); a negative
    length in the numerator is an error.  Raises NonDivisible when the quotient
    is not a polynomial, which signals a malformed identity term.
    """
    for length, _ in den:
        if length < 0:
            return ZERO
    for length, _ in num:
        if length < 0:
            raise NegativeLength(f"numerator Pochhammer length {length} < 0")
    return _poch_ratio_cached(
        tuple(sorted(p for p in num if p[0])),
        tuple(sorted(p for p in den if p[0])),
    )


@lru_cache(maxsize=None)
def _poch_ratio_cached(num: tuple[tuple[int, int], ...], den: tuple[tuple[int, int], ...]) -> QSeries:
    """Quotient of Pochhammer products, factor by factor: each (q^b;q^b)_n is
    the product of its factors (1 - q^{bk}), k = 1..n, the factors shared by
    numerator and denominator cancel, and _poch_step takes the rest.  Every
    (1 - q^m) has leading coefficient -1, a unit, so over Z[q] this raises
    NonDivisible exactly when dividing the multiplied-out numerator by each
    denominator Pochhammer with div_exact would."""
    top = Counter(m for length, b in num for m in range(b, b * length + 1, b))
    bottom = Counter(m for length, b in den for m in range(b, b * length + 1, b))
    return QSeries(0, _tight(_poch_step([1], sorted((top - bottom).elements()),
                                        sorted((bottom - top).elements()))))


# ---------------------------------------------------------------------------
# Sums of q-binomial products and the trinomial refinements
# ---------------------------------------------------------------------------

# c q^e [top_1, k_1] [top_2, k_2] ... as (e, c, ((top_1, k_1), (top_2, k_2), ...)).
Term = tuple[int, int, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def _binomial_record(top: int, k: int) -> _Packed | None:
    """The one record of [top, k] and [top, top - k], or None when [top, k]
    vanishes (k < 0 or k > top); its largest coefficient is the middle one."""
    if not 0 <= k <= top:
        return None
    if 2 * k > top:
        return _binomial_record(top, top - k)
    coeffs = _q_binomial_base1(top, k).coeffs
    return _Packed(coeffs, (k * (top - k) + 1, math.comb(top, k), coeffs[k * (top - k) // 2]))


def binomial_product_sum(terms: Iterable[Term], base: int = 1) -> QSeries:
    """The exact sum of c q^e prod [top, k]_{q^base} over the terms, those
    with c = 0 or a vanishing binomial (k < 0 or k > top) dropped.

    Every coefficient, of a factor, a term or the sum, is at most bound =
    sum |c| prod comb(top, k) in size, and not negative if no c is.  So in
    w-byte limbs that hold it, signed only if some c < 0, each base-1
    binomial's record packs it once per width for the whole run (one value
    signed or not, as comb(top, k) <= bound), a term's packed factors
    multiply, and the terms of one class r = e mod base add at shifts of e
    // base limbs with no carry across a limb.  Each class unpacks once into
    the coefficients of q^r, q^(r + base), ...; they must add up to the
    sum's value at q = 1, or ArithmeticError is raised.
    """
    kept, bound, total, lo, hi, signed = [], 0, 0, None, None, False
    for e, c, factors in terms:
        records = [_binomial_record(top, k) for top, k in factors]
        if not c or None in records:
            continue
        value = c
        unit = reach = e // base
        for record in records:
            value *= record.whole[1]
            reach += record.whole[0] - 1
        bound, total, signed = bound + abs(value), total + value, signed or c < 0
        if lo is None or unit < lo:
            lo = unit
        if hi is None or reach > hi:
            hi = reach
        kept.append((e, c, records))
    if not kept:
        return ZERO
    limbs = _limbs(bound, signed)
    classes = [0] * base
    for e, term, records in kept:
        for record in records:
            term *= record.packed(limbs, record.whole[0])
        unit, r = divmod(e, base)
        classes[r] += term << 8 * limbs.width * (unit - lo)
    return QSeries(base * lo, limbs.unpack_classes(classes, hi - lo + 1, total))


def trinomial_t(length: int, b: int, a: int, base: int = 1, shift: int = 0) -> list[Term]:
    """The Andrews-Baxter trinomial q^shift T(length; b, a) in base q^base,
    as terms for binomial_product_sum: T(L; b, a) = sum_j q^(j(j+b)) [L, j]
    [L-j, j+a], over the j with both binomials non-zero: max(0, -a) <= j and
    2j <= L - a (which give j <= L)."""
    return [(shift + base * j * (j + b), 1, ((length, j), (length - j, j + a)))
            for j in range(max(0, -a), (length - a) // 2 + 1)]


def warnaar_s(big_l: int, big_m: int, a: int, b: int,
              base: int = 1, shift: int = 0) -> list[Term]:
    """Warnaar's doubly bounded trinomial refinement q^shift S(L, M; a, b)
    in base q^base, as terms for binomial_product_sum: S(L, M; a, b) =
    sum_n q^(n(n+a)) [M+L-a-2n, M] [M-a+b, n] [M+a-b, n+a]."""
    if big_l < 0 or big_m < 0:
        return []
    # the binomials are non-zero exactly when 2n <= L-a, 0 <= n <= M-a+b
    # and -a <= n <= M-b (M >= 0)
    return [(shift + base * n * (n + a), 1,
             ((big_m + big_l - a - 2 * n, big_m), (big_m - a + b, n), (big_m + a - b, n + a)))
            for n in range(max(0, -a), min(big_m - a + b, big_m - b, (big_l - a) // 2) + 1)]


# ---------------------------------------------------------------------------
# Jacobi symbol mod 3
# ---------------------------------------------------------------------------

def jacobi3(j: int) -> int:
    """The quadratic character (j/3): 0, 1, -1 for j = 0, 1, 2 mod 3."""
    return (0, 1, -1)[j % 3]


# ---------------------------------------------------------------------------
# Jacobi triple product / quintuple product
# ---------------------------------------------------------------------------

def jtp_sum(z_shift: int, n: int) -> QSeries:
    """sum_j q^(j^2) z^j with z = q^z_shift, truncated at n."""
    total = Accumulator(n)
    r = math.isqrt(max(n, 0)) + abs(z_shift) + 1
    for j in range(-r, r + 1):  # j^2 + z j <= n gives |j| <= sqrt(n) + |z|
        e = j * j + z_shift * j
        if e <= n:
            total.add(monomial(e))
    return total.value()


def jtp_product(z_shift: int, n: int) -> QSeries:
    """(-zq, -q/z, q^2; q^2)_infinity with z = q^z_shift, truncated at n."""
    return product_of_inf(
        ((1 + z_shift, 2, 1), (1 - z_shift, 2, 1), (2, 2, -1)), n
    )


def quintuple_sum(z_shift: int, n: int) -> QSeries:
    """sum_j (-1)^j q^(j(3j-1)/2) z^(3j) (1 + z q^j) with z = q^z_shift."""
    total = Accumulator(n)
    r = math.isqrt(max(n, 0)) + 2 * abs(z_shift) + 2
    for j in range(-r, r + 1):  # either exponent <= n gives |j| <= sqrt(n) + 2|z| + 1
        e = j * (3 * j - 1) // 2 + 3 * z_shift * j
        sign = -1 if j % 2 else 1
        if e <= n:
            total.add(monomial(e, sign))
        if e + z_shift + j <= n:
            total.add(monomial(e + z_shift + j, sign))
    return total.value()


def quintuple_product(z_shift: int, n: int) -> QSeries:
    """(q, -z, -q/z; q)_infinity (q z^2, q/z^2; q^2)_infinity with z = q^z_shift."""
    return product_of_inf(
        (
            (1, 1, -1),
            (z_shift, 1, 1),
            (1 - z_shift, 1, 1),
            (1 + 2 * z_shift, 2, -1),
            (1 - 2 * z_shift, 2, -1),
        ),
        n,
    )


# ---------------------------------------------------------------------------
# q-binomial theorem
# ---------------------------------------------------------------------------

def q_binomial_theorem_sides(a_shift: int | None, z_shift: int, n: int) -> tuple[QSeries, QSeries]:
    """Both sides of sum_k (a;q)_k / (q;q)_k z^k = (az;q)_inf / (z;q)_inf.

    a = q^a_shift, or identically zero when ``a_shift is None`` (the a = 0
    specialization); z = q^z_shift with z_shift >= 1 for convergence.
    """
    if z_shift < 1:
        raise UnboundedBelow("z must be a positive power of q")
    lhs = Accumulator(n)
    for k in range(n // z_shift + 1):
        if a_shift is None:
            num = ONE
        else:
            num = pochhammer(k, shift=a_shift, base=1)
        term = (num * inverse(pochhammer(k), n)).shift(z_shift * k)
        lhs.add(term.truncate(n))
    if a_shift is None:
        rhs_num = QSeries(0, (1,), n)
    else:
        rhs_num = pochhammer_inf(a_shift + z_shift, 1, n)
    rhs = (rhs_num * inv_pochhammer_inf(z_shift, 1, n)).truncate(n)
    return lhs.value(), rhs
