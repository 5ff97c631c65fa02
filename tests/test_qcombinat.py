"""q-special functions and classical product identities."""

import math
import os
import subprocess
import sys
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qcap import qcombinat, series
from qcap.identities import refinement_hierarchy_rhs, roundtri_rhs
from qcap.qcombinat import (
    NegativeLength,
    UnboundedBelow,
    binomial_product_sum,
    inv_pochhammer,
    inv_pochhammer_inf,
    jacobi3,
    jtp_product,
    jtp_sum,
    pochhammer,
    pochhammer_inf,
    poch_ratio,
    product_of_inf,
    q_binomial,
    q_binomial_theorem_sides,
    quintuple_product,
    quintuple_sum,
    trinomial_t,
    warnaar_s,
)
from qcap.series import (
    ONE,
    Q,
    QSeries,
    ZERO,
    NonDivisible,
    div_exact,
    inverse,
    monomial,
)


def poly(*terms):
    return sum((monomial(e, c) for e, c in terms), ZERO)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0) == ONE

    def test_q_q_2(self):
        assert pochhammer(2) == poly((0, 1), (1, -1), (2, -1), (3, 1))

    def test_negative_length_raises(self):
        with pytest.raises(NegativeLength):
            pochhammer(-1)

    def test_length_past_the_recursion_limit(self):
        # one frame for any length: (1 - q^0) makes the product 0
        assert pochhammer(1100, shift=0) == ZERO

    def test_matches_factor_by_factor_product(self):
        for length, shift, base in ((5, 1, 1), (4, -3, 2), (3, 2, 3), (1, 0, 1)):
            expected = ONE
            for i in range(length):
                expected = expected * (ONE - monomial(shift + base * i))
            assert pochhammer(length, shift, base) == expected

    def test_inverse_infinite_is_partition_gf(self):
        # 1/(q;q)_inf counts partitions: 1, 1, 2, 3, 5
        assert inv_pochhammer_inf(1, 1, 4) == QSeries(0, (1, 1, 2, 3, 5), 4)

    def test_infinite_head_with_nonpositive_exponents(self):
        # (q^-1; q^2)_inf carries an exact Laurent head factor (1 - q^-1)
        value = pochhammer_inf(-1, 2, 3)
        direct = ((ONE - monomial(-1)) * pochhammer_inf(1, 2, 5)).truncate(3)
        assert value == direct

    def test_vanishing_factor_guard(self):
        with pytest.raises(UnboundedBelow):
            pochhammer_inf(0, 1, 5)
        with pytest.raises(UnboundedBelow):
            inv_pochhammer_inf(0, 1, 5)


def dense_pochhammer_inf(shift, base, n, sign=-1):
    """The dense-factor product: every tail factor (1 + sign*q^e) is
    multiplied in as a truncated QSeries."""
    if base <= 0:
        raise UnboundedBelow("factor step must be positive")
    head = ONE
    e = shift
    while e <= 0:
        if e == 0 and sign == -1:
            raise UnboundedBelow("vanishing (1 - q^0) factor")
        head = head * (ONE + monomial(e, sign))
        e += base
    order = n - min(head.offset, 0)
    tail = QSeries(0, (1,), order)
    while e <= order:
        tail = tail * (ONE + monomial(e, sign)).truncate(order)
        e += base
    return (head * tail).truncate(n)


def dense_product_of_inf(factors, n):
    """The truncated product of the dense_pochhammer_inf values, each taken to
    max(n, 0) plus the size of the factors' negative exponents: so none is a
    truncated zero, and the product is known to q^n."""
    order = max(n, 0) - sum(e for shift, step, _ in factors for e in range(shift, 0, step))
    value = QSeries(0, (1,), order)
    for shift, step, sign in factors:
        value = value * dense_pochhammer_inf(shift, step, order, sign)
    return value.truncate(n)


def every_class_running_sums(coeffs, m):
    """coeffs / (1 - q^m) to the length of coeffs: the running sum of every
    residue class mod m, one-coefficient classes included."""
    out = list(coeffs)
    for r in range(m):
        out[r::m] = accumulate(out[r::m])
    return out


class TestRunningSums:
    # the stride-m running sum skips the classes that hold one coefficient

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2**70, 2**70), max_size=40), st.integers(1, 45))
    def test_matches_every_class(self, coeffs, m):
        assert qcombinat._running_sums(coeffs, m) == every_class_running_sums(coeffs, m)

    @pytest.mark.parametrize("m", (1, 2, 3, 5, 8))
    def test_lengths_around_m_and_2m(self, m):
        # m >= len, len - m in {0, 1}, len = 2m and 2m + 1, signed coefficients
        for length in (0, 1, m - 1, m, m + 1, 2 * m - 1, 2 * m, 2 * m + 1, 3 * m + 2):
            coeffs = [(-1) ** i * (3 * i + 1) for i in range(length)]
            assert (qcombinat._running_sums(coeffs, m)
                    == every_class_running_sums(coeffs, m)), (m, length)

    @pytest.mark.parametrize("coeffs, m", [
        # (1 - q^3)(1 + q) + q^2: the remainder q^2 sits alone in class 2
        ([1, 1, 1, -1, -1], 3),
        # m >= len: every class holds one coefficient
        ([0, 0, 5], 4),
        ([0, 0, 5], 3),
        ([-2], 1),
    ])
    def test_remainder_in_a_one_coefficient_class_is_not_divisible(self, coeffs, m):
        with pytest.raises(NonDivisible):
            qcombinat._div_one_minus(coeffs, m)

    def test_exact_quotients(self):
        assert qcombinat._div_one_minus([1, 1, 0, -1, -1], 3) == [1, 1]
        assert qcombinat._div_one_minus([0, 0, 0], 4) == []
        assert qcombinat._div_one_minus([2, 0, 0, -2], 3) == [2]


class TestTruncatedPochhammer:
    @settings(deadline=None)
    @given(st.integers(-6, 6), st.integers(1, 5), st.integers(-5, 60),
           st.sampled_from((1, -1)))
    def test_shift_and_add_matches_dense_factors(self, shift, base, n, sign):
        try:
            expected = dense_pochhammer_inf(shift, base, n, sign)
        except UnboundedBelow:
            with pytest.raises(UnboundedBelow):
                pochhammer_inf(shift, base, n, sign)
            return
        assert pochhammer_inf(shift, base, n, sign) == expected

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6), st.sampled_from((1, -1))),
                    min_size=1, max_size=5).map(tuple),
           st.integers(-3, 50))
    def test_one_list_matches_the_product_of_dense_factors(self, factors, n):
        try:
            expected = dense_product_of_inf(factors, n)
        except UnboundedBelow:
            with pytest.raises(UnboundedBelow):
                product_of_inf(factors, n)
            return
        assert product_of_inf(factors, n) == expected

    @settings(deadline=None)
    @given(st.integers(0, 70), st.sampled_from((1, 2, 3)), st.integers(-3, 60))
    def test_running_sums_match_inverse_of_finite_product(self, length, base, n):
        assert inv_pochhammer(length, base, n) == inverse(
            pochhammer(length, base, base), n)

    @settings(deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 60))
    def test_running_sums_match_inverse_of_infinite_product(self, shift, base, n):
        assert inv_pochhammer_inf(shift, base, n) == inverse(
            dense_pochhammer_inf(shift, base, n), n)

    def test_reciprocal_past_the_recursion_limit_from_a_cold_cache(self):
        # each length is built from the one before in a loop, not a frame each
        qcombinat._inv_pochhammer_levels.cache_clear()
        assert inv_pochhammer(1100, 1, 1100) == inv_pochhammer_inf(1, 1, 1100)

    def test_cached_infinite_reciprocal_is_the_finite_one_past_the_order(self):
        # 1/(q^b;q^b)_length stops changing once b * length > n
        for b in (1, 3):
            for n in range(61):
                value = inv_pochhammer_inf(b, b, n)
                assert value == inv_pochhammer(n // b, b, n), (b, n)
                hits = inv_pochhammer_inf.cache_info().hits
                assert inv_pochhammer_inf(b, b, n) == value, (b, n)
                assert inv_pochhammer_inf.cache_info().hits == hits + 1


class TestQBinomial:
    def test_two_choose_one(self):
        assert q_binomial(2, 1) == ONE + Q

    def test_four_choose_two(self):
        assert q_binomial(4, 2) == poly((0, 1), (1, 1), (2, 2), (3, 1), (4, 1))

    def test_out_of_range_is_zero(self):
        assert q_binomial(3, -1) == ZERO
        assert q_binomial(3, 4) == ZERO

    def test_pascal_recurrence(self):
        # [m+n, m] = [m+n-1, m] + q^n [m+n-1, m-1]
        for top in range(31):
            for m in range(top + 1):
                n = top - m
                expect = q_binomial(top - 1, m) + q_binomial(top - 1, m - 1).shift(n)
                if top == 0:
                    expect = ONE
                assert q_binomial(top, m) == expect

    def test_shift_identity(self):
        # (1 - q^j)[L, j] = (1 - q^L)[L-1, j-1]
        for L in range(1, 31):
            for j in range(1, L + 1):
                lhs = (ONE - monomial(j)) * q_binomial(L, j)
                rhs = (ONE - monomial(L)) * q_binomial(L - 1, j - 1)
                assert lhs == rhs

    def test_inversion_duality(self):
        # q -> 1/q rescales by q^{-mn}
        for m in range(16):
            for n in range(16):
                value = q_binomial(m + n, m)
                assert value.invert_q() == value.shift(-m * n)

    def test_symmetry(self):
        for L in range(9):
            for j in range(L + 1):
                assert q_binomial(2 * L, L - j) == q_binomial(2 * L, L + j)

    def test_limit_display(self):
        # [L, j] tends to 1/(q;q)_j; agreement to order N once L > N + j
        N = 12
        for j in range(4):
            L = N + j + 1
            assert q_binomial(L, j).truncate(N) == inverse(pochhammer(j), N)
        # [2L+a, L-j] tends to 1/(q;q)_inf
        for a in (0, 1):
            L = N + 1
            assert (q_binomial(2 * L + a, L).truncate(N)
                    == inv_pochhammer_inf(1, 1, N))

    def test_cold_table_under_a_tight_recursion_limit(self):
        # each cold [top, k] builds the diagonal below it from the bottom up,
        # so [200, 100] needs a few frames past its caller's, not one per
        # step; a fresh interpreter starts from an empty table
        code = ("import math, sys\n"
                "from qcap.qcombinat import q_binomial\n"
                "depth, frame = 0, sys._getframe()\n"
                "while frame:\n"
                "    depth, frame = depth + 1, frame.f_back\n"
                "sys.setrecursionlimit(depth + 60)\n"
                "print(sum(q_binomial(200, 100).coeffs) == math.comb(200, 100))\n")
        src = str(Path(qcombinat.__file__).parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert (done.returncode, done.stdout) == (0, "True\n"), done.stderr[-500:]


class TestQMultinomial:
    """q-multinomials: (q^b;q^b)_top over a product of Pochhammers."""

    def test_simple_quotient(self):
        assert poch_ratio(((2, 1),), ((0, 1), (1, 1), (0, 3))) == ONE - monomial(2)

    def test_negative_part_is_zero(self):
        assert poch_ratio(((2, 1),), ((-1, 1), (1, 1))) == ZERO

    def test_all_zero(self):
        assert poch_ratio(((0, 1),), ((0, 1), (0, 1))) == ONE

    def test_negative_numerator_raises(self):
        with pytest.raises(NegativeLength):
            poch_ratio(((-1, 1),), ())


def multiply_then_divide(num, den):
    """The reference poch_ratio: multiply out the numerator Pochhammers, then
    div_exact by each denominator Pochhammer in order of degree."""
    result = ONE
    for length, b in num:
        result = result * pochhammer(length, shift=b, base=b)
    for length, b in sorted(den, key=lambda p: p[0] * p[1]):
        result = div_exact(result, pochhammer(length, shift=b, base=b))
    return result


pochhammer_list = st.lists(
    st.tuples(st.integers(min_value=0, max_value=14), st.sampled_from((1, 2, 3))),
    max_size=4,
)


class TestPochRatioReference:
    @settings(max_examples=300, deadline=None)
    @given(pochhammer_list, pochhammer_list)
    def test_matches_multiply_then_divide(self, num, den):
        num, den = tuple(num), tuple(den)
        try:
            expected = multiply_then_divide(num, den)
        except NonDivisible:
            with pytest.raises(NonDivisible):
                poch_ratio(num, den)
        else:
            assert poch_ratio(num, den) == expected

    @given(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=25))
    def test_q_binomial_matches_div_exact(self, top, k):
        if k > top:
            assert q_binomial(top, k) == ZERO
            return
        den = pochhammer(k) * pochhammer(top - k)
        assert q_binomial(top, k) == div_exact(pochhammer(top), den)


# Reference paths for binomial_product_sum and its term lists: one QSeries
# product per term, each term added on its own.

def per_term_sum(terms, base=1):
    total = ZERO
    for e, c, factors in terms:
        term = monomial(e, c)
        for top, k in factors:
            term = term * q_binomial(top, k, base)
        total = total + term
    return total


def per_term_trinomial_t(length, b, a, base=1):
    total = ZERO
    for j in range(length + 1):
        left = q_binomial(length, j)
        right = q_binomial(length - j, j + a)
        if left and right:
            total = total + (left * right).shift(j * (j + b))
    return total.substitute_q_power(base)


def per_term_warnaar_s(big_l, big_m, a, b, base=1):
    """S(L, M; a, b) over its non-zero terms only."""
    if big_l < 0 or big_m < 0:
        return ZERO
    total = ZERO
    for n in range(max(0, -a), min(big_m - a + b, big_m - b, (big_l - a) // 2) + 1):
        t1 = q_binomial(big_m + big_l - a - 2 * n, big_m)
        t2 = q_binomial(big_m - a + b, n)
        t3 = q_binomial(big_m + a - b, n + a)
        total = total + (t1 * t2 * t3).shift(n * (n + a))
    return total.substitute_q_power(base)


def full_range_warnaar(L, M, a, b):
    """S(L, M; a, b) summed over every n in 0..M-a+b, zero terms skipped."""
    total = ZERO
    for n in range(max(M - a + b, 0) + 1):
        t1 = q_binomial(M + L - a - 2 * n, M)
        t2 = q_binomial(M - a + b, n)
        t3 = q_binomial(M + a - b, n + a)
        if t1 and t2 and t3:
            total = total + (t1 * t2 * t3).shift(n * (n + a))
    return total


def per_j_refinement_rhs(nu, L, M):
    c = (nu + 2) * (nu + 1) // 2
    total = ZERO
    for j in range(-(L + M + 2), M + 2):
        s = per_term_warnaar_s(L, M, (nu + 2) * j, (nu + 1) * j, base=3)
        total = total + s.shift(3 * c * j * j + j)
    return total


def per_j_roundtri_rhs(which, L):
    total = ZERO
    for j in range(-(L // 2 + 2), L // 2 + 3):
        if which == 1:
            t = per_term_trinomial_t(L, 2 * j, 2 * j, base=3).shift(3 * j * j + j)
        else:
            t = per_term_trinomial_t(L + 1, 2 * j + 1, 2 * j + 1, base=3).shift(
                3 * j * j + 2 * j)
        total = total + t
    return total


def bound_at_one(terms):
    """The value at q = 1 of the sum of the terms with no vanishing binomial,
    each taken with |c|."""
    return sum(abs(c) * math.prod(math.comb(top, k) for top, k in factors)
               for _, c, factors in terms if all(0 <= k <= top for top, k in factors))


binomial_factor = st.tuples(st.integers(-2, 12), st.integers(-2, 8))
binomial_factors = st.lists(binomial_factor, max_size=3).map(tuple)
binomial_term = st.tuples(st.integers(-30, 30), st.just(1), binomial_factors)
signed_term = st.tuples(st.integers(-30, 30), st.integers(-3, 3), binomial_factors)
# terms whose sum has coefficients of both signs, some past 2**8 in size, and
# whose bound (18,222) takes 2-byte limbs
SIGNED = [(-3, 1, ((16, 8),)), (70, -1, ((14, 7),)), (75, -1, ((9, 4), (6, 2))),
          (5, 2, ((6, 2),)), (-1, 0, ((9, 4),))]


class TestBinomialProductSum:
    @pytest.mark.parametrize("base", (1, 2, 3))
    @settings(max_examples=60, deadline=None)
    @given(terms=st.lists(binomial_term, max_size=12))
    def test_matches_the_per_term_sum(self, base, terms):
        # mixed residues, negative exponents, vanishing binomials and
        # factorless terms q^e are all drawn
        assert binomial_product_sum(terms, base) == per_term_sum(terms, base)

    @pytest.mark.parametrize("base", (1, 2, 3))
    @settings(max_examples=60, deadline=None)
    @given(terms=st.lists(signed_term, max_size=12))
    def test_signed_terms_match_the_per_term_sum(self, base, terms):
        # c = 0 terms are dropped, and terms cancel in part or in full
        assert binomial_product_sum(terms, base) == per_term_sum(terms, base)

    def test_signed_sum_has_both_signs(self):
        for base in (1, 2, 3):
            value = binomial_product_sum(SIGNED, base)
            assert value == per_term_sum(SIGNED, base)
            assert min(value.coeffs) < -2**7 and max(value.coeffs) > 2**8
        cancelled = [(e, -c, f) for e, c, f in SIGNED]
        assert binomial_product_sum(SIGNED + cancelled, 3) == ZERO

    def test_empty_list_is_zero(self):
        assert binomial_product_sum([], 3) == ZERO
        assert binomial_product_sum(iter(()), 1) == ZERO

    def test_terms_with_a_vanishing_binomial_are_dropped(self):
        vanishing = [(0, 1, ((3, 4),)), (5, 1, ((2, -1), (4, 2))), (-7, 1, ((-1, 0),))]
        assert binomial_product_sum(vanishing, 3) == ZERO
        kept = [(-4, 1, ((4, 2),))]
        assert binomial_product_sum(vanishing + kept, 3) == q_binomial(4, 2, 3).shift(-4)

    def test_laurent_exponents_in_every_residue_class(self):
        terms = [(e, 1, ((5, 2), (3, 1))) for e in range(-7, 3)]
        assert binomial_product_sum(terms, 3) == per_term_sum(terms, 3)
        signed = [(e, e if e % 2 else -e, ((5, 2), (3, 1))) for e in range(-7, 3)]
        assert binomial_product_sum(signed, 3) == per_term_sum(signed, 3)

    def test_bound_past_two_to_the_200(self):
        # limbs wider than 8 bytes pack and unpack one by one
        terms = [(-5, 1, ((120, 60), (100, 50))), (1, 1, ((110, 55),)),
                 (3, 1, ((90, 45), (40, 20)))]
        assert bound_at_one(terms) > 2**200
        signed = [(e, -2 * c, f) for e, c, f in terms[:2]] + terms[2:]
        for base in (1, 3):
            assert binomial_product_sum(terms, base) == per_term_sum(terms, base)
            assert binomial_product_sum(signed, base) == per_term_sum(signed, base)

    def test_a_binomial_packs_once_per_width(self, monkeypatch):
        # [8, 3] and [8, 5] share one record, which packs once per limb width
        # used: 1 byte, then 2 bytes for the signed and the larger sums
        qcombinat._binomial_record.cache_clear()
        record = qcombinat._binomial_record(8, 3)
        assert qcombinat._binomial_record(8, 5) is record
        listed = [(terms, base, per_term_sum(terms, base))
                  for terms in ([(0, 1, ((8, 3),)), (4, 1, ((8, 5),))],
                                [(0, 1, ((8, 3),)), (4, -1, ((8, 5),))],
                                [(0, 300, ((8, 3),)), (4, 1, ((8, 5),))])
                  for base in (1, 3)]
        pack, widths = series._Limbs.pack, []

        def counted(limbs, coeffs):
            widths.append(limbs.width)
            return pack(limbs, coeffs)

        monkeypatch.setattr(series._Limbs, "pack", counted)
        for terms, base, expected in listed:
            assert binomial_product_sum(terms, base) == expected
        assert widths == [1, 2] and sorted(record.packs) == [1, 2]

    def test_records_hold_the_value_at_one_and_the_degree(self):
        for top in range(13):
            for k in range(-2, top + 3):
                record, value = qcombinat._binomial_record(top, k), q_binomial(top, k)
                if not value:
                    assert record is None, (top, k)
                    continue
                # the whole head: length degree + 1, value at q = 1, largest coefficient
                assert record.whole == (value.degree() + 1, sum(value.coeffs),
                                        max(value.coeffs)), (top, k)
                assert record.coeffs == value.coeffs, (top, k)

    @pytest.mark.parametrize("comb", (lambda top, k: 1,
                                      lambda top, k: math.comb(top, k) - (k == 1)))
    def test_an_understated_bound_raises(self, monkeypatch, comb):
        # with limbs too narrow, or a bound a little low, the unpacked
        # coefficients no longer add up to the bound; the record table is
        # cleared around the patch, so each record states the patched value
        # at q = 1 and no understated record outlives the test
        terms = [(0, 1, ((9, 4), (6, 1))), (4, 1, ((12, 6),)), (-2, 1, ((7, 1),))]
        signed = [(e, c, f) for (e, _, f), c in zip(terms, (1, -1, 2))]
        qcombinat._binomial_record.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(qcombinat, "math", SimpleNamespace(comb=comb, prod=math.prod))
                for base in (1, 3):
                    for listed in (terms, signed):
                        with pytest.raises(ArithmeticError):
                            binomial_product_sum(listed, base)
        finally:
            qcombinat._binomial_record.cache_clear()

    @settings(max_examples=60, deadline=None)
    @given(binomial=st.tuples(st.integers(0, 12), st.integers(-1, 13)),
           terms=st.lists(signed_term, max_size=6), sign=st.sampled_from((1, -1)),
           base=st.integers(1, 3), order=st.sampled_from(("ascending", "descending", "shuffled")),
           rng=st.randoms(use_true_random=False))
    def test_records_revisited_at_every_width_in_any_order(self, binomial, terms, sign, base,
                                                           order, rng):
        # from a cleared record table, one binomial (vanishing when k > top
        # or k < 0) scaled into limbs of 1, 2, 4, 8 and more bytes, the
        # widths visited in any order, beside drawn signed terms
        qcombinat._binomial_record.cache_clear()
        scales = [1, 300, 10**6, 10**12, 2**80]
        scales = (scales[::-1] if order == "descending"
                  else rng.sample(scales, len(scales)) if order == "shuffled" else scales)
        for scale in scales:
            listed = [(-1, sign * scale, (binomial,)), (2, scale, (binomial, binomial))] + terms
            assert binomial_product_sum(listed, base) == per_term_sum(listed, base), scale
        record = qcombinat._binomial_record(*binomial)
        assert record is None or len(record.packs) >= 2

    def test_limbs_one_byte_too_narrow_raise(self, monkeypatch):
        # negative control: with the bound understated by one limb, some
        # coefficient passes the narrower limbs and the check fails
        limbs = qcombinat._limbs
        monkeypatch.setattr(qcombinat, "_limbs", lambda bound, signed: series._Limbs(
            limbs(bound, signed).width - 1, None, signed))
        unsigned = [(e, 1, f) for e, _, f in SIGNED]
        for terms in (unsigned, SIGNED):
            for base in (1, 2, 3):
                assert max(map(abs, per_term_sum(terms, base).coeffs)) >= 2**8
                with pytest.raises(ArithmeticError):
                    binomial_product_sum(terms, base)


class TestTrinomial:
    def test_length_zero(self):
        assert binomial_product_sum(trinomial_t(0, 1, 0)) == ONE
        assert binomial_product_sum(trinomial_t(0, 1, 1)) == ZERO

    def test_direct_expansion(self):
        # T(1;0,0) = sum_j q^{j^2} [1,j][1-j,j]
        expect = ZERO
        for j in range(2):
            expect = expect + (
                q_binomial(1, j) * q_binomial(1 - j, j)).shift(j * j)
        assert binomial_product_sum(trinomial_t(1, 0, 0)) == expect

    def test_a_above_length_vanishes(self):
        assert binomial_product_sum(trinomial_t(2, 0, 3)) == ZERO

    def test_terms_match_the_per_term_loop(self):
        for length in range(7):
            for a in range(-8, 8):
                for b in range(-8, 8):
                    for base, shift in ((1, 0), (3, -5)):
                        terms = trinomial_t(length, b, a, base, shift)
                        # only terms with no vanishing binomial are listed
                        assert all(0 <= k <= top for _, _, fs in terms for top, k in fs)
                        expected = per_term_trinomial_t(length, b, a, base).shift(shift)
                        assert binomial_product_sum(terms, base) == expected

    @pytest.mark.parametrize("which", (1, 2))
    def test_fused_roundtri_rhs_matches_the_per_j_sum(self, which):
        for L in range(13):
            assert roundtri_rhs(which, L) == per_j_roundtri_rhs(which, L), L


class TestWarnaar:
    def test_degenerate_unit(self):
        assert binomial_product_sum(warnaar_s(0, 0, 0, 0)) == ONE

    def test_vanishing_when_a_large(self):
        assert binomial_product_sum(warnaar_s(2, 1, 4, 0)) == ZERO

    def test_nonzero_term_range_matches_the_full_loop(self):
        # every (L, M) <= 8 with the (a, b) of seed_identity_rhs (nu = 0) and
        # of refinement_hierarchy_rhs (nu = 1..3), over their j ranges
        for L in range(9):
            for M in range(9):
                for nu in range(4):
                    for j in range(-(L + M + 2), M + 2):
                        a, b = (nu + 2) * j, (nu + 1) * j
                        expected = full_range_warnaar(L, M, a, b)
                        assert binomial_product_sum(warnaar_s(L, M, a, b)) == expected
                        assert per_term_warnaar_s(L, M, a, b) == expected

    def test_refinement_rhs_j_range_holds_every_term(self):
        # refinement_hierarchy_rhs sums j over -J..J, J = min(M // (nu+1),
        # L // (nu+2)): no other j of the range -(L+M+2)..M+1 that
        # per_j_refinement_rhs sums has a term, and j = +-J has one
        for nu in range(5):
            for L in range(13):
                for M in range(13):
                    J = min(M // (nu + 1), L // (nu + 2))
                    for j in range(-(L + M + 2), M + 2):
                        terms = warnaar_s(L, M, (nu + 2) * j, (nu + 1) * j)
                        if abs(j) > J:
                            assert not terms, (nu, L, M, j)
                        elif abs(j) == J:
                            assert terms, (nu, L, M, j)

    def test_fused_rhs_matches_the_per_j_sum(self):
        for nu in range(4):
            for L in range(11):
                for M in range(11):
                    assert (refinement_hierarchy_rhs(nu, L, M)
                            == per_j_refinement_rhs(nu, L, M)), (nu, L, M)

    @pytest.mark.parametrize("nu", (0, 1))
    def test_wide_limbs_at_l_m_24(self, nu):
        # seed_identity (nu = 0) and s_hierarchy at nu = 1: the bound passes
        # 2**64, so the limbs are wider than an array item
        c = (nu + 2) * (nu + 1) // 2
        terms = [t for j in range(-50, 26)
                 for t in warnaar_s(24, 24, (nu + 2) * j, (nu + 1) * j, 3, 3 * c * j * j + j)]
        assert bound_at_one(terms) >= 2**64
        assert refinement_hierarchy_rhs(nu, 24, 24) == per_j_refinement_rhs(nu, 24, 24)


class TestJacobi3:
    def test_values(self):
        assert jacobi3(0) == 0
        assert jacobi3(1) == 1
        assert jacobi3(2) == -1
        assert jacobi3(-2) == 1

    def test_periodicity_and_oddness(self):
        for j in range(-9, 10):
            assert jacobi3(j) == jacobi3(j + 3)
            if j % 3:
                assert jacobi3(-j) == -jacobi3(j)


def brute_force_sum(terms, n, reach=400):
    """sum of c q^e over every (e, c) of terms(j) with e <= n, |j| <= reach."""
    total = {}
    for j in range(-reach, reach + 1):
        for e, c in terms(j):
            if e <= n:
                total[e] = total.get(e, 0) + c
    return sum((monomial(e, c) for e, c in total.items()), QSeries(0, (), n))


class TestClassicalProducts:
    def test_jtp_sum_spot(self):
        assert jtp_sum(0, 4) == QSeries(0, (1, 2, 0, 0, 2), 4)

    def test_sums_match_brute_force(self):
        # the index bounds of jtp_sum and quintuple_sum drop no term
        for z in range(-30, 31):
            jtp = brute_force_sum(lambda j: ((j * j + z * j, 1),), 80)
            quintuple = brute_force_sum(lambda j: (
                (j * (3 * j - 1) // 2 + 3 * z * j, (-1) ** j),
                (j * (3 * j - 1) // 2 + 3 * z * j + z + j, (-1) ** j)), 80)
            for n in range(0, 81, 3):
                assert jtp_sum(z, n) == jtp.truncate(n)
                assert quintuple_sum(z, n) == quintuple.truncate(n)

    @pytest.mark.parametrize("z_shift", [-3, -2, -1, 0, 1, 2])
    def test_jtp_agreement(self, z_shift):
        assert jtp_sum(z_shift, 50) == jtp_product(z_shift, 50)

    @pytest.mark.parametrize("z_shift", [-3, -2, -1, 1, 2])
    def test_quintuple_agreement(self, z_shift):
        assert quintuple_sum(z_shift, 50) == quintuple_product(z_shift, 50)

    def test_quintuple_z_one(self):
        # z = q^0 keeps a (-1; q)_inf factor with constant term 2
        assert quintuple_sum(0, 30) == quintuple_product(0, 30)

    def test_quintuple_low_order_hand_expansion(self):
        # z = q, order 0: j=0 gives +1, j=-1 gives -2q^-1, j=-2 gives +1
        assert quintuple_sum(1, 0) == QSeries(-1, (-2, 2), 0)


class TestQBinomialTheorem:
    def test_a_zero_is_partition_gf(self):
        lhs, rhs = q_binomial_theorem_sides(None, 1, 5)
        assert lhs == rhs == QSeries(0, (1, 1, 2, 3, 5, 7), 5)

    def test_a_q_z_q(self):
        lhs, rhs = q_binomial_theorem_sides(1, 1, 30)
        assert lhs == rhs

    @pytest.mark.parametrize("a_shift,z_shift", [(None, 1), (None, 2), (1, 1), (2, 1), (1, 2)])
    def test_agreement_n30(self, a_shift, z_shift):
        lhs, rhs = q_binomial_theorem_sides(a_shift, z_shift, 30)
        assert lhs == rhs

    def test_trivial_order_zero(self):
        lhs, rhs = q_binomial_theorem_sides(1, 1, 0)
        assert lhs == rhs == QSeries(0, (1,), 0)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(UnboundedBelow):
            q_binomial_theorem_sides(None, 0, 10)


class TestDistinctParts:
    def test_gf_matches_product(self):
        # sum_n q^{n(n+1)/2}/(q;q)_n = (-q;q)_inf
        N = 50
        total = QSeries(0, (), N)
        n = 0
        while n * (n + 1) // 2 <= N:
            total = total + (
                inverse(pochhammer(n), N).shift(n * (n + 1) // 2)).truncate(N)
            n += 1
        assert total == pochhammer_inf(1, 1, N, sign=1)
