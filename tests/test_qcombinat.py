"""q-special functions and classical product identities."""

import pytest
from hypothesis import given, settings, strategies as st

from qcap.qcombinat import (
    NegativeLength,
    UnboundedBelow,
    inv_pochhammer,
    inv_pochhammer_inf,
    jacobi3,
    jtp_product,
    jtp_sum,
    pochhammer,
    pochhammer_inf,
    poch_ratio,
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
    @given(st.integers(0, 70), st.sampled_from((1, 2, 3)), st.integers(-3, 60))
    def test_running_sums_match_inverse_of_finite_product(self, length, base, n):
        assert inv_pochhammer(length, base, n) == inverse(
            pochhammer(length, base, base), n)

    @settings(deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 60))
    def test_running_sums_match_inverse_of_infinite_product(self, shift, base, n):
        assert inv_pochhammer_inf(shift, base, n) == inverse(
            dense_pochhammer_inf(shift, base, n), n)

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


class TestTrinomial:
    def test_length_zero(self):
        assert trinomial_t(0, 1, 0) == ONE
        assert trinomial_t(0, 1, 1) == ZERO

    def test_direct_expansion(self):
        # T(1;0,0) = sum_j q^{j^2} [1,j][1-j,j]
        expect = ZERO
        for j in range(2):
            expect = expect + (
                q_binomial(1, j) * q_binomial(1 - j, j)).shift(j * j)
        assert trinomial_t(1, 0, 0) == expect

    def test_a_above_length_vanishes(self):
        assert trinomial_t(2, 0, 3) == ZERO


class TestWarnaar:
    def test_degenerate_unit(self):
        assert warnaar_s(0, 0, 0, 0) == ONE

    def test_vanishing_when_a_large(self):
        assert warnaar_s(2, 1, 4, 0) == ZERO

    def test_nonzero_term_range_matches_the_full_loop(self):
        # every (L, M) <= 8 with the (a, b) of seed_identity_rhs (nu = 0) and
        # of refinement_hierarchy_rhs (nu = 1..3), over their j ranges
        for L in range(9):
            for M in range(9):
                for nu in range(4):
                    for j in range(-(L + M + 2), M + 2):
                        a, b = (nu + 2) * j, (nu + 1) * j
                        assert warnaar_s(L, M, a, b) == full_range_warnaar(L, M, a, b)


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


class TestClassicalProducts:
    def test_jtp_sum_spot(self):
        assert jtp_sum(0, 4) == QSeries(0, (1, 2, 0, 0, 2), 4)

    @pytest.mark.parametrize("z_shift", [0, 1, 2])
    def test_jtp_agreement(self, z_shift):
        assert jtp_sum(z_shift, 50) == jtp_product(z_shift, 50)

    @pytest.mark.parametrize("z_shift", [1, 2])
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
