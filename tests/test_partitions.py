"""Brute-force partition oracle, and its counts against the series engine."""

import pytest

from qcap.partitions import (
    _WEIGHTED,
    _gap_ok_pairform,
    class_c,
    class_d,
    count_c,
    count_d,
    in_class_c,
    in_class_d,
    is_distinct,
    partitions,
    weighted_sum,
)
from qcap.identities import dual_limit_reference
from qcap.qcombinat import inv_pochhammer_inf, pochhammer_inf
from qcap.series import QSeries


def gf(counter, n):
    """sum_{k<=n} counter(k) q^k with truncation n."""
    return QSeries(0, [counter(k) for k in range(n + 1)], n)


def _gap_ok_sumform(hi, lo):
    # the sum form of the gap rule: gap >= 2 always, and a gap of 2 or 3
    # only when the two parts sum to a multiple of 3
    d = hi - lo
    if d < 2:
        return False
    return d >= 4 or (hi + lo) % 3 == 0


class TestEnumeration:
    def test_partitions_of_four(self):
        assert list(partitions(4)) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_zero_has_empty_partition(self):
        assert list(partitions(0)) == [()]

    def test_distinct_of_six(self):
        assert [p for p in partitions(6) if is_distinct(p)] == [
            (6,), (5, 1), (4, 2), (3, 2, 1)]

    def test_counts_match_partition_numbers(self):
        expect = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert [len(list(partitions(n))) for n in range(10)] == expect


class TestClasses:
    def test_count_c_trivial(self):
        assert count_c(1, 0) == 1
        assert count_d(1, 0) == 1

    def test_count_c_spot(self):
        assert count_c(1, 6) == 2  # {6} and {4,2}
        assert count_c(2, 1) == 1  # {1}: 1 is not congruent to +-2 mod 6

    def test_count_d_spot(self):
        assert count_d(1, 6) == 2
        assert [p for p in partitions(6) if in_class_d(p, 1)] == [(6,), (4, 2)]

    def test_m_validated(self):
        with pytest.raises(ValueError):
            count_c(3, 5)
        with pytest.raises(ValueError):
            count_d(0, 5)
        with pytest.raises(ValueError):
            class_c(3, 5)
        with pytest.raises(ValueError):
            class_d(0, 5)

    @pytest.mark.parametrize("m", [1, 2])
    def test_equinumerous_to_40(self, m):
        for n in range(41):
            assert count_c(m, n) == count_d(m, n), n

    @pytest.mark.parametrize("m", [1, 2])
    def test_equinumerous_41_to_60(self, m):
        for n in range(41, 61):
            assert count_c(m, n) == count_d(m, n), n

    @pytest.mark.parametrize("m", [1, 2])
    def test_generators_match_filtered_partitions(self, m):
        # the member generators against the reference: every partition,
        # filtered by the class predicate, in the same order
        for n in range(-2, 25):
            assert list(class_c(m, n)) == [
                p for p in partitions(n) if in_class_c(p, m)], n
            assert list(class_d(m, n)) == [
                p for p in partitions(n) if in_class_d(p, m)], n

    def test_class_membership_examples(self):
        assert in_class_c((6, 3), 1)
        assert not in_class_c((7, 3), 1)  # 7 = 1 mod 6
        assert in_class_d((6, 3), 1)     # pair {3k, 3k+3}
        assert in_class_d((4, 2), 1)     # pair {3k-1, 3k+1}
        assert not in_class_d((5, 3), 1)  # gap 2, sum 8 not divisible by 3
        assert not in_class_d((3, 1), 2)  # gap 2 below the first allowed pair

    def test_gap_rule_matches_sum_form(self):
        # the pair form in_class_d uses, against the sum form, for every part
        # pair hi > lo >= 1 with hi <= 60
        for hi in range(2, 61):
            for lo in range(1, hi):
                assert _gap_ok_pairform(hi, lo) == _gap_ok_sumform(hi, lo), (hi, lo)


class TestGeneratingFunctions:
    def test_gf_c1_matches_product(self):
        # distinct parts avoiding +-1 mod 6: (-q^2,-q^4;q^6)_inf (-q^3;q^3)_inf
        N = 30
        product = (pochhammer_inf(2, 6, N, sign=1)
                   * pochhammer_inf(4, 6, N, sign=1)
                   * pochhammer_inf(3, 3, N, sign=1)).truncate(N)
        assert gf(lambda n: count_c(1, n), N) == product

    def test_gf_c2_matches_product(self):
        N = 30
        product = (pochhammer_inf(1, 6, N, sign=1)
                   * pochhammer_inf(5, 6, N, sign=1)
                   * pochhammer_inf(3, 3, N, sign=1)).truncate(N)
        assert gf(lambda n: count_c(2, n), N) == product

    @pytest.mark.parametrize("m,a,b", [(1, 2, 4), (2, 1, 5)])
    def test_gf_d_matches_product_to_60(self, m, a, b):
        # D_m(n) for n <= 60 against the C_m product
        # (-q^a,-q^b;q^6)_inf (-q^3;q^3)_inf
        N = 60
        product = (pochhammer_inf(a, 6, N, sign=1)
                   * pochhammer_inf(b, 6, N, sign=1)
                   * pochhammer_inf(3, 3, N, sign=1)).truncate(N)
        assert gf(lambda n: count_d(m, n), N) == product

    def test_gf_all_partitions(self):
        assert gf(lambda n: len(list(partitions(n))), 4) == inv_pochhammer_inf(1, 1, 4)


def _weighted_sum_by_filtering(theorem, n):
    # the full-enumeration formula: every set filtered from all partitions,
    # the pi1 count and pi2 total recomputed for every n1
    left_set, left_exp, right_set, right_exp = _WEIGHTED[theorem]
    lhs = sum((-1) ** left_exp(p) for p in partitions(n) if left_set(p))
    rhs = 0
    for n1 in range(n + 1):
        left_count = sum(1 for p in partitions(n1) if all(part % 3 for part in p))
        rhs += left_count * sum(
            (-1) ** right_exp(p) for p in partitions(n - n1) if right_set(p))
    return lhs, rhs


class TestWeighted:
    @pytest.mark.parametrize("theorem", ["W1", "W2", "W3"])
    def test_matches_full_enumeration(self, theorem):
        for n in range(-1, 16):
            assert weighted_sum(theorem, n) == _weighted_sum_by_filtering(theorem, n), n

    def test_worked_example_n3(self):
        assert weighted_sum("W1", 3) == (2, 2)

    def test_n0_edge(self):
        # empty partition: W1 weight (-1)^{0+0+1}... both sides vanish because
        # the lhs set excludes nothing but mu makes the signs cancel: oracle
        # says (0, 0) -- the empty partition is NOT in P_1 (0 parts = 0 mod 3)
        assert weighted_sum("W1", 0) == (0, 0)
        assert weighted_sum("W2", 0) == (-1, -1)
        assert weighted_sum("W3", 0) == (-1, -1)

    @pytest.mark.parametrize("theorem", ["W1", "W2", "W3"])
    def test_totals_agree_to_25(self, theorem):
        for n in range(26):
            assert weighted_sum(theorem, n)[0] == weighted_sum(theorem, n)[1], n

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            weighted_sum("W4", 3)

    @pytest.mark.parametrize("theorem,b,sign", [("W1", 0, 1), ("W2", 2, 1), ("W3", 1, -1)])
    def test_gf_matches_limit_series(self, theorem, b, sign):
        # signed-count generating functions reproduce the single-sum limit
        # identities: product over parts not divisible by 3 times the
        # Jacobi-weighted reference sum (the W3 interpretation carries a
        # global minus)
        N = 25
        gl = gf(lambda n: weighted_sum(theorem, n)[0], N)
        gr = gf(lambda n: weighted_sum(theorem, n)[1], N)
        series = (inv_pochhammer_inf(1, 3, N) * inv_pochhammer_inf(2, 3, N)
                  * dual_limit_reference(b, N) * sign).truncate(N)
        assert gl == gr == series
