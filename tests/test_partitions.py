"""Partition oracle: its counting tables against the member generators and
brute-force enumeration, and its counts against the series engine."""

import itertools

import pytest

from qcap.partitions import (
    _WEIGHTED,
    _check_m,
    _gap_ok_pairform,
    _weighted_tables,
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


def gf(counts):
    """sum_k counts[k] q^k with truncation len(counts) - 1."""
    return QSeries(0, counts, len(counts) - 1)


def _descend(n, top, step, ok, hi=None):
    """Partitions of n with parts <= top, each part at least `step` below the
    one before it and accepted by ok(previous part or None, part), in the
    order of partitions(): candidate parts are tried largest first, so only
    members and their prefixes are ever built."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    for first in range(min(top, n), 0, -1):
        if ok(hi, first):
            for rest in _descend(n - first, first - step, step, ok, first):
                yield (first,) + rest


def class_c(m, n):
    """The members of C_m(n), in the order of partitions(n) filtered by
    in_class_c: distinct parts, none congruent to +-m mod 6."""
    _check_m(m)
    bad = (m % 6, -m % 6)
    return _descend(n, n, 1, lambda hi, lo: lo % 6 not in bad)


def class_d(m, n):
    """The members of D_m(n), in the order of partitions(n) filtered by
    in_class_d: no part equal to m, and each part lo below its predecessor
    hi with _gap_ok_pairform(hi, lo), which needs lo <= hi - 2."""
    _check_m(m)
    return _descend(n, n, 2, lambda hi, lo: lo != m and (
        hi is None or _gap_ok_pairform(hi, lo)))


def _c_d_product(a, b, N):
    """(-q^a,-q^b;q^6)_inf (-q^3;q^3)_inf to order N."""
    return (pochhammer_inf(a, 6, N, sign=1)
            * pochhammer_inf(b, 6, N, sign=1)
            * pochhammer_inf(3, 3, N, sign=1)).truncate(N)


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
        assert count_c(1, 0) == [1]
        assert count_d(1, 0) == [1]

    def test_count_c_spot(self):
        assert count_c(1, 6)[6] == 2  # {6} and {4,2}
        assert count_c(2, 1)[1] == 1  # {1}: 1 is not congruent to +-2 mod 6

    def test_count_d_spot(self):
        assert count_d(1, 6)[6] == 2
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
        assert count_c(m, 40) == count_d(m, 40)

    @pytest.mark.parametrize("m", [1, 2])
    def test_equinumerous_41_to_60(self, m):
        assert count_c(m, 60)[41:] == count_d(m, 60)[41:]

    @pytest.mark.parametrize("m", [1, 2])
    def test_tables_match_generators(self, m):
        # the counting tables against the member generators, which the next
        # test holds to filtered partitions()
        assert count_c(m, 40) == [sum(1 for _ in class_c(m, n)) for n in range(41)]
        assert count_d(m, 40) == [sum(1 for _ in class_d(m, n)) for n in range(41)]

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
        assert gf(count_c(1, 30)) == _c_d_product(2, 4, 30)

    def test_gf_c2_matches_product(self):
        assert gf(count_c(2, 30)) == _c_d_product(1, 5, 30)

    @pytest.mark.parametrize("m,a,b", [(1, 2, 4), (2, 1, 5)])
    def test_gf_d_matches_product_to_60(self, m, a, b):
        # D_m(n) for n <= 60 against the C_m product
        # (-q^a,-q^b;q^6)_inf (-q^3;q^3)_inf
        assert gf(count_d(m, 60)) == _c_d_product(a, b, 60)

    @pytest.mark.parametrize("m,a,b", [(1, 2, 4), (2, 1, 5)])
    def test_c_and_d_match_product_to_500(self, m, a, b):
        # reach beyond the n <= 60 gates: C_m = D_m, and D_m against the
        # product, for n <= 500
        counts = count_d(m, 500)
        assert count_c(m, 500) == counts
        assert gf(counts) == _c_d_product(a, b, 500)

    def test_gf_all_partitions(self):
        assert gf([len(list(partitions(n))) for n in range(5)]) == inv_pochhammer_inf(1, 1, 4)


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


_LIMITS = [("W1", 0, 1), ("W2", 2, 1), ("W3", 1, -1)]


def _check_limit_series(theorem, b, sign, N):
    lhs, rhs = zip(*weighted_sum(theorem, N))
    series = (inv_pochhammer_inf(1, 3, N) * inv_pochhammer_inf(2, 3, N)
              * dual_limit_reference(b, N) * sign).truncate(N)
    assert gf(list(lhs)) == gf(list(rhs)) == series


class TestWeighted:
    @pytest.mark.parametrize("theorem", ["W1", "W2", "W3"])
    def test_matches_full_enumeration(self, theorem):
        assert weighted_sum(theorem, -1) == []
        for n, sides in enumerate(weighted_sum(theorem, 15)):
            assert sides == _weighted_sum_by_filtering(theorem, n), n

    @pytest.mark.parametrize("theorem", ["W1", "W2", "W3"])
    def test_sets_and_signs_depend_on_distinctness_and_length(self, theorem):
        # what the tables of weighted_sum assume: each set and sign is that of
        # the representative (k, ..., 1) of the left side, k = len mod 6, or
        # of (1,) * k on the right, k = len mod 3
        left_set, left_exp, right_set, right_exp = _WEIGHTED[theorem]
        for n in range(15):
            for p in partitions(n):
                left = tuple(range(len(p) % 6, 0, -1))
                right = (1,) * (len(p) % 3)
                assert left_set(p) == (is_distinct(p) and left_set(left)), p
                assert left_exp(p) % 2 == left_exp(left) % 2, p
                assert right_set(p) == right_set(right), p
                assert right_exp(p) % 2 == right_exp(right) % 2, p

    def test_shared_tables_in_every_order(self):
        # W1-W3 read one set of tables per n_max; whichever theorem builds
        # them, the others read them unchanged
        expected = {theorem: [_weighted_sum_by_filtering(theorem, n) for n in range(16)]
                    for theorem in _WEIGHTED}
        for order in itertools.permutations(expected):
            _weighted_tables.cache_clear()
            for theorem in order:
                assert weighted_sum(theorem, 15) == expected[theorem], order
            assert _weighted_tables.cache_info().hits == len(order) - 1

    def test_worked_example_n3(self):
        assert weighted_sum("W1", 3)[3] == (2, 2)

    def test_n0_edge(self):
        # empty partition: W1 weight (-1)^{0+0+1}... both sides vanish because
        # the lhs set excludes nothing but mu makes the signs cancel: oracle
        # says (0, 0) -- the empty partition is NOT in P_1 (0 parts = 0 mod 3)
        assert weighted_sum("W1", 0) == [(0, 0)]
        assert weighted_sum("W2", 0) == [(-1, -1)]
        assert weighted_sum("W3", 0) == [(-1, -1)]

    @pytest.mark.parametrize("theorem", ["W1", "W2", "W3"])
    def test_totals_agree_to_25(self, theorem):
        for n, (lhs, rhs) in enumerate(weighted_sum(theorem, 25)):
            assert lhs == rhs, n

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            weighted_sum("W4", 3)

    @pytest.mark.parametrize("theorem,b,sign", _LIMITS)
    def test_gf_matches_limit_series(self, theorem, b, sign):
        # signed-count generating functions reproduce the single-sum limit
        # identities: product over parts not divisible by 3 times the
        # Jacobi-weighted reference sum (the W3 interpretation carries a
        # global minus)
        _check_limit_series(theorem, b, sign, 25)

    @pytest.mark.parametrize("theorem,b,sign", _LIMITS)
    def test_gf_matches_limit_series_to_200(self, theorem, b, sign):
        # reach beyond the n <= 25 gates: left = right per n, and both
        # equal to the limit series
        _check_limit_series(theorem, b, sign, 200)
