"""Identity registry: spot values, grids, parameter validation, and the
reduction/construction chains connecting the cases."""

import dataclasses
import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from qcap import identities, qcombinat, series
from qcap.identities import (
    FAMILIES,
    _chain_levels,
    _chain_rows,
    _ladder_chains,
    _level_up,
    _limit_levels,
    _refinement_groups,
    Bounds,
    CASES,
    ParamOutOfRange,
    alpha_sum,
    binomial_sum,
    dual_construct,
    dual_lhs,
    hierarchy_finite_lhs,
    hierarchy_limit_lhs,
    hierarchy_limit_rhs,
    iterate_grid,
    k_transform_lhs,
    refinement_hierarchy_lhs,
    refinement_hierarchy_rhs,
    refinement_limit_lhs,
    rhs_new_fin_cap,
    rhs_rewrite_rational,
    roundtri_lhs,
    seed_cap1,
    verify_case,
)
from qcap.qcombinat import inv_pochhammer, jacobi3, poch_ratio, pochhammer, q_binomial
from qcap.series import ONE, Accumulator, QSeries, ZERO, inverse, monomial


# the seed identity's left side as registered: the nu = 0 S-ladder
seed_identity_lhs = dict(CASES["seed_identity"].sides)["lhs"]


def poly(*terms):
    return sum((monomial(e, c) for e, c in terms), ZERO)


class TestRegistry:
    def test_expected_cases_present(self):
        expected = {
            "cap_analytic_1", "cap_analytic_2",
            "fin_cap_roundtri_1", "fin_cap_roundtri_2",
            "fin_cap_binomial_1", "fin_cap_binomial_2", "fin_cap_binomial_3",
            "seed_identity", "s_hierarchy", "s_hierarchy_limit",
            "new_fin_cap_1", "new_fin_cap_2",
            "rhs_rewrites_1", "rhs_rewrites_2",
            "fin_cap2_rhs_alt", "vanishing_aux", "k_transform",
            "cor_cap2_analogue", "corollary_transform",
            "hierarchy_finite_cap1_binomial", "hierarchy_limit_cap1_binomial",
            "hierarchy_finite_cap2_binomial", "hierarchy_limit_cap2_binomial",
            "hierarchy_finite_sum_cap", "hierarchy_limit_sum_cap",
            "hierarchy_finite_cap1", "hierarchy_limit_cap1",
            "hierarchy_finite_cap2", "hierarchy_limit_cap2",
            "hierarchy_finite_cap2_analogue", "hierarchy_limit_cap2_analogue",
            "hierarchy_finite_double", "hierarchy_limit_double",
            "hierarchy_limit_cap2_f1_corollary",
            "dual_identity_1", "dual_identity_2", "dual_limit",
        }
        assert expected <= set(CASES)

    def test_unknown_case_rejected(self):
        with pytest.raises(ParamOutOfRange, match="valid ids"):
            verify_case("nonsense", {})

    def test_missing_and_unknown_params_rejected(self):
        with pytest.raises(ParamOutOfRange):
            verify_case("new_fin_cap_1", {})
        with pytest.raises(ParamOutOfRange):
            verify_case("new_fin_cap_1", {"L": 2, "M": 1})

    def test_bool_params_rejected(self):
        with pytest.raises(ParamOutOfRange, match="integer"):
            verify_case("new_fin_cap_1", {"L": True})
        with pytest.raises(ParamOutOfRange, match="integer"):
            verify_case("hierarchy_finite_cap1", {"f": True, "L": 2})

    def test_depth_must_be_positive(self):
        with pytest.raises(ParamOutOfRange):
            verify_case("hierarchy_finite_cap1", {"f": 0, "L": 2})

    def test_twist_range_validated(self):
        # the first side of each twisted case checks the twist before any work
        with pytest.raises(ParamOutOfRange, match="twist s must satisfy 0 <= s <= f"):
            verify_case("hierarchy_finite_double", {"f": 1, "s": 2, "L": 2})
        with pytest.raises(ParamOutOfRange, match="twist s must satisfy 0 <= s <= f"):
            verify_case("hierarchy_limit_double", {"f": 1, "s": 2, "n": 10})

    def test_unknown_family_rejected(self):
        for side in (hierarchy_finite_lhs, hierarchy_limit_rhs):
            with pytest.raises(ParamOutOfRange, match="valid: cap1, "):
                side("nonsense", 1, 2)

    def test_limit_rhs_validates_depth_and_twist(self):
        with pytest.raises(ParamOutOfRange, match="depth"):
            hierarchy_limit_rhs("cap1", 0, 10)
        with pytest.raises(ParamOutOfRange, match="no twist"):
            hierarchy_limit_rhs("cap1", 1, 10, s=1)

    def test_truncated_cases_are_the_ones_with_an_order(self):
        truncated = {"cap_analytic_1", "cap_analytic_2", "corollary_transform", "dual_limit",
                     "s_hierarchy_limit", "hierarchy_limit_cap2_f1_corollary",
                     *(f"hierarchy_limit_{name}" for name in FAMILIES)}
        assert len(truncated) == 13
        assert {c for c, case in CASES.items() if case.mode == "truncated"} == truncated
        for case in CASES.values():
            assert case.mode == ("truncated" if "n" in case.params else "exact")

    def test_report_fields(self):
        report = verify_case("new_fin_cap_1", {"L": 2})
        assert report.verdict
        assert report.mode == "exact"
        assert report.first_mismatch is None
        assert report.lhs_degree == report.rhs_degree == 4
        d = report.to_json_dict()
        assert "millis" not in d
        assert d["params"] == {"L": 2}


class TestSpotValues:
    def test_new_fin_cap_1_small(self):
        for L in (0, 1):
            assert seed_cap1(L) == ONE
            assert rhs_new_fin_cap(1, L) == ONE
        expected = poly((0, 1), (2, 1), (4, -1))
        assert seed_cap1(2) == expected
        assert rhs_new_fin_cap(1, 2) == expected

    def test_degree_and_constant_term(self):
        for L in range(13):
            value = rhs_new_fin_cap(1, L)
            assert value.degree() <= L * L
            assert value.offset == 0 and value.coeffs[0] == 1
            assert seed_cap1(L) == value

    def test_roundtri_base(self):
        assert roundtri_lhs(1, 0) == ONE
        assert roundtri_lhs(2, 0) == poly((0, 1), (1, 1))  # 1 + q


def perturb(monkeypatch, case_id, **deltas):
    """Register case_id with each side named in deltas replaced by side +
    delta(**params)."""
    case = CASES[case_id]

    def plus(fn, delta):
        return lambda **params: fn(**params) + delta(**params)

    sides = tuple((name, plus(fn, deltas[name]) if name in deltas else fn)
                  for name, fn in case.sides)
    monkeypatch.setitem(CASES, case_id, dataclasses.replace(case, sides=sides))


class TestFailurePath:
    # negative controls: a perturbed side must fail, and be reported as the
    # first side (in order) that differs from the reference

    def test_exact_mismatch_report(self, monkeypatch):
        perturb(monkeypatch, "new_fin_cap_1", rhs=lambda L: monomial(L * L + 1, 3))
        report = verify_case("new_fin_cap_1", {"L": 3})
        mismatch = {"side": "rhs", "exponent": 10, "reference_coeff": 0, "side_coeff": 3}
        assert report.to_json_dict() == {
            "id": "new_fin_cap_1", "params": {"L": 3}, "mode": "exact", "verdict": False,
            "first_mismatch": mismatch, "lhs_degree": 9, "rhs_degree": 10}
        assert not report.verdict and report.first_mismatch == mismatch

    def test_first_mismatching_side_in_order_is_reported(self, monkeypatch):
        perturb(monkeypatch, "dual_identity_1",
                construct_lhs=lambda L: monomial(2, -1), construct_rhs=lambda L: monomial(1, 5))
        report = verify_case("dual_identity_1", {"L": 4})
        assert not report.verdict
        assert report.first_mismatch == {
            "side": "construct_lhs", "exponent": 2, "reference_coeff": 0, "side_coeff": -1}

    def test_perturbation_above_the_truncation_passes(self, monkeypatch):
        perturb(monkeypatch, "cap_analytic_1", rhs=lambda n: monomial(11, 7))
        report = verify_case("cap_analytic_1", {"n": 10})
        assert report.verdict and report.first_mismatch is None
        assert "first_mismatch" not in report.to_json_dict()

    def test_truncated_mismatch_report(self, monkeypatch):
        perturb(monkeypatch, "dual_limit", specific=lambda b, n: monomial(11, -2))
        report = verify_case("dual_limit", {"b": 1, "n": 12})
        assert not report.verdict
        assert report.first_mismatch == {
            "side": "specific", "exponent": 11, "reference_coeff": 1, "side_coeff": -1}


class TestGrids:
    def test_s_values_keep_only_twists_within_depth(self):
        bounds = Bounds(f_max=3, s=2)
        assert list(iterate_grid("hierarchy_finite_double", bounds)) == [
            {"f": f, "s": 2, "L": L} for f in (2, 3) for L in range(9)]
        for s in (5, -1):
            assert not list(iterate_grid("hierarchy_finite_double", Bounds(f_max=3, s=s)))

    def test_verify_grid_reports_in_case_and_grid_order(self, monkeypatch):
        ids = ["hierarchy_finite_double", "new_fin_cap_1", "s_hierarchy", "dual_limit"]
        bounds = Bounds(l_max=3, m_max=2, f_max=3, nu_max=2, trunc=10)
        expected = [verify_case(c, p) for c in ids for p in iterate_grid(c, bounds)]
        calls = []

        def recorded(case_id, params):
            calls.append(params)
            return verify_case(case_id, params)

        monkeypatch.setattr(identities, "verify_case", recorded)
        assert identities.verify_grid(ids, bounds) == expected
        # evaluated grouped by (L, f, s), an absent parameter as -1
        points = [[params.get(p, -1) for p in "Lfs"] for params in calls]
        assert len(calls) == len(expected) and points == sorted(points)
        # which differs from the order of the reports for this selection
        assert points != [[r.params.get(p, -1) for p in "Lfs"] for r in expected]

    @pytest.mark.parametrize("case_id", sorted(CASES))
    def test_case_passes_on_reduced_grid(self, case_id):
        bounds = Bounds(l_max=4, m_max=4, f_max=2, nu_max=1, trunc=15)
        for params in iterate_grid(case_id, bounds):
            report = verify_case(case_id, params)
            assert report.verdict, (case_id, params, report.first_mismatch)


class TestReductionChains:
    def test_seed_identity_m_limit_is_roundtri(self):
        # M -> infinity proxy: truncation order N is safe once M > N.  The
        # double sum degenerates to 1/(q^3;q^3)_L times the round-trinomial
        # side.
        N = 15
        for L in range(4):
            big = seed_identity_lhs(L, N + L + 1).truncate(N)
            small = (inverse(pochhammer(L, 3, 3), N)
                     * roundtri_lhs(1, L)).truncate(N)
            assert big == small

    def test_seed_identity_l_limit_is_binomial(self):
        # L -> infinity proxy: degenerates to 1/(q^3;q^3)_M times the
        # binomial-form side.
        N = 15
        for M in range(4):
            big = seed_identity_lhs(N + M + 1, M).truncate(N)
            small = (inverse(pochhammer(M, 3, 3), N)
                     * alpha_sum(FAMILIES["cap1_binomial"], 0, M)).truncate(N)
            assert big == small

    def test_k1_transform_reproduces_shifted_identity(self):
        # multiplying the first identity by q^L gives the k=1 transform LHS
        for L in range(7):
            shifted = rhs_new_fin_cap(1, L).shift(L)
            assert k_transform_lhs(1, L) == shifted
            assert alpha_sum(FAMILIES["double"], 0, L, 1) == k_transform_lhs(1, L)

    def test_duality_involution(self):
        for which, e in ((1, 0), (2, 1)):
            for L in range(6):
                dual = dual_lhs(which, L)
                back = dual.invert_q().shift(L * L + e * L)
                original = {1: seed_cap1, 2: lambda n: rhs_new_fin_cap(2, n)}[which]
                # the construction applied twice returns the original side
                assert back == dual_construct(which, "lhs", L).invert_q().shift(
                    L * L + e * L)
                assert dual_construct(which, "lhs", L) == dual

    def test_hierarchy_f1_matches_base_identity(self):
        # depth-1 hierarchy over the base-1 family reproduces the transform of
        # the underlying identity at small L
        for L in range(4):
            value = hierarchy_finite_lhs("cap1", 1, L)
            assert value.offset == 0 and value.coeffs[0] == 1


# Enumeration references: every index vector, with no pruning.

def index_vectors(length, total_max):
    """All tuples of `length` non-negative integers with sum <= total_max."""
    if length == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in index_vectors(length - 1, total_max - first):
            yield (first,) + rest


def suffix_sums(nvec):
    """(N_1, ..., N_f) with N_i = n_i + n_{i+1} + ... + n_f."""
    out, acc = [], 0
    for n in reversed(nvec):
        acc += n
        out.append(acc)
    return tuple(reversed(out))


def middle_binomials(nvec, N, i):
    """prod_{j < nu-1} [i - N_1 - ... - N_{j+1} + n_{j+1}, n_{j+1}]_{q^3}."""
    mid = ONE
    for j in range(len(nvec) - 1):
        mid = mid * q_binomial(i - sum(N[:j + 1]) + nvec[j], nvec[j], 3)
    return mid


class TestEnumerationHelpers:
    def test_index_vectors(self):
        assert list(index_vectors(1, 2)) == [(0,), (1,), (2,)]
        assert (1, 1) in set(index_vectors(2, 2))
        assert all(sum(v) <= 2 for v in index_vectors(3, 2))

    def test_suffix_sums(self):
        assert suffix_sums((1, 2, 3)) == (6, 5, 3)

    def test_ladder_chains_match_every_index_vector_that_has_a_term(self):
        # the walk yields exactly the suffix-sum chains with N_1 <= top, sum N
        # <= i and a non-empty m-range, each once, with the top of that range
        # and its middle product; top < i and nu > i are among the cases
        for nu in range(1, 7):
            for i in range(9):
                for top in range(9):
                    expected = Counter(
                        (N[0], N[-1], sum(N), 3 * sum(x * x for x in N), m_top,
                         middle_binomials(nvec, N, i))
                        for nvec in index_vectors(nu, top)
                        for N in [suffix_sums(nvec)] if sum(N) <= i
                        for m_top in [min(3 * N[-1], i - sum(N))]
                        if m_top >= (i + sum(N)) % 2)
                    walked = Counter(_ladder_chains(nu, i, top))
                    assert walked == expected, (nu, i, top)

    def test_ladder_chains_stop_at_the_square_bound(self):
        # with sq_max, exactly the chains with 3 sum N^2 <= sq_max whose
        # m-range, cut at m^2 <= sq_max - 3 sum N^2, is not empty, each with
        # the middle product the unbounded walk gives it
        for nu in range(1, 5):
            for i in range(7):
                every = list(_ladder_chains(nu, i, i))
                for sq_max in (-1, 0, 2, 3, 11, 12, 40, 200):
                    expected = Counter(
                        c[:4] + (m_top, c[5]) for c in every if c[3] <= sq_max
                        for m_top in [min(c[4], math.isqrt(sq_max - c[3]))]
                        if m_top >= (i + c[2]) % 2)
                    walked = Counter(_ladder_chains(nu, i, i, sq_max))
                    assert walked == expected, (nu, i, sq_max)


# Reference paths for the grouped hierarchy sums: the per-term loops, with the
# shared factor multiplied into every term.

def hierarchy_chain_exponent(fam, nvec, s):
    """base * (sum N_i^2 (+ sum N_i when a = 1) + N_{f-s+1} + ... +
    N_f): the exponent of one index vector's chain term."""
    N = suffix_sums(nvec)
    e = sum(x * x for x in N) + sum(N[len(N) - s:])
    if fam.a:
        e += sum(N)
    return fam.base * e


def per_term_hierarchy_finite_lhs(family, f, L, s):
    fam = FAMILIES[family]
    b, a = fam.base, fam.a
    total = ZERO
    for nvec in index_vectors(f, L):
        nf = nvec[-1]
        den = (((L - sum(nvec), b),) + tuple((x, b) for x in nvec[:-1])
               + ((2 * nf + a, b),))
        ratio = poch_ratio(((2 * L + a, b),), den)
        if ratio:
            total = total + (ratio.shift(hierarchy_chain_exponent(fam, nvec, s))
                             * fam.seed(nf))
    return total


def per_level_hierarchy_finite_lhs(family, f, L, s):
    """The nested chain sum with one product per n_f: each chain is
    stretched to q^base and multiplied by the seed on its own, and the
    products are added one by one.  The reference for the packed pass."""
    fam = FAMILIES[family]

    def kernel(N, n):
        return q_binomial(L - N, n - N)

    # P_{f-1} level by level, step k twisted exactly when k > f - s
    level = (ONE,) * (L + 1)
    for k in range(1, f):
        level = _level_up(level, fam.a + (k > f - s), kernel)
    eps = fam.a + bool(s)
    total = Accumulator()
    for nf, inner in enumerate(level):
        tail = poch_ratio(((2 * L + fam.a, 1),), ((L - nf, 1), (2 * nf + fam.a, 1)))
        chain = (tail * inner).shift(nf * nf + eps * nf)
        total.add(chain.substitute_q_power(fam.base) * fam.seed(nf))
    return total.value()


def per_row_hierarchy_limit_lhs(family, f, n, s):
    """The rows of hierarchy_limit_lhs combined one product per n_f: each row
    clipped to q^m, stretched to q^base and multiplied by the seed on its
    own.  The reference for the packed pass."""
    fam = FAMILIES[family]
    m = -(-n // fam.base)
    tails = tuple(inv_pochhammer(2 * nf + fam.a, 1, m) for nf in range(math.isqrt(m) + 1))
    rows = identities._rows(_limit_levels, (m,), fam.a, f, s,
                            lambda N, k: inv_pochhammer(k - N, 1, m), tails, m)
    total = Accumulator(n)
    for nf, row in enumerate(rows):
        total.add(fam.seed(nf) * row.truncate(m).substitute_q_power(fam.base))
    return total.value()


def per_term_hierarchy_limit_lhs(family, f, n, s):
    # every index vector with an exponent within n, each term at order n - e
    fam = FAMILIES[family]
    b, a = fam.base, fam.a
    total = Accumulator(n)
    for nvec in index_vectors(f, math.isqrt(n // b) if n >= b else 0):
        e = hierarchy_chain_exponent(fam, nvec, s)
        if e > n:
            continue
        nf = nvec[-1]
        term = QSeries(0, (1,), n - e) * fam.seed(nf)
        for x in nvec[:-1]:
            term = term * inv_pochhammer(x, b, n)
        term = term * inv_pochhammer(2 * nf + a, b, n)
        total.add(term.shift(e))
    return total.value()


def per_term_refinement_hierarchy_lhs(nu, L, M):
    total = ZERO
    for nvec in index_vectors(nu, L):
        N = suffix_sums(nvec)
        SN = sum(N)
        n_last = nvec[-1]
        for i in range(min(M, L - N[0]) + 1):
            top1 = q_binomial(L + M - i, L, 3)
            top2 = q_binomial(L - N[0], i, 3)
            mid = middle_binomials(nvec, N, i)
            for m in range((i + SN) % 2, min(3 * n_last, i - SN) + 1, 2):
                half = (i - m - SN) // 2
                t3 = q_binomial(3 * n_last, m, 1)
                t4 = q_binomial(2 * n_last + half, 2 * n_last, 3)
                e = (m * m + 3 * (i * i + sum(x * x for x in N))) // 2
                total = total + (top1 * top2 * mid * t3 * t4).shift(e)
    return total


def per_term_refinement_limit_lhs(nu, n):
    # one term at a time: the middle product is built for every (nvec, i)
    # with an exponent within n, and each term at order n - e
    total = ZERO
    i_max = math.isqrt(2 * n // 3) + 1
    for nvec in index_vectors(nu, i_max):
        N = suffix_sums(nvec)
        SN = sum(N)
        sq = 3 * sum(x * x for x in N)
        n_last = nvec[-1]
        for i in range(i_max + 1):
            room = 2 * n - 3 * i * i - sq
            if room < 0:
                continue
            ms = range((i + SN) % 2, min(3 * n_last, i - SN, math.isqrt(room)) + 1, 2)
            mid = middle_binomials(nvec, N, i)
            for m in ms:
                e = (m * m + 3 * i * i + sq) // 2
                t3 = q_binomial(3 * n_last, m, 1)
                t4 = q_binomial(2 * n_last + (i - m - SN) // 2, 2 * n_last, 3)
                term = QSeries(0, (1,), n - e) * mid * t3 * t4 * inv_pochhammer(i, 3, n)
                total = total + term.shift(e)
    return total.truncate(n)


def per_term_seed_identity_lhs(L, M):
    total = ZERO
    for i in range(min(M, L) + 1):
        top1 = q_binomial(L + M - i, L, 3)
        for m in range(i % 2, min(3 * (L - i), i) + 1, 2):
            t2 = q_binomial(3 * (L - i), m, 1)
            t3 = q_binomial(2 * (L - i) + (i - m) // 2, 2 * (L - i), 3)
            total = total + (top1 * t2 * t3).shift((m * m + 3 * i * i) // 2)
    return total


class TestGroupedSums:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hierarchy_finite_lhs_matches_per_term(self, family):
        for f in range(1, 6):
            for s in range(f + 1) if FAMILIES[family].twisted else (0,):
                for L in range(7):
                    assert (hierarchy_finite_lhs(family, f, L, s)
                            == per_term_hierarchy_finite_lhs(family, f, L, s)), (f, s, L)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hierarchy_limit_lhs_matches_per_term(self, family):
        # n = 57 = 3 * 19 is no square: the cut-off b(N^2 + eps N) <= n
        # falls between two multiples of the base
        for f in range(1, 6):
            for s in range(f + 1) if FAMILIES[family].twisted else (0,):
                for n in [*range(41), 57, 100]:
                    assert (hierarchy_limit_lhs(family, f, n, s)
                            == per_term_hierarchy_limit_lhs(family, f, n, s)), (f, s, n)

    @pytest.mark.parametrize("family", sorted(name for name, fam in FAMILIES.items()
                                              if fam.base == 3 or fam.twisted))
    def test_limit_order_in_q_rounds_up(self, family):
        # n = 3m - 2, 3m - 1 and 3m: a base-3 chain is summed in q to order
        # m = 20 for each, and stretched rows reach q^60; each from a
        # cleared stack
        for f in range(1, 5):
            for s in range(f + 1) if FAMILIES[family].twisted else (0,):
                for n in (58, 59, 60):
                    _limit_levels.cache_clear()
                    assert (hierarchy_limit_lhs(family, f, n, s)
                            == per_term_hierarchy_limit_lhs(family, f, n, s)), (f, s, n)

    def test_refinement_hierarchy_lhs_matches_per_term(self):
        # nu > L is among the cases
        for nu in range(1, 7):
            for L in range(6):
                for M in range(6):
                    assert (refinement_hierarchy_lhs(nu, L, M)
                            == per_term_refinement_hierarchy_lhs(nu, L, M)), (nu, L, M)

    def test_refinement_limit_lhs_matches_per_term(self):
        for nu in range(1, 7):
            for n in range(41):
                assert (refinement_limit_lhs(nu, n)
                        == per_term_refinement_limit_lhs(nu, n)), (nu, n)

    def test_refinement_limit_lhs_at_depth_8_and_order_200(self):
        # beside the per-term check (nu <= 6, n <= 40): the pruned chain walk
        # against the limit chain of depth nu(nu+3)/2 = 44
        report = verify_case("corollary_transform", {"nu": 8, "n": 200})
        assert report.verdict, report.first_mismatch

    def test_seed_identity_lhs_matches_per_term(self):
        for L in range(9):
            for M in range(9):
                assert seed_identity_lhs(L, M) == per_term_seed_identity_lhs(L, M), (L, M)


ORDERS = st.sampled_from(("ascending", "descending", "shuffled"))


def in_order(items, order, rng):
    """items ascending (as given), descending, or shuffled by rng."""
    if order == "descending":
        return items[::-1]
    return rng.sample(items, len(items)) if order == "shuffled" else items


class TestSharedTables:
    @pytest.mark.parametrize("first", sorted(FAMILIES))
    def test_chain_table_serves_every_family_whichever_fills_it(self, first):
        expected = {(name, f, L): per_term_hierarchy_finite_lhs(name, f, L, 0)
                    for name in FAMILIES for f in range(1, 4) for L in range(6)}
        _chain_levels.cache_clear()
        _chain_rows.cache_clear()
        for name in [first] + sorted(set(FAMILIES) - {first}):
            for f in range(1, 4):
                for L in range(6):
                    assert hierarchy_finite_lhs(name, f, L) == expected[name, f, L], (name, f, L)

    def test_one_limit_stack_per_order_in_q(self):
        # cap1 at n = 20 and cap1_binomial at n = 58..60 all sum an a = 0
        # chain in q to order 20, so they fill and extend one stack
        _limit_levels.cache_clear()
        for family, f, n in (("cap1", 2, 20), ("cap1_binomial", 3, 58),
                             ("cap1_binomial", 1, 59), ("cap1_binomial", 4, 60)):
            assert (hierarchy_limit_lhs(family, f, n)
                    == per_term_hierarchy_limit_lhs(family, f, n, 0)), (family, n)
        assert _limit_levels.cache_info().currsize == 1
        assert len(_limit_levels(0, 20)) == 4

    def test_twisted_levels_in_any_f_s_order(self):
        # (f, s) ascending, descending and shuffled from cleared stores: the
        # twisted levels extend whatever the kept stack holds, and at s = f
        # the a + 1 stack serves; the limit side interleaves two orders n,
        # whose levels are kept apart
        rng = random.Random(11)
        pairs = [(f, s) for f in range(1, 6) for s in range(f + 1)]
        finite = {(f, s, L): per_term_hierarchy_finite_lhs("double", f, L, s)
                  for f, s in pairs for L in range(7)}
        limit = {(f, s, n): per_term_hierarchy_limit_lhs("double", f, n, s)
                 for f, s in pairs for n in (40, 57)}
        for order in (pairs, pairs[::-1], rng.sample(pairs, len(pairs))):
            for store in (_chain_levels, _chain_rows, _limit_levels):
                store.cache_clear()
            for f, s in order:
                for L in range(7):
                    assert hierarchy_finite_lhs("double", f, L, s) == finite[f, s, L], (f, s, L)
                for n in (40, 57):
                    assert hierarchy_limit_lhs("double", f, n, s) == limit[f, s, n], (f, s, n)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), L=st.integers(0, 10),
           order=ORDERS, rng=st.randoms(use_true_random=False))
    def test_packed_pass_matches_per_level_products_in_any_f_s_order(
            self, family, L, order, rng):
        # the one packed pass per call against one product per n_f, for
        # every depth and twist at f <= 5, visited from cleared level stacks;
        # base-3 seeds of n_f <= 1 are shorter than the base, so some of
        # their residue classes are empty
        pairs = [(f, s) for f in range(1, 6)
                 for s in (range(f + 1) if FAMILIES[family].twisted else (0,))]
        expected = {(f, s): per_level_hierarchy_finite_lhs(family, f, L, s) for f, s in pairs}
        _chain_levels.cache_clear()
        _chain_rows.cache_clear()
        for f, s in in_order(pairs, order, rng):
            assert hierarchy_finite_lhs(family, f, L, s) == expected[f, s], (f, s)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)),
           orders=st.lists(st.integers(0, 120), min_size=1, max_size=3),
           order=ORDERS, rng=st.randoms(use_true_random=False))
    # 58, 59 and 119 are no multiple of 3: a base-3 chain is summed in q to
    # order ceil(n / 3), past n / 3
    @example(family="cap1_binomial", orders=[58, 119], order="descending",
             rng=random.Random(0))
    @example(family="sum_cap", orders=[59, 0, 1], order="shuffled", rng=random.Random(1))
    def test_limit_packed_pass_matches_per_row_products_in_any_f_s_order(
            self, family, orders, order, rng):
        # the limit side's one packed pass against one product per n_f, for
        # every depth and twist at f <= 5, visited from cleared level stacks
        cases = [(f, s, n) for f in range(1, 6)
                 for s in (range(f + 1) if FAMILIES[family].twisted else (0,)) for n in orders]
        expected = {(f, s, n): per_row_hierarchy_limit_lhs(family, f, n, s) for f, s, n in cases}
        _limit_levels.cache_clear()
        identities._seed_classes.cache_clear()
        for f, s, n in in_order(cases, order, rng):
            assert hierarchy_limit_lhs(family, f, n, s) == expected[f, s, n], (f, s, n)

    def test_each_chain_row_packs_once_per_width(self, monkeypatch):
        # the five a = 0 families read every row of one (f, s, L), at limb
        # widths of 2 and 4 bytes: each row packs once per width, however
        # many families read it
        names = [name for name, fam in FAMILIES.items() if fam.a == 0]
        expected = {name: per_level_hierarchy_finite_lhs(name, 2, 8, 0) for name in names}
        _chain_rows.cache_clear()
        packed, pack = series._Classes.packed, series._Limbs.pack
        family, reading, reads, packs = [None], [], {}, Counter()

        def counted_packed(classes, limbs):
            reads.setdefault(classes, set()).add((family[0], limbs.width))
            reading.append(classes)
            try:
                return packed(classes, limbs)
            finally:
                reading.pop()

        def counted_pack(limbs, coeffs):
            if reading:
                packs[reading[-1], limbs.width] += 1
            return pack(limbs, coeffs)

        monkeypatch.setattr(series._Classes, "packed", counted_packed)
        monkeypatch.setattr(series._Limbs, "pack", counted_pack)
        for name in names:
            family[0] = name
            assert hierarchy_finite_lhs(name, 2, 8) == expected[name], name
        rows = _chain_rows(0, 2, 0, 8)
        for nf, row in enumerate(rows):
            assert {name for name, _ in reads[row]} == set(names), nf
            widths = {width for _, width in reads[row]}
            assert {width: packs[row, width] for width in widths} == dict.fromkeys(widths, 1), nf
        assert {width for _, width in reads[rows[0]]} == {2, 4}

    def test_packed_pass_past_8_byte_limbs(self, monkeypatch):
        # cap2_binomial at f = 2, L = 24 is the shallowest grid point whose
        # chain-times-seed coefficients need limbs wider than 8 bytes
        widths, inside = [], []
        limbs, packed_pass = series._limbs, identities.stretched_product_sum

        def recorded_limbs(bound, signed):
            chosen = limbs(bound, signed)
            if inside:
                widths.append(chosen.width)
            return chosen

        def recorded_pass(pairs, base):
            inside.append(True)
            try:
                return packed_pass(pairs, base)
            finally:
                inside.pop()

        monkeypatch.setattr(series, "_limbs", recorded_limbs)
        monkeypatch.setattr(identities, "stretched_product_sum", recorded_pass)
        value = hierarchy_finite_lhs("cap2_binomial", 2, 24)
        assert widths == [9]
        assert value == per_level_hierarchy_finite_lhs("cap2_binomial", 2, 24, 0)

    @settings(max_examples=20, deadline=None)
    @given(L=st.integers(0, 8), order=ORDERS, rng=st.randoms(use_true_random=False))
    def test_seed_identity_lhs_in_any_m_order(self, L, order, rng):
        # the nu = 0 groups of an L are built at whichever M comes first
        _refinement_groups.cache_clear()
        for M in in_order(list(range(11)), order, rng):
            assert seed_identity_lhs(L, M) == per_term_seed_identity_lhs(L, M), M

    def test_refinement_lhs_in_any_m_order(self):
        # the table of an (nu, L) is built at whichever M comes first,
        # also at M < L and at M > L
        rng = random.Random(7)
        for nu in (1, 2, 3):
            for L in range(6):
                expected = {M: per_term_refinement_hierarchy_lhs(nu, L, M) for M in range(9)}
                ascending = list(expected)
                for order in (ascending, ascending[::-1], rng.sample(ascending, 9)):
                    _refinement_groups.cache_clear()
                    for M in order:
                        assert refinement_hierarchy_lhs(nu, L, M) == expected[M], (nu, L, M)

    def test_refinement_table_is_built_only_to_the_largest_m_read(self):
        # a side with M < L builds the groups i <= M only; a larger M
        # extends the one table, and M >= L completes it at i = L
        _refinement_groups.cache_clear()
        largest = -1
        for M in (0, 3, 2, 5, 11, 4):
            assert (refinement_hierarchy_lhs(2, 8, M)
                    == per_term_refinement_hierarchy_lhs(2, 8, M)), M
            largest = max(largest, M)
            assert len(_refinement_groups(2, 8)[0]) == min(largest, 8) + 1
        assert _refinement_groups.cache_info().misses == 1

    def test_one_table_build_per_grid_point(self, monkeypatch):
        bounds = Bounds()
        _refinement_groups.cache_clear()
        for params in iterate_grid("s_hierarchy", bounds):
            assert verify_case("s_hierarchy", params).verdict
        assert _refinement_groups.cache_info().misses == bounds.nu_max * (bounds.l_max + 1)
        for store in (_chain_levels, _chain_rows, _limit_levels):
            store.cache_clear()
        for case_id in CASES:
            if case_id.startswith("hierarchy_"):
                for params in iterate_grid(case_id, bounds):
                    assert verify_case(case_id, params).verdict
        # one level stack per a, of the L last read, whatever f, family or twist
        assert _chain_levels.cache_info().currsize <= 2
        # one limit stack per (a, order in q) at the one order n
        assert _limit_levels.cache_info().currsize <= 4
        # every truncated case at n = 100 builds each distinct limit level
        # (its input, eps and order) once: 11 of them, since s = f reads
        # the a = 1 stack for the double family's a = 0 chain
        built = []
        level_up = identities._level_up

        def counted(level, eps, kernel, order=None):
            built.append((level, eps, order))
            return level_up(level, eps, kernel, order)

        monkeypatch.setattr(identities, "_level_up", counted)
        at_100 = bounds._replace(trunc=100)
        for case_id, case in CASES.items():
            if case.mode == "truncated":
                for params in iterate_grid(case_id, at_100):
                    assert verify_case(case_id, params).verdict
        assert len(built) == len(set(built)) == 11


@functools.lru_cache(maxsize=None)
def per_term_ladder_lhs(nu, L, M):
    """The S-ladder left side of nu term by term; nu = 0 is the seed identity's."""
    return per_term_refinement_hierarchy_lhs(nu, L, M) if nu else per_term_seed_identity_lhs(L, M)


class TestBoundedBinomialSum:
    # the packed M-sum sum_i [L+M-i, L]_{q^3} group_i of refinement_hierarchy_lhs
    # for nu <= 3 (nu = 0: the seed identity), from a cleared table

    @settings(max_examples=40, deadline=None)
    @given(nu=st.integers(0, 3), L=st.integers(0, 10), order=ORDERS,
           rng=st.randoms(use_true_random=False))
    def test_matches_per_term_in_any_m_order(self, nu, L, order, rng):
        # M < L reads some groups and packs, a later M extends them
        _refinement_groups.cache_clear()
        for M in in_order(list(range(10)), order, rng):
            assert refinement_hierarchy_lhs(nu, L, M) == per_term_ladder_lhs(nu, L, M), M

    @pytest.mark.parametrize("order", ("ascending", "descending", "shuffled"))
    def test_past_8_byte_limbs(self, monkeypatch, order):
        # every width forced past 8 bytes, to the to_bytes limbs
        limbs, widths = identities._limbs, set()

        def wide(bound, signed):
            chosen = limbs(max(bound, 2**80), signed)
            widths.add(chosen.width)
            return chosen

        monkeypatch.setattr(identities, "_limbs", wide)
        rng = random.Random(5)
        for nu in range(4):
            for L in (3, 6):
                _refinement_groups.cache_clear()
                for M in in_order(list(range(8)), order, rng):
                    assert (refinement_hierarchy_lhs(nu, L, M)
                            == per_term_ladder_lhs(nu, L, M)), (nu, L, M)
        assert widths == {11}

    def test_limbs_one_byte_too_narrow_raise(self, monkeypatch):
        # negative control: at L = M = 6 some coefficient of the sum passes
        # the narrower limbs, whose carries then lose a part of the bound
        limbs = identities._limbs
        monkeypatch.setattr(identities, "_limbs", lambda bound, signed: series._Limbs(
            limbs(bound, signed).width - 1, None, signed))
        for nu in range(4):
            assert max(per_term_ladder_lhs(nu, 6, 6).coeffs) >= 256
            _refinement_groups.cache_clear()
            with pytest.raises(ArithmeticError, match="not to the bound"):
                refinement_hierarchy_lhs(nu, 6, 6)


class TestDepthReach:
    def test_every_finite_hierarchy_to_depth_8(self):
        # beside the grid gates (f <= 3): every family and twist at f <= 8,
        # L <= 8, the nested chain sum against the Bailey-pair right side
        count = 0
        for name, fam in FAMILIES.items():
            for f in range(1, 9):
                for s in range(f + 1) if fam.twisted else (0,):
                    for L in range(9):
                        assert (hierarchy_finite_lhs(name, f, L, s)
                                == alpha_sum(fam, f, L, s)), (name, f, s, L)
                        count += 1
        assert count == 828

    def test_every_limit_hierarchy_to_depth_8(self):
        # beside the grid gates (f <= 3): every family and twist at f <= 8,
        # n = 60, the nested limit sum against the product side
        count = 0
        for name, fam in FAMILIES.items():
            for f in range(1, 9):
                for s in range(f + 1) if fam.twisted else (0,):
                    assert (hierarchy_limit_lhs(name, f, 60, s)
                            == hierarchy_limit_rhs(name, f, 60, s)), (name, f, s)
                    count += 1
        assert count == 92

    def test_s_hierarchy_to_depth_12(self):
        # beside the grid gates (nu <= 2): the S-ladder at nu <= 12, L, M <= 8,
        # the chain walk against the Warnaar S sums
        count = 0
        for nu in range(1, 13):
            for L in range(9):
                for M in range(9):
                    assert (refinement_hierarchy_lhs(nu, L, M)
                            == refinement_hierarchy_rhs(nu, L, M)), (nu, L, M)
                    count += 1
        assert count == 972

    @pytest.mark.parametrize("nu", [3, 4])
    def test_corollary_transform_at_depth_9_and_14(self, nu):
        # the limit side at f = nu(nu+3)/2 = 9 and 14
        report = verify_case("corollary_transform", {"nu": nu, "n": 80})
        assert report.verdict, report.first_mismatch


def per_term_base3_sum(M, shifts):
    """sum ratio q^x over the base-3 seed terms (m, n) and each x in
    shifts(m, n, e), e = 2m^2+6mn+6n^2, each ratio from poch_ratio."""
    total = ZERO
    for n in range(M // 2 + 1):
        for m in range(M - 2 * n + 1):
            ratio = poch_ratio(((M, 3),), ((m, 1), (n, 3), (M - 2 * n - m, 3)))
            for x in shifts(m, n, 2 * m * m + 6 * m * n + 6 * n * n):
                total = total + ratio.shift(x)
    return total


def per_term_base1_sum(L, shifts, drop=0):
    """sum ratio q^x over the base-1 seed terms (m, n) and each x in
    shifts(m, n, e), ratio = (q)_L / [(q)_{L-3n-2m-drop} (q)_m (q^3)_n] from
    poch_ratio (zero for a negative length)."""
    total = ZERO
    for n in range(L // 3 + 1):
        for m in range((L - 3 * n) // 2 + 1):
            ratio = poch_ratio(((L, 1),), ((L - 3 * n - 2 * m - drop, 1), (m, 1), (n, 3)))
            for x in shifts(m, n, 2 * m * m + 6 * m * n + 6 * n * n):
                total = total + ratio.shift(x)
    return total


def per_term_dual_lhs(which, L):
    total = ZERO
    for m in range(L // 2 + 1):
        for n_ in range(L - 2 * m + 1):
            e = m * (m - 1) // 2 + L * n_ if which == 1 else m * (m + 1) // 2 + (L + 1) * n_
            for drop, sign in ((0, 1), (1, -1))[:which]:
                k, r = divmod(L - n_ - 2 * m - drop, 3)
                if r == 0:
                    ratio = poch_ratio(((L, 1),), ((m, 1), (n_, 1), (k, 3)))
                    total = total + ratio.shift(e) * (sign * (-1) ** m)
    return total


def divide_first(coeffs, times, divs):
    """_poch_step with the divisions made before the multiplications."""
    for d in divs:
        coeffs = qcombinat._div_one_minus(coeffs, d)
    for t in times:
        coeffs = qcombinat._times_one_minus(coeffs, t)
    return coeffs


class TestSteppedQuotients:
    # every quotient the left sides step along their summation index against
    # poch_ratio, one quotient at a time

    @settings(deadline=None)
    @given(a=st.integers(0, 1), L=st.integers(0, 14))
    def test_chain_tails_match_poch_ratio(self, a, L):
        identities._chain_tails.cache_clear()
        assert identities._chain_tails(a, L) == tuple(
            poch_ratio(((2 * L + a, 1),), ((L - n, 1), (2 * n + a, 1))) for n in range(L + 1))

    @settings(deadline=None)
    @given(seed=st.sampled_from(("seed_cap1_binomial", "seed_cap2_binomial", "seed_sum_cap")),
           M=st.integers(0, 12))
    def test_base3_seeds_match_per_term(self, seed, M):
        shifts = {
            "seed_cap1_binomial": lambda m, n, e: (e,),
            "seed_cap2_binomial": lambda m, n, e: (e + m + 3 * n, e + 3 * m + 6 * n + 1),
            "seed_sum_cap": lambda m, n, e: (e - 2 * m - 3 * n, e - 2 * m - 3 * n + 3 * M),
        }[seed]
        identities._base3_seeds.cache_clear()
        assert getattr(identities, seed)(M) == per_term_base3_sum(M, shifts)

    @settings(deadline=None)
    @given(seed=st.sampled_from(("seed_cap1", "s1_sum", "s2_sum", "seed_cap2")),
           L=st.integers(0, 12))
    def test_base1_seeds_match_per_term(self, seed, L):
        def s1(m, n, e):
            return (e + m + 3 * n,)

        def s2(m, n, e):
            return (e + 3 * m + 6 * n + 1,)

        expected = {
            "seed_cap1": lambda: per_term_base1_sum(L, lambda m, n, e: (e,)),
            "s1_sum": lambda: per_term_base1_sum(L, s1),
            "s2_sum": lambda: per_term_base1_sum(L, s2, drop=1),
            "seed_cap2": lambda: per_term_base1_sum(L, s1) + per_term_base1_sum(L, s2, drop=1),
        }[seed]()
        for cached in (identities.seed_cap1, identities.s1_sum, identities.s2_sum,
                       identities.seed_cap2):
            cached.cache_clear()
        assert getattr(identities, seed)(L) == expected

    @settings(deadline=None)
    @given(which=st.sampled_from((1, 2)), L=st.integers(0, 14))
    def test_dual_lhs_matches_per_term(self, which, L):
        assert dual_lhs(which, L) == per_term_dual_lhs(which, L)

    @given(M=st.integers(1, 12), a=st.integers(0, 1))
    def test_a_step_that_divides_first_raises(self, M, a):
        # two first steps from 1, each exact only when it multiplies first:
        # along m at n = 0 of the base-3 quotients, (1-q^{3M}) / (1-q), and
        # the chain tails' from n = M to M - 1, (1-q^{2M+a-1})(1-q^{2M+a}) / (1-q)
        for step, expected in (
                (((3 * M,), (1,)), poch_ratio(((M, 3),), ((1, 1), (M - 1, 3)))),
                (((2 * M + a - 1, 2 * M + a), (1,)),
                 poch_ratio(((2 * M + a, 1),), ((1, 1), (2 * M + a - 2, 1))))):
            assert QSeries(0, qcombinat._poch_step([1], *step)) == expected
            with pytest.raises(qcombinat.NonDivisible):
                divide_first([1], *step)


def rational_numerator(which, L):
    """The common-denominator numerator of rhs_rewrite_rational multiplied
    out as QSeries, and its denominator prod_j (1 - q^{L+3j+1})."""
    js = range(-(L // 3), L // 3 + 1)
    dens = {j: ONE - monomial(L + 3 * j + 1) for j in js}
    numerator = ZERO
    for j in js:
        b = q_binomial(2 * L, L + 3 * j, 1)
        if which == 1:
            piece = (ONE - monomial(6 * j + 1)).shift(9 * j * j) * b
        else:
            factor = ONE - monomial(6 * j + 2) - (ONE - monomial(1)).shift(L + 3 * j + 1)
            piece = factor.shift(3 * j * (3 * j + 1)) * b
        numerator = numerator + piece * math.prod((dens[k] for k in js if k != j), start=ONE)
    return numerator, math.prod(dens.values())


def divide_once_rhs_rewrite_rational(which, L):
    """rhs_rewrite_rational by one div_exact of the multiplied-out numerator."""
    total = series.div_exact(*rational_numerator(which, L))
    if (L - 2) % 3 == 0:
        total = total - monomial(L * L if which == 1 else L * (L - 1))
    return total


class TestRationalRewrite:
    # rhs_rewrite_rational builds its numerator on coefficient lists and
    # divides by one factor (1 - q^m) at a time

    @settings(max_examples=40, deadline=None)
    @given(which=st.sampled_from((1, 2)), L=st.integers(0, 30))
    @example(which=1, L=0)
    @example(which=2, L=30)
    def test_matches_one_exact_division(self, which, L):
        assert rhs_rewrite_rational(which, L) == divide_once_rhs_rewrite_rational(which, L)

    @pytest.mark.parametrize("which", (1, 2))
    @pytest.mark.parametrize("L", (0, 1, 5, 12))
    def test_numerator_off_by_one_monomial_raises(self, monkeypatch, which, L):
        # 1 added to the first term the numerator sums: neither path divides
        numerator, denominator = rational_numerator(which, L)
        with pytest.raises(series.NonDivisible):
            series.div_exact(numerator + ONE, denominator)
        first = iter((True,))

        def off_by_one(coeffs, times, divs):
            term = qcombinat._poch_step(coeffs, times, divs)
            if next(first, False):
                term[0] += 1
            return term

        monkeypatch.setattr(identities, "_poch_step", off_by_one)
        with pytest.raises(series.NonDivisible):
            rhs_rewrite_rational(which, L)


def twisted_without_base_1(families):
    """The twisted families whose base is not 1.  Both sides of a hierarchy
    sum its chain in powers of q and stretch it to q^base, but a twist adds
    N_{f-s+1}+...+N_f, which is no multiple of a base other than 1."""
    return [name for name, fam in families.items() if fam.twisted and fam.base != 1]


class TestHierarchyFamily:
    def test_twisted_family_must_have_base_1(self):
        assert not twisted_without_base_1(FAMILIES)
        # negative controls: a twisted base-3 row is reported, either way made
        for name, bad in (("cap1_binomial", FAMILIES["cap1_binomial"]._replace(twisted=True)),
                          ("double", FAMILIES["double"]._replace(base=3))):
            assert twisted_without_base_1({**FAMILIES, name: bad}) == [name]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_chain_exponent_is_a_multiple_of_the_base(self, family):
        # hierarchy_finite_lhs sums each chain in powers of q^base
        fam = FAMILIES[family]
        for f in range(1, 4):
            for s in range(f + 1) if fam.twisted else (0,):
                for nvec in index_vectors(f, 6):
                    assert hierarchy_chain_exponent(fam, nvec, s) % fam.base == 0


# Reference forms of the Bailey-pair right-hand sides, written out by hand:
# the seven hierarchy weights alpha_j q^{f*base*(j^2+aj)} and the base
# right-hand sides.  alpha_sum over the alpha rows of FAMILIES must
# reproduce each of them.

HAND_WEIGHTS = {
    "cap1_binomial": lambda f, s, j: monomial(3 * (f + 1) * j * j + j),
    "cap2_binomial": lambda f, s, j: monomial(3 * (f + 1) * j * j + (3 * f + 2) * j),
    "sum_cap": lambda f, s, j: (monomial(3 * (f + 1) * j * j - 2 * j)
                                + monomial(3 * (f + 1) * j * j + j)),
    "cap1": lambda f, s, j: monomial((f + 1) * j * j, jacobi3(j + 1)),
    "cap2": lambda f, s, j: monomial((f + 1) * j * j + j, jacobi3(j + 1)),
    "cap2_analogue": lambda f, s, j: monomial((f + 1) * (j * j + j), jacobi3(j + 1)),
    "double": lambda f, s, j: monomial((f + 1) * j * j - s * j, jacobi3(j + 1)),
}


def hand_rhs_new_fin_cap(which, L):
    if which == 1:
        return per_term_binomial_sum(L, 0, 1, lambda j: monomial(j * j, jacobi3(j + 1)))
    return per_term_binomial_sum(L, 0, 1, lambda j: monomial(j * (j + 1), jacobi3(j + 1)))


def hand_rhs_fin_cap_binomial(which, M):
    if which == 1:
        return per_term_binomial_sum(M, 0, 3, lambda j: monomial(3 * j * j + j))
    if which == 2:
        return per_term_binomial_sum(M, 1, 3, lambda j: monomial(3 * j * j + 2 * j))
    return per_term_binomial_sum(
        M, 0, 3, lambda j: monomial(3 * j * j - 2 * j) + monomial(3 * j * j + j))


def hand_cor_cap2_analogue_rhs(L):
    return per_term_binomial_sum(L, 0, 1, lambda j: monomial(j * (j - 1), jacobi3(j + 1)))


class TestAlphaTable:
    def test_weights_cover_every_family(self):
        assert sorted(HAND_WEIGHTS) == sorted(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_stepped_alpha_matches_hand_weights(self, family):
        fam = FAMILIES[family]
        for f in range(1, 5):
            for s in range(f + 1) if fam.twisted else (0,):
                for L in range(7):
                    expect = per_term_binomial_sum(
                        L, fam.a, fam.base,
                        lambda j: HAND_WEIGHTS[family](f, s, j))
                    assert alpha_sum(fam, f, L, s) == expect, (f, s, L)

    def test_base_right_hand_sides(self):
        for L in range(9):
            for which, name in ((1, "cap1"), (2, "cap2")):
                assert rhs_new_fin_cap(which, L) == hand_rhs_new_fin_cap(which, L)
                assert alpha_sum(FAMILIES[name], 0, L) == hand_rhs_new_fin_cap(which, L)
            for which, name in ((1, "cap1_binomial"), (2, "cap2_binomial"), (3, "sum_cap")):
                assert (alpha_sum(FAMILIES[name], 0, L)
                        == hand_rhs_fin_cap_binomial(which, L)), (name, L)
            assert alpha_sum(FAMILIES["double"], 0, L, 1) == hand_cor_cap2_analogue_rhs(L)
            assert alpha_sum(FAMILIES["cap2_analogue"], 0, L) == per_term_binomial_sum(
                L, 1, 1, lambda j: monomial(j * (j + 1), jacobi3(j + 1)))


def per_term_binomial_sum(L, a, base, weight):
    """The reference for binomial_sum, driven by QSeries weights: one QSeries
    product per j, each added on its own."""
    total = Accumulator()
    for j in range(-L - a, L + a + 1):
        w = weight(j)
        if w:
            b = q_binomial(2 * L + a, L - j, base)
            if b:
                total.add(w * b)
    return total.value()


# Signed Laurent weights: per j mod 5, a list of (exponent, coefficient).
monomials = st.lists(st.tuples(st.integers(-12, 12), st.integers(-4, 4)), max_size=3)
signed_weights = st.lists(monomials, min_size=5, max_size=5)


class TestBinomialSum:
    # the one packed pass of binomial_sum over (exponent, coefficient) pairs
    # against one product per j of the QSeries weights

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), f=st.integers(0, 3),
           L=st.integers(0, 10), data=st.data())
    def test_alpha_sums_match_per_term(self, family, f, L, data):
        fam = FAMILIES[family]
        s = data.draw(st.integers(0, f) if fam.twisted else st.just(0))
        expected = per_term_binomial_sum(
            L, fam.a, fam.base, lambda j: HAND_WEIGHTS[family](f, s, j))
        assert alpha_sum(fam, f, L, s) == expected

    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(0, 8), a=st.integers(0, 1), base=st.integers(1, 3),
           table=signed_weights)
    def test_signed_laurent_weights_match_per_term(self, L, a, base, table):
        # repeated exponents and zero coefficients among the pairs of a j
        expected = per_term_binomial_sum(L, a, base, lambda j: poly(*table[j % 5]))
        assert binomial_sum(L, a, base, lambda j: table[j % 5]) == expected

    def test_past_8_byte_limbs(self, monkeypatch):
        # every width forced past 8 bytes, to the to_bytes limbs
        limbs, widths = qcombinat._limbs, set()

        def wide(bound, signed):
            chosen = limbs(max(bound, 2**80), signed)
            widths.add(chosen.width)
            return chosen

        monkeypatch.setattr(qcombinat, "_limbs", wide)
        for family, fam in sorted(FAMILIES.items()):
            for L in (0, 3, 7):
                for f in (0, 2):
                    s = f if fam.twisted else 0
                    expected = per_term_binomial_sum(
                        L, fam.a, fam.base, lambda j: HAND_WEIGHTS[family](f, s, j))
                    assert alpha_sum(fam, f, L, s) == expected
        assert widths == {11}
