"""Bailey-lemma engine: theorem checks, hierarchy generation, checkpoints."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from qcap import bailey, identities
from qcap.bailey import (
    ALPHAS,
    BaileyAlpha,
    bailey_f,
    bailey_lhs_transform,
    bailey_step,
    checkpoint_after_k_transform,
    checkpoint_first_application,
    generate_hierarchy_lhs,
    verify_bailey_theorem,
)
from qcap.identities import (
    ParamOutOfRange,
    cor_cap2_analogue_lhs,
    hierarchy_finite_lhs,
    hierarchy_finite_rhs,
)
from qcap.qcombinat import jacobi3
from qcap.series import ONE, ZERO, monomial


FAMILIES = (
    "cap1_binomial", "cap2_binomial", "sum_cap",
    "cap1", "cap2", "cap2_analogue", "double",
)


def pair_sum(pairs):
    """The QSeries sum of c q^e over the (e, c) pairs of one alpha_j."""
    return sum((monomial(e, c) for e, c in pairs), ZERO)


class TestTheorem:
    @pytest.mark.parametrize("name", sorted(ALPHAS))
    def test_all_catalog_alphas(self, name):
        results = verify_bailey_theorem(ALPHAS[name], l_max=6)
        assert results == [(L, True) for L in range(7)]

    def test_unit_alpha_transform_values(self):
        # with alpha = delta_{j,0}: F(L) = [2L, L], so the transform at L=0 is 1
        transformed = bailey_lhs_transform(
            lambda r: bailey_f(ALPHAS["unit"], r), 0)
        assert transformed(0) == ONE

    def test_step_adds_quadratic_weight(self):
        stepped = bailey_step(ALPHAS["cap2_binomial"])
        _, _, alpha = LITERAL_ALPHAS["cap2_binomial"]
        for j in (-2, 0, 1, 3):
            assert pair_sum(stepped.alpha(j)) == alpha(j).shift(3 * (j * j + j))
        assert stepped.a == 1 and stepped.base == 3


# The alpha catalog written out as literal rows (a, base, alpha_j); ALPHAS,
# read from the Bailey pairs in FAMILIES, must reproduce every row.
LITERAL_ALPHAS = {
    "unit": (0, 1, lambda j: ONE if j == 0 else ZERO),
    "cap1_binomial": (0, 3, lambda j: monomial(3 * j * j + j)),
    "cap2_binomial": (1, 3, lambda j: monomial(3 * j * j + 2 * j)),
    "sum_cap": (0, 3, lambda j: monomial(3 * j * j - 2 * j) + monomial(3 * j * j + j)),
    "cap1": (0, 1, lambda j: monomial(j * j, jacobi3(j + 1))),
    "cap2": (0, 1, lambda j: monomial(j * j + j, jacobi3(j + 1))),
    "cap2_alt": (1, 1, lambda j: monomial(j * j + j, jacobi3(j + 1))),
    "cap1_shifted": (0, 1, lambda j: monomial(j * (j - 1), jacobi3(j + 1))),
}


class TestCatalog:
    def test_names(self):
        assert sorted(ALPHAS) == sorted(LITERAL_ALPHAS)

    @pytest.mark.parametrize("name", sorted(LITERAL_ALPHAS))
    def test_rows_match_literal_table(self, name):
        a, base, alpha = LITERAL_ALPHAS[name]
        entry = ALPHAS[name]
        assert (entry.name, entry.a, entry.base) == (name, a, base)
        for j in range(-10, 11):
            assert pair_sum(entry.alpha(j)) == alpha(j), j


class TestValidation:
    def test_a_must_be_zero_or_one(self):
        with pytest.raises(ParamOutOfRange):
            BaileyAlpha("bad", lambda j: (), a=2)

    def test_base_must_be_positive(self):
        with pytest.raises(ParamOutOfRange):
            BaileyAlpha("bad", lambda j: (), a=0, base=0)

    def test_unknown_family(self):
        with pytest.raises(ParamOutOfRange, match="valid: cap1, "):
            generate_hierarchy_lhs("nonsense", 1, 2)

    def test_depth_must_be_positive(self):
        with pytest.raises(ParamOutOfRange):
            generate_hierarchy_lhs("cap1", 0, 2)

    def test_twist_only_on_double(self):
        with pytest.raises(ParamOutOfRange):
            generate_hierarchy_lhs("cap1", 1, 2, s=1)
        with pytest.raises(ParamOutOfRange):
            generate_hierarchy_lhs("double", 1, 2, s=2)


class TestHierarchyGeneration:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_generator_matches_direct_expansion(self, family, f):
        twists = range(f + 1) if family == "double" else (0,)
        for s in twists:
            for L in range(5):
                generated = generate_hierarchy_lhs(family, f, L, s)
                direct = hierarchy_finite_lhs(family, f, L, s)
                assert generated == direct, (family, f, s, L)

    def test_generator_matches_rhs(self):
        # every family untwisted at f = 2, and every twist of double
        inputs = [(family, 2, 0) for family in FAMILIES]
        inputs += [("double", f, s) for f in (1, 2, 3) for s in range(1, f + 1)]
        for family, f, s in inputs:
            for L in range(4):
                assert (generate_hierarchy_lhs(family, f, L, s)
                        == hierarchy_finite_rhs(family, f, L, s)), (family, f, s, L)


@functools.cache
def per_call_generate_hierarchy_lhs(family, f, L, s=0):
    """generate_hierarchy_lhs with no shared memo: every level rebuilt for
    the call, from caches that live for the call only."""
    fam = identities.FAMILIES[family]
    g = functools.cache(cor_cap2_analogue_lhs if s else fam.seed)
    for t in range(1, f + 1):
        g = functools.cache(bailey_lhs_transform(g, fam.a, fam.base))
        if t < s:
            g = functools.cache(lambda r, inner=g: inner(r).shift(r))
    return g(L)


# Every (family, f, s, L) with f <= 4 and L <= 5, ascending in f, s and L.
GENERATOR_CALLS = [(family, f, s, L) for family in FAMILIES for f in range(1, 5)
                   for s in (range(f + 1) if family == "double" else (0,)) for L in range(6)]


class TestSharedLevels:
    # the generator builds each level once per run, shared by every (f, s, L)
    # that reads it; from a cleared memo, in any call order, each value must
    # equal the per-call generator's and the direct expansion's

    @staticmethod
    def check_calls(calls):
        bailey._transform_level.cache_clear()
        for family, f, s, L in calls:
            value = generate_hierarchy_lhs(family, f, L, s)
            assert value == per_call_generate_hierarchy_lhs(family, f, L, s), (family, f, s, L)
            assert value == hierarchy_finite_lhs(family, f, L, s), (family, f, s, L)

    def test_ascending_calls(self):
        self.check_calls(GENERATOR_CALLS)

    def test_descending_calls(self):
        self.check_calls(GENERATOR_CALLS[::-1])

    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(st.sampled_from(GENERATOR_CALLS), min_size=1, max_size=30))
    def test_shuffled_calls(self, calls):
        self.check_calls(calls)

    def test_each_level_is_built_once(self):
        # level 3 at L = 4 reads level 2 at r <= 4, each of which reads level
        # 1 at r' <= r: 1 + 5 + 5 levels built, and 10 of the 15 reads of
        # level 1 hit; no entry holds a q^L twist
        bailey._transform_level.cache_clear()
        generate_hierarchy_lhs("double", 3, 4, 3)
        info = bailey._transform_level.cache_info()
        assert (info.misses, info.hits, info.currsize) == (11, 10, 11)
        # f = 2, s = 2 is level 2 of f = 3, s = 3: read, not built again
        generate_hierarchy_lhs("double", 2, 4, 2)
        info = bailey._transform_level.cache_info()
        assert (info.misses, info.hits) == (11, 11)


class TestCheckpoints:
    @pytest.mark.parametrize("L", range(5))
    def test_first_application(self, L):
        lhs, rhs = checkpoint_first_application(L)
        assert lhs == rhs

    @pytest.mark.parametrize("L", range(5))
    def test_after_k_transform(self, L):
        lhs, rhs = checkpoint_after_k_transform(L)
        assert lhs == rhs
