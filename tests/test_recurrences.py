"""Recurrence catalog, factor witnesses, and initial-condition downgrades."""

import pytest

from qcap import recurrences
from qcap.recurrences import (
    CATALOG,
    RECURRENCES,
    SEQUENCES,
    default_window,
    perturbed,
    s1_sum,
    s2_sum,
    verify_catalog,
    verify_factor_witness,
    verify_initial_condition_argument,
    verify_recurrence,
)
from qcap.identities import rhs_new_fin_cap
from qcap.series import ONE, Q, ZERO


class TestCatalog:
    def test_all_pairs_hold(self):
        reports = verify_catalog(length=9)
        assert len(reports) == len(CATALOG)
        for report in reports:
            assert report.ok, (report.name, report.checks)

    def test_windows_have_length_at_least_eight(self):
        for _, rec_id in CATALOG:
            assert len(default_window(RECURRENCES[rec_id], 9)) >= 8

    def test_sum_decomposition(self):
        # the two double sums add up to the second identity's right-hand side
        for L in range(9):
            assert s1_sum(L) + s2_sum(L) == rhs_new_fin_cap(2, L)

    def test_negative_index_vanishes(self):
        for name, seq in SEQUENCES.items():
            for L in range(-8, 0):
                assert seq(L) == ZERO, (name, L)


class TestWitnesses:
    def test_b_witness(self):
        report = verify_factor_witness("b", range(4, 13))
        assert report.ok
        assert all(p for _, p in report.expansion_checks)

    def test_c_witness(self):
        report = verify_factor_witness("c", range(6, 13))
        assert report.ok
        assert all(p for _, p in report.expansion_checks)

    def test_relation_checks_are_vacuous(self):
        # both sides of the second identity satisfy the short recurrence, so
        # the short residual vanishes identically and the substance of the
        # witness check is the coefficientwise expansion against the long form
        for seq_id in ("cap2_lhs", "cap2_rhs"):
            for L in range(2, 10):
                assert not RECURRENCES["b_short"].residual(SEQUENCES[seq_id], L)

    def test_unknown_witness(self):
        with pytest.raises(ValueError):
            verify_factor_witness("d", range(6, 8))


class TestInitialConditions:
    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_downgrade(self, which):
        assert verify_initial_condition_argument(which, extra_terms=3)

    def test_unknown_sequence(self):
        with pytest.raises(ValueError):
            verify_initial_condition_argument("z")


class TestNegativeControls:
    def test_constant_fails_a_short(self):
        report = verify_recurrence(
            lambda L: ONE, RECURRENCES["a_short"], range(2, 6))
        assert not report.ok
        assert report.checks[0] == (2, False)

    def test_perturbed_coefficient_fails(self):
        bad = perturbed(RECURRENCES["b_short"], 1, Q)
        report = verify_recurrence(SEQUENCES["cap2_rhs"], bad, range(2, 6))
        assert not report.ok

    def test_perturbed_relation_fails_for_every_sequence_it_serves(self, monkeypatch):
        # verify_catalog builds each relation's coefficients once and reads
        # them for both sequences the relation serves
        monkeypatch.setitem(RECURRENCES, "b_short", perturbed(RECURRENCES["b_short"], 1, Q))
        reports = {report.name: report for report in verify_catalog(length=9)}
        for name in ("cap2_lhs:b_short", "cap2_rhs:b_short"):
            assert not any(passed for _, passed in reports[name].checks), name
        assert all(report.ok for name, report in reports.items()
                   if not name.endswith(":b_short"))

    def test_perturbed_witness_fails_every_expansion_check(self, monkeypatch):
        # w_1 + q no longer composes the short recurrence into b_proven; the
        # relation checks stay true, since the short residuals vanish
        witness, long_id, seq_id = recurrences._WITNESSES["b"]
        monkeypatch.setitem(recurrences._WITNESSES, "b",
                            (perturbed(witness, 1, Q), long_id, seq_id))
        report = verify_factor_witness("b", range(4, 13))
        assert not report.ok
        assert not any(passed for _, passed in report.expansion_checks)
        assert all(passed for _, passed in report.relation_checks)

    def test_window_below_order_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence(
                SEQUENCES["cap2_rhs"], RECURRENCES["b_proven"], range(3, 8))


class TestNegativeControlsUnderCaches:
    # the coefficient functions that several checks read are caches; a
    # relation patched into RECURRENCES or _WITNESSES must still read its own
    # coeff once the real tables are warm

    def test_shared_coefficients_are_caches(self):
        for fn in (recurrences._coeff_short, recurrences._coeff_b_proven,
                   recurrences._coeff_c_proven, recurrences._witness_b,
                   recurrences._witness_c):
            assert callable(getattr(fn, "cache_info", None)), fn.__name__

    def test_a_perturbed_coefficient_is_no_cache(self):
        witnesses = [witness for witness, _, _ in recurrences._WITNESSES.values()]
        for rec in [*RECURRENCES.values(), *witnesses]:
            assert not hasattr(perturbed(rec, 1, Q).coeff, "cache_info"), rec.name

    def test_perturbed_relations_fail_after_the_real_tables_are_warm(self, monkeypatch):
        def real_checks_pass():
            return (all(report.ok for report in verify_catalog(length=9))
                    and verify_factor_witness("b", range(4, 13)).ok
                    and verify_factor_witness("c", range(6, 13)).ok
                    and all(map(verify_initial_condition_argument, "abc")))

        assert real_checks_pass()
        with monkeypatch.context() as patch:
            patch.setitem(RECURRENCES, "b_proven", perturbed(RECURRENCES["b_proven"], 2, Q))
            patch.setitem(RECURRENCES, "c_proven", perturbed(RECURRENCES["c_proven"], 1, Q))
            witness, long_id, seq_id = recurrences._WITNESSES["c"]
            patch.setitem(recurrences._WITNESSES, "c",
                          (perturbed(witness, 1, Q), long_id, seq_id))
            reports = {report.name: report for report in verify_catalog(length=9)}
            for name in ("cap2_rhs:b_proven", "cap2_lhs:b_proven",
                         "cap2_lhs:c_proven", "cap2_rhs:c_proven"):
                assert not any(passed for _, passed in reports[name].checks), name
            for which, window in (("b", range(4, 13)), ("c", range(6, 13))):
                report = verify_factor_witness(which, window)
                assert not any(passed for _, passed in report.expansion_checks), which
            assert not verify_initial_condition_argument("b")
            assert not verify_initial_condition_argument("c")
        assert real_checks_pass()
