"""Acceptance gate: one pass/fail line per criterion, zero tolerance.

Each criterion prints ``PASS``/``FAIL`` with a short label before asserting,
so a full run always shows the per-criterion ledger (run with ``-s`` to see
the lines for passing criteria too).
"""

from qcap import bailey, partitions, recurrences
from qcap.identities import (
    Bounds,
    CASES,
    FAMILIES,
    hierarchy_finite_lhs,
    iterate_grid,
    rhs_new_fin_cap,
    seed_cap1,
    verify_case,
)
from qcap.qcombinat import (
    inv_pochhammer_inf,
    jtp_product,
    jtp_sum,
    pochhammer,
    pochhammer_inf,
    q_binomial,
    q_binomial_theorem_sides,
    quintuple_product,
    quintuple_sum,
)
from qcap.series import ONE, QSeries, inverse, monomial


FULL_BOUNDS = Bounds(l_max=8, m_max=8, f_max=3, nu_max=2, trunc=30)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def _run_suite(mode: str) -> bool:
    ok = True
    for case_id, case in sorted(CASES.items()):
        if case.mode != mode:
            continue
        for params in iterate_grid(case_id, FULL_BOUNDS):
            report = verify_case(case_id, params)
            if not report.verdict:
                print(f"  mismatch: {case_id} {params} "
                      f"{report.first_mismatch}")
                ok = False
    return ok


def test_criterion_1_exact_identity_suite():
    _report(1, "exact polynomial identities, L,M<=8 f<=3 0<=s<=f nu<=2",
            _run_suite("exact"))


def test_criterion_2_truncated_limit_suite():
    _report(2, "truncated series identities to order N=30, f<=3",
            _run_suite("truncated"))


def test_criterion_3_spot_values():
    expected = QSeries(0, (1, 0, 1, 0, -1))
    ok = all(seed_cap1(L) == rhs_new_fin_cap(1, L) == ONE for L in (0, 1))
    ok &= seed_cap1(2) == rhs_new_fin_cap(1, 2) == expected
    _report(3, "first-identity spot values at L=0,1,2", ok)


def test_criterion_4_partition_oracle():
    ok = all(partitions.count_c(m, 40) == partitions.count_d(m, 40)
             for m in (1, 2))
    N = 30
    product = (pochhammer_inf(2, 6, N, sign=1)
               * pochhammer_inf(4, 6, N, sign=1)
               * pochhammer_inf(3, 3, N, sign=1)).truncate(N)
    counts = partitions.count_c(1, N)
    ok &= QSeries(0, counts, N) == product
    _report(4, "partition counts match, n<=40, gf to N=30", ok)


def test_criterion_5_weighted_theorems():
    ok = partitions.weighted_sum("W1", 3)[3] == (2, 2)
    for theorem in ("W1", "W2", "W3"):
        for n, (lhs, rhs) in enumerate(partitions.weighted_sum(theorem, 25)):
            if lhs != rhs:
                print(f"  mismatch: {theorem} n={n} {lhs} != {rhs}")
                ok = False
    _report(5, "weighted partition totals agree per n, n<=25", ok)


def test_criterion_6_recurrence_catalog():
    reports = recurrences.verify_catalog(length=9)
    ok = all(r.ok for r in reports)
    ok &= all(len(recurrences.default_window(
        recurrences.RECURRENCES[rec_id], 9)) >= 8
        for _, rec_id in recurrences.CATALOG)
    for which, window in (("b", range(4, 13)), ("c", range(6, 13))):
        ok &= recurrences.verify_factor_witness(which, window).ok
    # negative controls must fail
    ok &= not recurrences.verify_recurrence(
        lambda L: ONE,
        recurrences.RECURRENCES["a_short"], range(2, 6)).ok
    bad = recurrences.perturbed(
        recurrences.RECURRENCES["b_short"], 1, monomial(1))
    ok &= not recurrences.verify_recurrence(
        recurrences.SEQUENCES["cap2_rhs"], bad, range(2, 6)).ok
    _report(6, "recurrence catalog, factor witnesses, negative controls", ok)


def test_criterion_7_bailey_engine():
    ok = all(
        all(passed for _, passed in
            bailey.verify_bailey_theorem(alpha, l_max=6))
        for alpha in bailey.ALPHAS.values())
    for family in sorted(FAMILIES):
        for f in range(1, 4):
            twists = range(f + 1) if family == "double" else (0,)
            for s in twists:
                for L in range(5):
                    generated = bailey.generate_hierarchy_lhs(family, f, L, s)
                    if generated != hierarchy_finite_lhs(family, f, L, s):
                        print(f"  mismatch: {family} f={f} s={s} L={L}")
                        ok = False
    for L in range(5):
        lhs, rhs = bailey.checkpoint_first_application(L)
        ok &= lhs == rhs
        lhs, rhs = bailey.checkpoint_after_k_transform(L)
        ok &= lhs == rhs
    _report(7, "Bailey transform theorem, hierarchy generation, checkpoints",
            ok)


def test_criterion_8_classical_sanity():
    ok = all(jtp_sum(z, 50) == jtp_product(z, 50) for z in (0, 1, 2))
    ok &= all(quintuple_sum(z, 50) == quintuple_product(z, 50)
              for z in (0, 1, 2))
    for a_shift, z_shift in ((None, 1), (None, 2), (1, 1), (2, 1), (1, 2)):
        lhs, rhs = q_binomial_theorem_sides(a_shift, z_shift, 30)
        ok &= lhs == rhs
    N = 12
    ok &= all(q_binomial(N + j + 1, j).truncate(N) == inverse(pochhammer(j), N)
              for j in range(4))
    ok &= all(q_binomial(2 * (N + 1) + a, N + 1).truncate(N)
              == inv_pochhammer_inf(1, 1, N) for a in (0, 1))
    _report(8, "classical product/sum and binomial-limit sanity checks", ok)
