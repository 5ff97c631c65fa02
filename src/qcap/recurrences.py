"""Linear recurrences with exact polynomial coefficients.

Each catalog entry is a homogeneous relation

    sum_{lag=0}^{order} coeff(L, lag) * seq(L - lag) = 0

whose coefficients are Laurent-free polynomials in q depending on L.  The
sequences come from the two finite Capparelli-type identities: both sides of
each satisfy a short order-2 recurrence, the right-hand sides also satisfy
longer machine-provable recurrences, and the two double sums making up the
second identity's left-hand side satisfy order-3 recurrences of their own.
Factor-witness relations tie the long recurrences to the short ones, and the
initial-condition checks replay the downgrade from a long recurrence to the
short one.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, NamedTuple, Sequence

from qcap.series import ONE, Accumulator, QSeries, ZERO, div_exact, monomial as _m
from qcap.identities import rhs_new_fin_cap, s1_sum, s2_sum, seed_cap1, seed_cap2


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------

SEQUENCES: dict[str, Callable[[int], QSeries]] = {
    "cap1_lhs": seed_cap1,
    "cap1_rhs": lambda L: rhs_new_fin_cap(1, L),
    "cap2_lhs": seed_cap2,
    "cap2_rhs": lambda L: rhs_new_fin_cap(2, L),
    "s1": s1_sum,
    "s2": s2_sum,
}


# ---------------------------------------------------------------------------
# Recurrence catalog
# ---------------------------------------------------------------------------

class Recurrence(NamedTuple):
    """Homogeneous linear recurrence sum_lag coeff(L, lag) seq(L - lag) = 0."""

    name: str
    order: int
    coeff: Callable[[int, int], QSeries]

    def residual(self, seq: Callable[[int], QSeries], L: int) -> QSeries:
        total = Accumulator()
        for lag in range(self.order + 1):
            c = self.coeff(L, lag)
            if c:
                total.add(c * seq(L - lag))
        return total.value()


@cache
def _coeff_short(t: int, lag: int) -> QSeries:
    # the short relation of both identities, at t = 2L - 1 and at t = 2L
    if lag == 0:
        return ONE
    if lag == 1:
        return -(ONE + _m(1) - _m(t))
    return ((ONE - _m(t - 1)) * (ONE - _m(t - 2))).shift(1)


@cache
def _coeff_b_proven(L: int, lag: int) -> QSeries:
    # Order-4 companion of the short b recurrence: it factors as the short
    # recurrence composed with the order-2 witness relation below.
    if lag == 0:
        return ONE
    if lag == 1:
        return -(ONE + _m(2)) * (ONE + _m(1) - _m(2 * L - 2))
    if lag == 2:
        return ((ONE + _m(2)) * (ONE + _m(1) + _m(2))
                - _m(2 * L - 3) * (ONE + _m(1)) * (ONE + _m(2)) * 2
                + _m(4 * L - 7) * (ONE + _m(2) + _m(4))).shift(1)
    if lag == 3:
        return -math.prod((ONE + _m(2), ONE - _m(2 * L - 4), ONE - _m(2 * L - 5),
                           ONE + _m(1) - _m(2 * L - 4))).shift(3)
    return math.prod((ONE - _m(2 * L - 4), ONE - _m(2 * L - 5),
                      ONE - _m(2 * L - 6), ONE - _m(2 * L - 7))).shift(6)


def _coeff_s1(L: int, lag: int) -> QSeries:
    if lag == 0:
        return ONE
    if lag == 1:
        return -(ONE + _m(1) + _m(3) - _m(L) - _m(L + 2))
    if lag == 2:
        return ((ONE - _m(L - 1))
                * (ONE + _m(2) + _m(3) - _m(L + 1) - _m(2 * L - 1) - _m(2 * L - 2))
                ).shift(1)
    return -math.prod((ONE - _m(L - 1), ONE - _m(L - 2),
                       ONE - _m(2 * L - 3), ONE - _m(2 * L - 4))).shift(4)


def _coeff_s2(L: int, lag: int) -> QSeries:
    # Leading coefficient (1 - q^{L-1}) is kept as is; the relation lives in
    # the polynomial ring and is never divided through.
    if lag == 0:
        return ONE - _m(L - 1)
    if lag == 1:
        return -(ONE - _m(L)) * (ONE + _m(1) + _m(2) - _m(L - 1) - _m(L))
    if lag == 2:
        return math.prod((ONE - _m(L), ONE - _m(L - 1),
                          ONE + _m(1) + _m(2) - _m(L - 1) - _m(2 * L - 1) - _m(2 * L - 2)
                          )).shift(1)
    return -math.prod((ONE - _m(L), ONE - _m(L - 1), ONE - _m(L - 2),
                       ONE - _m(2 * L - 3), ONE - _m(2 * L - 4))).shift(3)


@cache
def _coeff_c_proven(L: int, lag: int) -> QSeries:
    if lag == 0:
        return ONE
    if lag == 1:
        return -(ONE + _m(1) + _m(2) + _m(3) + _m(4)
                 - _m(2 * L - 1) - _m(L) - _m(L + 2))
    if lag == 2:
        return ((ONE + _m(2)) * (ONE + _m(1) + _m(2) + _m(3) + _m(4))
                - _m(L - 1) * (ONE + _m(1)) * (ONE + _m(2)) * (ONE + _m(2))
                - _m(2 * L - 2) * (ONE + _m(1)) * (QSeries(0, [2]) + _m(2))
                + _m(3 * L - 3) * (ONE + _m(1)) * (ONE + _m(1))
                + _m(4 * L - 5)).shift(1)
    if lag == 3:
        inner = ((ONE + _m(2)) * (ONE + _m(1) + _m(2) + _m(3) + _m(4))
                 - _m(L) * (ONE + _m(2))
                 - _m(2 * L - 4) * (ONE + _m(1))
                 * (ONE + 2 * _m(1) + 2 * _m(2) + _m(3) + _m(4))
                 - _m(3 * L - 5) * (ONE + _m(1)) * (ONE - 2 * _m(1))
                 + _m(4 * L - 7) * (QSeries(0, [2]) + 2 * _m(1) + _m(2))
                 - _m(5 * L - 7))
        return -((ONE - _m(L - 2)) * inner).shift(3)
    if lag == 4:
        inner = (ONE + _m(1) + _m(2) + _m(3) + _m(4)
                 - _m(L - 3) * (ONE + _m(2) + _m(3))
                 - _m(2 * L - 5) * (ONE + _m(1) + _m(2))
                 + _m(3 * L - 6))
        return math.prod((ONE - _m(L - 2), ONE - _m(2 * L - 6),
                          ONE - _m(2 * L - 5), inner)).shift(6)
    return -math.prod((ONE - _m(L - 2), ONE - _m(L - 4),
                       ONE - _m(2 * L - 5), ONE - _m(2 * L - 6),
                       ONE - _m(2 * L - 7), ONE - _m(2 * L - 8))).shift(10)


RECURRENCES: dict[str, Recurrence] = {
    "a_short": Recurrence("a_short", 2, lambda L, lag: _coeff_short(2 * L - 1, lag)),
    "b_short": Recurrence("b_short", 2, lambda L, lag: _coeff_short(2 * L, lag)),
    "b_proven": Recurrence("b_proven", 4, _coeff_b_proven),
    "s1": Recurrence("s1", 3, _coeff_s1),
    "s2": Recurrence("s2", 3, _coeff_s2),
    "c_proven": Recurrence("c_proven", 5, _coeff_c_proven),
}

# (sequence id, recurrence id) pairs verified by verify_catalog; every window
# has length >= 8 starting at the first L where all lags are defined.
CATALOG: tuple[tuple[str, str], ...] = (
    ("cap1_lhs", "a_short"),
    ("cap1_rhs", "a_short"),
    ("cap2_lhs", "b_short"),
    ("cap2_rhs", "b_short"),
    ("cap2_rhs", "b_proven"),
    ("cap2_lhs", "b_proven"),
    ("s1", "s1"),
    ("s2", "s2"),
    ("cap2_lhs", "c_proven"),
    ("cap2_rhs", "c_proven"),
)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class RecurrenceReport(NamedTuple):
    name: str
    checks: tuple[tuple[int, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def verify_recurrence(
    seq: Callable[[int], QSeries],
    rec: Recurrence,
    l_range: Sequence[int],
    name: str = "",
) -> RecurrenceReport:
    checks = []
    for L in l_range:
        if L < rec.order:
            raise ValueError("L_range must start at or above the recurrence order")
        checks.append((L, not rec.residual(seq, L)))
    return RecurrenceReport(name or rec.name, tuple(checks))


def default_window(rec: Recurrence, length: int = 9) -> range:
    return range(rec.order, rec.order + length)


def verify_catalog(length: int = 9) -> list[RecurrenceReport]:
    return [verify_recurrence(SEQUENCES[seq_id], RECURRENCES[rec_id],
                              default_window(RECURRENCES[rec_id], length),
                              name=f"{seq_id}:{rec_id}")
            for seq_id, rec_id in CATALOG]


# ---------------------------------------------------------------------------
# Factor witnesses: long recurrence == witness relation applied to the short
# residual r_L := sum_u rho(L, u) seq(L - u)
# ---------------------------------------------------------------------------

@cache
def _witness_b(L: int, t: int) -> QSeries:
    if t == 0:
        return ONE
    if t == 1:
        return -(ONE + _m(1) - _m(2 * L - 4)).shift(2)
    return ((ONE - _m(2 * L - 4)) * (ONE - _m(2 * L - 7))).shift(5)


@cache
def _witness_c(L: int, t: int) -> QSeries:
    # Uniquely determined by back-substitution against the order-5 form;
    # the expansion consistency at lags 4 and 5 pins these down.
    if t == 0:
        return ONE
    if t == 1:
        return -(ONE + _m(1) + _m(2) - _m(L - 2) - _m(L)
                 + _m(2 * L - 2) - _m(2 * L - 3)).shift(2)
    if t == 2:
        return ((ONE - _m(L - 2))
                * (ONE + _m(1) + _m(2) - _m(L - 3) - _m(2 * L - 4) - _m(2 * L - 5)
                   + _m(3 * L - 6) - _m(3 * L - 7))).shift(5)
    return -math.prod((ONE - _m(L - 2), ONE - _m(L - 4),
                       ONE - _m(2 * L - 5), ONE - _m(2 * L - 6))).shift(9)


_WITNESSES: dict[str, tuple[Recurrence, str, str]] = {
    # id -> (witness relation in r_L, long recurrence id, sequence id)
    "b": (Recurrence("b", 2, _witness_b), "b_proven", "cap2_rhs"),
    "c": (Recurrence("c", 3, _witness_c), "c_proven", "cap2_lhs"),
}


class WitnessReport(NamedTuple):
    which: str
    relation_checks: tuple[tuple[int, bool], ...]
    expansion_checks: tuple[tuple[int, bool], ...]

    @property
    def ok(self) -> bool:
        return (all(p for _, p in self.relation_checks)
                and all(p for _, p in self.expansion_checks))


def verify_factor_witness(which: str, l_range: Sequence[int]) -> WitnessReport:
    """Check the witness relation in r_L and its equivalence to the long form.

    The relation sum_t w_t(L) r_{L-t} = 0 expands, by substituting the
    definition of r, into coefficients of seq(L - i) given by
    sum_{t+u=i} w_t(L) rho_u(L - t); those must match the long recurrence
    coefficientwise at each L.
    """
    try:
        witness, long_id, seq_id = _WITNESSES[which]
    except KeyError:
        raise ValueError(f"unknown witness {which!r}") from None
    seq = SEQUENCES[seq_id]
    long_rec = RECURRENCES[long_id]
    # r_{L'} once per L' = L - t reached
    short = RECURRENCES["b_short"]
    reached = {L - t for L in l_range for t in range(witness.order + 1)}
    residuals = {L: short.residual(seq, L) for L in reached}
    relation, expansion = [], []
    for L in l_range:
        relation.append((L, not witness.residual(residuals.__getitem__, L)))
        match = True
        for i in range(long_rec.order + 1):
            combined = Accumulator()
            for t in range(max(i - short.order, 0), min(i, witness.order) + 1):
                combined.add(witness.coeff(L, t) * short.coeff(L - t, i - t))
            if combined.value() != long_rec.coeff(L, i):
                match = False
        expansion.append((L, match))
    return WitnessReport(which, tuple(relation), tuple(expansion))


# ---------------------------------------------------------------------------
# Initial-condition downgrade: short recurrence + 2 seeds reproduces the
# sequence pinned down by the long recurrence + its initial values
# ---------------------------------------------------------------------------

def extend(rec: Recurrence, values: list[QSeries], L: int) -> QSeries:
    """Solve the relation at L for seq(L) given the earlier values."""
    return div_exact(-rec.residual(lambda i: values[i] if i < L else ZERO, L), rec.coeff(L, 0))


def verify_initial_condition_argument(which: str, extra_terms: int = 2) -> bool:
    """Seed the long route with its full set of initial values, the short
    route with just two, and compare the overlap plus extra_terms more."""
    routes = {"a": ("cap1_lhs", "a_short", "a_short"),
              "b": ("cap2_rhs", "b_short", "b_proven"),
              "c": ("cap2_lhs", "b_short", "c_proven")}
    try:
        seq_id, short_id, long_id = routes[which]
    except KeyError:
        raise ValueError(f"unknown sequence {which!r}") from None
    seq = SEQUENCES[seq_id]
    short, long_rec = RECURRENCES[short_id], RECURRENCES[long_id]
    n_total = long_rec.order + extra_terms
    long_vals = [seq(L) for L in range(long_rec.order)]
    for L in range(long_rec.order, n_total):
        long_vals.append(extend(long_rec, long_vals, L))
    short_vals = [seq(0), seq(1)]
    for L in range(2, n_total):
        short_vals.append(extend(short, short_vals, L))
    return short_vals == long_vals


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------

def perturbed(rec: Recurrence, lag: int, delta: QSeries) -> Recurrence:
    """A deliberately wrong recurrence: delta added to one coefficient."""

    def coeff(L: int, i: int) -> QSeries:
        value = rec.coeff(L, i)
        return value + delta if i == lag else value

    return Recurrence(f"{rec.name}~perturbed", rec.order, coeff)
