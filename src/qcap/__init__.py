"""Exact q-series toolkit: polynomial/series arithmetic, q-special functions,
an identity verification registry, a Bailey-lemma engine, recurrence checks,
and a partition oracle built from counting tables."""

from qcap.series import (
    QSeries,
    NonDivisible,
    TruncatedInput,
    ZERO,
    ONE,
    Q,
    monomial,
    div_exact,
    inverse,
    compare,
)

__all__ = [
    "QSeries",
    "NonDivisible",
    "TruncatedInput",
    "ZERO",
    "ONE",
    "Q",
    "monomial",
    "div_exact",
    "inverse",
    "compare",
]

__version__ = "0.1.0"
