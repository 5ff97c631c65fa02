"""Brute-force partition enumeration oracle.

Everything here is independent of the series machinery: partitions are
enumerated recursively and counted directly, so these counts can serve as an
oracle for generating-function identities.  A partition is a tuple of weakly
decreasing positive parts; () is the unique partition of 0.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Iterator

from qcap.series import QSeries

Partition = tuple[int, ...]


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts <= max_part, largest part first,
    in descending lexicographic order of part sequences."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int, predicate: Callable[[Partition], bool] | None = None) -> list[Partition]:
    return [p for p in partitions(n) if predicate is None or predicate(p)]


def is_distinct(p: Partition) -> bool:
    return all(a > b for a, b in zip(p, p[1:]))


# ---------------------------------------------------------------------------
# Capparelli classes
# ---------------------------------------------------------------------------

def in_class_c(p: Partition, m: int) -> bool:
    """Distinct parts, none congruent to +-m mod 6."""
    return is_distinct(p) and all(part % 6 not in (m % 6, -m % 6) for part in p)


def _gap_ok_pairform(hi: int, lo: int) -> bool:
    d = hi - lo
    if d >= 4:
        return True
    if d == 3:
        return lo % 3 == 0 and lo >= 3  # pair {3k, 3k+3}, k >= 1
    if d == 2:
        return lo % 3 == 2  # pair {3k-1, 3k+1}, k >= 1
    return False


def _gap_ok_sumform(hi: int, lo: int) -> bool:
    # Equivalent formulation, the reference the tests hold _gap_ok_pairform
    # to: gap >= 2 always, and a gap of 2 or 3 only when the two parts sum
    # to a multiple of 3.
    d = hi - lo
    if d < 2:
        return False
    return d >= 4 or (hi + lo) % 3 == 0


def in_class_d(p: Partition, m: int) -> bool:
    """No part equal to m; consecutive gaps >= 2, and any gap below 4 only for
    the pairs {3k, 3k+3} or {3k-1, 3k+1}."""
    if m in p:
        return False
    for hi, lo in zip(p, p[1:]):
        if not _gap_ok_pairform(hi, lo):
            return False
    return True


def count_c(m: int, n: int) -> int:
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    return sum(1 for p in partitions(n) if in_class_c(p, m))


def count_d(m: int, n: int) -> int:
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    return sum(1 for p in partitions(n) if in_class_d(p, m))


# ---------------------------------------------------------------------------
# Weighted partition theorems
# ---------------------------------------------------------------------------

def _sigma(p: Partition) -> int:
    return 1 if len(p) % 3 == 2 else 0


def _mu(p: Partition) -> int:
    return len(p) + _sigma(p) + 1


def _sigma_star(p: Partition) -> int:
    return 1 if len(p) % 3 == 0 else 0


def _mu_star(p: Partition) -> int:
    return len(p) + _sigma_star(p)


def _no_part_multiple_of_3(p: Partition) -> bool:
    return all(part % 3 != 0 for part in p)


_WEIGHTED = {
    # theorem id -> (left set, left sign exponent, right pi2 set, right sign exponent)
    "W1": (
        lambda p: is_distinct(p) and len(p) % 3 != 0,
        _mu,
        lambda p: len(p) % 3 != 0,
        _sigma,
    ),
    "W2": (
        lambda p: is_distinct(p) and len(p) % 3 != 2,
        _mu_star,
        lambda p: len(p) % 3 != 1,
        _sigma_star,
    ),
    "W3": (
        lambda p: is_distinct(p) and len(p) % 3 != 1,
        _mu_star,
        lambda p: len(p) % 3 != 2,
        _sigma_star,
    ),
}


def weighted_sum(theorem: str, n: int) -> tuple[int, int]:
    """Signed totals of both sides of a weighted partition theorem at size n.

    Left: single sum over restricted distinct partitions with sign (-1)^mu.
    Right: sum over pairs (pi1, pi2) with pi1 avoiding multiples of 3 and sign
    (-1)^sigma(pi2).  Both computed by exhaustive enumeration.
    """
    try:
        left_set, left_exp, right_set, right_exp = _WEIGHTED[theorem]
    except KeyError:
        raise ValueError(f"unknown weighted theorem {theorem!r}") from None
    lhs = sum((-1) ** left_exp(p) for p in partitions(n) if left_set(p))
    rhs = 0
    for n1 in range(n + 1):
        left_count = sum(1 for p in partitions(n1) if _no_part_multiple_of_3(p))
        if not left_count:
            continue
        rhs += left_count * sum(
            (-1) ** right_exp(p) for p in partitions(n - n1) if right_set(p)
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Bridges to series comparison
# ---------------------------------------------------------------------------

def gf_from_counts(counter: Callable[[int], int], n: int) -> QSeries:
    """sum_{k<=n} counter(k) q^k with truncation n."""
    return QSeries(0, [counter(k) for k in range(n + 1)], n)


def counts_table(n_max: int) -> str:
    """CSV table `n, C_1, D_1, C_2, D_2` for n = 0..n_max."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "C_1", "D_1", "C_2", "D_2"])
    for n in range(n_max + 1):
        writer.writerow([n, count_c(1, n), count_d(1, n), count_c(2, n), count_d(2, n)])
    return buf.getvalue()
