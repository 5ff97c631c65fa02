"""Partition oracle: counting tables, and the brute-force reference.

Nothing here imports from qcap, so the counts stay independent of the series
machinery and can serve as an oracle for generating-function identities.
count_c, count_d and weighted_sum each return the column n = 0..n_max of one
plain-int table and build no partition; partitions() filtered by in_class_c,
in_class_d and the _WEIGHTED sets is the reference they are tested against.
A partition is a tuple of weakly decreasing positive parts; () is the unique
partition of 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

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


def in_class_d(p: Partition, m: int) -> bool:
    """No part equal to m; consecutive gaps >= 2, and any gap below 4 only for
    the pairs {3k, 3k+3} or {3k-1, 3k+1}."""
    if m in p:
        return False
    for hi, lo in zip(p, p[1:]):
        if not _gap_ok_pairform(hi, lo):
            return False
    return True


def _check_m(m: int) -> None:
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")


def _tally(n_max: int, parts: Iterable[int], period: int,
           repeat: bool) -> list[list[int]]:
    """table[s][j]: the partitions of s into the given parts, each used at
    most once unless repeat, whose number of parts is j mod period."""
    table = [[int(s == 0 and j == 0) for j in range(period)]
             for s in range(n_max + 1)]
    for part in parts:
        sizes = range(part, n_max + 1)
        for s in sizes if repeat else reversed(sizes):
            src, dst = table[s - part], table[s]
            for j in range(period):
                dst[j] += src[j - 1]
    return table


def count_c(m: int, n_max: int) -> list[int]:
    """|C_m(n)| for n = 0..n_max: a 0/1 knapsack over the parts not
    congruent to +-m mod 6."""
    _check_m(m)
    parts = [k for k in range(1, n_max + 1) if k % 6 not in (m % 6, -m % 6)]
    return [row[0] for row in _tally(n_max, parts, 1, False)]


def count_d(m: int, n_max: int) -> list[int]:
    """|D_m(n)| for n = 0..n_max, from upto[s][k], the members of size s
    with largest part <= k.  A largest part top != m goes above each member
    of size s - top whose largest part is <= top - 4 (one prefix sum, the
    empty partition included) or is a lo with _gap_ok_pairform(top, lo)."""
    _check_m(m)
    close = [[lo for lo in range(max(top - 3, 1), top) if _gap_ok_pairform(top, lo)]
             for top in range(n_max + 1)]
    upto: list[list[int]] = []
    for s in range(n_max + 1):
        row = [int(s == 0)]
        for top in range(1, s + 1):
            r = s - top
            below = upto[r]
            ways = 0
            if top != m:
                ways = below[min(max(top - 4, 0), r)]
                for lo in close[top]:
                    if lo <= r:
                        ways += below[lo] - below[lo - 1]
            row.append(row[-1] + ways)
        upto.append(row)
    return [row[-1] for row in upto]


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


@lru_cache(maxsize=1)
def _weighted_tables(n_max: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """The tables every weighted theorem reads, built once per n_max as
    tuples, since every caller shares them: distinct partitions by (size,
    k mod 6), all partitions by (size, k mod 3), and the pi1 counts (a
    knapsack over the parts not divisible by 3)."""
    sizes = range(1, n_max + 1)
    return (tuple(map(tuple, _tally(n_max, sizes, 6, False))),
            tuple(map(tuple, _tally(n_max, sizes, 3, True))),
            tuple(row[0] for row in _tally(n_max, [k for k in sizes if k % 3], 1, True)))


def weighted_sum(theorem: str, n_max: int) -> list[tuple[int, int]]:
    """Signed totals (left, right) of a weighted theorem for n = 0..n_max.

    Each _WEIGHTED set and sign depends only on distinctness and the number
    of parts k, so it is read once off (k, ..., 1) for k < 6 on the left and
    off (1,) * k for k < 3 for pi2.  Left: the signed distinct-partition
    table.  Right: the pi1 counts convolved with the signed pi2 totals.
    """
    if theorem not in _WEIGHTED:
        raise ValueError(f"unknown weighted theorem {theorem!r}")
    left_set, left_exp, right_set, right_exp = _WEIGHTED[theorem]
    left_sign = [(-1) ** left_exp(p) if left_set(p) else 0
                 for p in (tuple(range(k, 0, -1)) for k in range(6))]
    right_sign = [(-1) ** right_exp(p) if right_set(p) else 0
                  for p in ((1,) * k for k in range(3))]
    distinct, every, pi1 = _weighted_tables(n_max)
    pi2 = [sum(c * w for c, w in zip(row, right_sign)) for row in every]
    return [(sum(c * w for c, w in zip(distinct[n], left_sign)),
             sum(pi1[n1] * pi2[n - n1] for n1 in range(n + 1)))
            for n in range(n_max + 1)]
