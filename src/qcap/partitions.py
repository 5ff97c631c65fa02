"""Brute-force partition enumeration oracle.

Nothing here imports from qcap: partitions are enumerated recursively and
counted directly, independent of the series machinery, so these counts can
serve as an oracle for generating-function identities.  A partition is a
tuple of weakly decreasing positive parts; () is the unique partition of 0.

The counts come from generators that pick each next part under the class
rule (class_c, class_d), so they build class members only; partitions()
filtered by in_class_c / in_class_d is the reference they are tested against.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

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


def _descend(n: int, top: int, step: int, ok: Callable[[int | None, int], bool],
             hi: int | None = None) -> Iterator[Partition]:
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


def _check_m(m: int) -> None:
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")


def class_c(m: int, n: int) -> Iterator[Partition]:
    """The members of C_m(n), in the order of partitions(n) filtered by
    in_class_c: distinct parts, none congruent to +-m mod 6."""
    _check_m(m)
    bad = (m % 6, -m % 6)
    return _descend(n, n, 1, lambda hi, lo: lo % 6 not in bad)


def class_d(m: int, n: int) -> Iterator[Partition]:
    """The members of D_m(n), in the order of partitions(n) filtered by
    in_class_d: no part equal to m, and each part lo below its predecessor
    hi with _gap_ok_pairform(hi, lo), which needs lo <= hi - 2."""
    _check_m(m)
    return _descend(n, n, 2, lambda hi, lo: lo != m and (
        hi is None or _gap_ok_pairform(hi, lo)))


def count_c(m: int, n: int) -> int:
    return sum(1 for _ in class_c(m, n))


def count_d(m: int, n: int) -> int:
    return sum(1 for _ in class_d(m, n))


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


def weighted_sum(theorem: str, n: int) -> tuple[int, int]:
    """Signed totals of both sides of a weighted partition theorem at size n.

    Left: single sum over restricted distinct partitions with sign (-1)^mu,
    enumerating the distinct partitions only.
    Right: sum over pairs (pi1, pi2) with pi1 avoiding multiples of 3 and sign
    (-1)^sigma(pi2), i.e. the convolution of the pi1 counts with the signed
    pi2 totals.  The pi1 counts and pi2 totals are memoized, one int per
    (theorem, size), so the caches grow linearly in n.
    """
    if theorem not in _WEIGHTED:
        raise ValueError(f"unknown weighted theorem {theorem!r}")
    rhs = sum(_pi1_count(n1) * _pi2_total(theorem, n - n1) for n1 in range(n + 1))
    left_set, left_exp, _, _ = _WEIGHTED[theorem]
    distinct = _descend(n, n, 1, lambda hi, lo: True)
    return sum((-1) ** left_exp(p) for p in distinct if left_set(p)), rhs


@functools.cache
def _pi1_count(n: int) -> int:
    """Partitions of n with no part divisible by 3."""
    return sum(1 for _ in _descend(n, n, 0, lambda hi, lo: lo % 3 != 0))


@functools.cache
def _pi2_total(theorem: str, n: int) -> int:
    """Signed pi2 total at size n."""
    _, _, right_set, right_exp = _WEIGHTED[theorem]
    return sum((-1) ** right_exp(p) for p in partitions(n) if right_set(p))

