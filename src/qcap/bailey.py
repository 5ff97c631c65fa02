"""Executable special case of the Bailey lemma.

The lemma: if F_a(L) = sum_j alpha_j [2L+a, L-j], then

    sum_{r>=0} q^{r^2+ar} (q)_{2L+a} / ((q)_{L-r} (q)_{2r+a}) F_a(r)
        = sum_j alpha_j q^{j^2+aj} [2L+a, L-j],

for a in {0, 1}; everything here also works after q -> q^base.  Iterating the
transform generates the hierarchy left-hand sides; the twisted chain
interleaves a q^L multiplication (absorbed by the quadratic-shift
transformation of the Jacobi-weighted sum) between applications.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from qcap.series import Accumulator, QSeries, _Frozen
from qcap.identities import (
    FAMILIES,
    ParamOutOfRange,
    _family_checked,
    binomial_sum,
    cor_cap2_analogue_lhs,
)
from qcap.qcombinat import jacobi3, poch_ratio


class BaileyAlpha(_Frozen):
    """A symbolic alpha-sequence: alpha_j as the (exponent, coefficient) pairs alpha(j)."""

    __slots__ = ("name", "alpha", "a", "base")

    def __init__(self, name: str, alpha: Callable[[int], Iterable[tuple[int, int]]],
                 a: int, base: int = 1) -> None:
        if a not in (0, 1):
            raise ParamOutOfRange("Bailey parameter a must be 0 or 1")
        if base < 1:
            raise ParamOutOfRange("base must be a positive integer")
        super().__init__(name, alpha, a, base)


def bailey_f(alpha: BaileyAlpha, L: int) -> QSeries:
    """F_a(L) = sum_j alpha(j) [2L+a, L-j]; support |j| <= L+a."""
    return binomial_sum(L, alpha.a, alpha.base, alpha.alpha)


def bailey_step(alpha: BaileyAlpha) -> BaileyAlpha:
    """alpha(j) -> alpha(j) * q^{base*(j^2 + a*j)}."""
    inner, a, base = alpha.alpha, alpha.a, alpha.base

    def stepped(j: int) -> list[tuple[int, int]]:
        return [(e + base * (j * j + a * j), c) for e, c in inner(j)]

    return BaileyAlpha(f"step({alpha.name})", stepped, a, base)


def bailey_lhs_transform(
    g: Callable[[int], QSeries], a: int, base: int = 1
) -> Callable[[int], QSeries]:
    """The r-sum side of the lemma applied to an arbitrary L-indexed family."""

    def transformed(L: int) -> QSeries:
        total = Accumulator()
        for r in range(L + 1):
            ratio = poch_ratio(
                ((2 * L + a, base),), ((L - r, base), (2 * r + a, base))
            )
            total.add(ratio.shift(base * (r * r + a * r)) * g(r))
        return total.value()

    return transformed


def verify_bailey_theorem(alpha: BaileyAlpha, l_max: int) -> list[tuple[int, bool]]:
    """Per-L check that the transform of F equals F of the stepped alpha."""
    f_values = [bailey_f(alpha, r) for r in range(l_max + 1)]  # read by every L >= r
    transformed = bailey_lhs_transform(f_values.__getitem__, alpha.a, alpha.base)
    stepped = bailey_step(alpha)
    return [(L, transformed(L) == bailey_f(stepped, L)) for L in range(l_max + 1)]


# ---------------------------------------------------------------------------
# Alpha catalog: every alpha-sequence driving a hierarchy in this package,
# read from the Bailey pairs in FAMILIES
# ---------------------------------------------------------------------------

def _unit(j: int) -> tuple[tuple[int, int], ...]:
    return ((0, 1),) if j == 0 else ()


def _family_alpha(name: str, family: str, s: int = 0) -> BaileyAlpha:
    fam = FAMILIES[family]
    return BaileyAlpha(name, lambda j: fam.alpha(s, j), a=fam.a, base=fam.base)


ALPHAS: dict[str, BaileyAlpha] = {
    "unit": BaileyAlpha("unit", _unit, a=0, base=1),
    **{name: _family_alpha(name, name)
       for name in ("cap1_binomial", "cap2_binomial", "sum_cap", "cap1", "cap2")},
    "cap2_alt": _family_alpha("cap2_alt", "cap2_analogue"),
    "cap1_shifted": _family_alpha("cap1_shifted", "double", s=1),
}


# ---------------------------------------------------------------------------
# Hierarchy generation (the cross-oracle for identities.hierarchy_finite_lhs)
# ---------------------------------------------------------------------------

def generate_hierarchy_lhs(family: str, f: int, L: int, s: int = 0) -> QSeries:
    """Iterate the transform f times from the family seed.

    The twisted family with s > 0 starts from the seed already carrying one
    q^L factor; each of the first s applications is followed by another q^L
    multiplication except the last, and the remaining f-s are plain.
    """
    _family_checked(family, f, s)
    return _transform_level(family, f, s, L)


@cache
def _transform_level(family: str, t: int, s: int, L: int) -> QSeries:
    """Level t at L, built once per run; it reads s only through min(s, t)."""
    fam = FAMILIES[family]
    g = cor_cap2_analogue_lhs if s else fam.seed
    if t > 1:  # a q^r twist follows each level below s
        g = lambda r: _transform_level(family, t - 1, min(s, t - 1), r).shift(r * (t - 1 < s))
    return bailey_lhs_transform(g, fam.a, fam.base)(L)


# ---------------------------------------------------------------------------
# Named checkpoints of the twisted-chain derivation
# ---------------------------------------------------------------------------

def checkpoint_first_application(L: int) -> tuple[QSeries, QSeries]:
    """One transform of the q^L-shifted base sum; RHS weight jacobi3(j+1) q^{2j^2-j}."""
    lhs = bailey_lhs_transform(cor_cap2_analogue_lhs, 0, 1)(L)
    rhs = bailey_f(bailey_step(ALPHAS["cap1_shifted"]), L)
    return lhs, rhs


def checkpoint_after_k_transform(L: int) -> tuple[QSeries, QSeries]:
    """The previous checkpoint times q^L; RHS weight jacobi3(j+1) q^{2j^2-2j}."""
    lhs = bailey_lhs_transform(cor_cap2_analogue_lhs, 0, 1)(L).shift(L)
    alpha = BaileyAlpha(
        "after_k",
        lambda j: ((2 * j * j - 2 * j, jacobi3(j + 1)),),
        a=0, base=1)
    return lhs, bailey_f(alpha, L)
