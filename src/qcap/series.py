"""Exact arithmetic on Laurent polynomials and truncated power series in q.

The one value type of the whole package is :class:`QSeries`: a dense list of
arbitrary-precision integer coefficients together with the exponent of the
lowest term.  A value is either exact (``trunc is None``) or truncated, in
which case coefficients of q^k for k > trunc are unknown.  A sum is known to
its operands' smaller truncation, a product to the smaller T + min(v, 0) of
its truncated operands (T its truncation, v the other one's lowest possibly
non-zero exponent: its offset, or trunc + 1 for a truncated zero).  Two
exact operands always give an exact result.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from operator import add, neg
from typing import NamedTuple, Sequence


class NonDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class TruncatedInput(ValueError):
    """Raised when an operation defined only for exact values gets a truncated one."""


def _min_trunc(t1: int | None, t2: int | None) -> int | None:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


# Naive convolution up to this (len_a * len_b) size; Kronecker substitution
# above it.  Chosen by replaying the workloads' recorded operand pairs.
_KRONECKER_CUTOFF = 256

_BIG_ENDIAN = sys.byteorder == "big"


class _Limbs:
    """Integers as the w-byte little-endian limbs of one big integer, two's
    complement when signed, packed as the value sum c_i 2**(8wi).  Array limbs
    (w <= 8) pack and unpack in C, wider ones limb by limb through ``to_bytes``.
    A signed limb with its top bit flipped reads c + 2**(8w-1), so with H those
    flips, (limbs ^ H) - H packs and (value + H) ^ H unpacks, carry-free.
    """

    __slots__ = ("width", "code", "signed", "half")

    def __init__(self, width: int, code: str | None, signed: bool) -> None:
        self.width, self.code, self.signed = width, code, signed
        self.half = b"\x00" * (width - 1) + b"\x80" if signed else b""

    def pack(self, coeffs: Sequence[int]) -> int:
        """sum c_i 2**(8wi) over coeffs, low first."""
        if self.code is None:
            w, signed = self.width, self.signed
            limbs = b"".join([c.to_bytes(w, "little", signed=signed) for c in coeffs])
        else:
            packed = array(self.code, coeffs)
            if _BIG_ENDIAN:
                packed.byteswap()
            limbs = packed.tobytes()
        h = int.from_bytes(self.half * len(coeffs), "little")
        return (int.from_bytes(limbs, "little") ^ h) - h

    def unpack(self, value: int, n: int) -> list[int]:
        """The n limbs of value = sum c_i 2**(8wi), low first; each must fit."""
        w, signed = self.width, self.signed
        h = int.from_bytes(self.half * n, "little")
        raw = ((value + h) ^ h).to_bytes(n * w, "little")
        if self.code is None:
            return [int.from_bytes(raw[i:i + w], "little", signed=signed)
                    for i in range(0, n * w, w)]
        out = array(self.code, raw)
        if _BIG_ENDIAN:
            out.byteswap()
        return out.tolist()

    def unpack_classes(self, sums: Sequence[int], n: int, total: int) -> list[int]:
        """The coefficients c with c[r::len(sums)] the n limbs of sums[r]; they
        must add up to total, or ArithmeticError is raised."""
        out = [0] * (len(sums) * n)
        for r, packed in enumerate(sums):
            out[r::len(sums)] = self.unpack(packed, n)
        if sum(out) != total:
            raise ArithmeticError(f"coefficients add up to {sum(out)}, not to the bound {total}")
        return out


# For w = 0..8 bytes, signed and unsigned: limbs of the narrowest array item
# ("bhiq" signed, "BHIQ" unsigned) of at least w bytes.
_ARRAY_LIMBS = {
    signed: [_Limbs(*min((array(c).itemsize, c) for c in codes if array(c).itemsize >= w), signed)
             for w in range(9)]
    for signed, codes in ((True, "bhiq"), (False, "BHIQ"))}


def _limbs(bound: int, signed: bool) -> _Limbs:
    """The narrowest limbs that hold every integer of size at most bound, and
    its sign if signed: array limbs up to 8 bytes, whole bytes past them."""
    w = (bound.bit_length() + signed + 7) // 8
    return _ARRAY_LIMBS[signed][w] if w <= 8 else _Limbs(w, None, signed)


class _Packed:
    """A non-negative coefficient list: head(k) is the length, value at q = 1
    and largest coefficient of its first k (of all: the whole head), and each
    limb width keeps the longest prefix packed, whose first k limbs pack them."""

    __slots__ = ("coeffs", "whole", "sums", "tops", "packs")

    def __init__(self, coeffs: Sequence[int], whole: tuple[int, int, int] | None = None) -> None:
        self.coeffs, self.packs, self.sums = coeffs, {}, None
        self.whole = whole or (len(coeffs), sum(coeffs), max(coeffs, default=0))

    def head(self, k: int | None = None) -> tuple[int, int, int]:
        if k is None or k >= len(self.coeffs):
            return self.whole
        if self.sums is None:  # the prefix sums and maxima, once a prefix is read
            self.sums, self.tops = list(accumulate(self.coeffs)), list(accumulate(self.coeffs, max))
        return (k, self.sums[k - 1], self.tops[k - 1]) if k > 0 else (0, 0, 0)

    def packed(self, limbs: _Limbs, k: int) -> int:
        length, packed = self.packs.get(limbs.width, (0, 0))
        if length < k:
            length, packed = self.packs[limbs.width] = k, limbs.pack(self.coeffs[:k])
        return packed if length == k else packed & (1 << 8 * limbs.width * k) - 1


def _convolve_kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two coefficient lists by one big-integer multiplication.

    Every coefficient, of an operand or of the product, is at most bound =
    max|a| * max|b| * min(len(a), len(b)) in size, so w-byte signed limbs with
    bound < 2**(8w-1) hold them all, and the packed product is the product of
    the packed operands.
    """
    n = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n
    limbs = _limbs(bound, signed=True)
    return limbs.unpack(limbs.pack(a) * limbs.pack(b), n)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) * len(b) > _KRONECKER_CUTOFF:
        return _convolve_kronecker(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


class _Frozen:
    """A slotted value whose fields are set once, by its constructor, through
    the slot descriptors; assigning or deleting one raises AttributeError."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        # the fields in __slots__ order
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class QSeries(_Frozen):
    """A Laurent polynomial (or truncated power series) in q over the integers.

    ``coeffs[i]`` is the coefficient of ``q**(offset + i)``.  The representation
    is canonical: first and last stored coefficients are non-zero, and the zero
    series is ``QSeries(0, ())``.  ``trunc``, when set, is the largest exponent
    whose coefficient is known.  Values are immutable, since the caches share
    them.
    """

    __slots__ = ("offset", "coeffs", "trunc")

    def __init__(self, offset: int = 0, coeffs: Sequence[int] = (),
                 trunc: int | None = None) -> None:
        # clip to trunc and strip the zeros at both ends by index, then copy
        # what is kept into a tuple
        hi = len(coeffs)
        if trunc is not None:
            hi = min(hi, max(trunc - offset + 1, 0))
        lo = 0
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            offset, coeffs = 0, ()
        elif lo or hi < len(coeffs):
            offset, coeffs = offset + lo, tuple(coeffs[lo:hi])
        else:
            coeffs = tuple(coeffs)
        _set_offset(self, offset)
        _set_coeffs(self, coeffs)
        _set_trunc(self, trunc)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.offset, self.coeffs, self.trunc)
                    == (other.offset, other.coeffs, other.trunc))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.offset, self.coeffs, self.trunc))

    def __repr__(self) -> str:
        return f"QSeries(offset={self.offset!r}, coeffs={self.coeffs!r}, trunc={self.trunc!r})"

    # -- queries ----------------------------------------------------------

    def degree(self) -> int:
        """Largest exponent with a non-zero coefficient (-1 for the zero series)."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: QSeries | int) -> QSeries:
        if isinstance(other, int):
            other = monomial(0, other)
        total = Accumulator(self.trunc)
        total.add(self)
        total.add(other)
        return total.value()

    __radd__ = __add__

    def __neg__(self) -> QSeries:
        return _canonical(self.offset, tuple(map(neg, self.coeffs)), self.trunc)

    def __sub__(self, other: QSeries | int) -> QSeries:
        if isinstance(other, int):
            other = monomial(0, other)
        return self + (-other)

    def __rsub__(self, other: int) -> QSeries:
        return monomial(0, other) + (-self)

    def __mul__(self, other: QSeries | int) -> QSeries:
        if isinstance(other, int):
            other = monomial(0, other)
        # an operand known to T, times one whose lowest possibly non-zero
        # exponent v is < 0 (trunc + 1 for a truncated zero), is known to T + v
        t, u = self.trunc, other.trunc
        v = other.offset if other.coeffs or u is None else u + 1
        w = self.offset if self.coeffs or t is None else t + 1
        trunc = _min_trunc(t if t is None or v >= 0 else t + v,
                           u if u is None or w >= 0 else u + w)
        offset = self.offset + other.offset
        a, b = self.coeffs, other.coeffs
        if trunc is not None:
            # only a[:keep] and b[:keep] reach an exponent <= trunc
            keep = max(trunc - offset + 1, 0)
            a, b = a[:keep], b[:keep]
        elif not a or not b:
            return ZERO
        if len(a) == 1 or len(b) == 1:
            # c q^e times the other operand: its coefficients scaled by c
            c, other_coeffs = (a[0], b) if len(a) == 1 else (b[0], a)
            if c == 1:
                coeffs = other_coeffs
            elif c == -1:
                coeffs = tuple(map(neg, other_coeffs))
            else:
                coeffs = tuple([c * x for x in other_coeffs])
        else:
            coeffs = _convolve(a, b)
        if trunc is None:
            # a_0 b_0 and a_last b_last are non-zero: already canonical
            return _canonical(offset, tuple(coeffs), None)
        return QSeries(offset, coeffs, trunc)

    __rmul__ = __mul__

    def shift(self, exponent: int) -> QSeries:
        """Multiply by q**exponent."""
        trunc = None if self.trunc is None else self.trunc + exponent
        offset = self.offset + exponent if self.coeffs else 0
        return _canonical(offset, self.coeffs, trunc)

    # -- structural operations -------------------------------------------

    def substitute_q_power(self, k: int) -> QSeries:
        """q -> q**k: every exponent e becomes k*e.  Known to q^T, the result is
        known to q^{kT+k-1}, since no exponent from kT+1 to kT+k-1 is a multiple of k."""
        if k <= 0:
            raise ValueError("substitution power must be positive")
        if k == 1:
            return self
        out = [0] * (max(len(self.coeffs) - 1, 0) * k + 1) if self.coeffs else []
        out[::k] = self.coeffs
        trunc = None if self.trunc is None else self.trunc * k + k - 1
        return _canonical(self.offset * k, tuple(out), trunc)

    def invert_q(self) -> QSeries:
        """q -> 1/q on an exact Laurent polynomial (an involution)."""
        if self.trunc is not None:
            raise TruncatedInput("q -> 1/q is undefined on truncated series")
        top = self.degree()
        return QSeries(-top, tuple(reversed(self.coeffs)))

    def truncate(self, n: int) -> QSeries:
        """This series known up to q^n: itself when it is known no further."""
        if self.trunc is not None and self.trunc <= n:
            return self
        return QSeries(self.offset, self.coeffs, n)

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.offset + i
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


# the slot setters: each writes one field past _Frozen's guard
_set_offset, _set_coeffs, _set_trunc = (vars(QSeries)[name].__set__ for name in QSeries.__slots__)


def _canonical(offset: int, coeffs: tuple[int, ...], trunc: int | None) -> QSeries:
    """A QSeries from fields already in canonical form, written to its slots
    without the constructor's pass."""
    value = object.__new__(QSeries)
    _set_offset(value, offset)
    _set_coeffs(value, coeffs)
    _set_trunc(value, trunc)
    return value


ZERO = QSeries()
ONE = QSeries(0, (1,))
Q = QSeries(1, (1,))


def monomial(exponent: int, coefficient: int = 1) -> QSeries:
    if not coefficient:
        return ZERO
    return _canonical(exponent, (coefficient,), None)


class Accumulator:
    """A running sum of QSeries, held in one growing coefficient list.

    ``add(term)`` adds a term in place and ``value()`` returns the sum, with
    truncation the minimum over the starting ``trunc`` and every term; ``+``
    on two QSeries is this sum of the two.  An add stores no coefficient
    above the truncation known so far.
    """

    __slots__ = ("_offset", "_coeffs", "_trunc")

    def __init__(self, trunc: int | None = None) -> None:
        self._offset = 0
        self._coeffs: list[int] = []
        self._trunc = trunc

    def add(self, term: QSeries) -> None:
        self._trunc = trunc = _min_trunc(self._trunc, term.trunc)
        coeffs = term.coeffs
        if trunc is not None:
            coeffs = coeffs[:max(trunc - term.offset + 1, 0)]
        if not coeffs:
            return
        acc = self._coeffs
        if not acc:
            self._offset, self._coeffs = term.offset, list(coeffs)
            return
        lo = term.offset - self._offset
        if lo < 0:
            acc[:0] = [0] * -lo
            self._offset, lo = term.offset, 0
        hi = lo + len(coeffs)
        if hi > len(acc):
            acc.extend([0] * (hi - len(acc)))
        acc[lo:hi] = map(add, acc[lo:hi], coeffs)

    def value(self) -> QSeries:
        if not self._coeffs and self._trunc is None:
            return ZERO  # shared, as the fold of no terms from ZERO is
        return QSeries(self._offset, self._coeffs, self._trunc)


class _Classes:
    """An exact b(q) = sum_r q^r b_r(q^base), split for the packed left-side
    passes: b(1), each non-zero class b_r as (r, offset, length, max|b_r|),
    and the classes packed per limb width on first use, in packs q^e b may share."""

    def __init__(self, b: QSeries, base: int, packs: dict | None = None) -> None:
        if b.trunc is not None:
            raise TruncatedInput("the packed passes require exact operands")
        self.b, self.base, self.one = b, base, sum(b.coeffs)
        self.packs = {} if packs is None else packs
        self.parts = [(r, (b.offset + j) // base, len(b_r), max(map(abs, b_r)))
                      for r in range(base) for j in [(r - b.offset) % base]
                      for b_r in [b.coeffs[j::base]] if any(b_r)]

    def packed(self, limbs: _Limbs) -> list[int]:
        if limbs.width not in self.packs:
            b, base = self.b, self.base
            self.packs[limbs.width] = [limbs.pack(b.coeffs[(r - b.offset) % base::base])
                                       for r, _, _, _ in self.parts]
        return self.packs[limbs.width]


def stretched_product_sum(pairs: Sequence[tuple[_Classes, _Classes]], base: int) -> QSeries:
    """sum a(q^base) * b(q) over pairs of the base-1 classes of an exact a and
    the classes of b mod base, in one packed pass: a(q^base) b(q) = sum_r q^r
    (a b_r)(q^base).  A coefficient of class r of the sum, or of an a or b_r
    in it, is at most bound_r = sum max|a| max|b_r| min(len(a), len(b_r)) over
    the pairs, so signed limbs with every bound_r < 2**(8w-1) hold them all:
    each a and each b_r packs once per width, in its classes, their product
    adds at its shift into one big int per class, and each class unpacks once
    into out[r::base].  The coefficients must add up to the sum's value at q
    = 1, sum a(1) b(1), or ArithmeticError is raised."""
    parts, bounds, total = [], [0] * base, 0
    for a, b in pairs:
        total += a.one * b.one
        for _, a_u, a_length, a_top in a.parts:
            for i, (r, u, length, b_top) in enumerate(b.parts):
                parts.append((a, b, i, r, a_u + u, a_length + length))
                bounds[r] += a_top * b_top * min(a_length, length)
    lo = min((u for *_, u, _ in parts), default=0)
    n = max((u + length for *_, u, length in parts), default=lo + 1) - lo - 1
    limbs = _limbs(max(bounds), signed=True)
    width, sums, last = limbs.width, [0] * base, None
    for a, b, i, r, u, _ in parts:
        if a is not last:
            last, packed = a, a.packed(limbs)[0]
        sums[r] += packed * b.packed(limbs)[i] << 8 * width * (u - lo)
    return QSeries(base * lo, limbs.unpack_classes(sums, n, total))


def div_exact(a: QSeries, b: QSeries) -> QSeries:
    """Exact quotient in the Laurent polynomial ring; mul(result, b) == a.

    Raises NonDivisible when b does not divide a, which in this package always
    signals a misconstructed identity term.
    """
    if a.trunc is not None or b.trunc is not None:
        raise TruncatedInput("div_exact requires exact operands")
    if not b:
        raise ZeroDivisionError("division by the zero series")
    if not a:
        return ZERO
    num, den = list(a.coeffs), list(b.coeffs)
    if len(num) < len(den):
        raise NonDivisible(f"degree of {a} below degree of divisor {b}")
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c:
            if c % lead:
                raise NonDivisible(f"leading coefficient {c} not divisible by {lead}")
            f = c // lead
            quot[i] = f
            for k, d in enumerate(den):
                num[i + k] -= f * d
    if any(num):
        raise NonDivisible("non-zero remainder")
    return QSeries(a.offset - b.offset, quot)


def inverse(a: QSeries, n: int) -> QSeries:
    """Multiplicative inverse of a as a series, truncated at exponent n.

    The lowest coefficient of a must be +-1 (true for every q-Pochhammer
    product in this package).  For a truncated a with valuation v, a / q^v
    and its inverse are known to exponent a.trunc - v, so 1/a is known to
    a.trunc - 2v.
    """
    if not a:
        raise ZeroDivisionError("inverse of the zero series")
    v = a.offset
    c0 = a.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError("lowest coefficient must be a unit")
    order = n + v  # coefficients of 1/a needed up to exponent n, offset is -v
    if order < 0:
        return QSeries(0, (), n)
    c = list(a.coeffs[: order + 1])
    c += [0] * (order + 1 - len(c))
    out = [0] * (order + 1)
    out[0] = c0
    for i in range(1, order + 1):
        s = 0
        for k in range(1, i + 1):
            if c[k]:
                s += c[k] * out[i - k]
        out[i] = -c0 * s
    known = None if a.trunc is None else a.trunc - 2 * v
    return QSeries(-v, out, _min_trunc(known, n))


class Comparison(NamedTuple):
    """Outcome of comparing two QSeries coefficientwise."""

    equal: bool
    mismatch_exponent: int | None = None
    lhs_coeff: int | None = None
    rhs_coeff: int | None = None

    def __bool__(self) -> bool:
        return self.equal


def compare(a: QSeries, b: QSeries) -> Comparison:
    """Compare the canonical fields, of both truncated to the smaller truncation
    if either is truncated; a first difference is the lowest exponent of a - b."""
    limit = _min_trunc(a.trunc, b.trunc)
    if limit is not None:
        a, b = a.truncate(limit), b.truncate(limit)
    if a.offset == b.offset and a.coeffs == b.coeffs:
        return Comparison(True)
    e = (a - b).offset
    ca, cb = [x.coeffs[e - x.offset] if 0 <= e - x.offset < len(x.coeffs) else 0 for x in (a, b)]
    return Comparison(False, e, ca, cb)
