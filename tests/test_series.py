"""Ring arithmetic on exact Laurent polynomials and truncated series."""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qcap import series
from qcap.bailey import ALPHAS
from qcap.identities import (
    CASES,
    FAMILIES,
    Bounds,
    _chain_tails,
    _seed_classes,
    seed_cap1,
    seed_cap1_binomial,
    seed_cap2,
    seed_cap2_binomial,
    seed_sum_cap,
    verify_case,
)
from qcap.qcombinat import poch_ratio, q_binomial
from qcap.recurrences import RECURRENCES, verify_factor_witness, verify_recurrence
from qcap.series import (
    _KRONECKER_CUTOFF,
    _limbs,
    ONE,
    Q,
    QSeries,
    ZERO,
    Accumulator,
    Comparison,
    NonDivisible,
    TruncatedInput,
    _Classes,
    _convolve,
    _convolve_kronecker,
    compare,
    div_exact,
    inverse,
    monomial,
    stretched_product_sum,
)


def from_terms(terms, trunc=None):
    """The series with coefficient c at each exponent e of a {e: c} map."""
    items = dict(terms)
    if not items:
        return QSeries(0, (), trunc)
    lo, hi = min(items), max(items)
    return QSeries(lo, [items.get(e, 0) for e in range(lo, hi + 1)], trunc)


def poly(*terms):
    return from_terms(dict(terms))


laurent = st.builds(
    from_terms,
    st.dictionaries(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-10**6, max_value=10**6),
        max_size=12,
    ),
)
nonzero_laurent = laurent.filter(bool)


def naive_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def lowest_possible(x):
    """The lowest exponent whose coefficient may be non-zero: the offset, or
    trunc + 1 for a truncated zero."""
    return x.offset if x.coeffs or x.trunc is None else x.trunc + 1


def product_trunc(a, b):
    """The order to which a * b is known: a truncated operand known to T,
    times the other one's lowest possibly non-zero term q^v, is known to
    T + v; a v >= 0 keeps T."""
    return min((x.trunc + min(lowest_possible(y), 0) for x, y in ((a, b), (b, a))
                if x.trunc is not None), default=None)


def reference_add(a, b):
    """a + b by one per-coefficient loop over each operand: the reference
    for ``+`` and for Accumulator."""
    if isinstance(b, int):
        b = monomial(0, b)
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.coeffs), b.offset + len(b.coeffs))
    out = [0] * max(hi - lo, 0)
    for i, c in enumerate(a.coeffs):
        out[a.offset - lo + i] += c
    for i, c in enumerate(b.coeffs):
        out[b.offset - lo + i] += c
    truncs = [t for t in (a.trunc, b.trunc) if t is not None]
    return QSeries(lo, out, min(truncs, default=None))


def reference_compare(a, b):
    """compare by one walk over every exponent of either operand, up to the
    smaller truncation: the reference for compare."""
    def coeff(x, e):
        i = e - x.offset
        return x.coeffs[i] if 0 <= i < len(x.coeffs) else 0

    truncs = [t for t in (a.trunc, b.trunc) if t is not None]
    hi = min([max(a.degree(), b.degree()), *truncs])
    for e in range(min(a.offset, b.offset), hi + 1):
        ca, cb = coeff(a, e), coeff(b, e)
        if ca != cb:
            return Comparison(False, e, ca, cb)
    return Comparison(True)


# Coefficient lists long enough that any two cross _KRONECKER_CUTOFF
# (65 * 65 > 256): mixed signs, one sign, all negative, units, all zero.
def _kronecker_lists(coeffs):
    return st.lists(coeffs, min_size=65, max_size=300)


kronecker_operand = st.one_of(
    _kronecker_lists(st.integers(-10**30, 10**30)),
    _kronecker_lists(st.integers(0, 10**30)),
    _kronecker_lists(st.integers(-10**30, -1)),
    _kronecker_lists(st.integers(-1, 1)),
    _kronecker_lists(st.just(0)),
)


@st.composite
def limb_width_operands(draw, bits, above):
    """Operands of 17..80 coefficients, mixed signs, whose bound max|a| *
    max|b| * min(len) lies just below 2**bits, or (``above``) at or just
    above it: the edges of the 1-, 2-, 4- and 8-byte limbs and of the
    limb-by-limb path."""
    la, lb = draw(st.integers(17, 80)), draw(st.integers(17, 80))
    m = min(la, lb)
    top_a = draw(st.integers(1, max(math.isqrt(2**bits // m), 1)))
    if above:
        top_b = -(-2**bits // (top_a * m))
    else:
        top_b = (2**bits - 1) // (top_a * m)

    def operand(length, top):
        if draw(st.booleans()):
            # one repeated value: the middle product coefficient is +-bound
            return [draw(st.sampled_from((top, -top)))] * length
        coeffs = draw(st.lists(st.integers(-top, top), min_size=length, max_size=length))
        coeffs[draw(st.integers(0, length - 1))] = draw(st.sampled_from((top, -top)))
        return coeffs

    return operand(la, top_a), operand(lb, top_b)


# Terms of a sum: exact or truncated, negative offsets, zero terms.
sum_term = st.builds(
    from_terms,
    st.dictionaries(
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-10**6, max_value=10**6),
        max_size=12,
    ),
    st.one_of(st.none(), st.integers(min_value=-10, max_value=40)),
)

# Compare operands: exact or truncated, offsets on either side of 0, a
# truncation below, inside or above the coefficients.
compare_operand = st.builds(
    QSeries,
    st.integers(min_value=-8, max_value=8),
    st.lists(st.integers(-3, 3), max_size=10),
    st.one_of(st.none(), st.integers(min_value=-12, max_value=20)),
)

# Product operands: exact or truncated, negative offsets, short lists and
# lists long enough to put a product past _KRONECKER_CUTOFF; a truncation
# may sit below the operand's offset or inside or above its coefficients.
mul_operand = st.builds(
    QSeries,
    st.integers(min_value=-20, max_value=20),
    st.one_of(st.lists(st.integers(-10**6, 10**6), max_size=12), kronecker_operand),
    st.one_of(st.none(), st.integers(min_value=-40, max_value=340)),
)

# Operands with one coefficient c q^e: c = +-1 or any c with |c| <= 10**30,
# negative offsets, exact or truncated (also below e).
one_coefficient = st.builds(
    QSeries,
    st.integers(min_value=-20, max_value=20),
    st.tuples(st.one_of(st.sampled_from((1, -1)), st.integers(-10**30, 10**30).filter(bool))),
    st.one_of(st.none(), st.integers(min_value=-40, max_value=340)),
)


class TestBasics:
    def test_zero_is_falsy(self):
        assert not ZERO
        assert ONE

    def test_add_identity(self):
        x = poly((0, 1), (3, -2))
        assert ZERO + x == x
        assert x + ZERO == x

    def test_add_hand_expansion(self):
        # (1+q) + (q - q^2) = 1 + 2q - q^2
        assert (ONE + Q) + (Q - monomial(2)) == poly((0, 1), (1, 2), (2, -1))

    def test_add_truncation_swallows(self):
        a = QSeries(0, (1, 1), 1)
        assert a + monomial(2) == a

    def test_mul_identity(self):
        x = poly((-1, 3), (4, 5))
        assert ONE * x == x

    def test_mul_hand_expansion(self):
        assert (ONE - Q) * (ONE + Q) == ONE - monomial(2)

    def test_mul_laurent_offsets(self):
        assert monomial(-1) * monomial(2) == Q

    def test_int_mixing(self):
        assert 1 + Q == ONE + Q
        assert 2 * Q == monomial(1, 2)
        assert 1 - Q == ONE - Q

    def test_normalization_rejects_trailing_zeros(self):
        assert QSeries(0, (0, 1, 0)) == Q
        assert QSeries(5, ()) == ZERO


class TestDivExact:
    def test_geometric_factor(self):
        assert div_exact(ONE - monomial(2), ONE - Q) == ONE + Q

    def test_self_division(self):
        x = poly((0, 2), (3, -4))
        assert div_exact(x, x) == ONE

    def test_pochhammer_quotient(self):
        num = (ONE - Q) * (ONE - monomial(2))
        assert div_exact(num, ONE - Q) == ONE - monomial(2)

    def test_non_divisible_raises(self):
        with pytest.raises(NonDivisible):
            div_exact(ONE + Q, ONE - Q)

    def test_truncated_operand_rejected(self):
        with pytest.raises(TruncatedInput):
            div_exact(QSeries(0, (1,), 4), ONE - Q)


class TestStructuralOps:
    def test_substitute_q_power(self):
        assert (ONE + Q).substitute_q_power(3) == ONE + monomial(3)
        assert monomial(-1).substitute_q_power(2) == monomial(-2)
        assert ZERO.substitute_q_power(5) == ZERO

    def test_invert_q(self):
        assert Q.invert_q() == monomial(-1)
        x = poly((0, 1), (1, 1), (3, 1))
        assert x.invert_q() == poly((0, 1), (-1, 1), (-3, 1))

    def test_invert_q_rejects_truncated(self):
        with pytest.raises(TruncatedInput):
            QSeries(0, (1,), 3).invert_q()

    def test_truncate(self):
        x = poly((0, 1), (1, 1), (5, 1))
        assert x.truncate(3) == QSeries(0, (1, 1), 3)
        assert ZERO.truncate(10) == QSeries(0, (), 10)
        assert x.truncate(10).truncate(3) == x.truncate(3).truncate(10)
        # a series known no further than q^n is its own truncation at n
        at_3 = x.truncate(3)
        assert at_3.truncate(3) is at_3 and at_3.truncate(10) is at_3

    def test_shift(self):
        assert (ONE + Q).shift(2) == monomial(2) + monomial(3)

    @given(sum_term, st.integers(1, 6))
    def test_substitute_q_power_matches_a_term_map(self, x, k):
        terms = {k * (x.offset + i): c for i, c in enumerate(x.coeffs)}
        # known to q^T, the stretch is known to q^{kT+k-1}: no exponent past
        # kT up to there is a multiple of k
        trunc = None if x.trunc is None else k * x.trunc + k - 1
        assert x.substitute_q_power(k) == from_terms(terms, trunc)

    @given(laurent, st.lists(st.integers(-5, 5), max_size=6), st.integers(-12, 24),
           st.integers(1, 6))
    @example(poly((-5, 2), (-4, 1)), [1], -5, 3)
    @example(ZERO, [], -3, 2)
    def test_substitute_q_power_claim_is_tight(self, head, tail, t, k):
        # two exact continuations of x, known to q^t, that differ at q^{t+1}:
        # stretched, they agree to q^{kt+k-1}, the claimed truncation, and
        # differ at q^{k(t+1)}, one past it
        x = head.truncate(t)
        first = QSeries(x.offset, x.coeffs) + QSeries(t + 1, tail)
        second = first + monomial(t + 1)
        assert compare(x, first) and compare(x, second)
        stretched = x.substitute_q_power(k)
        assert stretched.trunc == k * t + k - 1
        first, second = first.substitute_q_power(k), second.substitute_q_power(k)
        assert compare(stretched, first) and compare(stretched, second)
        assert compare(first, second).mismatch_exponent == k * (t + 1)


# Operands of the results built without re-normalising: exact or truncated,
# negative offsets, the zero series, lists on both sides of _KRONECKER_CUTOFF.
canonical_operand = st.builds(
    QSeries,
    st.integers(min_value=-20, max_value=20),
    st.one_of(st.lists(st.integers(-10**6, 10**6), max_size=12),
              _kronecker_lists(st.integers(-10**6, 10**6))),
    st.one_of(st.none(), st.integers(min_value=-40, max_value=340)),
)


class TestCanonicalResults:
    @settings(deadline=None)
    @given(canonical_operand, canonical_operand, one_coefficient, st.integers(-30, 30),
           st.integers(2, 6))
    def test_equal_to_the_normalising_constructor_field_for_field(self, a, b, m, e, k):
        # products with a one-coefficient operand, exact or truncated, too
        results = [a.shift(e), -a, a.substitute_q_power(k), a * m, m * a]
        if a.trunc is None and b.trunc is None:
            results.append(a * b)
        for r in results:
            rebuilt = QSeries(r.offset, r.coeffs, r.trunc)
            assert type(r.coeffs) is tuple
            assert (r.offset, r.coeffs, r.trunc) == (rebuilt.offset, rebuilt.coeffs, rebuilt.trunc)

    @given(st.integers(-50, 50), st.one_of(st.just(0), st.integers(-10**20, 10**20)))
    def test_monomial_equals_the_normalising_constructor(self, e, c):
        m, rebuilt = monomial(e, c), QSeries(e, (c,))
        assert type(m.coeffs) is tuple
        assert (m.offset, m.coeffs, m.trunc) == (rebuilt.offset, rebuilt.coeffs, rebuilt.trunc)


def _reference_post_init(self):
    """The canonicalisation of the frozen-dataclass QSeries: clip to trunc,
    strip the zeros at both ends, store a tuple."""
    offset, coeffs, trunc = self.offset, list(self.coeffs), self.trunc
    if trunc is not None:
        keep = trunc - offset + 1
        coeffs = coeffs[:max(keep, 0)]
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
        offset += 1
    while lo < hi and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        offset, coeffs = 0, []
    else:
        coeffs = coeffs[lo:hi]
    object.__setattr__(self, "offset", offset)
    object.__setattr__(self, "coeffs", tuple(coeffs))
    object.__setattr__(self, "trunc", trunc)


# The frozen dataclass QSeries was, with its generated __eq__, __hash__ and
# __repr__.
ReferenceQSeries = dataclasses.make_dataclass(
    "QSeries", [("offset", int, 0), ("coeffs", tuple, ()), ("trunc", object, None)],
    namespace={"__post_init__": _reference_post_init}, frozen=True)


@st.composite
def constructor_args(draw):
    """(offset, coeffs, trunc): coeffs a list or a tuple with leading or
    trailing zeros, all zeros or no entries; trunc None, below the offset,
    inside the coefficients or above the last one."""
    offset = draw(st.integers(-20, 20))
    middle = draw(st.one_of(st.lists(st.integers(-3, 3), max_size=6), st.just([])))
    coeffs = [0] * draw(st.integers(0, 3)) + middle + [0] * draw(st.integers(0, 3))
    coeffs = draw(st.sampled_from((list, tuple)))(coeffs)
    top = offset + len(coeffs) - 1
    trunc = draw(st.one_of(
        st.none(),
        st.integers(offset - 5, offset - 1),
        st.integers(offset, max(top, offset)),
        st.integers(top + 1, top + 5)))
    return offset, coeffs, trunc


class TestConstructor:
    @settings(max_examples=300)
    @given(constructor_args(), constructor_args())
    @example((0, [], None), (5, (0, 0), None))
    @example((3, (0, 1, 0), 2), (-20, [0, 0, 0], -21))
    @example((-4, [0, 2, 0, 5, 0], 0), (-4, (0, 2, 0, 5, 0), 0))
    def test_matches_the_dataclass_canonicalisation(self, args, other_args):
        value, reference = QSeries(*args), ReferenceQSeries(*args)
        assert type(value.coeffs) is tuple
        assert ((value.offset, value.coeffs, value.trunc)
                == (reference.offset, reference.coeffs, reference.trunc))
        assert hash(value) == hash(reference)
        assert repr(value) == repr(reference)
        assert repr(value) == (f"QSeries(offset={value.offset!r}, coeffs={value.coeffs!r}, "
                               f"trunc={value.trunc!r})")
        other, other_reference = QSeries(*other_args), ReferenceQSeries(*other_args)
        assert (value == other) == (reference == other_reference)
        assert (value != other) == (reference != other_reference)
        assert value == QSeries(*args) and not value != QSeries(*args)
        # a value of another type is never equal, as with the dataclass
        assert value != (value.offset, value.coeffs, value.trunc)

    def test_keyword_arguments_and_defaults(self):
        assert QSeries() == QSeries(0, (), None) == ZERO
        assert QSeries(coeffs=[0, 1], offset=-1, trunc=4) == QSeries(0, (1,), 4)


def field_names(value):
    """The fields of a value type: a dataclass's, a NamedTuple's or the slots."""
    if dataclasses.is_dataclass(value):
        return [f.name for f in dataclasses.fields(value)]
    return getattr(value, "_fields", None) or type(value).__slots__


FROZEN_VALUES = {
    "fresh QSeries": lambda: QSeries(-2, [0, 3, 0, -1, 0], 5),
    "ZERO": lambda: ZERO,
    "ONE": lambda: ONE,
    "cached q_binomial(4, 2)": lambda: q_binomial(4, 2),
    "Comparison": lambda: compare(ONE, Q),
    "Bounds": lambda: Bounds(),
    "Report": lambda: verify_case("new_fin_cap_1", {"L": 2}),
    "Recurrence": lambda: RECURRENCES["b_short"],
    "RecurrenceReport": lambda: verify_recurrence(lambda L: ZERO, RECURRENCES["a_short"],
                                                  range(2, 4)),
    "WitnessReport": lambda: verify_factor_witness("b", range(4, 6)),
    "HierarchyFamily": lambda: FAMILIES["cap1"],
    "BaileyAlpha": lambda: ALPHAS["unit"],
    "IdentityCase": lambda: CASES["new_fin_cap_1"],
}


class TestImmutable:
    @pytest.mark.parametrize("kind", sorted(FROZEN_VALUES))
    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        # the caches hand one value to every caller
        value = FROZEN_VALUES[kind]()
        names = field_names(value)
        assert names
        before = [getattr(value, name) for name in names]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, ONE)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert all(getattr(value, name) is was for name, was in zip(names, before))
        if isinstance(value, QSeries):
            assert value == QSeries(value.offset, value.coeffs, value.trunc)
        if kind == "cached q_binomial(4, 2)":
            assert q_binomial(4, 2) is value

    def test_every_frozen_value_type_is_checked(self):
        assert {type(make()).__name__ for make in FROZEN_VALUES.values()} == {
            "QSeries", "Comparison", "Bounds", "Report", "Recurrence", "RecurrenceReport",
            "WitnessReport", "HierarchyFamily", "BaileyAlpha", "IdentityCase"}


class TestCompare:
    def test_exact_equal(self):
        assert compare(ONE + Q, ONE + Q)

    def test_equal_coefficients_one_truncated(self):
        # agreement up to 5 in either order: a difference at 6 is beyond it,
        # one at 5 is not
        truncated = QSeries(0, (1, 1), 5)
        for other in (ONE + Q, ONE + Q + monomial(6)):
            assert compare(truncated, other)
            assert compare(other, truncated)
        differs = ONE + Q + monomial(5)
        assert compare(truncated, differs).mismatch_exponent == 5
        assert compare(differs, truncated).mismatch_exponent == 5

    def test_truncated_agreement(self):
        assert compare(QSeries(0, (1, 1), 1), ONE + Q + monomial(9))
        # agreement up to 1: a difference at 1 counts, one at 2 does not
        assert compare(QSeries(0, (1, 1), 1), ONE + Q + monomial(2))
        assert compare(QSeries(0, (1, 1), 1), ONE + 2 * Q).mismatch_exponent == 1

    def test_mismatch_reported(self):
        outcome: Comparison = compare(ONE, ONE + Q)
        assert not outcome
        assert outcome.mismatch_exponent == 1
        assert (outcome.lhs_coeff, outcome.rhs_coeff) == (0, 1)

    @given(compare_operand, compare_operand, st.booleans())
    @example(ZERO, ZERO, False)
    @example(QSeries(0, (), 5), monomial(-3), False)
    @example(QSeries(4, (1, 2), 2), monomial(4, 3), False)
    def test_matches_reference(self, a, b, near):
        # near: b is a with one more term just past a's degree, under b's
        # truncation, so pairs equal up to the truncation and pairs that
        # differ at one exponent are both drawn
        if near:
            b = QSeries(a.offset, a.coeffs + (b.coeffs[:1] or (1,)), b.trunc)
        assert compare(a, b) == reference_compare(a, b)


class TestRingAxioms:
    @given(laurent, laurent, laurent)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(laurent, laurent)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(laurent, laurent, laurent)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(laurent, nonzero_laurent)
    def test_div_roundtrip(self, a, b):
        assert div_exact(a * b, b) == a

    @given(laurent, laurent)
    def test_invert_q_homomorphism(self, a, b):
        assert (a * b).invert_q() == a.invert_q() * b.invert_q()

    @given(laurent)
    def test_invert_q_involution(self, a):
        assert a.invert_q().invert_q() == a

    @given(laurent, laurent)
    def test_canonical_normalization(self, a, b):
        # two construction paths for the same value agree structurally
        lhs = (a + b) * (a - b)
        rhs = a * a - b * b
        assert (lhs.offset, lhs.coeffs) == (rhs.offset, rhs.coeffs)


class TestLimbs:
    @pytest.mark.parametrize("signed", (False, True))
    @pytest.mark.parametrize("bits", (1, 8, 9, 16, 17, 32, 33, 64, 65, 200))
    def test_extreme_limbs_round_trip(self, bits, signed):
        # the widest values the width must hold, in array limbs up to 8 bytes
        # and in to_bytes limbs past them
        limbs = _limbs(2 ** (bits - signed) - 1, signed)
        assert limbs.width == next((w for w in (1, 2, 4, 8) if 8 * w >= bits), (bits + 7) // 8)
        assert (limbs.code is None) == (bits > 64)
        top = 2 ** (bits - 1) if signed else 2 ** bits
        coeffs = [top - 1, 0, -top if signed else 1, top - 1, 0]
        assert limbs.unpack(limbs.pack(coeffs), len(coeffs)) == coeffs

    @pytest.mark.parametrize("signed", (False, True))
    @pytest.mark.parametrize("width", range(1, 18))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_pack_is_the_value_at_the_limb_base(self, width, signed, data):
        # every width, array limbs to 8 bytes and to_bytes limbs past them:
        # a pack is sum c_i 2**(8wi), negative when the top limb is
        limbs = _limbs(2 ** (8 * width - signed) - 1, signed)
        assert limbs.width == next(w for w in (1, 2, 4, 8, width) if w >= width)
        bits = 8 * limbs.width
        lo, hi = (-2 ** (bits - 1), 2 ** (bits - 1) - 1) if signed else (0, 2 ** bits - 1)
        coeffs = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12))
        value = sum(c << bits * i for i, c in enumerate(coeffs))
        assert limbs.pack(coeffs) == value
        assert limbs.unpack(value, len(coeffs)) == coeffs
        if signed:
            assert limbs.pack([0, lo]) == lo << bits < 0
            assert limbs.unpack(lo << bits, 2) == [0, lo]


    @pytest.mark.parametrize("signed", (False, True))
    @pytest.mark.parametrize("bound", (0, 255, 2**64, 2**100))
    def test_unpack_classes_interleaves_and_checks_the_total(self, bound, signed):
        # class r of the sums fills out[r::base], through array limbs and
        # to_bytes limbs; a total that the coefficients miss raises
        limbs = _limbs(bound, signed)
        classes = [[bound, 0, 1], [], [-bound if signed else 0, bound]]
        expected = [bound, 0, -bound if signed else 0, 0, 0, bound, 1, 0, 0]
        out = limbs.unpack_classes([limbs.pack(c) for c in classes], 3, sum(expected))
        assert out == expected
        assert limbs.unpack_classes([limbs.pack(c) for c in classes], 3, sum(out)) == out
        with pytest.raises(ArithmeticError):
            limbs.unpack_classes([limbs.pack(c) for c in classes], 3, sum(out) + 1)


class TestKronecker:
    @settings(max_examples=60, deadline=None)
    @given(kronecker_operand, kronecker_operand)
    def test_matches_naive_double_loop(self, a, b):
        assert len(a) * len(b) > _KRONECKER_CUTOFF
        expected = naive_convolve(a, b)
        assert _convolve_kronecker(a, b) == expected
        assert _convolve(a, b) == expected

    @pytest.mark.parametrize("above", (False, True))
    @pytest.mark.parametrize("bits", (7, 15, 31, 63))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_limb_width(self, bits, above, data):
        a, b = data.draw(limb_width_operands(bits, above))
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        assert (bound >= 2**bits) == above
        assert len(a) * len(b) > _KRONECKER_CUTOFF
        expected = naive_convolve(a, b)
        assert _convolve_kronecker(a, b) == expected
        assert _convolve(a, b) == expected

    @pytest.mark.parametrize("sign", (1, -1))
    def test_coefficient_at_the_limb_bound(self, sign):
        # bound = max|a| max|b| min(len) = 2**60 * 2**60 * 128 = 2**127, and
        # the middle coefficient is sign * bound: limbs of 16 bytes would
        # hold it only for sign -1, so the width must round up to 17 bytes
        a, b = [2**60] * 128, [sign * 2**60] * 128
        product = _convolve_kronecker(a, b)
        assert product[127] == sign * 2**127
        assert product == naive_convolve(a, b)


def reference_stretched_product_sum(pairs, base):
    """sum a(q^base) * b(q): each chain stretched, then one product per pair."""
    total = Accumulator()
    for a, b in pairs:
        total.add(a.substitute_q_power(base) * b)
    return total.value()


# Exact operands for the packed pass: short ones (fewer coefficients than the
# base, so some residue classes are empty), ones with all-zero classes, and
# long ones with coefficients past 8-byte limbs.
stretch_operand = st.one_of(
    laurent,
    st.builds(QSeries, st.integers(-6, 6), st.lists(st.integers(-3, 3), max_size=2)),
    st.builds(lambda e, c, k: QSeries(e, [c] + [0] * k + [c]), st.integers(-6, 6),
              st.integers(1, 9), st.sampled_from((2, 5))),
    st.builds(QSeries, st.integers(-30, 30), _kronecker_lists(st.integers(-10**12, 10**12))),
)


class TestStretchedProductSum:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(stretch_operand, stretch_operand), max_size=6),
           st.sampled_from((1, 2, 3)))
    # classes 1 and 2 empty, and class 1 of 1 + q^3 present but all zero
    @example([(ONE + Q, ONE), (monomial(-2, 5), ONE + monomial(3))], 3)
    # every pair zero, and no pair
    @example([(ZERO, ONE + Q), (ONE, ZERO)], 2)
    @example([], 3)
    def test_matches_stretched_products(self, pairs, base):
        split = [(_Classes(a, 1), _Classes(b, base)) for a, b in pairs]
        assert stretched_product_sum(split, base) == reference_stretched_product_sum(pairs, base)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_coefficient_at_the_limb_bound(self, sign):
        # two pairs, each of bound 2**61 * 1 * 2 = 2**62, whose products meet
        # at q^3 with coefficient sign * 2**63: 8-byte limbs would hold it
        # only for sign -1, so the width must come from the sum of the bounds
        a, b = QSeries(0, (2**61, 2**61)), QSeries(0, (sign, 0, 0, sign))
        pairs = [(a, b), (a, b)]
        value = stretched_product_sum([(_Classes(a, 1), _Classes(b, 3))] * 2, 3)
        assert value.coeffs[3] == sign * 2**63
        assert value == reference_stretched_product_sum(pairs, 3)

    def test_limbs_one_byte_too_narrow_raise(self, monkeypatch):
        # negative control: the pair of the test above needs 9-byte limbs;
        # in 8 bytes every operand fits, but the coefficient 2**63 of the
        # sum carries into the next limb, so the sum misses its value at q = 1
        limbs = series._limbs
        monkeypatch.setattr(series, "_limbs", lambda bound, signed: series._Limbs(
            limbs(bound, signed).width - 1, None, signed))
        a, b = QSeries(0, (2**61, 2**61)), QSeries(0, (1, 0, 0, 1))
        with pytest.raises(ArithmeticError, match="not to the bound"):
            stretched_product_sum([(_Classes(a, 1), _Classes(b, 3))] * 2, 3)

    @pytest.mark.parametrize("truncated_first", (True, False))
    def test_a_truncated_operand_raises(self, truncated_first):
        # the packed pass has no truncation to give its sum: a * b of these
        # operands is (1, 3) known to q^1, which an exact (1, 3, 2) would
        # contradict
        a, b = QSeries(0, (1, 2, 3), 1), QSeries(0, (1, 1))
        assert a * b == QSeries(0, (1, 3), 1)
        chain, split = (a, b) if truncated_first else (b, a)
        for base in (1, 3):
            with pytest.raises(TruncatedInput):
                stretched_product_sum([(_Classes(ONE, 1), _Classes(ONE, base)),
                                       (_Classes(chain, 1), _Classes(split, base))], base)


SEEDS = (seed_cap1, seed_cap2, seed_cap1_binomial, seed_cap2_binomial, seed_sum_cap)


def per_product_level_up(level, eps, kernel):
    """One exact chain level step, P_k(N) = sum_{N' >= N} q^{N'^2+eps*N'}
    kernel(N, N') P_{k-1}(N'), one series product per (N, N') added into an
    Accumulator: the package's step before its packed pass, kept here so the
    reference shares no code with it."""
    weights = [n * n + eps * n for n in range(len(level))]
    out = []
    for N in range(len(level)):
        total = Accumulator()
        for n in range(N, len(level)):
            total.add(kernel(N, n) * level[n].shift(weights[n]))
        out.append(total.value())
    return tuple(out)


def chain_rows(a, f, s, L, tails):
    """The chains of hierarchy_finite_lhs at (a, f, s, L), one per n_f: the
    n_f-th tail times q^{n_f^2 + eps n_f} P_{f-1}(n_f), with P_{f-1} built
    level by level, step k twisted exactly when k > f - s."""
    def kernel(N, n):
        return q_binomial(L - N, n - N)

    level = (ONE,) * (L + 1)
    for k in range(1, f):
        level = per_product_level_up(level, a + (k > f - s), kernel)
    eps = a + bool(s)
    return [(tail * inner).shift(nf * nf + eps * nf)
            for nf, (tail, inner) in enumerate(zip(tails, level))]


def wide_limbs(bound, signed):
    """Limbs past 8 bytes, whatever the bound."""
    return _limbs(max(bound, 2**80), signed)


class TestTabledLeftSide:
    # the left sides' pass over their tables (the tails per (a, L) and the
    # seeds' classes, packed per width) against one stretched product per n_f
    # with the tails straight from poch_ratio, for every seed in bases 1 and
    # 3, f <= 3 and every twist, the tables filled in any L order; one call
    # runs in limbs past 8 bytes, so the classes it reads keep two widths

    @settings(max_examples=80, deadline=None)
    @given(seed=st.sampled_from(SEEDS), base=st.sampled_from((1, 3)), a=st.integers(0, 1),
           f=st.integers(1, 3), data=st.data(),
           order=st.sampled_from(("ascending", "descending", "shuffled")),
           rng=st.randoms(use_true_random=False))
    def test_matches_reference_in_any_fill_order(self, seed, base, a, f, data, order, rng):
        s = data.draw(st.integers(0, f))
        Ls = list(range(11))
        Ls = Ls[::-1] if order == "descending" else rng.sample(Ls, 11) if order == "shuffled" else Ls
        wide_at = data.draw(st.sampled_from(Ls))
        _chain_tails.cache_clear()
        _seed_classes.cache_clear()
        for L in Ls:
            tails = [poch_ratio(((2 * L + a, 1),), ((L - n, 1), (2 * n + a, 1)))
                     for n in range(L + 1)]
            expected = reference_stretched_product_sum(
                [(chain, seed(n)) for n, chain in enumerate(chain_rows(a, f, s, L, tails))], base)
            pairs = [(_Classes(chain, 1), _seed_classes(seed, n, base))
                     for n, chain in enumerate(chain_rows(a, f, s, L, _chain_tails(a, L)))]
            with mock.patch.object(series, "_limbs", wide_limbs if L == wide_at else _limbs):
                assert stretched_product_sum(pairs, base) == expected, L
        assert 11 in _seed_classes(seed, 0, base).packs


class TestTruncatedMul:
    @settings(max_examples=80, deadline=None)
    @given(mul_operand, mul_operand)
    # q^-1 times 1 + q + O(q^4) is known to q^2 only, as its shift by -1
    @example(monomial(-1), QSeries(0, (1, 1), 3))
    @example(QSeries(0, (1, 1), 3), monomial(-1))
    # O(q^-1) squared: its q^-2 coefficient is the product of two unknowns
    @example(QSeries(0, (), -2), QSeries(0, (), -2))
    def test_matches_full_convolution_then_truncation(self, a, b):
        full = _convolve(list(a.coeffs), list(b.coeffs))
        expected = QSeries(a.offset + b.offset, full, product_trunc(a, b))
        assert a * b == expected

    def test_truncation_below_the_lowest_product_exponent(self):
        # q^3 q^4 = q^7 lies above trunc 6; a trunc of 2 lies below both
        # offsets and leaves the second operand zero to that order
        a = QSeries(3, (1, 2, 3))
        for b, trunc in ((QSeries(4, (5, 6), 6), 6), (QSeries(4, (5, 6), 2), 2)):
            assert a * b == QSeries(0, (), trunc)
            assert b * a == QSeries(0, (), trunc)


class TestOneCoefficientMul:
    @settings(max_examples=150, deadline=None)
    @given(one_coefficient, st.one_of(mul_operand, one_coefficient), st.booleans())
    # a truncation below the product's lowest exponent, on either operand
    @example(QSeries(3, (7,), 2), QSeries(4, (1, 2)), True)
    @example(QSeries(3, (-1,)), QSeries(-4, (1, 0, 5), -2), False)
    # both operands of length 1
    @example(QSeries(-5, (-1,)), QSeries(2, (10**30,), 0), True)
    @example(QSeries(-5, (1,), -4), QSeries(2, (-3,)), False)
    # a negative offset times a truncated operand
    @example(monomial(-1), QSeries(0, (1, 1), 3), True)
    @example(monomial(-1), QSeries(0, (1, 1), 3), False)
    def test_matches_naive_convolution(self, single, other, single_on_left):
        a, b = (single, other) if single_on_left else (other, single)
        expected = QSeries(a.offset + b.offset, naive_convolve(a.coeffs, b.coeffs),
                           product_trunc(a, b))
        assert a * b == expected


class TestAccumulator:
    @given(st.one_of(st.none(), st.integers(min_value=-10, max_value=40)),
           st.lists(sum_term, max_size=20))
    def test_matches_left_fold_of_add(self, start, terms):
        acc = Accumulator(start)
        folded = QSeries(0, (), start)
        for term in terms:
            acc.add(term)
            folded = reference_add(folded, term)
            assert acc.value() == folded
        assert acc.value() == folded

    @given(sum_term, st.one_of(sum_term, st.integers(-10**6, 10**6)))
    # a truncated zero series on either side, and an int
    @example(QSeries(0, (), 5), QSeries(-3, (1, 2, 3)))
    @example(QSeries(-3, (1, 2, 3)), QSeries(0, (), -4))
    @example(QSeries(0, (), 5), 7)
    def test_plus_matches_reference_add(self, a, b):
        assert a + b == reference_add(a, b)
        assert b + a == reference_add(a, b)


class TestInverse:
    def test_geometric_series(self):
        assert inverse(ONE - Q, 4) == QSeries(0, (1, 1, 1, 1, 1), 4)

    def test_roundtrip(self):
        x = ONE - Q - monomial(2)
        assert (inverse(x, 8) * x).truncate(8) == QSeries(0, (1,), 8)

    def test_positive_valuation_lowers_the_known_order(self):
        # q - q^2 + O(q^4) has inverse q^-1 + 1 + q + O(q^2)
        assert inverse(QSeries(1, (1, -1), 3), 3) == QSeries(-1, (1, 1, 1), 1)

    @given(st.integers(-5, 5), st.sampled_from((1, -1)),
           st.lists(st.integers(-5, 5), max_size=10), st.integers(0, 10),
           st.lists(st.integers(-5, 5), max_size=6),
           st.lists(st.integers(-5, 5), max_size=6), st.integers(-10, 20))
    def test_completions_agree_up_to_the_returned_trunc(
            self, v, c0, rest, known, tail1, tail2, n):
        # x is known to q^(v + known); each completion keeps those
        # coefficients and appends its own above them
        prefix = ([c0] + rest + [0] * known)[:known + 1]
        x = QSeries(v, prefix, v + known)
        result = inverse(x, n)
        for tail in (tail1, tail2):
            completion = QSeries(v, prefix + tail)
            assert compare(inverse(completion, n), result)


class TestTextForms:
    def test_to_text(self):
        assert (ONE + monomial(2) - monomial(4)).to_text() == "1 + q^2 - q^4"
        assert ZERO.to_text() == "0"
        assert monomial(-1).to_text() == "q^-1"
