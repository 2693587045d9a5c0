"""Unit and property tests for the mpn limb-vector primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import mpn, mpn_reference
from repro.mp.limb import RADIX16, RADIX32

RADICES = [RADIX32, RADIX16]

nonneg = st.integers(min_value=0, max_value=(1 << 512) - 1)
positive = st.integers(min_value=1, max_value=(1 << 512) - 1)


def limbs_of(x, radix=RADIX32):
    return mpn.from_int(x, radix)


class TestConversion:
    @pytest.mark.parametrize("radix", RADICES)
    def test_zero_roundtrip(self, radix):
        assert mpn.to_int(mpn.from_int(0, radix), radix) == 0
        assert mpn.from_int(0, radix) == [0]

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("value", [1, 2, 255, 1 << 31, (1 << 32) - 1,
                                       1 << 32, 1 << 100, (1 << 512) - 1])
    def test_roundtrip(self, radix, value):
        assert mpn.to_int(mpn.from_int(value, radix), radix) == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mpn.from_int(-1)

    @given(nonneg)
    def test_roundtrip_property(self, x):
        for radix in RADICES:
            assert mpn.to_int(mpn.from_int(x, radix), radix) == x

    @given(nonneg)
    def test_numbits_matches_bit_length(self, x):
        assert mpn.numbits(limbs_of(x)) == x.bit_length()


class TestNormalize:
    def test_strips_high_zeros(self):
        assert mpn.normalize([5, 0, 0]) == [5]

    def test_keeps_single_zero(self):
        assert mpn.normalize([0, 0, 0]) == [0]

    def test_no_change_needed(self):
        assert mpn.normalize([1, 2, 3]) == [1, 2, 3]


class TestCmp:
    @given(nonneg, nonneg)
    def test_matches_int_compare(self, a, b):
        got = mpn.cmp(limbs_of(a), limbs_of(b))
        assert got == (a > b) - (a < b)

    def test_handles_unnormalized(self):
        assert mpn.cmp([1, 0, 0], [1]) == 0


class TestAddSub:
    @given(nonneg, nonneg)
    def test_add_n_equal_lengths(self, a, b):
        n = max(len(limbs_of(a)), len(limbs_of(b)))
        up = limbs_of(a) + [0] * (n - len(limbs_of(a)))
        vp = limbs_of(b) + [0] * (n - len(limbs_of(b)))
        rp, carry = mpn.add_n(up, vp)
        assert mpn.to_int(rp) + (carry << (32 * n)) == a + b

    def test_add_n_length_mismatch(self):
        with pytest.raises(ValueError):
            mpn.add_n([1], [1, 2])

    @given(nonneg, nonneg)
    def test_add_any_lengths(self, a, b):
        assert mpn.to_int(mpn.add(limbs_of(a), limbs_of(b))) == a + b

    @given(nonneg, nonneg)
    def test_sub_ordered(self, a, b):
        hi, lo = max(a, b), min(a, b)
        assert mpn.to_int(mpn.sub(limbs_of(hi), limbs_of(lo))) == hi - lo

    def test_sub_underflow_rejected(self):
        with pytest.raises(ValueError):
            mpn.sub([1], [2])

    @given(nonneg, nonneg)
    def test_sub_n_borrow(self, a, b):
        n = max(len(limbs_of(a)), len(limbs_of(b)))
        up = limbs_of(a) + [0] * (n - len(limbs_of(a)))
        vp = limbs_of(b) + [0] * (n - len(limbs_of(b)))
        rp, borrow = mpn.sub_n(up, vp)
        assert mpn.to_int(rp) - (borrow << (32 * n)) == a - b


class TestMul1Family:
    @given(nonneg, st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_mul_1(self, a, v):
        up = limbs_of(a)
        rp, carry = mpn.mul_1(up, v)
        assert mpn.to_int(rp) + (carry << (32 * len(up))) == a * v

    @given(nonneg, nonneg, st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_addmul_1(self, r, a, v):
        n = max(len(limbs_of(r)), len(limbs_of(a)))
        rp = limbs_of(r) + [0] * (n - len(limbs_of(r)))
        up = limbs_of(a) + [0] * (n - len(limbs_of(a)))
        out, carry = mpn.addmul_1(rp, up, v)
        assert mpn.to_int(out) + (carry << (32 * n)) == r + a * v

    @given(nonneg, nonneg, st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_submul_1(self, r, a, v):
        n = max(len(limbs_of(r)), len(limbs_of(a)))
        rp = limbs_of(r) + [0] * (n - len(limbs_of(r)))
        up = limbs_of(a) + [0] * (n - len(limbs_of(a)))
        out, borrow = mpn.submul_1(rp, up, v)
        assert mpn.to_int(out) - (borrow << (32 * n)) == r - a * v


class TestShift:
    @given(nonneg, st.integers(min_value=1, max_value=31))
    def test_lshift(self, a, cnt):
        up = limbs_of(a)
        rp, out = mpn.lshift(up, cnt)
        assert mpn.to_int(rp) + (out << (32 * len(up))) == a << cnt

    @given(nonneg, st.integers(min_value=1, max_value=31))
    def test_rshift(self, a, cnt):
        up = limbs_of(a)
        rp, _ = mpn.rshift(up, cnt)
        assert mpn.to_int(rp) == a >> cnt

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            mpn.lshift([1], 0)
        with pytest.raises(ValueError):
            mpn.rshift([1], 32)


class TestMul:
    @given(nonneg, nonneg)
    def test_basecase(self, a, b):
        got = mpn.to_int(mpn.mul_basecase(limbs_of(a), limbs_of(b)))
        assert got == a * b

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=(1 << 2048) - 1),
           st.integers(min_value=0, max_value=(1 << 2048) - 1))
    def test_karatsuba_matches(self, a, b):
        got = mpn.to_int(mpn.mul_karatsuba(limbs_of(a), limbs_of(b),
                                           threshold=4))
        assert got == a * b

    @given(nonneg, nonneg)
    def test_mul_dispatch(self, a, b):
        assert mpn.to_int(mpn.mul(limbs_of(a), limbs_of(b))) == a * b

    @given(nonneg)
    def test_sqr(self, a):
        assert mpn.to_int(mpn.sqr(limbs_of(a))) == a * a

    def test_mul_zero(self):
        assert mpn.mul([0], limbs_of(12345)) == [0]


class TestDiv:
    @given(nonneg, st.integers(min_value=1, max_value=(1 << 32) - 1))
    def test_divrem_1(self, a, v):
        q, r = mpn.divrem_1(limbs_of(a), v)
        assert mpn.to_int(q) == a // v
        assert r == a % v

    def test_divrem_1_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            mpn.divrem_1([1], 0)

    @given(nonneg, positive)
    def test_divrem(self, a, b):
        q, r = mpn.divrem(limbs_of(a), limbs_of(b))
        assert mpn.to_int(q) == a // b
        assert mpn.to_int(r) == a % b

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=(1 << 2048) - 1),
           st.integers(min_value=1, max_value=(1 << 1024) - 1))
    def test_divrem_large(self, a, b):
        q, r = mpn.divrem(limbs_of(a), limbs_of(b))
        assert mpn.to_int(q) == a // b
        assert mpn.to_int(r) == a % b

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            mpn.divrem([1], [0])

    @given(nonneg, positive)
    def test_mod(self, a, b):
        assert mpn.to_int(mpn.mod(limbs_of(a), limbs_of(b))) == a % b

    def test_divrem_knuth_addback_path(self):
        # Crafted operands known to trigger the Algorithm D add-back step.
        a = (1 << 96) - (1 << 64) + 1
        b = (1 << 64) - 1
        q, r = mpn.divrem(limbs_of(a), limbs_of(b))
        assert mpn.to_int(q) == a // b
        assert mpn.to_int(r) == a % b


class TestRadix16:
    @given(nonneg, nonneg)
    def test_mul_radix16(self, a, b):
        got = mpn.mul(mpn.from_int(a, RADIX16), mpn.from_int(b, RADIX16),
                      RADIX16)
        assert mpn.to_int(got, RADIX16) == a * b

    @given(nonneg, positive)
    def test_divrem_radix16(self, a, b):
        q, r = mpn.divrem(mpn.from_int(a, RADIX16), mpn.from_int(b, RADIX16),
                          RADIX16)
        assert mpn.to_int(q, RADIX16) == a // b
        assert mpn.to_int(r, RADIX16) == a % b


class TestHotPathEquivalence:
    """The micro-optimized in-place helpers must be bit-identical to
    int arithmetic AND charge exactly the same traced leaf calls as
    the functional leaves they replace (so macro-model cycle estimates
    are unchanged by the optimization)."""

    @staticmethod
    def _traced_calls(fn):
        from repro.mp.hooks import traced
        calls = []
        with traced(lambda name, params: calls.append((name,
                                                       params["n"]))):
            result = fn()
        return result, calls

    @given(nonneg, nonneg)
    def test_mul_basecase_matches_int(self, a, b):
        got = mpn.mul_basecase(limbs_of(a), limbs_of(b))
        assert mpn.to_int(got) == a * b

    @given(nonneg, positive)
    def test_divrem_matches_int(self, a, b):
        q, r = mpn.divrem(limbs_of(a), limbs_of(b))
        assert mpn.to_int(q) == a // b
        assert mpn.to_int(r) == a % b

    @given(st.integers(min_value=1, max_value=(1 << 256) - 1),
           st.integers(min_value=1, max_value=(1 << 256) - 1))
    def test_mul_basecase_trace_counts(self, a, b):
        """m x n schoolbook = 1 mul_1 + (m-1) addmul_1, all of width
        len(up) -- the exact call sequence the macro-models charge."""
        up, vp = limbs_of(a), limbs_of(b)
        _, calls = self._traced_calls(
            lambda: mpn.mul_basecase(up, vp))
        expected = [("mpn_mul_1", len(up))] + \
            [("mpn_addmul_1", len(up))] * (len(vp) - 1)
        assert calls == expected

    def test_divrem_addback_trace_includes_add_n(self):
        # Crafted Algorithm D add-back trigger: the divisor's zero
        # middle limb blinds the 3-limb qhat check to the huge low
        # limb, and the dividend window makes rhat == 0 with qhat at
        # base-1 -- so D4 underflows and the rare D6 correction runs.
        # It must still charge exactly one mpn_add_n of width n.
        a = 0x7FFFFFFF_80000000_00000000_00000000
        b = 0x80000000_00000000_FFFFFFFF
        (q, r), calls = self._traced_calls(
            lambda: mpn.divrem(limbs_of(a), limbs_of(b)))
        assert mpn.to_int(q) == a // b and mpn.to_int(r) == a % b
        n = len(limbs_of(b))
        assert calls.count(("mpn_add_n", n)) == 1
        assert calls.count(("mpn_divrem_qest", 1)) == \
            calls.count(("mpn_submul_1", n))

    @given(nonneg, positive)
    def test_divrem_trace_structure(self, a, b):
        """Every quotient digit charges one qest + one submul_1 of the
        divisor's width (plus at most one add_n on the add-back path)."""
        un, vn = limbs_of(a), limbs_of(b)
        if len(vn) < 2 or mpn.cmp(un, vn) < 0:
            return          # single-limb or trivial path
        (q, _), calls = self._traced_calls(
            lambda: mpn.divrem(un, vn))
        qests = calls.count(("mpn_divrem_qest", 1))
        submuls = [c for c in calls if c[0] == "mpn_submul_1"]
        assert qests == len(submuls) > 0
        assert all(n == len(vn) for _, n in submuls)

    def test_inplace_helpers_match_functional_leaves(self):
        from repro.mp.prng import DeterministicPrng
        prng = DeterministicPrng(0xFACE)
        for n in (1, 2, 5, 9):
            rp = prng.next_limbs(n)
            up = prng.next_limbs(n)
            v = prng.next_bits(32)
            want_add, carry_add = mpn.addmul_1(rp, up, v)
            got = list(rp)
            carry = mpn._addmul_1_into(got, 0, up, v)
            assert (got, carry) == (want_add, carry_add)
            big = prng.next_limbs(n)    # ensure no borrow underflow
            base = [x | y for x, y in zip(big, up)]
            want_sub, borrow_sub = mpn.submul_1(base, up, 1)
            got = list(base)
            borrow = mpn_reference._submul_1_into(got, 0, up, 1)
            assert (got, borrow) == (want_sub, borrow_sub)
