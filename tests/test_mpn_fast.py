"""Equivalence suite for the flat mpn routines.

The flat routines of :mod:`repro.mp.mpn` must match their limb-loop
oracles in :mod:`repro.mp.mpn_reference` on **values** and on **trace
sequences** (names, order, size parameters) -- the latter is what keeps
macro-model cycle estimates, and therefore every recorded baseline,
independent of how the host computes the value.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import Mpz, active_backend
from repro.mp import mpn, mpn_reference
from repro.mp.hooks import traced
from repro.mp.limb import RADIX16, RADIX32

RADICES = (RADIX32, RADIX16)

limb32 = st.integers(0, RADIX32.mask)
nonneg = st.integers(min_value=0, max_value=(1 << 512) - 1)
positive = st.integers(min_value=1, max_value=(1 << 512) - 1)


def traced_call(fn, *args, **kwargs):
    """Run ``fn`` capturing (result, [(trace name, params), ...])."""
    calls = []
    with traced(lambda name, params: calls.append(
            (name, tuple(sorted(params.items()))))):
        result = fn(*args, **kwargs)
    return result, calls


def reference_mpn():
    """Scope in which the six flat :mod:`repro.mp.mpn` routines are
    replaced by their :mod:`repro.mp.mpn_reference` oracles, so an
    oracle's own calls into the mpn layer stay on the limb loops."""
    return mock.patch.multiple(mpn, **{
        name: getattr(mpn_reference, name)
        for name in mpn_reference.ROUTINES})


def assert_equivalent(name, *args, radix=RADIX32):
    with reference_mpn():
        ref = traced_call(getattr(mpn_reference, name), *args, radix)
    got = traced_call(getattr(mpn, name), *args, radix)
    assert ref == got


@pytest.fixture
def both_libraries():
    """``both_libraries(fn)`` calls ``fn`` on the reference limb loops,
    then on the flat routines, and returns both results (reference
    first)."""
    def run(fn):
        with reference_mpn():
            reference = fn()
        return reference, fn()
    return run


def vec_strategy(radix, min_size=1, max_size=12):
    return st.lists(st.integers(0, radix.mask),
                    min_size=min_size, max_size=max_size)


# ---------------------------------------------------------------------------
# Per-function parity (values + traces), both radices
# ---------------------------------------------------------------------------

class TestLeafParity:
    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_addmul_1(self, radix, data):
        n = data.draw(st.integers(1, 10))
        rp = data.draw(vec_strategy(radix, n, n))
        up = data.draw(vec_strategy(radix, n, n))
        v = data.draw(st.integers(0, radix.mask))
        assert_equivalent("addmul_1", rp, up, v, radix=radix)

    def test_addmul_1_length_mismatch(self):
        with pytest.raises(ValueError):
            mpn.addmul_1([1, 2], [1], 3)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_addmul_1_into(self, radix, data):
        n = data.draw(st.integers(1, 8))
        offset = data.draw(st.integers(0, 3))
        rp = data.draw(vec_strategy(radix, offset + n, offset + n + 4))
        up = data.draw(vec_strategy(radix, n, n))
        v = data.draw(st.integers(0, radix.mask))
        ref_rp, fast_rp = list(rp), list(rp)
        ref = traced_call(mpn_reference._addmul_1_into, ref_rp, offset, up,
                          v, radix)
        got = traced_call(mpn._addmul_1_into, fast_rp, offset, up, v, radix)
        assert ref == got and ref_rp == fast_rp

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_mul_basecase(self, radix, data):
        up = data.draw(vec_strategy(radix))
        vp = data.draw(vec_strategy(radix))
        assert_equivalent("mul_basecase", up, vp, radix=radix)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_sqr(self, radix, data):
        # Sizes straddle KARATSUBA_THRESHOLD to cover both the flat
        # base case and the delegated Karatsuba path.
        up = data.draw(vec_strategy(radix, 1,
                                    2 * mpn.KARATSUBA_THRESHOLD + 4))
        assert_equivalent("sqr", up, radix=radix)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_divrem_1(self, radix, data):
        up = data.draw(vec_strategy(radix))
        v = data.draw(st.integers(1, radix.mask))
        assert_equivalent("divrem_1", up, v, radix=radix)

    def test_divrem_1_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            mpn.divrem_1([1], 0)

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    @given(data=st.data())
    @settings(max_examples=80)
    def test_divrem(self, radix, data):
        up = data.draw(vec_strategy(radix, 1, 14))
        vp = data.draw(vec_strategy(radix, 1, 8))
        if mpn.normalize(vp) == [0]:
            vp[-1] = data.draw(st.integers(1, radix.mask))
        assert_equivalent("divrem", up, vp, radix=radix)

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            mpn.divrem([1, 2], [0, 0])

    @given(nonneg, positive)
    @settings(max_examples=60)
    def test_divrem_matches_int(self, a, b):
        q, r = mpn.divrem(mpn.from_int(a), mpn.from_int(b))
        assert mpn.to_int(q) == a // b
        assert mpn.to_int(r) == a % b


class TestAddbackPath:
    """The crafted Algorithm D add-back trigger (from test_mpn.py,
    generalized per radix): the divisor's zero middle limb blinds the
    3-limb qhat check, D4 underflows, and the rare D6 correction runs.
    The flat divrem must take it on the same iteration with the same
    ``mpn_add_n`` trace."""

    @staticmethod
    def trigger(radix):
        half = radix.base // 2
        u = [0, 0, half, half - 1]
        v = [radix.mask, 0, half]
        return u, v

    @pytest.mark.parametrize("radix", RADICES, ids=("r32", "r16"))
    def test_addback_fires_identically(self, radix):
        u, v = self.trigger(radix)
        ref = traced_call(mpn_reference.divrem, u, v, radix)
        got = traced_call(mpn.divrem, u, v, radix)
        assert ref == got
        addbacks = [c for c in got[1] if c[0] == "mpn_add_n"]
        assert len(addbacks) == 1
        assert addbacks[0][1] == (("n", len(v)),)
        a, b = mpn.to_int(u, radix), mpn.to_int(v, radix)
        q, r = got[0]
        assert mpn.to_int(q, radix) == a // b
        assert mpn.to_int(r, radix) == a % b


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_active_backend_reports_flat_routines(self):
        assert active_backend() == "fast"

    @given(nonneg, nonneg)
    @settings(max_examples=25)
    def test_mpz_mul_under_fast_backend(self, a, b):
        assert int(Mpz(a) * Mpz(b)) == a * b

    @given(nonneg, positive)
    @settings(max_examples=25)
    def test_mpz_divmod_under_fast_backend(self, a, b):
        q, r = divmod(Mpz(a), Mpz(b))
        assert (int(q), int(r)) == divmod(a, b)

    def test_powm_value_and_estimate_identical(self, both_libraries):
        """A full Montgomery powm must produce the same value AND the
        same macro-model cycle estimate on the reference limb loops and
        on the flat routines (trace identity end to end)."""
        from repro.costs.cache import characterize_cached
        from repro.crypto.modexp import ModExpEngine
        from repro.macromodel import estimate_cycles
        models = characterize_cached(0, 0)
        modulus = (1 << 256) - 189     # odd

        def powm():
            # Fresh engine per library: the per-modulus Montgomery
            # setup cache would otherwise hide setup traces from the
            # second run.
            engine = ModExpEngine()
            op = lambda: engine.powm(0x12345, 0x10001, modulus)
            est = estimate_cycles(models, op)
            return int(op()), est.cycles

        reference, flat = both_libraries(powm)
        assert reference == flat
