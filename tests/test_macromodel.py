"""Tests for performance characterization and macro-model estimation."""

import numpy as np
import pytest

from repro.crypto.modexp import ModExpConfig, ModExpEngine
from repro.isa.kernels.modexp_kernel import ModExpKernel
from repro.macromodel import characterize_platform, estimate_cycles
from repro.macromodel.estimator import ledger
from repro.macromodel.model import MacroModel, MacroModelSet
from repro.macromodel.persist import modelset_from_dict, modelset_to_dict
from repro.macromodel.regression import (FORMS, FitResult, fit_form,
                                         r_squared, select_model)
from repro.mp import Mpz


class TestRegression:
    def test_affine_exact_fit(self):
        samples = [(n, 4 + 17 * n) for n in (1, 2, 4, 8, 16)]
        fit = fit_form(samples, "affine")
        assert fit.mean_abs_pct_error < 1e-6
        assert abs(fit.coeffs[0] - 4) < 1e-6
        assert abs(fit.coeffs[1] - 17) < 1e-6

    def test_quadratic_fit(self):
        samples = [(n, 2 + 3 * n + 5 * n * n) for n in (1, 2, 3, 5, 8)]
        fit = fit_form(samples, "quadratic")
        assert fit.mean_abs_pct_error < 1e-6

    def test_constant_fit(self):
        fit = fit_form([(1, 100), (1, 102), (1, 98)], "constant")
        assert abs(fit.coeffs[0] - 100) < 1e-6

    def test_step_affine_fit(self):
        samples = [(n, 10 * -(-n // 8) + 2 * n) for n in (1, 4, 8, 9, 16, 24)]
        fit = fit_form(samples, "step_affine", width=8)
        assert fit.mean_abs_pct_error < 1e-6

    def test_selection_prefers_parsimony(self):
        # Perfectly affine data: quadratic would also fit, affine chosen.
        samples = [(n, 5 + 2 * n) for n in (1, 2, 4, 8, 16)]
        assert select_model(samples).form == "affine"

    def test_selection_picks_quadratic_when_needed(self):
        samples = [(n, n * n) for n in (1, 2, 4, 8, 16, 32)]
        assert select_model(samples).form == "quadratic"

    def test_selection_constant_for_flat_data(self):
        assert select_model([(1, 7), (2, 7), (4, 7)]).form == "constant"

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_form([], "affine")

    def test_not_enough_sizes_rejected(self):
        with pytest.raises(ValueError):
            select_model([(1, 5)], forms=("affine",))

    def test_r_squared_perfect(self):
        samples = [(n, 3 * n) for n in (1, 2, 3)]
        fit = fit_form(samples, "affine")
        assert r_squared(samples, fit) > 0.9999

    def test_predict(self):
        fit = FitResult(form="affine", coeffs=(4.0, 17.0), width=1,
                        mean_abs_pct_error=0, max_abs_pct_error=0)
        assert fit.predict(10) == pytest.approx(174.0)


#: Awkward coefficients (not exactly representable), so a memo that
#: evaluated the basis any other way than numpy would show up.
_MEMO_COEFFS = (0.1, 1.0 / 3.0, 2.7e-3)
_MEMO_SIZES = (0, 1, 2, 3, 7, 8, 9, 16, 33, 0.0, 2.5, 3.0, 16.75, 64.0)


def _fit(form, width=1):
    arity = FORMS[form](np.array([1.0]), width).shape[1]
    return FitResult(form=form, coeffs=_MEMO_COEFFS[:arity], width=width,
                     mean_abs_pct_error=1.5, max_abs_pct_error=4.0)


def _numpy_predict(fit, n):
    """The un-memoized evaluation: one numpy basis row times coeffs."""
    basis = FORMS[fit.form](np.array([float(n)]), fit.width)
    return float((basis @ np.array(fit.coeffs))[0])


class TestPredictMemo:
    @pytest.mark.parametrize("form,width", [
        ("constant", 1), ("affine", 1), ("quadratic", 1),
        ("step_affine", 4), ("step_affine", 8),
        ("chunk_affine", 4), ("chunk_affine", 8)])
    def test_memoized_equals_fresh_numpy(self, form, width):
        fit = _fit(form, width)
        for n in _MEMO_SIZES:
            expected = _numpy_predict(fit, n)
            # First call fills the slot, second is served from it.
            assert fit.predict(n) == expected
            assert fit.predict(n) == expected
            assert type(fit.predict(n)) is float

    def test_int_and_float_sizes_share_one_slot(self):
        fit = _fit("quadratic")
        first = fit.predict(3)
        assert fit.predict(3.0) == first
        assert len(fit._memo) == 1

    def test_memo_is_not_part_of_equality_or_repr(self):
        warm, cold = _fit("step_affine", 4), _fit("step_affine", 4)
        for n in (1, 5, 9):
            warm.predict(n)
        assert warm._memo and not cold._memo
        assert warm == cold
        assert repr(warm) == repr(cold)
        assert "_memo" not in repr(warm)

    def test_persist_round_trip_unchanged(self):
        models = MacroModelSet("memo")
        models.add(MacroModel(routine="mpn_add_n",
                              fit=_fit("chunk_affine", 4)))
        models.add(MacroModel(routine="mpn_mul_1", fit=_fit("quadratic")))
        before = modelset_to_dict(models)
        for n in (1, 4, 8, 9):
            models.predict("mpn_add_n", n)
            models.predict("mpn_mul_1", n)
        assert modelset_to_dict(models) == before
        restored = modelset_from_dict(before)
        for routine in models.routines():
            assert restored.get(routine).fit == models.get(routine).fit
            for n in (1, 4, 8, 9):
                assert restored.predict(routine, n) == \
                    models.predict(routine, n)


@pytest.fixture(scope="module")
def base_models():
    return characterize_platform(reps=1, sizes=(1, 2, 4, 8, 16),
                                 modmul_overhead=True)


@pytest.fixture(scope="module")
def ext_models():
    return characterize_platform(add_width=8, mac_width=4, reps=1,
                                 sizes=(1, 2, 4, 8, 16),
                                 modmul_overhead=True)


class TestCharacterization:
    def test_covers_the_mpn_leaves(self, base_models):
        for routine in ("mpn_add_n", "mpn_sub_n", "mpn_mul_1",
                        "mpn_addmul_1", "mpn_submul_1", "mpn_lshift",
                        "mpn_rshift", "mpn_divrem_qest", "sha1_compress"):
            assert routine in base_models, routine

    def test_base_addn_is_affine(self, base_models):
        model = base_models.get("mpn_add_n")
        assert model.form == "affine"
        assert model.fit.mean_abs_pct_error < 5.0

    def test_predictions_monotone_in_n(self, base_models):
        model = base_models.get("mpn_addmul_1")
        assert model.predict(32) > model.predict(16) > model.predict(4)

    def test_ext_faster_than_base(self, base_models, ext_models):
        for routine in ("mpn_add_n", "mpn_addmul_1"):
            assert ext_models.predict(routine, 16) < \
                base_models.predict(routine, 16)

    def test_alias_shares_fit(self, base_models):
        assert base_models.predict("mpn_rshift", 8) == \
            base_models.predict("mpn_lshift", 8)

    def test_unknown_routine_raises(self, base_models):
        with pytest.raises(KeyError):
            base_models.predict("mpn_frobnicate", 4)

    def test_modmul_overhead_model_present(self, base_models):
        assert "mont_redc" in base_models


class TestEstimator:
    def test_charges_traced_calls(self, base_models):
        est = estimate_cycles(base_models, lambda: Mpz(1 << 200) + Mpz(1))
        assert est.cycles > 0
        assert est.calls("mpn_add_n") >= 1

    def test_result_passthrough(self, base_models):
        est = estimate_cycles(base_models, lambda: 42)
        assert est.result == 42
        assert est.cycles == 0

    def test_unmodeled_counted_not_charged(self):
        models = MacroModelSet("empty")
        est = estimate_cycles(models, lambda: Mpz(10) * Mpz(20))
        assert est.cycles == 0
        assert sum(est.unmodeled.values()) >= 1

    def test_ledger_context_restores_tracer(self, base_models):
        from repro.mp.hooks import get_tracer
        with ledger(base_models):
            pass
        assert get_tracer() is None

    def test_breakdown_sums_to_total(self, base_models):
        eng = ModExpEngine(ModExpConfig(modmul="montgomery", window=2,
                                        crt="none"))
        est = estimate_cycles(base_models, eng.powm, 12345, 0x3039,
                              (1 << 128) + 51)
        assert est.cycles == pytest.approx(
            sum(c for _, c in est.breakdown.values()))


class TestAccuracyAgainstIss:
    """The Section 4.3 claim: estimates track ISS ground truth."""

    @pytest.mark.parametrize("bits,max_err_pct", [(128, 20), (256, 15)])
    def test_estimate_within_band(self, base_models, bits, max_err_pct):
        modulus = (1 << bits) + 0x169
        base, exp = 0xDEADBEEFCAFE12345, 0x1F3
        iss = ModExpKernel()
        got, iss_cycles, _ = iss.powm(base, exp, modulus)
        assert got == pow(base, exp, modulus)
        eng = ModExpEngine(ModExpConfig(modmul="montgomery", window=1,
                                        crt="none"))
        est = estimate_cycles(base_models, eng.powm, base, exp, modulus)
        err = abs(est.cycles - iss_cycles) / iss_cycles * 100
        assert err < max_err_pct

    def test_native_estimation_faster_than_iss(self, base_models):
        import time
        modulus = (1 << 256) + 0x169
        base, exp = 0xABCDEF123456789, 0xF731
        iss = ModExpKernel()
        t0 = time.perf_counter()
        iss.powm(base, exp, modulus)
        iss_wall = time.perf_counter() - t0
        eng = ModExpEngine(ModExpConfig(modmul="montgomery", window=1,
                                        crt="none"))
        est = estimate_cycles(base_models, eng.powm, base, exp, modulus)
        assert est.wall_seconds < iss_wall
