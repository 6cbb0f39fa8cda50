import tracemalloc

import numpy as np
import pytest

from adexsim import ValidationError, calibrate, circuit_for_adex, default_circuit_config
from adexsim.calibrate import (
    CalibrationTarget, _entry_a, _entry_delta_t, _entry_offset, _entry_psp,
    _entry_tau_m, _entry_tau_syn, _entry_tau_w, _spread, _tune_population,
    calibrate_population,
)
from adexsim.circuit import derive_effective_adex, get_bias
from adexsim.experiments import CALIBRATION_TOL
from adexsim.measure import (
    _release_rows, measure_delta_t, measure_psp_amplitude, measure_resting_offset,
    measure_subthreshold_a, measure_tau_m, measure_tau_syn, measure_tau_w,
)
from adexsim.mismatch import (
    MismatchModel, Population, default_mismatch_model, sample_population,
)
from adexsim.patterns import load_patterns


@pytest.fixture
def small_pop(hw_circuit):
    mm = default_mismatch_model(hw_circuit, seed=9)
    return sample_population(hw_circuit, mm, 24)


@pytest.fixture
def one_neuron(hw_circuit):
    """hw_circuit as a population of one."""
    return Population([hw_circuit]).stacked()


class TestTuneOneNeuron:
    """The outcomes of `_tune_population` for a population of one."""

    def test_already_satisfied_converges_immediately(self, hw_circuit, one_neuron):
        eff = derive_effective_adex(hw_circuit)
        bias0 = get_bias(hw_circuit, "leak_ota.I_bias")
        _, oc, errors = _tune_population(
            one_neuron, "leak_ota.I_bias", measure_tau_m, eff.tau_m,
            bounds=(bias0 / 8, bias0 * 8), tol=0.02)
        assert errors == [None] and oc.converged[0]
        assert abs(oc.residuals[0]) <= 0.02
        assert oc.biases[0] == pytest.approx(bias0, rel=0.05)

    def test_reaches_shifted_target(self, hw_circuit, one_neuron):
        eff = derive_effective_adex(hw_circuit)
        bias0 = get_bias(hw_circuit, "leak_ota.I_bias")
        cfg, oc, errors = _tune_population(
            one_neuron, "leak_ota.I_bias", measure_tau_m, 2.5 * eff.tau_m,
            bounds=(bias0 / 8, bias0 * 8), tol=0.02)
        assert errors == [None] and oc.converged[0]
        assert abs(oc.residuals[0]) <= 0.02
        assert measure_tau_m(cfg)[0] == pytest.approx(2.5 * eff.tau_m, rel=0.025)

    def test_unreachable_target_not_converged_with_boundary(self, hw_circuit, one_neuron):
        bias0 = get_bias(hw_circuit, "leak_ota.I_bias")
        _, oc, errors = _tune_population(
            one_neuron, "leak_ota.I_bias", measure_tau_m, 1e-2,
            bounds=(bias0 / 4, bias0 * 4))
        assert not oc.converged[0]
        assert "outside reachable" in errors[0]
        # the boundary bias and its residual are carried
        assert oc.biases[0] in (bias0 / 4, bias0 * 4)
        assert np.isfinite(oc.residuals[0])

    def test_non_monotone_map_rejected(self, one_neuron):
        # synthetic map peaking between the probe points: must be refused
        def humped(cfg):
            b = float(np.atleast_1d(np.asarray(
                get_bias(cfg, "leak_ota.I_bias"), dtype=float))[0])
            return np.array([-(b - 2.5e-7) ** 2])

        _, oc, errors = _tune_population(
            one_neuron, "leak_ota.I_bias", humped, -1e-15, bounds=(1e-8, 1e-6))
        assert not oc.converged[0]
        assert errors[0].startswith("bias->parameter map not monotone over ")


class TestCalibrationTarget:
    def test_in_range_targets_accepted(self):
        CalibrationTarget(tau_m=20e-6, tau_w=100e-6, delta_t=0.02)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            CalibrationTarget(tau_m=5e-3)

    def test_out_of_range_allowed_when_flagged(self):
        t = CalibrationTarget(tau_m=5e-3, allow_out_of_range=True)
        assert t.range_violations()


class TestZeroTargets:
    @pytest.mark.parametrize("name", ["tau_m", "tau_w", "delta_t", "tau_syn_exc",
                                      "tau_syn_inh"])
    @pytest.mark.parametrize("value", [0.0, -20e-6])
    def test_non_positive_time_constant_or_slope_rejected(self, name, value):
        # with allow_out_of_range a zero tau_m used to end in a ZeroDivisionError
        with pytest.raises(ValidationError, match=rf"^{name} target must be > 0, got "):
            CalibrationTarget(**{name: value}, allow_out_of_range=True)

    @pytest.mark.parametrize("name, path", [("a", "adaptation.ota_a.I_bias"),
                                            ("b", "adaptation.pulse_amplitude")])
    def test_zero_a_or_b_set_exactly(self, small_pop, name, path):
        # a = 0 used to end in a ZeroDivisionError, and b = 0 was skipped
        # without an outcome, leaving every neuron's b as sampled
        assert np.all(np.asarray(get_bias(small_pop.stacked(), path)) > 0)
        res = calibrate_population(small_pop, CalibrationTarget(**{name: 0.0}))
        ad = res.population.stacked().adaptation
        assert np.all(np.asarray(ad.a_effective if name == "a" else ad.b_effective) == 0.0)
        if name == "a":
            assert np.all(ad.sign == 1)
        oc = res.outcomes[name]
        assert (oc.bias_path, oc.evaluations, res.failures) == (path, 0, [])
        assert np.all(oc.converged) and np.all(oc.biases == 0.0)
        assert np.array_equal(oc.biases, get_bias(res.population.stacked(), path))


class TestCalibratePopulation:
    def test_zero_mismatch_residuals_tiny(self, hw_circuit):
        pop = sample_population(hw_circuit, MismatchModel(seed=1), 4)
        eff = derive_effective_adex(hw_circuit)
        res = calibrate_population(pop, CalibrationTarget(tau_m=eff.tau_m), tol=0.02)
        assert res.all_converged
        assert np.all(np.abs(res.outcomes["tau_m"].residuals) < 0.02)

    def test_spread_reduction(self, small_pop, hw_circuit):
        res = calibrate_population(small_pop, CalibrationTarget(tau_m=20e-6), tol=0.02)
        oc = res.outcomes["tau_m"]
        assert oc.pre_spread > 0.1          # uncalibrated ~ sigma_rel
        assert oc.post_spread < 0.05
        assert res.all_converged

    def test_never_worsens_converged_neurons(self, small_pop):
        res = calibrate_population(small_pop, CalibrationTarget(tau_m=20e-6), tol=0.02)
        oc = res.outcomes["tau_m"]
        taus_pre = measure_tau_m(small_pop.stacked())
        taus_post = measure_tau_m(res.population.stacked())
        pre_res = np.abs(taus_pre - 20e-6) / 20e-6
        post_res = np.abs(taus_post - 20e-6) / 20e-6
        # margin covers protocol-sizing coupling between population members
        # (shared fit step width), orders of magnitude below the tolerance
        assert np.all(post_res[oc.converged] <= pre_res[oc.converged] + 1e-6)

    def test_reproducible(self, hw_circuit):
        mm = default_mismatch_model(hw_circuit, seed=13)
        target = CalibrationTarget(tau_m=30e-6, tau_w=120e-6)
        outs = []
        for _ in range(2):
            pop = sample_population(hw_circuit, mm, 8)
            res = calibrate_population(pop, target)
            outs.append(res)
        for name in ("tau_m", "tau_w"):
            assert np.array_equal(outs[0].outcomes[name].biases,
                                  outs[1].outcomes[name].biases)
            assert np.array_equal(outs[0].outcomes[name].residuals,
                                  outs[1].outcomes[name].residuals)

    def test_unreachable_targets_flagged_not_silently_clamped(self, hw_circuit):
        pop = sample_population(hw_circuit, MismatchModel(seed=1), 3)
        stacked = pop.stacked()
        bias0 = float(np.median(np.atleast_1d(np.asarray(
            get_bias(stacked, "leak_ota.I_bias")))))
        # bounds only span a factor of two, so a 45x slower target is out
        # of reach: every neuron must be reported, none converged
        _, oc, errors = _tune_population(
            stacked, "leak_ota.I_bias", measure_tau_m, 900e-6,
            bounds=(bias0 / 2, bias0 * 2), tol=0.02)
        assert not np.any(oc.converged)
        assert all("outside reachable" in e for e in errors)
        # the boundary residual is carried, not hidden
        assert np.all(np.isfinite(oc.residuals))

    def test_offset_calibration_nulls_baseline(self, hw_circuit):
        from dataclasses import replace
        import adexsim
        from adexsim.measure import measure_resting_offset
        mm = MismatchModel(additive={"syn_exc.follower_offset": 5e-3}, seed=4)
        pop = sample_population(hw_circuit, mm, 6)
        pre = measure_resting_offset(pop.stacked())
        res = calibrate_population(pop, CalibrationTarget(offset_exc=True))
        post = measure_resting_offset(res.population.stacked())
        assert np.std(post) < np.std(pre)
        assert np.all(np.abs(post) <= 0.5e-3 + 1e-9)


class TestFailureCauses:
    def test_nan_probe_named_as_measurement_failure(self, hw_circuit, one_neuron):
        pop = sample_population(hw_circuit, MismatchModel(seed=1), 3)
        stacked = pop.stacked()
        bias0 = float(np.median(np.atleast_1d(np.asarray(
            get_bias(stacked, "leak_ota.I_bias")))))
        lo, hi = bias0 / 4, bias0 * 4

        def fails_at_low_bias(cfg, neuron):
            taus = np.array(measure_tau_m(cfg), dtype=float, ndmin=1)
            biases = np.broadcast_to(np.asarray(get_bias(cfg, "leak_ota.I_bias")),
                                     taus.shape)
            taus[neuron] = np.nan if biases[neuron] == lo else taus[neuron]
            return taus

        eff = derive_effective_adex(hw_circuit)
        _, oc, errors = _tune_population(
            stacked, "leak_ota.I_bias", lambda c: fails_at_low_bias(c, 1),
            eff.tau_m, bounds=(lo, hi), tol=0.02)
        assert errors[1] == f"probe measurement failed at bias {lo:.4g}"
        assert not oc.converged[1]
        assert oc.converged[0] and oc.converged[2]
        _, oc, errors = _tune_population(
            one_neuron, "leak_ota.I_bias", lambda c: fails_at_low_bias(c, 0),
            eff.tau_m, bounds=(lo, hi))
        assert errors == [f"probe measurement failed at bias {lo:.4g}"] and not oc.converged[0]

    def test_v_t_spread_is_absolute_and_shrinks(self, small_pop, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        res = calibrate_population(small_pop, CalibrationTarget(v_t=eff.V_T))
        oc = res.outcomes["v_t"]
        # residuals in volts around zero: the spread is their plain std
        assert 1e-4 < oc.pre_spread < 0.05
        assert oc.post_spread < 0.2 * oc.pre_spread
        assert oc.post_spread == pytest.approx(float(np.std(oc.residuals)), rel=1e-9)


@pytest.fixture
def mixed_pop(hw_circuit):
    """Four mismatched neurons of the test circuit and three of the
    tonic_spiking nominal, stacked as one population."""
    pattern, _, _, _ = load_patterns()["tonic_spiking"].to_hardware()
    tonic = circuit_for_adex(pattern, default_circuit_config(E_l=pattern.E_l))
    neurons = [c for nominal, size in ((hw_circuit, 4), (tonic, 3))
               for c in sample_population(nominal, default_mismatch_model(nominal, seed=9),
                                          size).neurons]
    return Population(neurons).stacked()


# per tune entry: its runner, the measure function it calls (a name of
# adexsim.calibrate), the value the entry tunes as read from that
# function's output, and whether its target is a value (10% above the
# population median) or zero with an absolute tolerance
TUNE_ENTRIES = {
    "tau_m": (_entry_tau_m, "measure_tau_m", measure_tau_m, "value"),
    "delta_t": (_entry_delta_t, "measure_delta_t", measure_delta_t, "value"),
    "tau_w": (_entry_tau_w, "measure_tau_w", measure_tau_w, "value"),
    "a": (_entry_a, "measure_subthreshold_a", measure_subthreshold_a, "value"),
    "offset_exc": (_entry_offset("exc"), "measure_resting_offset",
                   lambda c: measure_resting_offset(c, "exc"), "zero"),
    "offset_inh": (_entry_offset("inh"), "measure_resting_offset",
                   lambda c: measure_resting_offset(c, "inh"), "zero"),
    "psp_amplitude_exc": (_entry_psp("exc"), "measure_psp_amplitude",
                          lambda c: measure_psp_amplitude(c, "exc"), "value"),
    "psp_amplitude_inh": (_entry_psp("inh"), "measure_psp_amplitude",
                          lambda c: -1.0 * measure_psp_amplitude(c, "inh"), "value"),
    "tau_syn_exc": (_entry_tau_syn("exc"), "measure_tau_syn",
                    lambda c: measure_tau_syn(c, "exc"), "value"),
    "tau_syn_inh": (_entry_tau_syn("inh"), "measure_tau_syn",
                    lambda c: measure_tau_syn(c, "inh"), "value"),
}


@pytest.mark.parametrize("name", list(TUNE_ENTRIES))
def test_tune_entry_keeps_the_values_it_measured(mixed_pop, monkeypatch, name):
    # a tune entry measures each bias once and reports the value measured
    # there, so measuring again at its chosen biases gives its residuals bit
    # for bit, and `evaluations` is the number of measure calls
    runner, fn_name, value, kind = TUNE_ENTRIES[name]
    target = 0.0 if kind == "zero" else 1.1 * float(np.median(value(mixed_pop)))
    calls = []
    measure = getattr(calibrate, fn_name)
    monkeypatch.setattr(calibrate, fn_name,
                        lambda *args: calls.append(args) or measure(*args))
    cfg, oc, _ = runner(mixed_pop, target, 0.015)
    assert oc.evaluations == len(calls) >= 4
    np.testing.assert_array_equal(get_bias(cfg, oc.bias_path), oc.biases)
    again = np.asarray(value(cfg), dtype=float)
    residuals = again - target if kind == "zero" else (again - target) / target
    np.testing.assert_array_equal(residuals, oc.residuals)
    assert oc.post_spread == _spread(again, absolute=kind == "zero")


def test_calibration_memory_does_not_grow_with_width():
    # 128 delayed_regular_bursting neurons, calibrated as run_firing_patterns
    # calibrates them: the release fits run in row blocks and measure_b
    # runs a few steps from the threshold state, so no record or temporary
    # spans the population times a full-length window (15.25 MiB before)
    hw, _, _, _ = load_patterns()["delayed_regular_bursting"].to_hardware()
    nominal = circuit_for_adex(hw, default_circuit_config(E_l=hw.E_l))
    pop = sample_population(nominal, default_mismatch_model(nominal, seed=1001), 128)
    target = CalibrationTarget(tau_m=hw.tau_m, stim_gain=True, delta_t=hw.Delta_T,
                               v_t=hw.V_T, tau_w=hw.tau_w, a=hw.a, b=hw.b,
                               allow_out_of_range=True)
    _release_rows.cache_clear()
    tracemalloc.start()
    try:
        calibrate_population(pop, target, tol=CALIBRATION_TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20
