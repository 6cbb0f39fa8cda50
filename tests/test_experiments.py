import math
from dataclasses import replace

import numpy as np
import pytest

from adexsim import InvalidConfig, StimulusProgram, simulate, simulate_circuit
from adexsim.calibrate import CalibrationTarget, calibrate_population
from adexsim.experiments import (
    ADAPTATION, DELAYED_ACCELERATING, DELAYED_REGULAR_BURSTING,
    FIRING_PATTERN_LABELS, INITIAL_BURST, REGULAR_BURSTING, TONIC_SPIKING,
    TRANSIENT_SPIKING, UNCLASSIFIED, LotProtocol, PspProtocol,
    classify_firing_pattern, phase_plane, run_exponential_sweep,
    run_firing_patterns, run_leak_over_threshold, run_psp_experiment,
)
from adexsim.mismatch import MismatchModel, Population, default_mismatch_model, sample_population
from adexsim.model import lif_parameters, predicted_lot_isi
from adexsim.patterns import load_patterns


def train(isis, onset=1.0, latency=0.1):
    """Spike train from a list of interspike intervals."""
    times = [onset + latency]
    for isi in isis:
        times.append(times[-1] + isi)
    return np.array(times)


class TestClassifier:
    WINDOW = 10.0

    def classify(self, spikes, onset=1.0):
        return classify_firing_pattern(spikes, onset, self.WINDOW)

    def test_no_spikes_unclassified(self):
        assert self.classify(np.array([])) == UNCLASSIFIED

    def test_constant_isis_tonic(self):
        assert self.classify(train([0.5] * 18)) == TONIC_SPIKING

    def test_increasing_isis_adaptation(self):
        isis = 0.2 + 0.5 * (1 - np.exp(-np.arange(18) / 4.0))
        assert self.classify(train(list(isis))) == ADAPTATION

    def test_decreasing_with_delay_accelerating(self):
        isis = 0.8 - 0.45 * (1 - np.exp(-np.arange(16) / 5.0))
        assert self.classify(train(list(isis), latency=2.5)) == DELAYED_ACCELERATING

    def test_alternating_one_to_eight_regular_bursting(self):
        # synthetic train satisfying the bimodal split: groups of short ISIs
        # (ratio 1:8) separated by long ones, spanning the whole window
        isis = ([0.1, 0.1, 0.8] * 9)[:-1]
        assert self.classify(train(isis)) == REGULAR_BURSTING

    def test_delayed_regular_bursting(self):
        isis = ([0.1, 0.1, 0.8] * 9)[:-1]
        assert self.classify(train(isis, latency=1.2)) == DELAYED_REGULAR_BURSTING

    def test_initial_burst(self):
        isis = [0.08, 0.1] + [0.75] * 12
        assert self.classify(train(isis)) == INITIAL_BURST

    def test_transient(self):
        assert self.classify(train([0.1, 0.12, 0.15])) == TRANSIENT_SPIKING

    def test_single_early_spike_transient(self):
        assert self.classify(np.array([1.4])) == TRANSIENT_SPIKING

    def test_late_slow_burst_is_not_transient(self):
        # last burst before 80% of the window, but silence shorter than
        # 2.5 inter-burst intervals: still a bursting train
        isis = [0.1, 0.1, 2.4, 0.1, 0.1, 2.4, 0.1, 0.1]
        spikes = train(isis)  # last spike at ~6.5 of 11
        assert self.classify(spikes) == REGULAR_BURSTING

    def test_every_train_gets_exactly_one_label(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 25))
            spikes = np.sort(rng.uniform(1.0, 11.0, size=n))
            label = self.classify(spikes)
            assert label in FIRING_PATTERN_LABELS

    def test_time_rescaling_invariance(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 25))
            spikes = np.sort(rng.uniform(1.0, 11.0, size=n))
            base = classify_firing_pattern(spikes, 1.0, self.WINDOW)
            for scale in (7.3, 1e-4, 250.0):
                scaled = classify_firing_pattern(spikes * scale, 1.0 * scale,
                                                 self.WINDOW * scale)
                assert scaled == base

    def test_deterministic(self):
        isis = [0.1, 0.1, 0.8] * 3
        a = self.classify(train(isis))
        b = self.classify(train(isis))
        assert a == b


class TestPhasePlane:
    def test_stationary_trace_single_point(self):
        from adexsim import lif_parameters
        p = lif_parameters(C=2.47e-12, g_l=0.1e-6, E_l=0.5, V_r=0.4, V_det=0.9)
        tr = simulate(p, StimulusProgram.constant(0.0), duration=20e-6, dt=0.1e-6)
        poly = phase_plane(tr)
        assert poly.shape[1] == 2
        assert np.ptp(poly[:, 0]) < 1e-12
        assert np.ptp(poly[:, 1]) < 1e-15

    def test_tonic_limit_cycle_closes(self, tonic_params):
        from dataclasses import replace
        p = replace(tonic_params, b=40e-12)
        tr = simulate(p, StimulusProgram.constant(500e-12), duration=1.0,
                      dt=p.tau_m / 500)
        poly = phase_plane(tr)
        k1 = int(round(tr.spikes[-3] / tr.dt))
        k2 = int(round(tr.spikes[-2] / tr.dt))
        extent = np.array([np.ptp(poly[k1:, 0]), np.ptp(poly[k1:, 1])])
        gap = np.abs(poly[k2] - poly[k1]) / extent
        assert np.all(gap < 0.01)

    def test_circuit_reconstruction_matches_ideal(self, hw_circuit, hw_target):
        stim = StimulusProgram.step(20e-6, 2.0 * hw_target.g_l * 0.22)
        dt = 0.04e-6
        tr_c = simulate_circuit(hw_circuit, stim, duration=300e-6, dt=dt)
        tr_i = simulate(hw_target, stim, duration=300e-6, dt=dt)
        w_c = phase_plane(tr_c)[:, 1]
        w_i = phase_plane(tr_i)[:, 1]
        # exclude the increment-pulse windows: the ideal jump is
        # instantaneous while the circuit spreads it over pulse_width
        mask = np.ones(len(w_i), dtype=bool)
        width = int(math.ceil(hw_circuit.adaptation.pulse_width / dt)) + 3
        for t in np.union1d(tr_i.spikes, tr_c.spikes):
            k = int(round(t / dt))
            mask[max(k - 1, 0):k + width] = False
        scale = np.max(np.abs(w_i))
        assert np.max(np.abs(w_c[mask] - w_i[mask])) < 0.05 * scale


class TestReports:
    def test_population_statistics_recomputable(self, hw_circuit):
        pop = sample_population(hw_circuit, MismatchModel(seed=0), 3)
        report = run_exponential_sweep(hw_circuit)
        assert report.population == report.recompute_population()

    def test_exponential_sweep_passes_on_nominal(self, hw_circuit):
        report = run_exponential_sweep(hw_circuit)
        assert report.passed
        for row in report.per_neuron:
            assert row["slope_rel_err"] <= 0.03
            assert row["decades"] >= 3.0

    def test_exponential_sweep_multiple_slopes(self, hw_circuit):
        report = run_exponential_sweep(
            hw_circuit, slopes=(0.015, 0.02, 0.04))
        assert report.passed
        settings = {row["slope_setting"] for row in report.per_neuron}
        assert len(settings) == 3


class TestLeakOverThreshold:
    def test_mismatch_free_population_matches_prediction(self, hw_circuit):
        pop = sample_population(hw_circuit, MismatchModel(seed=0), 3)
        report = run_leak_over_threshold(pop, (20e-6,),
                                         LotProtocol(n_isis=8, tolerance=0.02))
        assert report.passed
        devs = [row["abs_rel_dev"] for row in report.per_neuron]
        assert np.nanmedian(devs) < 0.01

    def test_uniform_constants_keep_the_nominal_prediction(self, hw_circuit):
        # default mismatch leaves C_mem, E_l, V_r, V_det and t_ref uniform:
        # every row holds the nominal neuron's prediction, bit for bit
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=2), 6)
        tau = 20e-6
        report = run_leak_over_threshold(pop, (tau,), LotProtocol(n_isis=3))
        g_l = hw_circuit.C_mem / tau
        i_cmd = 1.6 * (hw_circuit.V_det - hw_circuit.E_l) * g_l
        lif = lif_parameters(C=hw_circuit.C_mem, g_l=g_l, E_l=hw_circuit.E_l,
                             V_r=hw_circuit.V_r, V_det=hw_circuit.V_det,
                             t_ref=hw_circuit.t_ref)
        assert {row["isi_predicted"] for row in report.per_neuron} == {
            predicted_lot_isi(lif, i_cmd)}

    def test_neuron_below_its_own_threshold_has_no_prediction(self, hw_circuit):
        # the median V_det sets V_inf = 0.692 V, below the third neuron's
        # V_det: it has no prediction and a note, where the run used to
        # raise NotLeakOverThreshold for the whole population
        lif = replace(hw_circuit, V_det=0.62, V_r=0.44)
        pop = Population([lif, lif, replace(lif, V_det=0.9)])
        report = run_leak_over_threshold(pop, (20e-6,), LotProtocol(n_isis=3))
        rows = report.per_neuron
        assert math.isnan(rows[2]["isi_predicted"]) and math.isnan(rows[2]["rel_dev"])
        assert math.isnan(rows[2]["isi_measured"])
        assert rows[0]["isi_predicted"] == rows[1]["isi_predicted"]
        assert report.notes[0] == ("tau_m=2e-05: neuron 2: equilibrium 0.692 V does not "
                                   "exceed the detection threshold 0.9 V")
        assert report.passed

    @pytest.mark.parametrize("v_det", [0.44, 0.3])
    def test_reset_at_or_above_its_own_threshold_has_no_prediction(self, hw_circuit, v_det):
        # with V_det below V_r = 0.44 V the closed form read a negative ISI;
        # at V_r it reads t_ref, whatever the drive
        lif = replace(hw_circuit, V_det=0.62, V_r=0.44)
        pop = Population([lif, lif, replace(lif, V_det=v_det)])
        report = run_leak_over_threshold(pop, (20e-6,), LotProtocol(n_isis=3))
        rows = report.per_neuron
        assert math.isnan(rows[2]["isi_predicted"]) and math.isnan(rows[2]["rel_dev"])
        assert rows[0]["isi_predicted"] == rows[1]["isi_predicted"] > 0
        assert report.notes[0] == (f"tau_m=2e-05: neuron 2: reset 0.44 V is not below the "
                                   f"detection threshold {v_det:g} V")

    def test_mismatched_population_calibrates_to_pass(self, hw_circuit):
        pop = sample_population(hw_circuit,
                                default_mismatch_model(hw_circuit, seed=2), 12)
        report = run_leak_over_threshold(pop, (10e-6, 80e-6))
        assert report.passed

    def test_uncalibrated_spread_exceeds_calibrated(self, hw_circuit):
        # control condition: run the same stimulus rule without calibrating
        from adexsim.measure import _disable
        from adexsim.model import StimulusProgram, lif_parameters, predicted_lot_isi
        from adexsim.circuit import simulate_population
        pop = sample_population(hw_circuit,
                                default_mismatch_model(hw_circuit, seed=8), 16)
        tau = 20e-6
        report = run_leak_over_threshold(pop, (tau,), LotProtocol(n_isis=8))
        calibrated_devs = np.array([r["abs_rel_dev"] for r in report.per_neuron])

        nominal = pop.neurons[0]
        g_l = nominal.C_mem / tau
        i_cmd = 1.6 * (nominal.V_det - nominal.E_l) * g_l
        lif = lif_parameters(C=nominal.C_mem, g_l=g_l, E_l=nominal.E_l,
                             V_r=nominal.V_r, V_det=nominal.V_det,
                             t_ref=nominal.t_ref)
        predicted = predicted_lot_isi(lif, i_cmd)
        raw = _disable(pop.stacked(), adaptation=True, exponential=True, synin=True)
        run = simulate_population(raw, 16, StimulusProgram.constant(i_cmd),
                                  duration=10 * predicted, dt=tau / 500)
        uncal = []
        for spikes in run.spikes:
            isis = np.diff(spikes)[1:]
            uncal.append(abs(np.median(isis) - predicted) / predicted
                         if len(isis) else np.nan)
        uncal = np.array(uncal)
        assert np.nanmedian(uncal) > 5 * np.nanmedian(calibrated_devs)
        assert np.nanstd(uncal) > np.nanstd(calibrated_devs)


class TestPsp:
    @pytest.mark.parametrize("line", ["exc", "inh"])
    def test_disabled_line_raises(self, hw_circuit, line):
        syn = getattr(hw_circuit, f"syn_{line}")
        cfg = replace(hw_circuit, **{f"syn_{line}": replace(syn, enabled=False)})
        pop = sample_population(cfg, MismatchModel(seed=0), 2)
        with pytest.raises(InvalidConfig, match=f"'{line}' is disabled"):
            run_psp_experiment(pop, PspProtocol(line=line), n_events=1)

    def test_zero_weight_zero_amplitude(self, hw_circuit):
        pop = sample_population(hw_circuit, MismatchModel(seed=0), 2)
        report = run_psp_experiment(pop, PspProtocol(weight=0.0), n_events=2)
        for row in report.per_neuron:
            assert row["amplitude"] == pytest.approx(0.0, abs=1e-12)

    def test_calibration_reduces_spread(self, hw_circuit):
        mm = default_mismatch_model(hw_circuit, seed=6)
        pop = sample_population(hw_circuit, mm, 12)
        before = run_psp_experiment(pop, PspProtocol(weight=0.5), n_events=2)
        target = CalibrationTarget(
            tau_syn_exc=hw_circuit.syn_exc.tau_syn, offset_exc=True,
            psp_amplitude_exc=0.03)
        cal = calibrate_population(pop, target)
        after = run_psp_experiment(cal.population, PspProtocol(weight=0.5),
                                   n_events=2)

        def spread(report, key):
            vals = np.array([r[key] for r in report.per_neuron])
            return np.std(vals), np.mean(vals)

        std_base_before, _ = spread(before, "baseline_shift")
        std_base_after, _ = spread(after, "baseline_shift")
        assert std_base_after < std_base_before
        std_amp_after, mean_amp_after = spread(after, "amplitude")
        assert std_amp_after / abs(mean_amp_after) <= 0.1
        std_amp_before, mean_amp_before = spread(before, "amplitude")
        assert std_amp_after / abs(mean_amp_after) < \
            std_amp_before / abs(mean_amp_before)


class TestFiringPatternsSmall:
    def test_ideal_labels_match(self):
        report = run_firing_patterns(model="ideal")
        assert report.passed
        assert {row["pattern"] for row in report.per_neuron} == set(
            load_patterns())

    def test_all_zero_stimulus_unclassified(self, tonic_params):
        tr = simulate(tonic_params, StimulusProgram.constant(0.0),
                      duration=0.2, dt=1e-4)
        assert classify_firing_pattern(tr.spikes, 0.02, 0.15) == UNCLASSIFIED

    def test_circuit_population_small(self):
        patterns = load_patterns()
        subset = {k: patterns[k] for k in ("tonic_spiking", "regular_bursting")}
        report = run_firing_patterns(subset, model="circuit",
                                     population_size=8, seed=5,
                                     record_first=True)
        assert report.passed
        assert set(report.traces) == set(subset)
        # recorded circuit trace supports phase-plane reconstruction
        poly = phase_plane(report.traces["tonic_spiking"])
        assert poly.shape[1] == 2
