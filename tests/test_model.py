import math

import numpy as np
import pytest

from adexsim import (
    AdExParameters, NeuronState, NonFiniteState, NotLeakOverThreshold,
    StimulusProgram, adaptation_derivative, apply_spike_reset, lif_parameters,
    membrane_derivative, predicted_lot_isi, simulate, step,
)


def hw_lif(tau_m=20e-6, E_l=0.5, V_r=0.44, V_det=0.62, t_ref=0.0, C=2.47e-12):
    return lif_parameters(C=C, g_l=C / tau_m, E_l=E_l, V_r=V_r,
                          V_det=V_det, t_ref=t_ref)


class TestMembraneDerivative:
    def test_leak_fixed_point(self):
        p = hw_lif()
        assert membrane_derivative(NeuronState(p.E_l, 0.0), p, 0.0) == 0.0

    def test_exponent_zero_case(self):
        # V = V_T = E_l, exponent vanishes, leak vanishes
        p = AdExParameters(C=1e-12, g_l=50e-9, E_l=0.5, V_T=0.5, Delta_T=0.02,
                           tau_w=1.0, a=0.0, b=0.0, V_r=0.4, V_det=0.7)
        dv = membrane_derivative(NeuronState(0.5, 0.0), p, 0.0)
        assert dv == pytest.approx(p.g_l * p.Delta_T / p.C, rel=1e-12)

    def test_matches_hand_evaluated_rhs(self, tonic_params):
        # independent evaluation of the membrane equation, written out again
        p, V, w, I = tonic_params, -50e-3, 10e-12, 100e-12
        expected = (-p.g_l * (V - p.E_l)
                    + p.g_l * p.Delta_T * math.exp((V - p.V_T) / p.Delta_T)
                    - w + I) / p.C
        assert expected == pytest.approx(-0.45, rel=1e-12)  # frozen oracle value
        got = membrane_derivative(NeuronState(V, w), p, I)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_gated_during_refractory(self, tonic_params):
        from dataclasses import replace
        p = replace(tonic_params, exp_gated_in_ref=True)
        hot = NeuronState(p.V_T + 5 * p.Delta_T, 0.0, ref_remaining=0.0)
        cold = NeuronState(p.V_T + 5 * p.Delta_T, 0.0, ref_remaining=1e-3)
        assert membrane_derivative(hot, p, 0.0) > membrane_derivative(cold, p, 0.0)


class TestAdaptationDerivative:
    def test_double_fixed_point(self, tonic_params):
        assert adaptation_derivative(NeuronState(tonic_params.E_l, 0.0),
                                     tonic_params) == 0.0

    def test_pure_decay(self):
        p = AdExParameters(C=1e-12, g_l=0.0, E_l=0.5, V_T=0.5, Delta_T=1e-3,
                           tau_w=10e-6, a=0.0, b=0.0, V_r=0.4, V_det=0.7,
                           exp_enabled=False)
        w0 = 3e-9
        assert adaptation_derivative(NeuronState(0.55, w0), p) == \
            pytest.approx(-w0 / p.tau_w, rel=1e-12)

    def test_direct_arithmetic(self):
        # a = 4 nS, V - E_l = 10 mV, w = 0, tau_w = 144 ms -> 40 pA / 144 ms
        p = AdExParameters(C=1e-12, g_l=0.0, E_l=0.0, V_T=0.0, Delta_T=1e-3,
                           tau_w=144e-3, a=4e-9, b=0.0, V_r=0.0, V_det=1.0,
                           exp_enabled=False)
        got = adaptation_derivative(NeuronState(10e-3, 0.0), p)
        assert got == pytest.approx(40e-12 / 144e-3, rel=1e-12)


class TestSpikeReset:
    def test_definition(self):
        p = hw_lif(t_ref=2e-6)
        from dataclasses import replace
        p = replace(p, b=50e-12)
        st = apply_spike_reset(NeuronState(p.V_det, 0.0), p)
        assert st.V == p.V_r
        assert st.w == pytest.approx(50e-12)
        assert st.ref_remaining == p.t_ref

    def test_b_zero_keeps_w(self):
        p = hw_lif()
        st = apply_spike_reset(NeuronState(p.V_det, 7e-9), p)
        assert st.w == 7e-9

    def test_two_resets_accumulate(self):
        from dataclasses import replace
        p = replace(hw_lif(), b=2e-9)
        st = apply_spike_reset(NeuronState(p.V_det, 0.0), p)
        st = apply_spike_reset(NeuronState(p.V_det, st.w), p)
        assert st.w == pytest.approx(4e-9, rel=1e-12)


class TestStep:
    def test_stationary_at_rest_for_any_dt(self):
        p = hw_lif()
        for dt in (p.tau_m / 1000, p.tau_m / 100, p.tau_m / 10, p.tau_m, 5 * p.tau_m):
            st = NeuronState(p.E_l, 0.0)
            for _ in range(50):
                st, spiked = step(st, p, 0.0, dt)
                assert not spiked
            assert st.V == pytest.approx(p.E_l, abs=1e-15)
            assert st.w == 0.0

    def test_lif_isi_matches_closed_form(self):
        p = hw_lif(t_ref=0.0)
        I = (0.68 - p.E_l) * p.g_l
        dt = p.tau_m / 1000
        trace = simulate(p, StimulusProgram.constant(I), duration=60 * p.tau_m, dt=dt)
        # closed form written out independently of predicted_lot_isi
        v_inf = p.E_l + I / p.g_l
        expected = p.tau_m * math.log((v_inf - p.V_r) / (v_inf - p.V_det))
        isis = np.diff(trace.spikes)[1:]
        assert np.all(np.abs(isis - expected) / expected < 0.005)

    def test_refractory_holds_v_and_evolves_w(self):
        from dataclasses import replace
        p = replace(hw_lif(t_ref=5e-6), a=10e-9, b=1e-9, tau_w=20e-6)
        st = NeuronState(p.V_r, 2e-9, ref_remaining=5e-6)
        st2, spiked = step(st, p, 1e-6, 1e-6)
        assert not spiked
        assert st2.V == p.V_r
        assert st2.w != st.w
        assert st2.ref_remaining == pytest.approx(4e-6)

    def test_nonfinite_raises(self):
        p = hw_lif()
        with pytest.raises(NonFiniteState):
            step(NeuronState(p.E_l, 0.0), p, math.nan, 1e-8)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_runaway_negative_instability_raises(self):
        # a < -g_l drives V downward without a threshold to catch it
        p = AdExParameters(C=0.1e-12, g_l=10e-9, E_l=0.5, V_T=0.6, Delta_T=0.02,
                           tau_w=1e-6, a=-200e-9, b=0.0, V_r=0.4, V_det=0.9,
                           exp_enabled=False)
        with pytest.raises(NonFiniteState) as err:
            simulate(p, StimulusProgram.constant(-10e-6), duration=2e-3, dt=1e-7,
                     initial_state=None)
        assert err.value.time is not None

    def test_convergence_order_is_one(self, tonic_params):
        from dataclasses import replace
        p = replace(tonic_params, b=30e-12)
        stim = StimulusProgram.constant(500e-12)
        duration = 0.12

        def mean_isi(dt):
            tr = simulate(p, stim, duration=duration, dt=dt)
            return float(np.mean(np.diff(tr.spikes)))

        ref = mean_isi(p.tau_m / 12800)
        dts = [p.tau_m / f for f in (100, 200, 400, 800)]
        errs = [abs(mean_isi(dt) - ref) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_convergence_final_state_subthreshold(self, tonic_params):
        # halving dt changes the final (V, w) by O(dt): smooth trajectory
        # with the exponential and coupling terms active but no spikes
        stim = StimulusProgram.constant(150e-12)  # below rheobase
        duration = 0.08

        def final_state(dt):
            tr = simulate(tonic_params, stim, duration=duration, dt=dt)
            assert len(tr.spikes) == 0
            return np.array([tr.V[-1], tr.w[-1] / 1e-9])

        ref = final_state(tonic_params.tau_m / 12800)
        dts = [tonic_params.tau_m / f for f in (50, 100, 200, 400)]
        errs = [np.linalg.norm(final_state(dt) - ref) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3


class TestSimulate:
    def test_zero_inputs_flat(self):
        p = hw_lif()
        tr = simulate(p, StimulusProgram.constant(0.0), duration=50e-6, dt=1e-7)
        assert len(tr.spikes) == 0
        assert np.allclose(tr.V, p.E_l, atol=1e-15)
        assert np.all(tr.w == 0.0)

    def test_tonic_regular_after_first_interval(self, tonic_params):
        # long enough for the slow subthreshold-adaptation settling to be
        # a small fraction of the train
        stim = StimulusProgram.constant(500e-12)
        dt = tonic_params.tau_m / 500
        tr = simulate(tonic_params, stim, duration=1.0, dt=dt)
        isis = np.diff(tr.spikes)[1:]
        assert np.std(isis) / np.mean(isis) < 0.01
        # cross-check against a fine-step reference integration
        ref = simulate(tonic_params, stim, duration=1.0, dt=dt / 8)
        ref_isis = np.diff(ref.spikes)[1:]
        assert np.mean(isis) == pytest.approx(np.mean(ref_isis), rel=0.015)

    def test_leak_over_threshold_regular_spiking(self):
        # leak-over-threshold targets: regular spiking with narrow ISIs
        p = hw_lif(tau_m=50e-6)
        I = (0.70 - p.E_l) * p.g_l
        tr = simulate(p, StimulusProgram.constant(I), duration=2e-3, dt=1e-7)
        isis = np.diff(tr.spikes)[1:]
        assert len(isis) > 5
        assert np.std(isis) / np.mean(isis) < 0.01

    def test_deterministic_bitwise(self, tonic_params):
        stim = StimulusProgram.step(10e-3, 400e-12)
        a = simulate(tonic_params, stim, duration=0.1, dt=5e-5)
        b = simulate(tonic_params, stim, duration=0.1, dt=5e-5)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.spikes, b.spikes)

    def test_spikes_on_sample_boundaries(self, tonic_params):
        tr = simulate(tonic_params, StimulusProgram.constant(500e-12),
                      duration=0.2, dt=5e-5)
        assert len(tr.spikes) > 3
        assert np.all(np.diff(tr.spikes) > 0)
        k = tr.spikes / tr.dt
        assert np.allclose(k, np.round(k), atol=1e-6)

    def test_reset_contract(self, tonic_params):
        from dataclasses import replace
        p = replace(tonic_params, b=40e-12)
        tr = simulate(p, StimulusProgram.constant(500e-12), duration=0.2, dt=5e-5)
        for t in tr.spikes:
            k = int(round(t / tr.dt))
            assert tr.V[k] == p.V_r
            w_pre_decayed = tr.w[k - 1] * math.exp(-tr.dt / p.tau_w) \
                + p.a * (tr.V[k - 1] - p.E_l) * (1 - math.exp(-tr.dt / p.tau_w))
            assert tr.w[k] - w_pre_decayed == pytest.approx(p.b, rel=1e-9)


def _stepwise(p, stimulus, n_steps, dt, synaptic_inputs=(), state=None):
    """V, w and spikes from a loop of public `step` calls, the oracle of
    `simulate`; synaptic inputs go through the public synapse functions."""
    from adexsim.synapse import synaptic_current, trace_step, weights_per_boundary
    currents = stimulus.per_step_currents(n_steps, dt)
    state = state or NeuronState(p.E_l, 0.0, 0.0)
    syn = []
    for cfg, train in synaptic_inputs:
        s0, arrivals = weights_per_boundary(train, n_steps, dt)
        syn.append([cfg, float(s0), arrivals])
    V, w, spikes = [state.V], [state.w], []
    for k in range(n_steps):
        I = currents[k]
        for entry in syn:
            I += synaptic_current(entry[1], entry[0], state.V)
        try:
            state, spiked = step(state, p, I, dt)
        except NonFiniteState as err:
            err.step = k
            raise
        if spiked:
            spikes.append((k + 1) * dt)
        for entry in syn:
            entry[1] = trace_step(entry[1], entry[0].tau_syn, dt, entry[2][k])
        V.append(state.V)
        w.append(state.w)
    return np.array(V), np.array(w), np.array(spikes)


def _assert_bitwise(trace, oracle):
    V, w, spikes = oracle
    assert trace.V.tobytes() == V.tobytes()
    assert trace.w.tobytes() == w.tobytes()
    assert trace.spikes.tobytes() == spikes.tobytes()


class TestSimulateEqualsStepLoop:
    """`simulate` hoists the per-run constants out of its loop; it must
    still give the bits of repeated `step` calls."""

    N_STEPS = 5000

    def test_shipped_pattern_sets(self):
        from adexsim import load_patterns
        total_spikes = 0
        for name, pattern in load_patterns().items():
            p = pattern.params
            dt = p.tau_m / 800
            stim = StimulusProgram.step(pattern.onset, pattern.current,
                                        pattern.onset + pattern.duration)
            oracle = _stepwise(p, stim, self.N_STEPS, dt)
            trace = simulate(p, stim, duration=self.N_STEPS * dt, dt=dt)
            _assert_bitwise(trace, oracle)
            total_spikes += len(oracle[2])
        assert total_spikes >= 20

    def test_fractional_release_gated_exponential(self, tonic_params):
        from dataclasses import replace
        dt = tonic_params.tau_m / 500
        # t_ref = 3.4 steps: every release falls inside a step
        p = replace(tonic_params, t_ref=3.4 * dt, b=40e-12, exp_gated_in_ref=True)
        stim = StimulusProgram.step(100 * dt, 500e-12, 3000 * dt)
        oracle = _stepwise(p, stim, 4000, dt)
        assert len(oracle[2]) >= 5
        _assert_bitwise(simulate(p, stim, duration=4000 * dt, dt=dt), oracle)

    def test_synaptic_inputs(self, tonic_params):
        from adexsim.synapse import SynapseConfig, WeightedSpikeTrain
        dt = tonic_params.tau_m / 500
        inputs = [
            (SynapseConfig("cuba", tau_syn=5e-3, I_hat=300e-12),
             WeightedSpikeTrain(((0.0, 0.5),) + tuple((i * 7e-3, 1.0) for i in range(1, 40)))),
            (SynapseConfig("coba", tau_syn=8e-3, g_hat=2e-9, E_syn=-80e-3,
                           sign="inhibitory"),
             WeightedSpikeTrain.regular(30e-3, 23e-3, 10, 0.7)),
        ]
        stim = StimulusProgram.constant(350e-12)
        oracle = _stepwise(tonic_params, stim, 3000, dt, inputs)
        assert len(oracle[2]) >= 3
        trace = simulate(tonic_params, stim, inputs, duration=3000 * dt, dt=dt)
        _assert_bitwise(trace, oracle)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_state_time(self):
        # the runaway of test_runaway_negative_instability_raises
        p = AdExParameters(C=0.1e-12, g_l=10e-9, E_l=0.5, V_T=0.6, Delta_T=0.02,
                           tau_w=1e-6, a=-200e-9, b=0.0, V_r=0.4, V_det=0.9,
                           exp_enabled=False)
        stim, dt = StimulusProgram.constant(-10e-6), 1e-7
        with pytest.raises(NonFiniteState) as oracle:
            _stepwise(p, stim, 20000, dt)
        with pytest.raises(NonFiniteState) as err:
            simulate(p, stim, duration=20000 * dt, dt=dt)
        assert err.value.time == (oracle.value.step + 1) * dt


class TestPredictedLotIsi:
    def test_strong_drive_limit_is_t_ref(self):
        p = hw_lif(t_ref=3e-6)
        isi = predicted_lot_isi(p, 1.0)  # enormous current
        assert isi == pytest.approx(p.t_ref, rel=1e-4)

    def test_degenerate_reset_equals_detection(self):
        p = hw_lif(V_r=0.62, V_det=0.62, t_ref=2e-6)
        assert predicted_lot_isi(p, (0.7 - 0.5) * p.g_l) == pytest.approx(2e-6)

    def test_arithmetic_case(self):
        # tau_m = 10 us, V_r = 0.4, V_det = 0.8, V_inf = 1.0, t_ref = 0
        C = 1e-12
        p = lif_parameters(C=C, g_l=C / 10e-6, E_l=0.0, V_r=0.4, V_det=0.8)
        isi = predicted_lot_isi(p, 1.0 * p.g_l)
        assert isi == pytest.approx(10e-6 * math.log(3.0), rel=1e-12)

    def test_below_threshold_raises(self):
        p = hw_lif()
        with pytest.raises(NotLeakOverThreshold):
            predicted_lot_isi(p, (p.V_det - p.E_l) * p.g_l * 0.9)

    def test_requires_lif_reduction(self, tonic_params):
        with pytest.raises(ValueError):
            predicted_lot_isi(tonic_params, 1e-9)


class TestLotProperties:
    def test_lif_oracle_and_monotonicity(self, rng):
        # random leak-over-threshold configurations at dt = tau_m / 500
        for _ in range(12):
            tau_m = float(10 ** rng.uniform(-5.2, -3.5))
            C = 2.47e-12
            e_l = rng.uniform(0.3, 0.6)
            v_det = e_l + rng.uniform(0.1, 0.2)
            v_r = e_l - rng.uniform(0.0, 0.1)
            t_ref = float(rng.uniform(0, 2) * tau_m / 10)
            p = lif_parameters(C=C, g_l=C / tau_m, E_l=e_l, V_r=v_r,
                               V_det=v_det, t_ref=t_ref)
            margin = rng.uniform(1.35, 3.0)
            I = (v_det - e_l) * margin * p.g_l
            predicted = predicted_lot_isi(p, I)
            tr = simulate(p, StimulusProgram.constant(I),
                          duration=8 * predicted + 5 * tau_m, dt=tau_m / 500)
            isis = np.diff(tr.spikes)[1:]
            assert len(isis) >= 3
            measured = float(np.median(isis))
            assert abs(measured - predicted) / predicted < 0.01
            # increasing the current strictly decreases the ISI
            tr2 = simulate(p, StimulusProgram.constant(I * 1.2),
                           duration=8 * predicted + 5 * tau_m, dt=tau_m / 500)
            assert np.median(np.diff(tr2.spikes)[1:]) < measured


class TestStimulusProgram:
    def test_validation(self):
        with pytest.raises(ValueError):
            StimulusProgram(((1e-6, 0.0),))  # must start at 0
        with pytest.raises(ValueError):
            StimulusProgram(((0.0, 0.0), (0.0, 1e-9)))  # strictly increasing

    def test_lookup(self):
        s = StimulusProgram(((0.0, 1.0), (1e-6, 2.0), (3e-6, 0.5)))
        assert s.current_at(0.0) == 1.0
        assert s.current_at(1e-6) == 2.0
        assert s.current_at(2.9e-6) == 2.0
        assert s.current_at(5.0) == 0.5
        per = s.per_step_currents(4, 1e-6)
        assert per.tolist() == [1.0, 2.0, 2.0, 0.5]
