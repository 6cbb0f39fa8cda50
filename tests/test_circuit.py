import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies

from adexsim import (
    AdExParameters, CircuitState, InvalidConfig, NonFiniteState, OtaModel,
    StimulusProgram, WeightedSpikeTrain, circuit_for_adex, coba_effective_bias,
    default_circuit_config, derive_effective_adex, exponential_current,
    lif_parameters, ota_output, simulate, simulate_circuit, simulate_population,
)
from adexsim.circuit import (
    MAX_MEMBRANE_CAPACITANCE, get_bias, quiescent_state, set_bias,
)
from adexsim.config import parse_config
from adexsim.measure import log_linear_fit
from adexsim.mismatch import Population, _take, default_mismatch_model, sample_population
from stepwise_reference import (
    adaptation_dynamics, circuit_step, node_forcings, run_from_state,
)


class TestOta:
    def test_odd_symmetry(self):
        ota = OtaModel(I_bias=50e-9, g_per_bias=0.5)
        assert ota_output(ota, 0.5, 0.5) == 0.0
        for dv in (0.01, 0.1, 0.4, 1.0):
            assert float(ota_output(ota, 0.5 + dv, 0.5)) == \
                pytest.approx(-float(ota_output(ota, 0.5 - dv, 0.5)), rel=1e-12)

    def test_small_signal_slope_matches_g(self):
        ota = OtaModel(I_bias=80e-9, g_per_bias=0.5)
        eps = 1e-6
        slope = float(ota_output(ota, eps, 0.0) - ota_output(ota, -eps, 0.0)) / (2 * eps)
        assert slope == pytest.approx(ota.g, rel=0.01)

    def test_doubling_bias_doubles_slope(self):
        eps = 1e-6
        slopes = []
        for i_bias in (40e-9, 80e-9):
            ota = OtaModel(I_bias=i_bias, g_per_bias=0.5)
            slopes.append(float(ota_output(ota, eps, 0.0)) / eps)
        assert slopes[1] == pytest.approx(2 * slopes[0], rel=0.01)

    def test_slope_linear_in_bias_over_decade(self):
        # slope vs bias stays proportional within 5% over one decade
        eps = 1e-6
        biases = np.geomspace(20e-9, 200e-9, 7)
        slopes = np.array([float(ota_output(OtaModel(I_bias=b, g_per_bias=0.5),
                                            eps, 0.0)) / eps for b in biases])
        ratio = slopes / biases
        assert np.ptp(ratio) / np.mean(ratio) < 0.05

    def test_bounded_and_monotone(self):
        # g = 25 nS saturating at 30 nA
        ota = OtaModel(I_bias=30e-9, g_per_bias=0.5 * 50 / 30)
        dv = np.linspace(-3.0, 3.0, 401)
        out = np.asarray(ota_output(ota, dv, 0.0))
        assert np.all(np.abs(out) <= ota.I_bias + 1e-18)
        assert np.all(np.diff(out) >= 0)

    def test_linear_within_linear_range(self):
        ota = OtaModel(I_bias=50e-9, g_per_bias=0.5)
        v = ota.linear_range
        out = float(ota_output(ota, v, 0.0))
        assert abs(out - ota.g * v) / (ota.g * v) <= 0.05 + 1e-9

    def test_zero_bias_dead(self):
        ota = OtaModel(I_bias=0.0, g_per_bias=0.5)
        assert float(ota_output(ota, 1.0, 0.0)) == 0.0


class TestAdaptationCircuit:
    def test_fixed_point(self, hw_circuit):
        ad = hw_circuit.adaptation
        state = CircuitState(V_m=ad.E_l_adapt, V_w=ad.V_ref)
        dv_w, i_w = adaptation_dynamics(state, ad)
        assert float(dv_w) == 0.0
        assert float(i_w) == 0.0

    def test_disabled_raises(self, hw_circuit):
        ad = replace(hw_circuit.adaptation, enabled=False)
        with pytest.raises(InvalidConfig):
            adaptation_dynamics(CircuitState(V_m=0.5, V_w=0.6), ad)

    def test_release_is_single_exponential_with_tau_w(self, hw_circuit):
        # clamp-and-release trajectory fitted against C_w / g_tau
        ad = hw_circuit.adaptation
        dt = ad.tau_w / 400
        v_w = ad.V_ref + 0.05
        lam = ad.g_tau / ad.C_w
        trace = [v_w]
        for _ in range(1600):
            dv_w, _ = adaptation_dynamics(
                CircuitState(V_m=ad.E_l_adapt, V_w=v_w), ad)
            # exact exponential update around the linear part
            resid = float(dv_w) + lam * (v_w - ad.V_ref)
            v_w = ad.V_ref + (v_w - ad.V_ref) * math.exp(-lam * dt) \
                + resid * (1 - math.exp(-lam * dt)) / lam
            trace.append(v_w)
        y = np.array(trace) - ad.V_ref
        t = np.arange(len(y)) * dt
        keep = y > 0.02 * y[0]
        slope, _, r2 = log_linear_fit(t[keep], y[keep])
        assert r2 > 0.999
        assert -1.0 / slope == pytest.approx(ad.tau_w, rel=0.02)

    def test_equilibrium_output_equals_a_times_deflection(self, hw_circuit):
        # small-signal effective a from the settled coupled filter
        ad = hw_circuit.adaptation
        dv = 0.02
        v_w = ad.V_ref  # solve equilibrium: out_tau == sign * out_a
        for _ in range(200):
            dv_w, i_w = adaptation_dynamics(
                CircuitState(V_m=ad.E_l_adapt + dv, V_w=v_w), ad)
            v_w += float(dv_w) * 0.2 * ad.C_w / ad.g_tau
        _, i_w = adaptation_dynamics(CircuitState(V_m=ad.E_l_adapt + dv, V_w=v_w), ad)
        assert float(i_w) == pytest.approx(ad.a_effective * dv, rel=0.05)


class TestExponentialCircuit:
    def test_onset_value_is_i0(self, hw_circuit):
        ex = hw_circuit.exponential
        assert float(exponential_current(ex.V_exp, ex)) == pytest.approx(ex.I_0, rel=1e-9)

    def test_decade_per_ln10_slope_over_three_decades(self, hw_circuit):
        ex = hw_circuit.exponential
        v = np.linspace(ex.V_exp - 1.0 * ex.delta_t_eff,
                        ex.V_exp + 6.0 * ex.delta_t_eff, 60)
        cur = np.asarray(exponential_current(v, ex))
        assert cur.max() / cur.min() > 1e3
        slope, _, r2 = log_linear_fit(v, cur)
        assert r2 > 0.999
        assert 1.0 / slope == pytest.approx(ex.delta_t_eff, rel=0.01)
        # one effective slope of depolarization multiplies the current by e
        i1 = float(exponential_current(ex.V_exp + ex.delta_t_eff * math.log(10), ex))
        assert i1 == pytest.approx(10 * ex.I_0, rel=0.01)

    def test_far_below_onset_powers_down(self, hw_circuit):
        ex = hw_circuit.exponential
        out = float(exponential_current(ex.V_exp - 16 * ex.delta_t_eff, ex))
        assert out <= ex.I_0 * 1e-6
        assert out >= 0.0

    def test_saturates_at_i_max(self, hw_circuit):
        ex = hw_circuit.exponential
        out = float(exponential_current(ex.V_exp + 40 * ex.delta_t_eff, ex))
        assert out == pytest.approx(ex.I_max)

    def test_gated_in_refractory(self, hw_circuit):
        ex = replace(hw_circuit.exponential, gate_in_refractory=True)
        assert float(exponential_current(ex.V_exp, ex, in_refractory=True)) == 0.0

    def test_disabled_identically_zero(self, hw_circuit):
        ex = replace(hw_circuit.exponential, enabled=False)
        v = np.linspace(0.0, 1.2, 20)
        assert np.all(np.asarray(exponential_current(v, ex)) == 0.0)


class TestFoldIdentities:
    # the engine's fused step relies on these float identities of numpy;
    # an upgrade that breaks one fails here, not in the oracle comparison
    VALUES = np.concatenate([
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-20,
         1e-8, 1e-3, 0.1, 0.39945811, 0.5, 1.0, 2.0, 7.5, 18.0, 19.5, 20.0,
         22.0, 50.0, 710.0, 1e300, np.inf],
        np.logspace(-320, 3, 4001),
        np.random.default_rng(3).uniform(-25.0, 25.0, 4001)])

    def test_tanh_is_odd_bit_for_bit(self):
        # in place, as the engine calls it, and on widths that end in a
        # partial vector
        for x in (self.VALUES, self.VALUES[:7], self.VALUES[:1]):
            x = np.concatenate([x, -x])
            plus, minus = x.copy(), -x
            np.tanh(plus, plus)
            np.tanh(minus, minus)
            assert minus.tobytes() == (-plus).tobytes()

    def test_sums_and_differences(self):
        # every pair of signed zeros, subnormals and normals, then random pairs
        special = np.array([0.0, 5e-324, 1e-310, 1.0, 1e300])
        special = np.concatenate([special, -special])
        grid_a, grid_b = (x.ravel() for x in np.meshgrid(special, special))
        values = np.concatenate([self.VALUES, -self.VALUES])
        a = np.concatenate([grid_a, values])
        b = np.concatenate([grid_b, np.random.default_rng(4).permutation(values)])
        assert (a - (-b)).tobytes() == (a + b).tobytes()
        differ = a != b
        assert (a - b)[differ].tobytes() == (-(b - a))[differ].tobytes()
        # and x - x is +0.0 for every finite x
        finite = values[np.isfinite(values)]
        assert not np.signbit(finite - finite).any()
        # a sum or difference is -0.0 only where its first operand is
        for result in (a + b, a - b):
            minus_zero = (result == 0) & np.signbit(result)
            assert ((a == 0) & np.signbit(a))[minus_zero].all()


class TestCobaBias:
    def cfg(self):
        return default_circuit_config(coba=True).syn_exc

    def test_static_component_at_reference(self):
        syn = self.cfg()
        assert float(coba_effective_bias(syn.E_syn_hat, syn)) == \
            pytest.approx(syn.I_b_cuba, rel=1e-12)

    def test_zero_at_virtual_reversal(self):
        syn = self.cfg()
        assert float(coba_effective_bias(syn.virtual_reversal, syn)) == \
            pytest.approx(0.0, abs=1e-18)

    def test_slope_is_minus_g2(self):
        syn = self.cfg()
        eps = 1e-4
        v0 = syn.E_syn_hat
        slope = float(coba_effective_bias(v0 + eps, syn)
                      - coba_effective_bias(v0 - eps, syn)) / (2 * eps)
        assert slope == pytest.approx(-syn.g2, rel=0.01)

    def test_inhibitory_negative_g2_reversal_below(self):
        syn = default_circuit_config(coba=True).syn_inh
        assert syn.g2 < 0
        assert syn.virtual_reversal < syn.E_syn_hat
        eps = 1e-4
        slope = float(coba_effective_bias(syn.E_syn_hat + eps, syn)
                      - coba_effective_bias(syn.E_syn_hat - eps, syn)) / (2 * eps)
        assert slope == pytest.approx(-syn.g2, rel=0.01)

    def test_clamps_at_zero(self):
        syn = self.cfg()
        far = syn.virtual_reversal + 1.0
        assert float(coba_effective_bias(far, syn)) == 0.0

    def test_disabled_raises(self):
        syn = default_circuit_config(coba=False).syn_exc
        with pytest.raises(InvalidConfig):
            coba_effective_bias(0.5, syn)


def _offsets(cfg):
    # follower offsets as mismatch leaves them: a quiet line still carries
    # the current of its offset
    return replace(cfg, syn_exc=replace(cfg.syn_exc, follower_offset=3e-3),
                   syn_inh=replace(cfg.syn_inh, follower_offset=-2e-3))


def _coba_lines(cfg):
    coba = default_circuit_config(coba=True)
    return _offsets(replace(cfg, syn_exc=coba.syn_exc, syn_inh=coba.syn_inh))


def _dead_ota_a(cfg):
    ad = cfg.adaptation
    return replace(cfg, adaptation=replace(ad, ota_a=replace(ad.ota_a, I_bias=0.0)))


def _exponential(cfg, **changes):
    return replace(cfg, exponential=replace(cfg.exponential, **changes))


def _signed(cfg, sign):
    return replace(cfg, adaptation=replace(cfg.adaptation, sign=sign))


def _exc_train():
    return WeightedSpikeTrain(tuple((30e-6 + i * 40e-6, 0.3) for i in range(4)))


# the neuron of the late-spike variant: adaptation off, no refractory period
LATE_SPIKE = default_circuit_config(t_ref=0.0)
# hw_circuit -> (config, synaptic events) for the fast-path oracle test; its
# synaptic lines are enabled, current-based and quiet unless events arrive
ENGINE_VARIANTS = {
    "t_ref_0_pulses_offsets": lambda c: (_offsets(replace(c, t_ref=0.0)), {}),
    "fractional_release_gated": lambda c: (
        replace(c, t_ref=1.03e-6, exponential=replace(
            c.exponential, gate_in_refractory=True)), {}),
    "quiet_coba_lines": lambda c: (_coba_lines(c), {}),
    "coba_exc_events": lambda c: (_coba_lines(c), {"exc": _exc_train()}),
    "cuba_inh_events": lambda c: (_offsets(c), {"inh": WeightedSpikeTrain(
        tuple((60e-6 + i * 30e-6, 0.2) for i in range(3)))}),
    "dead_ota_a": lambda c: (_dead_ota_a(c), {}),
    "lif": lambda c: (replace(
        c, adaptation=replace(c.adaptation, enabled=False),
        exponential=replace(c.exponential, enabled=False)), {}),
    # the pulse timer runs with a pulse current of 0.0
    "zero_pulse_amplitude": lambda c: (replace(c, adaptation=replace(
        c.adaptation, pulse_amplitude=0.0)), {}),
    "adaptation_sign_minus_1": lambda c: (replace(c, adaptation=replace(
        c.adaptation, sign=-1)), {}),
    # on, off (-0.0, then +0.0), on again: one stimulus product per segment
    "multi_segment_stimulus": lambda c: (c, {}),
    # a 1.03 us refractory period inside a 1.6 us pulse of the same charge
    "release_overlaps_pulse": lambda c: (replace(c, t_ref=1.03e-6, adaptation=replace(
        c.adaptation, pulse_width=1.6e-6,
        pulse_amplitude=c.adaptation.pulse_amplitude * c.adaptation.pulse_width / 1.6e-6)),
        {}),
    # adaptation off: a spike starts no pulse timer, so the last spike,
    # within pulse_width of the end, leaves the final timer at 0
    "adaptation_off_late_spike": lambda c: (LATE_SPIKE, {}),
    # I_exp at its power-down floor only, never gated
    "exponential_ungated": lambda c: (_exponential(c, gate_in_refractory=False), {}),
    # the membrane's rows without the exponential's, adaptation on
    "exponential_off": lambda c: (_exponential(c, enabled=False), {}),
    # a dead exponential OTA: I_exp is I_0 at every V_m
    "dead_exponential_ota": lambda c: (_exponential(
        c, ota=replace(c.exponential.ota, I_bias=0.0)), {}),
    # I_exp clipped at 1e-7 A on every upstroke (about 3.6e-7 A at V_det
    # unclipped)
    "exponential_clipped": lambda c: (_exponential(c, I_max=1e-7), {}),
    # signs +1 and -1 in one batch, one with a dead coupling OTA, whose
    # output is then 0.0 times its sign
    "mixed_sign_batch": lambda c: (Population([
        c, _signed(c, -1), _signed(_dead_ota_a(c), -1), _dead_ota_a(c)]).stacked(), {}),
    # V_r 10 mV above V_det, with t_ref 1.03 us and with t_ref 0: once it
    # fires, the neuron spikes again on every step, held or not, each
    # spike's writes landing over those still pending from the spikes before
    "reset_above_threshold": lambda c: (Population([
        replace(c, V_r=c.V_det + 10e-3, t_ref=t_ref) for t_ref in (1.03e-6, 0.0)]).stacked(), {}),
    # a drive that fires on the first free step after every spike: 3 held
    # steps, whose re-spike lands while the 4.5-step pulse of the spike
    # before still has its tail and idle writes pending
    "respike_on_first_free_step": lambda c: (_timed(c, 3 * 0.05e-6, 4.5 * 0.05e-6), {}),
}
# variants that replace the default step stimulus of the oracle test
VARIANT_STIMULI = {
    "multi_segment_stimulus": StimulusProgram((
        (0.0, 0.0), (20e-6, 50e-9), (90e-6, -0.0), (100e-6, 0.0), (120e-6, 50e-9),
        (150e-6, 50e-9 * (1 + 2 ** -52)))),
    # 4x the threshold current, from t = 0
    "adaptation_off_late_spike": StimulusProgram.constant(
        4.0 * LATE_SPIKE.g_l * (LATE_SPIKE.V_det - LATE_SPIKE.E_l)),
    # 30 uA lifts V_m from V_r past V_det in one free step
    "respike_on_first_free_step": StimulusProgram.constant(30e-6),
}
# variants that replace the default dt and duration (0.05 us, 200 us)
VARIANT_TIMING = {"adaptation_off_late_spike": (0.04e-6, 22.88e-6),
                  "reset_above_threshold": (0.05e-6, 60e-6),
                  "respike_on_first_free_step": (0.05e-6, 10e-6)}


# the timer-course tests: the dt of configs/adex_step.cfg and a drive that
# gives ISIs of about 5 us.  Per neuron of the mixed batch: a t_ref of 0
# whose 12 us pulse is still in flight at its next spike, 25 dt ending in
# a fractional release step with a pulse below dt, 1.03 us with a pulse of
# 2.5 dt, and a t_ref as long as the run.
TIMER_DT, TIMER_DURATION = 0.04e-6, 40e-6
TIMER_STIMULUS = StimulusProgram.step(2e-6, 150e-9)
T_REFS = (0.0, 25 * TIMER_DT, 1.03e-6, TIMER_DURATION)
PULSE_WIDTHS = (12e-6, 0.5 * TIMER_DT, 2.5 * TIMER_DT, 1.6e-6)
# t_ref, pulse width and the initial refractory and pulse timers
TIMER_COURSES = strategies.tuples(
    strategies.sampled_from(T_REFS) | strategies.floats(0.0, 3e-6),
    strategies.sampled_from(PULSE_WIDTHS) | strategies.floats(1e-9, 3e-6),
    strategies.floats(0.0, 3e-6), strategies.floats(0.0, 3e-6))


def _timed(cfg, t_ref, pulse_width, gate=True):
    # the given refractory period and pulse width, the pulse's charge kept,
    # and I_exp gated while refractory or not
    ad = cfg.adaptation
    return replace(cfg, t_ref=t_ref, adaptation=replace(
        ad, pulse_width=pulse_width,
        pulse_amplitude=ad.pulse_amplitude * ad.pulse_width / pulse_width),
        exponential=replace(cfg.exponential, gate_in_refractory=gate))


def _left_below_dt(x, dt):
    # what the timer update x <- max(x - dt, 0) leaves once below dt
    while x >= dt:
        x = max(x - dt, 0.0)
    return x


class TestCircuitStep:
    def test_quiescent_stationary(self):
        cfg = default_circuit_config()
        st = quiescent_state(cfg)
        for _ in range(200):
            st, spiked = circuit_step(st, cfg, 0.0, dt=0.05e-6)
            assert not spiked
        assert float(st.V_m) == pytest.approx(cfg.E_l, abs=1e-12)

    def test_matches_ideal_with_derived_parameters(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        stim = StimulusProgram.step(20e-6, 2.2 * eff.g_l * (eff.V_det - eff.E_l))
        dt = 0.04e-6
        tr_c = simulate_circuit(hw_circuit, stim, duration=500e-6, dt=dt)
        tr_i = simulate(eff, stim, duration=500e-6, dt=dt)
        assert len(tr_c.spikes) == len(tr_i.spikes)
        mean_isi = float(np.mean(np.diff(tr_i.spikes)))
        assert np.max(np.abs(tr_c.spikes - tr_i.spikes)) < 0.02 * mean_isi

    def test_saturated_leak_relaxes_slower_than_exponential(self):
        # drive the leak transconductor far beyond its linear range and
        # compare single-exponential fit residuals against a linear release
        cfg = default_circuit_config(tau_m=20e-6)
        cfg = replace(cfg, V_det=math.inf,
                      leak_ota=replace(cfg.leak_ota,
                                       g_per_bias=2.0,
                                       I_bias=cfg.leak_ota.g / 2.0))

        def release(offset, floor):
            st = quiescent_state(cfg)
            st = CircuitState(V_m=cfg.E_l + offset, V_w=st.V_w)
            run = run_from_state(cfg, 1, StimulusProgram.constant(0.0), st,
                                 duration=7 * 20e-6, dt=0.1e-6, record=True)
            y = run.V[:, 0] - cfg.E_l
            t = np.arange(len(y)) * 0.1e-6
            keep = y > floor * offset
            slope, _, r2 = log_linear_fit(t[keep], y[keep])
            return r2, -1.0 / slope

        r2_small, tau_small = release(0.03, floor=0.02)   # inside the linear range
        r2_large, tau_large = release(0.5, floor=0.02)    # deep saturation
        assert r2_small > 0.9999
        # documented deviation: saturation leaves visibly larger fit residuals
        assert (1 - r2_large) > 20 * (1 - r2_small)
        # and the early decay (where the transconductor slews) is visibly
        # slower than the small-signal exponential
        _, tau_early_small = release(0.03, floor=0.5)
        _, tau_early_large = release(0.5, floor=0.5)
        assert tau_early_large > 1.15 * tau_early_small

    def test_refractory_clamps_and_pulse_completes(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        stim = StimulusProgram.constant(2.5 * eff.g_l * (eff.V_det - eff.E_l))
        tr = simulate_circuit(hw_circuit, stim, duration=200e-6, dt=0.04e-6)
        assert len(tr.spikes) > 2
        k = int(round(tr.spikes[0] / tr.dt))
        n_ref = int(hw_circuit.t_ref / tr.dt)
        assert np.allclose(tr.V[k:k + n_ref], hw_circuit.V_r, atol=1e-12)
        # the filter node jump across the pulse equals b through g_w
        ad = hw_circuit.adaptation
        k_end = k + int(math.ceil(ad.pulse_width / tr.dt)) + 1
        jump = tr.w[k_end] - tr.w[k]  # w holds I_w
        assert jump == pytest.approx(eff.b, rel=0.02)

    def test_nonfinite_raises_with_timestamp(self, hw_circuit):
        with pytest.raises(NonFiniteState):
            simulate_circuit(hw_circuit, StimulusProgram.constant(math.nan),
                             duration=10e-6, dt=0.1e-6)

    def test_engine_matches_stepwise_reference(self, hw_circuit):
        cfg = replace(hw_circuit,
                      syn_exc=replace(hw_circuit.syn_exc, enabled=True),
                      syn_inh=replace(hw_circuit.syn_inh, enabled=True))
        stim = StimulusProgram.step(20e-6, 50e-9)
        events = {"exc": _exc_train()}
        dt = 0.05e-6
        run = simulate_population(cfg, 1, stim, syn_events=events,
                                  duration=300e-6, dt=dt, record=True)
        from adexsim.synapse import weights_per_boundary
        n_steps = int(round(300e-6 / dt))
        currents = stim.per_step_currents(n_steps, dt)
        s0, arrivals = weights_per_boundary(events["exc"], n_steps, dt)
        st = quiescent_state(cfg)
        st = CircuitState(V_m=st.V_m, V_w=st.V_w,
                          s_exc=s0 * cfg.syn_exc.dv_unit, s_inh=0.0)
        spikes = []
        for k in range(n_steps):
            st, spiked = circuit_step(st, cfg, currents[k], (arrivals[k], 0.0), dt)
            assert float(st.V_m) == run.V[k + 1, 0]
            assert float(st.V_w) == run.V_w[k + 1, 0]
            if spiked:
                spikes.append((k + 1) * dt)
        assert np.array_equal(run.spikes[0], np.array(spikes))

    @pytest.mark.parametrize("variant", sorted(ENGINE_VARIANTS))
    def test_engine_fast_paths_match_stepwise_reference(self, hw_circuit, variant):
        # each variant sends the engine down other skip paths; every step of
        # V_m and V_w, every spike and the final timers of each neuron must
        # equal circuit_step
        cfg, events = ENGINE_VARIANTS[variant](hw_circuit)
        n = np.size(cfg.C_mem)
        stim = VARIANT_STIMULI.get(variant, StimulusProgram.step(20e-6, 50e-9))
        dt, duration = VARIANT_TIMING.get(variant, (0.05e-6, 200e-6))
        run = simulate_population(cfg, n, stim, syn_events=events,
                                  duration=duration, dt=dt, record=True)
        from adexsim.synapse import weights_per_boundary
        n_steps = int(round(duration / dt))
        currents = stim.per_step_currents(n_steps, dt)
        s0, arrivals = {}, {}
        for key in ("exc", "inh"):
            if key in events:
                s0[key], arrivals[key] = weights_per_boundary(events[key], n_steps, dt)
            else:
                s0[key], arrivals[key] = 0.0, np.zeros(n_steps)
        st = quiescent_state(cfg)
        st = CircuitState(V_m=st.V_m, V_w=st.V_w,
                          s_exc=s0["exc"] * cfg.syn_exc.dv_unit,
                          s_inh=s0["inh"] * cfg.syn_inh.dv_unit)
        spikes = [[] for _ in range(n)]
        for k in range(n_steps):
            st, spiked = circuit_step(st, cfg, currents[k],
                                      (arrivals["exc"][k], arrivals["inh"][k]), dt)
            assert np.asarray(st.V_m, dtype=float).tobytes() == run.V[k + 1].tobytes(), k
            assert np.asarray(st.V_w, dtype=float).tobytes() == run.V_w[k + 1].tobytes(), k
            for i in np.flatnonzero(spiked):
                spikes[i].append((k + 1) * dt)
        assert min(len(s) for s in spikes) >= 3
        for i in range(n):
            assert np.array_equal(run.spikes[i], np.array(spikes[i])), i
        final = run.final_state
        for name in ("V_m", "V_w", "s_exc", "s_inh", "ref_remaining", "pulse_remaining"):
            assert np.asarray(getattr(final, name)).tobytes() == np.broadcast_to(
                np.asarray(getattr(st, name), dtype=float), (n,)).tobytes(), name

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_filter_node_reported_near_blow_up(self, hw_circuit):
        # a pulse so large that its change of V_w over one step overflows
        # drives V_w to -inf at the first spike while the saturating OTAs
        # keep V_m finite; the periodic check reads V_w too
        ad = hw_circuit.adaptation
        cfg = replace(hw_circuit, adaptation=replace(ad, pulse_amplitude=1e308))
        stim = StimulusProgram.step(20e-6, 50e-9)
        dt, n_steps = 0.05e-6, 4000
        currents = stim.per_step_currents(n_steps, dt)
        st = quiescent_state(cfg)
        with pytest.raises(NonFiniteState):
            for k in range(n_steps):
                st, _ = circuit_step(st, cfg, currents[k], (0.0, 0.0), dt)
        blow_up = k + 1   # the first step whose end state is non-finite
        assert np.isfinite(st.V_m) and blow_up < n_steps - 256
        with pytest.raises(NonFiniteState) as err:
            simulate_population(cfg, 1, stim, duration=n_steps * dt, dt=dt)
        assert blow_up * dt <= err.value.time < (blow_up + 256) * dt

    def test_engine_batch_invariance(self, hw_circuit):
        # the engine's skip decisions are made for the whole batch; each
        # neuron alone must still give the bits of its batch column.  The
        # batch mixes adaptation signs, zero and nonzero pulse amplitudes
        # and a dead coupling OTA.
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=9), 16)
        neurons = []
        for i, neuron in enumerate(pop.neurons):
            neuron = replace(neuron, t_ref=1.03e-6 if i % 2 else 0.0)
            ad = neuron.adaptation
            neuron = replace(neuron, adaptation=replace(
                ad, sign=-1 if i % 3 == 1 else 1,
                pulse_amplitude=0.0 if i % 5 == 2 else ad.pulse_amplitude))
            if i % 4 == 3:
                neuron = replace(neuron, stim_gain=0.2)   # below rheobase
            if i == 5:
                ad = neuron.adaptation
                neuron = replace(neuron, adaptation=replace(
                    ad, ota_a=replace(ad.ota_a, I_bias=0.0)))
            neurons.append(neuron)
        stim = StimulusProgram.step(20e-6, 50e-9)
        events = {"exc": WeightedSpikeTrain(tuple((30e-6 + i * 40e-6, 0.3)
                                                  for i in range(3)))}
        kw = dict(syn_events=events, duration=150e-6, dt=0.05e-6, record=True)
        batch = simulate_population(Population(neurons).stacked(), 16, stim, **kw)
        counts = [len(s) for s in batch.spikes]
        assert min(counts) == 0 and max(counts) >= 3
        fields = ("V_m", "V_w", "s_exc", "s_inh", "ref_remaining", "pulse_remaining")
        for i, neuron in enumerate(neurons):
            alone = simulate_population(neuron, 1, stim, **kw)
            assert alone.spikes[0].tobytes() == batch.spikes[i].tobytes(), i
            for rec in ("V", "V_w", "s_exc", "s_inh"):
                assert getattr(alone, rec)[:, 0].tobytes() == \
                    getattr(batch, rec)[:, i].tobytes(), (i, rec)
            for name in fields:
                assert np.asarray(getattr(alone.final_state, name))[0].tobytes() == \
                    np.asarray(getattr(batch.final_state, name))[i].tobytes(), (i, name)

    def test_mixed_timer_batch_matches_stepwise_reference(self, hw_circuit):
        # each column of the mixed batch, started with nonzero timers,
        # against circuit_step on every step
        cfg = Population([_timed(hw_circuit, t, w)
                          for t, w in zip(T_REFS, PULSE_WIDTHS)]).stacked()
        state = replace(quiescent_state(cfg),
                       ref_remaining=np.array([0.3, 62.5, 0.0, 0.0]) * TIMER_DT,
                       pulse_remaining=np.array([5.0, 0.0, 3.3, 0.7]) * TIMER_DT)
        assert 0 < _left_below_dt(T_REFS[1], TIMER_DT) < TIMER_DT
        run = run_from_state(cfg, 4, TIMER_STIMULUS, state, duration=TIMER_DURATION,
                             dt=TIMER_DT, record=True)
        n_steps = int(round(TIMER_DURATION / TIMER_DT))
        currents = TIMER_STIMULUS.per_step_currents(n_steps, TIMER_DT)
        spikes = [[] for _ in range(4)]
        for k in range(n_steps):
            state, spiked = circuit_step(state, cfg, currents[k], dt=TIMER_DT)
            assert state.V_m.tobytes() == run.V[k + 1].tobytes(), k
            assert state.V_w.tobytes() == run.V_w[k + 1].tobytes(), k
            for i in np.flatnonzero(spiked):
                spikes[i].append((k + 1) * TIMER_DT)
        for i in range(4):
            assert run.spikes[i].tobytes() == np.array(spikes[i]).tobytes(), i
        assert np.diff(spikes[0]).min() < PULSE_WIDTHS[0]
        assert len(spikes[3]) == 1 and min(len(s) for s in spikes[:3]) >= 4
        for name in ("ref_remaining", "pulse_remaining"):
            assert getattr(run.final_state, name).tobytes() == \
                getattr(state, name).tobytes(), name

    def test_held_start_above_threshold_matches_stepwise_reference(self, hw_circuit):
        # initial timers that hold a membrane started above V_det: it spikes
        # at once, so the initial timers' later writes are dropped
        cfg = Population([_timed(hw_circuit, 1.03e-6, 2.5 * TIMER_DT)] * 2).stacked()
        rest = quiescent_state(cfg)
        state = replace(rest, V_m=np.array([cfg.V_det[0] + 10e-3, rest.V_m[1]]),
                        ref_remaining=np.full(2, 7.5 * TIMER_DT),
                        pulse_remaining=np.full(2, 12.5 * TIMER_DT))
        run = run_from_state(cfg, 2, TIMER_STIMULUS, state, duration=TIMER_DURATION / 4,
                             dt=TIMER_DT, record=True)
        n_steps = int(round(TIMER_DURATION / 4 / TIMER_DT))
        currents = TIMER_STIMULUS.per_step_currents(n_steps, TIMER_DT)
        spikes = [[] for _ in range(2)]
        for k in range(n_steps):
            state, spiked = circuit_step(state, cfg, currents[k], dt=TIMER_DT)
            assert state.V_m.tobytes() == run.V[k + 1].tobytes(), k
            assert state.V_w.tobytes() == run.V_w[k + 1].tobytes(), k
            for i in np.flatnonzero(spiked):
                spikes[i].append((k + 1) * TIMER_DT)
        assert spikes[0][0] == TIMER_DT and len(spikes[1]) >= 1
        for i in range(2):
            assert run.spikes[i].tobytes() == np.array(spikes[i]).tobytes(), i

    # hw_circuit is a frozen config, so one instance serves every example
    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(courses=strategies.lists(TIMER_COURSES, min_size=1, max_size=4),
           gate=strategies.booleans())
    def test_mixed_timer_batch_column_equals_neuron_alone(self, hw_circuit, courses, gate):
        # each neuron of a batch of mixed timer courses gives the bits it
        # gives when run alone
        neurons = [_timed(hw_circuit, t_ref, width, gate) for t_ref, width, _, _ in courses]
        n = len(neurons)
        ref0 = np.array([c[2] for c in courses])
        pulse0 = np.array([c[3] for c in courses])
        kw = dict(duration=TIMER_DURATION / 2, dt=TIMER_DT, record=True)
        cfg = Population(neurons).stacked()
        batch = run_from_state(cfg, n, TIMER_STIMULUS, replace(
            quiescent_state(cfg), ref_remaining=ref0, pulse_remaining=pulse0), **kw)
        for i, neuron in enumerate(neurons):
            alone = run_from_state(neuron, 1, TIMER_STIMULUS, replace(
                quiescent_state(neuron), ref_remaining=ref0[i:i + 1],
                pulse_remaining=pulse0[i:i + 1]), **kw)
            assert alone.spikes[0].tobytes() == batch.spikes[i].tobytes(), i
            assert alone.V[:, 0].tobytes() == batch.V[:, i].tobytes(), i
            assert alone.V_w[:, 0].tobytes() == batch.V_w[:, i].tobytes(), i
            for name in ("ref_remaining", "pulse_remaining"):
                assert getattr(alone.final_state, name).tobytes() == \
                    getattr(batch.final_state, name)[i:i + 1].tobytes(), (i, name)

    def test_dense_spiking_batch_column_equals_neuron_alone(self, hw_circuit):
        # 128 mismatched neurons, t_refs of 0, below dt, fractional and whole
        # steps, each pulse longer than the neuron's ISIs, and a drive under
        # which most steps hold two spikes or more: many starts and pending
        # writes per step, and re-spikes inside every pulse
        n, dt, duration = 128, TIMER_DT, 16e-6
        cfg = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=28),
                                n).stacked()
        t_refs = np.array([0.0, 0.37, 25.0, 25.75, 3.0, 12.5, 2.5, 40.0]) * dt
        widths = np.array([150.0, 182.5, 150.5, 225.0]) * dt
        t_ref = t_refs[np.arange(n) % len(t_refs)]
        width = widths[np.arange(n) // len(t_refs) % len(widths)]
        ad = cfg.adaptation
        cfg = replace(cfg, t_ref=t_ref, adaptation=replace(
            ad, pulse_width=width, pulse_amplitude=ad.pulse_amplitude * ad.pulse_width / width))
        eff = derive_effective_adex(hw_circuit)
        stim = StimulusProgram.constant(16 * eff.g_l * (eff.V_det - eff.E_l))
        kw = dict(duration=duration, dt=dt, record=True)
        batch = simulate_population(cfg, n, stim, **kw)
        per_step = np.bincount(batch.spike_columns[0], minlength=int(round(duration / dt)))
        assert np.mean(per_step >= 2) > 0.5
        assert all(len(s) >= 3 and np.diff(s).max() < w for s, w in zip(batch.spikes, width))
        for i in range(n):
            alone = simulate_population(_take(cfg, slice(i, i + 1), 1), 1, stim, **kw)
            assert alone.spikes[0].tobytes() == batch.spikes[i].tobytes(), i
            assert alone.V[:, 0].tobytes() == batch.V[:, i].tobytes(), i
            assert alone.V_w[:, 0].tobytes() == batch.V_w[:, i].tobytes(), i
            for name in ("ref_remaining", "pulse_remaining"):
                assert getattr(alone.final_state, name).tobytes() == \
                    getattr(batch.final_state, name)[i:i + 1].tobytes(), (i, name)

    @pytest.mark.parametrize("field, value", [("ref_remaining", math.nan),
                                              ("pulse_remaining", math.inf)])
    def test_nonfinite_initial_timer_raises_at_start(self, hw_circuit, field, value):
        cfg = Population([hw_circuit] * 4).stacked()
        timers = np.zeros(4)
        timers[2] = value
        state = replace(quiescent_state(cfg), **{field: timers})
        with pytest.raises(NonFiniteState) as err:
            run_from_state(cfg, 4, TIMER_STIMULUS, state, duration=20e-6, dt=TIMER_DT)
        assert err.value.time == 0.0

    def test_leaves_not_holding_n_values_are_named(self, hw_circuit):
        cfg = Population([hw_circuit] * 4).stacked()
        with pytest.raises(ValueError, match=r"^CircuitNeuronConfig\.C_mem does not hold 3 values$"):
            simulate_population(cfg, 3, TIMER_STIMULUS, duration=1e-6, dt=TIMER_DT)
        state = replace(quiescent_state(hw_circuit), pulse_remaining=np.zeros(2))
        with pytest.raises(ValueError, match=r"^CircuitState\.pulse_remaining does not hold 1 values$"):
            run_from_state(hw_circuit, 1, TIMER_STIMULUS, state, duration=1e-6, dt=TIMER_DT)

    @pytest.mark.parametrize("duration, dt", [(math.inf, 0.04e-6), (1e-6, math.inf),
                                              (math.nan, 0.04e-6), (1e-6, 0.0)])
    def test_duration_and_dt_must_be_finite(self, hw_circuit, duration, dt):
        with pytest.raises(ValueError, match="duration and dt must be finite and > 0"):
            simulate_population(hw_circuit, 1, TIMER_STIMULUS, duration=duration, dt=dt)


def _long_form(V, ref, g, C, F, h):
    # the exponential-Euler step of a node of capacitance C and forcing F,
    # written out around its linear conductance g toward ref
    lam = g / C
    phi = np.where(h > 0, -np.expm1(-lam * h) / lam, 0.0)
    return ref + (V - ref) * np.exp(-lam * h) + (F + g * (V - ref)) / C * phi


class TestReducedUpdate:
    # the engine takes each node's step as V + F * phi(lam, h) / C
    @pytest.mark.parametrize("phase", ["held", "release", "free"])
    def test_matches_long_exponential_euler_form(self, hw_circuit, phase):
        # random states of a mismatched batch, every membrane in one phase
        # of its refractory course: held (ref >= dt), released part of the
        # way through the step (0 < ref < dt), or free (ref = 0)
        n, dt = 64, 0.05e-6
        rng = np.random.default_rng(["held", "release", "free"].index(phase))
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=4), n)
        cfg = replace(pop.stacked(), V_det=math.inf)
        rest = quiescent_state(cfg)
        ref = {"held": rng.uniform(1.0, 5.0, n), "release": rng.uniform(0.01, 0.99, n),
               "free": np.zeros(n)}[phase] * dt
        state = replace(rest, V_m=rng.uniform(0.3, 0.75, n),
                        V_w=rest.V_w + rng.uniform(-0.1, 0.1, n),
                        s_exc=rng.uniform(0.0, 0.05, n), ref_remaining=ref,
                        pulse_remaining=rng.uniform(0.0, 3.0, n) * dt)
        I_stim = rng.uniform(0.0, 100e-9)
        run = run_from_state(cfg, n, StimulusProgram.constant(I_stim), state, duration=dt,
                             dt=dt, record=True)
        node, forcing, h = node_forcings(state, cfg, I_stim, dt)
        ad = cfg.adaptation
        V_w = _long_form(state.V_w, ad.V_ref, ad.g_tau, ad.C_w, node, dt)
        V_m = _long_form(state.V_m, cfg.E_l, cfg.g_l, cfg.C_mem, forcing, h)
        np.testing.assert_allclose(run.V_w[1], V_w, rtol=1e-13, atol=0)
        np.testing.assert_allclose(run.V[1], V_m, rtol=1e-13, atol=0)
        if phase != "held":
            assert np.all(run.V[1] != state.V_m)

    def test_held_membrane_stays_exactly_at_v_r(self, hw_circuit):
        n, dt = 8, 0.04e-6
        cfg = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=5),
                                n).stacked()
        eff = derive_effective_adex(hw_circuit)
        stim = StimulusProgram.constant(2.5 * eff.g_l * (eff.V_det - eff.E_l))
        run = simulate_population(cfg, n, stim, duration=100e-6, dt=dt, record=True)
        t_ref, V_r = (np.broadcast_to(x, (n,)) for x in (cfg.t_ref, cfg.V_r))
        checked = 0
        for i in range(n):
            # the steps a spike's timer starts at or above dt: held steps
            x, held = t_ref[i], 0
            while x >= dt:
                x, held = max(x - dt, 0.0), held + 1
            for t in run.spikes[i]:
                k = int(round(t / dt))
                course = run.V[k:k + held + 1, i]
                assert np.all(course == V_r[i]), (i, k)
                checked += course.size - 1
        assert checked > 100


class TestDeriveEffectiveAdex:
    def test_gw_factor_arithmetic(self, hw_circuit):
        ad = hw_circuit.adaptation
        # with g_a = g_tau the effective strength is the mirror factor times g_a
        ad_eq = replace(ad, ota_a=replace(ad.ota_a,
                                          I_bias=ad.g_tau / ad.ota_a.g_per_bias))
        cfg = replace(hw_circuit, adaptation=ad_eq)
        eff = derive_effective_adex(cfg)
        assert eff.a == pytest.approx(12.0 * ad_eq.g_a, rel=1e-12)

    def test_round_trip_exact(self, hw_target, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        for name in ("C", "g_l", "E_l", "V_T", "Delta_T", "tau_w", "a", "b",
                     "V_r", "V_det", "t_ref"):
            assert getattr(eff, name) == pytest.approx(
                getattr(hw_target, name), rel=1e-9), name

    def test_delta_t_doubles_when_r_conv_halves(self, hw_circuit):
        ex = hw_circuit.exponential
        halved = replace(ex, r_conv=ex.r_conv / 2)
        assert halved.delta_t_eff == pytest.approx(2 * ex.delta_t_eff, rel=1e-12)

    def test_disabled_subcircuits_neutral(self):
        cfg = default_circuit_config()
        eff = derive_effective_adex(cfg)
        assert eff.a == 0.0 and eff.b == 0.0
        assert not eff.exp_enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_stacked_population_equals_per_neuron(self, hw_circuit, enabled):
        nominal = hw_circuit if enabled else default_circuit_config()
        pop = sample_population(nominal, default_mismatch_model(nominal, seed=1), 4)
        stacked = derive_effective_adex(pop.stacked())
        for i, neuron in enumerate(pop.neurons):
            alone = derive_effective_adex(neuron)
            for name in ("C", "g_l", "E_l", "V_T", "Delta_T", "tau_w", "a", "b",
                         "V_r", "V_det", "t_ref"):
                column = np.broadcast_to(getattr(stacked, name), (4,))
                assert column[i] == getattr(alone, name), (i, name)
            assert stacked.exp_enabled == alone.exp_enabled


    def test_v_t_at_v_det_raises_typed_error(self, hw_circuit):
        from adexsim import NoIdealEquivalent
        # V_exp 0.2 V higher moves the derived V_T above V_det = 0.72 V
        cfg = replace(hw_circuit, exponential=replace(
            hw_circuit.exponential, V_exp=hw_circuit.exponential.V_exp + 0.2))
        with pytest.raises(InvalidConfig, match="neuron 0: derived V_T"):
            derive_effective_adex(cfg)
        assert issubclass(NoIdealEquivalent, InvalidConfig)

    def test_default_exponential_circuit_has_no_ideal_equivalent(self):
        # the library defaults derive V_T = 0.760 V against V_det = 0.75 V
        from adexsim import NoIdealEquivalent, default_mismatch_model
        cfg = default_circuit_config(adaptation_enabled=True, exponential_enabled=True)
        with pytest.raises(NoIdealEquivalent, match=r"V_T = 0\.76\d* V reaches V_det = 0\.75 V"):
            default_mismatch_model(cfg)

    def test_circuit_for_adex_route_has_ideal_equivalent(self, hw_target):
        from adexsim import default_mismatch_model
        cfg = circuit_for_adex(hw_target, default_circuit_config(
            adaptation_enabled=True, exponential_enabled=True))
        default_mismatch_model(cfg)
        assert derive_effective_adex(cfg).V_T == pytest.approx(hw_target.V_T, rel=1e-9)


class TestCircuitVsIdealRandom:
    def test_saturation_free_parameterizations_agree(self, rng):
        # randomized configurations with all transconductors kept in their
        # linear regions; the ideal model acts as the oracle
        for _ in range(6):
            tau_m = float(10 ** rng.uniform(-5.0, -4.3))
            e_l = 0.5
            v_det = e_l + rng.uniform(0.1, 0.14)
            v_r = e_l - rng.uniform(0.02, 0.06)
            t_ref = float(rng.uniform(0.5e-6, 2e-6))
            use_exp = rng.random() < 0.5
            use_ad = rng.random() < 0.7
            C = MAX_MEMBRANE_CAPACITANCE
            g_l = C / tau_m
            target = AdExParameters(
                C=C, g_l=g_l, E_l=e_l,
                V_T=e_l + 0.07, Delta_T=float(rng.uniform(0.015, 0.025)),
                tau_w=float(rng.uniform(40e-6, 200e-6)),
                a=float(rng.uniform(0.0, 0.3)) * g_l if use_ad else 0.0,
                b=float(rng.uniform(0.0, 2e-9)) if use_ad else 0.0,
                V_r=v_r, V_det=v_det, t_ref=t_ref,
                exp_enabled=use_exp)
            template = default_circuit_config(
                adaptation_enabled=use_ad, exponential_enabled=use_exp)
            # saturation-free: wide-linear transconductors and small swings
            template = replace(template, leak_ota=replace(
                template.leak_ota, g_per_bias=0.25,
                I_bias=template.leak_ota.g / 0.25))
            cfg = circuit_for_adex(target, template, pulse_width=0.4 * t_ref)
            i_step = float(rng.uniform(1.5, 1.9)) * g_l * (v_det - e_l)
            stim = StimulusProgram.step(5 * tau_m, i_step)
            duration = 20 * tau_m  # roughly a dozen interspike intervals
            dt = tau_m / 600
            tr_c = simulate_circuit(cfg, stim, duration=duration, dt=dt)
            tr_i = simulate(target, stim, duration=duration, dt=dt)
            assert len(tr_c.spikes) == len(tr_i.spikes)
            assert len(tr_i.spikes) >= 4
            mean_isi = float(np.mean(np.diff(tr_i.spikes)))
            dev = np.max(np.abs(tr_c.spikes - tr_i.spikes))
            assert dev < 0.02 * mean_isi


def saturating_lif_isi(t_ref, C, g, i_sat, E_l, V_r, V_det, I_inj):
    """Exact interspike interval of a LIF membrane whose leak saturates,
    C dV/dt = I_inj - I_sat * tanh(g * (V - E_l) / I_sat), from V_r to V_det
    after t_ref.  With x = g * (V - E_l) / I_sat and a = I_inj / I_sat,
    dt = (C / g) dx / (a - tanh x), whose antiderivative is
    F(x) = x / (a + 1) + ln|(a - 1) e^{2x} + (a + 1)| / (a^2 - 1); the
    logarithm takes out e^{2x} for x > 0 so that it cannot overflow."""
    a = I_inj / i_sat

    def F(x):
        if x > 0:
            log = 2 * x + math.log(abs((a - 1) + (a + 1) * math.exp(-2 * x)))
        else:
            log = math.log(abs((a - 1) * math.exp(2 * x) + (a + 1)))
        return x / (a + 1) + log / (a * a - 1)

    x_r, x_det = (g * (v - E_l) / i_sat for v in (V_r, V_det))
    return t_ref + C / g * (F(x_det) - F(x_r))


# the relative tolerance of the benchmark's LIF check (bench/checks.py)
LIF_REL_TOL = 0.015


def _lif_circuit(cfg):
    return replace(cfg, V_det=0.62, V_r=0.44,
                   syn_exc=replace(cfg.syn_exc, enabled=False),
                   syn_inh=replace(cfg.syn_inh, enabled=False),
                   adaptation=replace(cfg.adaptation, enabled=False),
                   exponential=replace(cfg.exponential, enabled=False))


class TestSaturatingLeakIsi:
    def test_seed_2003_neuron_7825(self):
        # the neuron the benchmark's `wide` LIF check fails on at seed 2003:
        # mismatch leaves it at 1.10x its own threshold drive, where the
        # linear closed form is 2.3% off and the exact ISI is not
        shipped = Path(__file__).resolve().parents[1] / "configs" / "adex_step.cfg"
        nominal = parse_config(shipped.read_text(encoding="utf-8")).circuit
        pop = sample_population(nominal, default_mismatch_model(nominal, seed=2003), 8192)
        cfg = _lif_circuit(pop.neurons[7825])
        current = 4.0 * nominal.g_l * (0.62 - nominal.E_l)
        run = simulate_population(cfg, 1, StimulusProgram.constant(current),
                                  duration=80e-6, dt=0.04e-6)
        circuit = float(np.median(np.diff(run.spikes[0])))
        leak = cfg.leak_ota
        inj = current * cfg.stim_gain * cfg.stim_trim
        exact = saturating_lif_isi(cfg.t_ref, cfg.C_mem, float(leak.g), float(leak.I_bias),
                                   cfg.E_l, cfg.V_r, cfg.V_det, inj)
        v_inf = cfg.E_l + inj / cfg.g_l
        linear = cfg.t_ref + cfg.C_mem / cfg.g_l * math.log(
            (v_inf - cfg.V_r) / (v_inf - cfg.V_det))
        assert circuit == pytest.approx(20.240e-6, abs=0.5e-9)
        assert exact == pytest.approx(20.238e-6, abs=0.5e-9)
        assert linear == pytest.approx(20.704e-6, abs=0.5e-9)
        assert abs(circuit - exact) / exact < 0.001
        assert abs(circuit - linear) / linear > LIF_REL_TOL

    @settings(max_examples=10)
    @given(saturation=strategies.floats(0.1, 1.0),
           drives=strategies.lists(strategies.floats(1.05, 4.0), min_size=1, max_size=4))
    def test_circuit_holds_the_exact_isi(self, saturation, drives):
        # the leak keeps its g and saturates at `saturation` of its nominal
        # bias; each neuron is driven at its own multiple of the threshold
        # current through its stimulus trim (the nominal stim_gain is 1), in
        # one engine call
        cfg = _lif_circuit(default_circuit_config(tau_m=20e-6, E_l=0.5, t_ref=1e-6))
        leak = replace(cfg.leak_ota, I_bias=saturation * cfg.leak_ota.I_bias,
                       g_per_bias=cfg.leak_ota.g_per_bias / saturation)
        g, i_sat = float(leak.g), float(leak.I_bias)
        threshold = i_sat * math.tanh(g * (cfg.V_det - cfg.E_l) / i_sat)
        cfg = replace(cfg, leak_ota=leak, stim_trim=np.asarray(drives))
        exact = [saturating_lif_isi(cfg.t_ref, cfg.C_mem, g, i_sat, cfg.E_l, cfg.V_r,
                                    cfg.V_det, d * threshold) for d in drives]
        # the first spike, from E_l, then three interspike intervals
        first = [saturating_lif_isi(0.0, cfg.C_mem, g, i_sat, cfg.E_l, cfg.E_l,
                                    cfg.V_det, d * threshold) for d in drives]
        duration = max(f + 3.5 * isi for f, isi in zip(first, exact))
        run = simulate_population(cfg, len(drives), StimulusProgram.constant(threshold),
                                  duration=duration, dt=0.04e-6)
        for spikes, isi in zip(run.spikes, exact):
            assert len(spikes) >= 4
            assert abs(float(np.median(np.diff(spikes))) - isi) / isi <= LIF_REL_TOL


class TestStackAndBiasPaths:
    def test_stack_unstack_round_trip(self, hw_circuit):
        pop = [hw_circuit,
               set_bias(hw_circuit, "leak_ota.I_bias",
                        get_bias(hw_circuit, "leak_ota.I_bias") * 1.5)]
        stacked = Population(pop).stacked()
        back = Population.from_stacked(stacked, 2).neurons
        assert back[0] == hw_circuit
        assert get_bias(back[1], "leak_ota.I_bias") == \
            pytest.approx(get_bias(hw_circuit, "leak_ota.I_bias") * 1.5)

    def test_set_bias_returns_modified_copy(self, hw_circuit):
        out = set_bias(hw_circuit, "adaptation.ota_tau.I_bias", 1e-9)
        assert get_bias(out, "adaptation.ota_tau.I_bias") == 1e-9
        assert get_bias(hw_circuit, "adaptation.ota_tau.I_bias") != 1e-9

    def test_mixed_flags_rejected(self, hw_circuit):
        other = replace(hw_circuit,
                        exponential=replace(hw_circuit.exponential, enabled=False))
        with pytest.raises(ValueError):
            Population([hw_circuit, other])

    def test_c_mem_bound_enforced(self, hw_circuit):
        with pytest.raises(ValueError):
            replace(hw_circuit, C_mem=3e-12)
