"""Stepwise reference of the circuit model: the oracle for `_engine`.

`circuit_step` integrates one neuron (or a stacked population) by one
step with the plain, unhoisted math of the circuit equations.  The engine
in `adexsim.circuit` must reproduce it bit for bit on every step; it lives
here, apart from the package, so that the engine is never compared with
itself.  `adaptation_dynamics` is the filter node's right-hand side, and
`run_from_state` runs the engine from a given state through
`simulate_population`.
"""

from __future__ import annotations

import numpy as np

from adexsim.circuit import (
    AdaptationCircuitConfig, CircuitNeuronConfig, CircuitState, PopulationRun,
    SynInCircuitConfig, _all, _phi, coba_effective_bias, exponential_current, ota_output,
    simulate_population,
)
from adexsim.errors import InvalidConfig, NonFiniteState
from adexsim.model import StimulusProgram


def adaptation_dynamics(state, cfg: AdaptationCircuitConfig, spike_pulse_active=False):
    """Filter-node derivative dV_w/dt and the output current I_w.

    Both OTA contributions pass through their saturation envelopes; the
    output stage mirrors the filter OTA's current g_w_factor-fold, so I_w
    equals g_w * (V_ref - V_w) in the linear regime.
    """
    if not cfg.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    out_tau = ota_output(cfg.ota_tau, cfg.V_ref, state.V_w)
    out_a = ota_output(cfg.ota_a, state.V_m, cfg.E_l_adapt)
    pulse = np.where(spike_pulse_active, cfg.pulse_amplitude, 0.0)
    dv_w = (out_tau - cfg.sign * out_a - pulse) / cfg.C_w
    return dv_w, cfg.g_w_factor * out_tau


def synin_current(s_volts, cfg: SynInCircuitConfig, V_m):
    """Output current of the synaptic input circuit for line deflection s_volts."""
    if not cfg.enabled:
        return np.zeros_like(np.asarray(s_volts, dtype=float))
    if cfg.coba_enabled:
        bias = coba_effective_bias(V_m, cfg)
    else:
        bias = cfg.I_b_cuba
    offset = cfg.follower_offset + cfg.offset_trim
    return cfg.g1_per_bias * bias * (np.asarray(s_volts) - offset)


def node_forcings(state: CircuitState, cfg: CircuitNeuronConfig, I_stim, dt: float):
    """The forcings of one step from `state`: the filter node's (None with
    adaptation off), the membrane's, and the part h of the step the
    membrane integrates (0 while held, dt - ref on its release step)."""
    V_m = np.asarray(state.V_m, dtype=float)
    V_w = np.asarray(state.V_w, dtype=float)
    ref = np.asarray(state.ref_remaining, dtype=float)
    pulse_left = np.asarray(state.pulse_remaining, dtype=float)
    ad = cfg.adaptation

    # currents at the start of the step
    I_exp = exponential_current(V_m, cfg.exponential, ref > 0)
    if ad.enabled:
        out_tau = ota_output(ad.ota_tau, ad.V_ref, V_w)
        out_a = ota_output(ad.ota_a, V_m, ad.E_l_adapt)
        I_w = ad.g_w_factor * out_tau
    else:
        I_w = np.zeros_like(V_m)
    I_syn_e = synin_current(state.s_exc, cfg.syn_exc, V_m)
    I_syn_i = synin_current(state.s_inh, cfg.syn_inh, V_m)
    leak_out = ota_output(cfg.leak_ota, cfg.E_l, V_m)
    I_inj = cfg.stim_gain * cfg.stim_trim * np.asarray(I_stim, dtype=float)

    # filter node: pulse current averaged charge-exactly over this step
    node = None
    if ad.enabled:
        pulse_I = ad.pulse_amplitude * np.minimum(pulse_left, dt) / dt
        node = out_tau - ad.sign * out_a - pulse_I
    # membrane node: held at V_r while refractory, integrates the
    # post-release fraction of the step otherwise
    h = np.clip(dt - ref, 0.0, dt)
    forcing = leak_out + I_exp - I_w + I_syn_e - I_syn_i + I_inj
    return node, forcing, h


def circuit_step(state: CircuitState, cfg: CircuitNeuronConfig, I_stim,
                 syn_events=(0.0, 0.0), dt: float = 1e-8):
    """One deterministic integration step; returns (new_state, spiked).

    `syn_events` carries the summed weights arriving at this step's end
    boundary for the excitatory and inhibitory lines.  Each node uses an
    exponential-Euler update around its small-signal conductance g, with
    the saturation residuals and cross couplings as forward terms: for a
    node of capacitance C and forcing F (the sum of its currents),

        V1 = ref + (V - ref) * exp(-lam*h) + (F + g * (V - ref)) / C * phi(lam, h)

    with lam = g / C and phi(lam, h) = (1 - exp(-lam*h)) / lam.  Since
    exp(-lam*h) + lam * phi(lam, h) = 1, the (V - ref) terms add up to
    V - ref, and the update is taken in its reduced form
    V1 = V + F * (phi(lam, h) / C).  The spike-triggered adaptation pulse
    is spread charge-exactly over the steps it overlaps.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    V_m = np.asarray(state.V_m, dtype=float)
    V_w = np.asarray(state.V_w, dtype=float)
    ref = np.asarray(state.ref_remaining, dtype=float)
    pulse_left = np.asarray(state.pulse_remaining, dtype=float)
    ad = cfg.adaptation

    node, forcing, h = node_forcings(state, cfg, I_stim, dt)
    if ad.enabled:
        V_w1 = V_w + node * (_phi(ad.g_tau / ad.C_w, dt) / ad.C_w)
    else:
        V_w1 = V_w
    V_m1 = V_m + forcing * (_phi(cfg.g_l / cfg.C_mem, h) / cfg.C_mem)

    # synaptic lines: exact decay plus boundary jumps
    exc_w, inh_w = syn_events
    s_exc1 = np.asarray(state.s_exc) * np.exp(-dt / cfg.syn_exc.tau_syn) \
        + np.asarray(exc_w) * cfg.syn_exc.dv_unit
    s_inh1 = np.asarray(state.s_inh) * np.exp(-dt / cfg.syn_inh.tau_syn) \
        + np.asarray(inh_w) * cfg.syn_inh.dv_unit

    ref1 = np.maximum(ref - dt, 0.0)
    pulse1 = np.maximum(pulse_left - dt, 0.0)

    spiked = V_m1 >= cfg.V_det
    V_m1 = np.where(spiked, cfg.V_r, V_m1)
    ref1 = np.where(spiked, cfg.t_ref, ref1)
    # a disabled circuit never applies its pulse and starts no pulse timer
    if ad.enabled:
        pulse1 = np.where(spiked, ad.pulse_width, pulse1)

    if not (_all(np.isfinite(V_m1)) and _all(np.isfinite(V_w1))
            and _all(np.isfinite(s_exc1)) and _all(np.isfinite(s_inh1))):
        raise NonFiniteState("circuit state became non-finite (dt too large?)")

    new = CircuitState(V_m=V_m1, V_w=V_w1, s_exc=s_exc1, s_inh=s_inh1,
                       ref_remaining=ref1, pulse_remaining=pulse1)
    if np.ndim(spiked) == 0:
        return new, bool(spiked)
    return new, spiked


def run_from_state(cfg: CircuitNeuronConfig, n: int, stimulus: StimulusProgram,
                   state: CircuitState, *, duration: float, dt: float,
                   record: bool = False) -> PopulationRun:
    """`simulate_population` without synaptic events, started from `state`
    rather than from rest."""
    return simulate_population(cfg, n, stimulus, duration=duration, dt=dt, record=record,
                               start=state)
