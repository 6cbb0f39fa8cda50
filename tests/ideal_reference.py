"""Right-hand sides and jump conditions of the ideal AdEx model, written
out as the module docstring of `adexsim.model` states them.

`_stepper` is the one integrator of the ideal model; these functions are
a second, plain copy of its equations, kept apart from the package so
that the tests can hold the integrator to them.
"""

from __future__ import annotations

import math

from adexsim.model import EXP_ARG_CLAMP, AdExParameters, NeuronState


def _exp_current(V: float, p: AdExParameters, in_refractory: bool) -> float:
    """Spike-initiation current g_l * Delta_T * exp((V - V_T)/Delta_T), gated and clamped."""
    if not p.exp_enabled:
        return 0.0
    if in_refractory and p.exp_gated_in_ref:
        return 0.0
    arg = min((V - p.V_T) / p.Delta_T, EXP_ARG_CLAMP)
    return p.g_l * p.Delta_T * math.exp(arg)


def membrane_derivative(state: NeuronState, p: AdExParameters, I_ext: float) -> float:
    """Right-hand side of the membrane equation, in volts/second."""
    exp_term = _exp_current(state.V, p, state.ref_remaining > 0)
    return (-p.g_l * (state.V - p.E_l) + exp_term - state.w + I_ext) / p.C


def adaptation_derivative(state: NeuronState, p: AdExParameters) -> float:
    """Right-hand side of the adaptation equation, in amperes/second."""
    return (p.a * (state.V - p.E_l) - state.w) / p.tau_w


def apply_spike_reset(state: NeuronState, p: AdExParameters) -> NeuronState:
    """Jump conditions V -> V_r, w -> w + b; restarts the refractory timer."""
    return NeuronState(V=p.V_r, w=state.w + p.b, ref_remaining=p.t_ref)
