"""Ideal adaptive exponential integrate-and-fire neuron.

Membrane and adaptation dynamics

    C dV/dt     = -g_l (V - E_l) + g_l Delta_T exp((V - V_T)/Delta_T) - w + I
    tau_w dw/dt = a (V - E_l) - w

with jump conditions V -> V_r, w -> w + b on a spike, detected numerically
at V >= V_det.  The integrator is an explicit exponential-Euler scheme:
leak and adaptation use the exact exponential update over dt, the
spike-initiation current and the V/w coupling enter as forward terms
(declared order 1, exact for the pure-LIF reduction).

This module is the reference oracle for the circuit-level model.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import NonFiniteState, NotLeakOverThreshold

# Clamp on the spike-initiation exponent: keeps the forward term finite
# between detection steps.  Unreachable in well-posed configurations since
# detection at V_det fires first.
EXP_ARG_CLAMP = 20.0


@dataclass(frozen=True)
class AdExParameters:
    """Constants of the ideal model plus reset/threshold/refractory bookkeeping.

    All quantities are SI.  `V_det` is the numerical spike-detection level
    (a free parameter, not derived from the soft threshold V_T).  With
    `exp_gated_in_ref` set, the spike-initiation current is forced to zero
    while the neuron is refractory.
    """

    C: float
    g_l: float
    E_l: float
    V_T: float
    Delta_T: float
    tau_w: float
    a: float
    b: float
    V_r: float
    V_det: float
    t_ref: float = 0.0
    exp_enabled: bool = True
    exp_gated_in_ref: bool = False

    def __post_init__(self):
        # the checks hold element by element, so a stacked population of
        # parameters (array fields) is checked neuron by neuron
        if not np.all(np.asarray(self.C) > 0):
            raise ValueError("C must be > 0")
        if not np.all(np.asarray(self.tau_w) > 0):
            raise ValueError("tau_w must be > 0")
        if np.any(np.asarray(self.t_ref) < 0):
            raise ValueError("t_ref must be >= 0")
        if np.any(np.asarray(self.g_l) < 0):
            raise ValueError("g_l must be >= 0")
        if self.exp_enabled:
            if not np.all(np.asarray(self.Delta_T) > 0):
                raise ValueError("Delta_T must be > 0 when the exponential term is enabled")
            if not np.all(np.asarray(self.V_det) > np.asarray(self.V_T)):
                raise ValueError("V_det must exceed V_T when the exponential term is enabled")

    @property
    def tau_m(self) -> float:
        return self.C / self.g_l


def lif_parameters(C, g_l, E_l, V_r, V_det, t_ref=0.0) -> AdExParameters:
    """Pure leaky integrate-and-fire reduction (no exponential, no adaptation)."""
    return AdExParameters(
        C=C, g_l=g_l, E_l=E_l, V_T=E_l, Delta_T=1e-3, tau_w=1.0,
        a=0.0, b=0.0, V_r=V_r, V_det=V_det, t_ref=t_ref, exp_enabled=False)


@dataclass(frozen=True)
class NeuronState:
    """Instantaneous (V, w) pair plus the remaining refractory time."""

    V: float
    w: float
    ref_remaining: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.V) and math.isfinite(self.w)):
            raise NonFiniteState(f"non-finite state V={self.V}, w={self.w}")
        if self.ref_remaining < 0:
            raise ValueError("ref_remaining must be >= 0")


@dataclass(frozen=True)
class StimulusProgram:
    """Piecewise-constant current program; the last segment extends to the end."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((float(t), float(i)) for t, i in self.segments)
        if not segs:
            raise ValueError("stimulus needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError("first stimulus segment must start at t = 0")
        times = [t for t, _ in segs]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("stimulus segment start times must be strictly increasing")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def constant(cls, current: float) -> "StimulusProgram":
        return cls(((0.0, current),))

    @classmethod
    def step(cls, onset: float, amplitude: float, offset: float | None = None,
             baseline: float = 0.0) -> "StimulusProgram":
        """Step of `amplitude` from `onset` to `offset` (or until the end)."""
        if not onset >= 0:
            raise ValueError(f"onset must be >= 0 s, got {onset!r} s")
        segs = [(0.0, baseline)] if onset > 0 else []
        segs.append((onset, amplitude))
        if offset is not None:
            segs.append((offset, baseline))
        return cls(tuple(segs))

    def current_at(self, t: float) -> float:
        idx = bisect_right(self.segments, t, key=lambda seg: seg[0]) - 1
        return self.segments[max(idx, 0)][1]

    def per_step_currents(self, n_steps: int, dt: float) -> np.ndarray:
        """Current at the start of each of the n integration steps."""
        starts = np.array([t for t, _ in self.segments])
        values = np.array([i for _, i in self.segments])
        t = np.arange(n_steps) * dt
        idx = np.searchsorted(starts, t, side="right") - 1
        return values[np.maximum(idx, 0)]


def _run_starts(values: np.ndarray) -> list:
    """Indices where the bits of a float array change, 0 first: the starts
    of its runs of bit-identical values (-0.0 and +0.0 differ)."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    return [0] + (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()


@dataclass
class SimulationTrace:
    """Time-sampled record of one simulation.

    `V`, `w`, `s_exc`, `s_inh` hold n_steps+1 samples (including t = 0);
    spike times lie on sample boundaries.  Circuit simulations record the
    adaptation state as a voltage; `w_is_voltage` plus the gain/reference
    pair allow reconstruction of the equivalent adaptation current
    g_w * (V_ref - V_w).
    """

    dt: float
    V: np.ndarray
    w: np.ndarray
    s_exc: np.ndarray
    s_inh: np.ndarray
    spikes: np.ndarray
    w_is_voltage: bool = False
    adaptation_gain: float = 0.0
    adaptation_ref: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.V)) * self.dt

    def adaptation_current(self) -> np.ndarray:
        if self.w_is_voltage:
            return self.adaptation_gain * (self.adaptation_ref - self.w)
        return self.w

    def isis(self) -> np.ndarray:
        return np.diff(self.spikes)


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


def _membrane_factors(lam: float, h: float):
    """exp(-lam*h) and (1 - exp(-lam*h)) / lam, with the h limit at lam <= 0."""
    if lam > 0:
        return math.exp(-lam * h), -math.expm1(-lam * h) / lam
    return 1.0, h


def _stepper(p: AdExParameters, dt: float):
    """The one per-step function of the ideal model, bound to (p, dt).

    Returns advance(V, w, ref, I_ext) -> (V, w, ref, spiked).  The
    constants of a run are computed once here: exp(-dt/tau_w), the
    membrane factors at h = dt and g_l * Delta_T.  The spike is assigned
    to the end of the step in which V >= V_det first holds; V is clamped
    to V_r for the remainder of the step.  During the refractory period V
    is held at V_r while w keeps evolving; the release may fall inside a
    step, in which case only the post-release fraction is integrated.
    """
    E_l, V_r, V_det, C, a, b = p.E_l, p.V_r, p.V_det, p.C, p.a, p.b
    t_ref = p.t_ref
    decay_w = math.exp(-dt / p.tau_w)
    keep_w = 1.0 - decay_w
    lam = p.g_l / p.C
    decay_free, phi_free = _membrane_factors(lam, dt)
    exp_on = p.exp_enabled
    V_T, Delta_T, exp_gain = p.V_T, p.Delta_T, p.g_l * p.Delta_T
    v_r_finite = math.isfinite(V_r)
    isfinite, exp = math.isfinite, math.exp

    def advance(V, w, ref, I_ext):
        if ref >= dt:
            w1 = w * decay_w + a * (V_r - E_l) * keep_w
            if not isfinite(w1):
                raise NonFiniteState(f"w became non-finite (w={w1})")
            if not v_r_finite:
                raise NonFiniteState(f"non-finite state V={V_r}, w={w1}")
            return V_r, w1, ref - dt, False

        # window actually integrated for V (full dt when not refractory)
        if ref == 0:
            V0, decay, phi = V, decay_free, phi_free
        else:
            V0 = V_r if ref > 0 else V
            decay, phi = _membrane_factors(lam, dt - ref)
        w1 = w * decay_w + a * (V0 - E_l) * keep_w

        # the spike-initiation current, clamped; never gated here, since
        # the integrated window lies after the release
        if exp_on:
            i_exp = exp_gain * exp(min((V0 - V_T) / Delta_T, EXP_ARG_CLAMP))
        else:
            i_exp = 0.0
        forcing = (i_exp - w + I_ext) / C
        V1 = E_l + (V0 - E_l) * decay + forcing * phi

        if not (isfinite(V1) and isfinite(w1)):
            raise NonFiniteState(f"state became non-finite (V={V1}, w={w1})")

        if V1 >= V_det:
            # jump conditions V -> V_r, w -> w + b; restarts the refractory timer
            w1 = w1 + b
            if not (v_r_finite and isfinite(w1)):
                raise NonFiniteState(f"non-finite state V={V_r}, w={w1}")
            return V_r, w1, t_ref, True
        return V1, w1, 0.0, False

    return advance


def step(state: NeuronState, p: AdExParameters, I_ext: float, dt: float):
    """Advance (V, w) by one step; returns (new_state, spiked).

    The step rules are those of `_stepper`, which `simulate` runs too.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    V, w, ref, spiked = _stepper(p, dt)(state.V, state.w, state.ref_remaining, I_ext)
    return NeuronState(V, w, ref), spiked


def simulate(p: AdExParameters,
             stimulus: StimulusProgram,
             synaptic_inputs: Sequence | None = None,
             *,
             duration: float,
             dt: float,
             initial_state: NeuronState | None = None) -> SimulationTrace:
    """Deterministic full simulation; identical inputs yield identical traces.

    `synaptic_inputs` is a sequence of (SynapseConfig, WeightedSpikeTrain)
    pairs; their traces are integrated alongside the neuron and translated
    to membrane currents each step.
    """
    from .synapse import synaptic_current, trace_step, weights_per_boundary

    if not duration > 0:
        raise ValueError("duration must be > 0")
    if not dt > 0:
        raise ValueError("dt must be > 0")
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ValueError("duration shorter than one step")

    state = initial_state or NeuronState(p.E_l, 0.0, 0.0)
    # the per-step currents as Python floats, one run of equal bits at a time
    currents = stimulus.per_step_currents(n_steps, dt)
    starts = _run_starts(currents)
    step_currents = chain.from_iterable(
        repeat(currents.item(a), b - a) for a, b in zip(starts, starts[1:] + [n_steps]))
    advance = _stepper(p, dt)

    syn = []
    for cfg, train in (synaptic_inputs or ()):
        s0, arrivals = weights_per_boundary(train, n_steps, dt)
        syn.append([cfg, float(s0), arrivals])

    V = np.empty(n_steps + 1)
    w = np.empty(n_steps + 1)
    s_exc = np.zeros(n_steps + 1)
    s_inh = np.zeros(n_steps + 1)
    V[0], w[0] = state.V, state.w
    for cfg, s0, _ in syn:
        if cfg.is_excitatory:
            s_exc[0] += s0
        else:
            s_inh[0] += s0
    spikes = []

    v, w_k, ref = state.V, state.w, state.ref_remaining
    try:
        for k, I in enumerate(step_currents):
            for entry in syn:
                I += synaptic_current(entry[1], entry[0], v)
            v, w_k, ref, spiked = advance(v, w_k, ref, I)
            if spiked:
                spikes.append((k + 1) * dt)
            V[k + 1] = v
            w[k + 1] = w_k
            if syn:
                se = si = 0.0
                for entry in syn:
                    cfg = entry[0]
                    entry[1] = trace_step(entry[1], cfg.tau_syn, dt, entry[2][k])
                    if cfg.is_excitatory:
                        se += entry[1]
                    else:
                        si += entry[1]
                s_exc[k + 1], s_inh[k + 1] = se, si
    except NonFiniteState as err:
        raise NonFiniteState(str(err), time=(k + 1) * dt) from None

    return SimulationTrace(dt=dt, V=V, w=w, s_exc=s_exc, s_inh=s_inh,
                           spikes=np.array(spikes))


def predicted_lot_isi(p: AdExParameters, I_ext: float) -> float:
    """Closed-form interspike interval in the leak-over-threshold regime.

    Valid for the LIF reduction (exponential disabled, a = b = 0):
    t_ref + tau_m * ln((V_inf - V_r)/(V_inf - V_det)) with
    V_inf = E_l + I/g_l.
    """
    if p.exp_enabled or p.a != 0.0 or p.b != 0.0:
        raise ValueError("closed-form ISI requires the LIF reduction (exp off, a = b = 0)")
    if not p.g_l > 0:
        raise ValueError("g_l must be > 0")
    v_inf = p.E_l + I_ext / p.g_l
    if v_inf <= p.V_det:
        raise NotLeakOverThreshold(
            f"equilibrium {v_inf:.6g} V does not exceed the detection threshold {p.V_det:.6g} V")
    return p.t_ref + p.tau_m * math.log((v_inf - p.V_r) / (v_inf - p.V_det))
