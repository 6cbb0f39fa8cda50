"""Behavioral model of the silicon neuron's sub-circuits.

The building blocks are composed onto the membrane node as

    C_mem dV_m/dt = I_leak + I_exp - I_w + I_syn_exc - I_syn_inh + I_stim

where every voltage-to-current conversion goes through a saturating OTA
with a tanh envelope.  Deviations from the ideal model (saturation,
offsets, the virtual reversal potential of the conductance-based input)
are explicit and measurable.

All update functions accept either scalar configs/states or stacked
populations whose numeric leaves are numpy arrays of equal length; the
math broadcasts, so a single implementation serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import InvalidConfig, NoIdealEquivalent, NonFiniteState
from .model import AdExParameters, SimulationTrace, StimulusProgram, _n_steps, _run_starts

MAX_MEMBRANE_CAPACITANCE = 2.47e-12
THERMAL_VOLTAGE_300K = 25.85e-3
# fixed design ratio of the current-to-voltage conversion stage feeding the
# weak-inversion transistor
EXP_CONVERSION_RATIO = 8.0
# largest x with tanh(x)/x >= 0.95, i.e. the 5%-deviation edge of the
# saturation envelope
LINEAR_5PCT_ARG = 0.39945811
# relative floor below which the rectifying mirror powers the exponential
# branch down to zero
EXP_POWER_DOWN_FLOOR = 1e-6


def _all(cond) -> bool:
    return bool(np.all(cond))


@dataclass(frozen=True)
class OtaModel:
    """Saturating transconductor: I = I_sat * tanh(g * dV / I_sat).

    The small-signal transconductance is g = g_per_bias * I_bias and the
    output saturates toward I_sat = min(I_out_max, I_bias).
    """

    I_bias: float
    g_per_bias: float
    I_out_max: float = math.inf

    def __post_init__(self):
        if not _all(np.asarray(self.I_bias) >= 0):
            raise ValueError("I_bias must be >= 0")
        if not _all(np.asarray(self.g_per_bias) > 0):
            raise ValueError("g_per_bias must be > 0")

    @property
    def g(self):
        """Small-signal transconductance at zero differential input."""
        return self.g_per_bias * self.I_bias

    @property
    def i_sat(self):
        return np.minimum(self.I_out_max, self.I_bias)

    @property
    def linear_range(self):
        """Half-width of the input range within which the transfer stays
        linear to 5% or better: the envelope's own 5%-deviation point."""
        g = self.g
        return LINEAR_5PCT_ARG * self.i_sat / np.where(np.asarray(g) > 0, g, 1.0)


def ota_output(ota: OtaModel, V_plus, V_minus):
    """Saturating odd transfer of dV = V_plus - V_minus with slope g at the origin."""
    dv = np.asarray(V_plus) - np.asarray(V_minus)
    i_sat = ota.i_sat
    live = i_sat > 0
    safe = np.where(live, i_sat, 1.0)
    out = safe * np.tanh(ota.g * dv / safe)
    return np.where(live, out, 0.0)


@dataclass(frozen=True)
class AdaptationCircuitConfig:
    """Low-pass filter on the adaptation voltage V_w plus its output stage.

    ota_tau acts as a pseudo-conductance g_tau pulling V_w toward V_ref
    (tau_w = C_w / g_tau); a g_w_factor-times stronger second output stage
    of the same OTA generates the adaptation current I_w onto the membrane.
    ota_a couples the membrane into the filter with strength g_a; `sign`
    selects the polarity of that coupling (the sign of the effective
    subthreshold adaptation strength).  Spikes trigger a rectangular
    current pulse that discharges the filter node, incrementing I_w by
    b = g_w * pulse_amplitude * pulse_width / C_w.
    """

    C_w: float
    ota_tau: OtaModel
    ota_a: OtaModel
    V_ref: float
    E_l_adapt: float
    sign: int = 1
    g_w_factor: float = 12.0
    pulse_amplitude: float = 0.0
    pulse_width: float = 0.0
    enabled: bool = True

    def __post_init__(self):
        if not _all(np.asarray(self.C_w) > 0):
            raise ValueError("C_w must be > 0")
        if not _all(np.abs(np.asarray(self.sign)) == 1):
            raise ValueError("sign must be +1 or -1")
        if not _all(np.asarray(self.g_w_factor) > 0):
            raise ValueError("g_w_factor must be > 0")
        if not _all(np.asarray(self.pulse_width) >= 0):
            raise ValueError("pulse_width must be >= 0")

    @property
    def g_tau(self):
        return self.ota_tau.g

    @property
    def g_a(self):
        return self.ota_a.g

    @property
    def g_w(self):
        return self.g_w_factor * self.g_tau

    @property
    def tau_w(self):
        return self.C_w / self.g_tau

    @property
    def a_effective(self):
        """Small-signal subthreshold adaptation strength a = sign * g_a * g_w / g_tau."""
        return self.sign * self.g_a * self.g_w_factor

    @property
    def b_effective(self):
        """Spike-triggered increment of I_w from one complete pulse."""
        return self.g_w * self.pulse_amplitude * self.pulse_width / self.C_w


@dataclass(frozen=True)
class ExponentialCircuitConfig:
    """Weak-inversion exponential feedback current.

    An OTA senses V_m against the onset reference V_exp; its (rectified,
    saturating) output is converted to a gate voltage across r_conv and
    drives a transistor in weak inversion:

        I_exp = I_0 * exp(8 * g_ota * (V_m - V_exp) * r_conv / (n * V_therm))

    yielding an effective slope Delta_T = n * V_therm / (8 * g_ota * r_conv).
    The output is clipped at I_max and powers down to exactly zero once the
    mirror input falls below a small fraction of I_0.
    """

    I_0: float
    ota: OtaModel
    r_conv: float
    V_exp: float
    n: float = 1.5
    V_therm: float = THERMAL_VOLTAGE_300K
    I_max: float = 2e-6
    enabled: bool = True
    gate_in_refractory: bool = True

    def __post_init__(self):
        if not _all(np.asarray(self.I_0) >= 0):
            raise ValueError("I_0 must be >= 0")
        if not _all(np.asarray(self.r_conv) > 0):
            raise ValueError("r_conv must be > 0")
        if not _all(np.asarray(self.n) > 0) or not _all(np.asarray(self.V_therm) > 0):
            raise ValueError("n and V_therm must be > 0")
        if not _all(np.asarray(self.I_max) > 0):
            raise ValueError("I_max must be > 0")

    @property
    def g_ota(self):
        return self.ota.g

    @property
    def delta_t_eff(self):
        """Effective exponential slope in volts."""
        return self.n * self.V_therm / (EXP_CONVERSION_RATIO * self.g_ota * self.r_conv)


def exponential_current(V_m, cfg: ExponentialCircuitConfig, in_refractory=False):
    """Rectified, saturating exponential current onto the membrane."""
    if not cfg.enabled:
        return np.zeros_like(np.asarray(V_m, dtype=float))
    drive = ota_output(cfg.ota, V_m, cfg.V_exp)
    x = EXP_CONVERSION_RATIO * cfg.r_conv * drive / (cfg.n * cfg.V_therm)
    cap = np.log(np.where(np.isfinite(cfg.I_max), cfg.I_max / np.maximum(cfg.I_0, 1e-300), 1e300))
    raw = cfg.I_0 * np.exp(np.minimum(x, cap))
    out = np.minimum(raw, cfg.I_max)
    out = np.where(out < cfg.I_0 * EXP_POWER_DOWN_FLOOR, 0.0, out)
    if cfg.gate_in_refractory:
        out = np.where(in_refractory, 0.0, out)
    return out


@dataclass(frozen=True)
class SynInCircuitConfig:
    """Synaptic integrator line plus its output OTA.

    Incoming events deposit q_unit coulombs per unit weight onto the line
    capacitance; the deflection decays with tau_syn = C_line / g_leak_line.
    OTA1 converts the deflection into the output current with
    g1 = g1_per_bias * bias, the bias being static (current-based) or
    modulated by OTA2 from the membrane potential (conductance-based),
    which synthesizes a virtual reversal at
    E_syn = E_syn_hat + I_b_cuba / g2.  Inhibitory circuits invert OTA2's
    input pair, represented here by a negative g2.

    `g_leak_line` is the commanded line leak; `leak_gain` is the device's
    gain error on it (mismatch lives here, calibration adjusts the
    command).  `follower_offset` is the residual input offset left by the
    two source followers and `offset_trim` the tunable compensation.
    """

    C_line: float
    g_leak_line: float
    I_b_cuba: float
    q_unit: float
    g1_per_bias: float = 1.2
    g2: float = 0.0
    E_syn_hat: float = 0.0
    follower_offset: float = 0.0
    offset_trim: float = 0.0
    leak_gain: float = 1.0
    coba_enabled: bool = False
    sign: str = "exc"
    enabled: bool = True

    def __post_init__(self):
        if not _all(np.asarray(self.C_line) > 0):
            raise ValueError("C_line must be > 0")
        if not _all(np.asarray(self.g_leak_line) > 0):
            raise ValueError("g_leak_line must be > 0")
        if not _all(np.asarray(self.leak_gain) > 0):
            raise ValueError("leak_gain must be > 0")
        if not _all(np.asarray(self.I_b_cuba) >= 0):
            raise ValueError("I_b_cuba must be >= 0")
        if not _all(np.asarray(self.q_unit) >= 0):
            raise ValueError("q_unit must be >= 0")
        if self.sign not in ("exc", "inh"):
            raise ValueError("sign must be 'exc' or 'inh'")
        if self.coba_enabled and not _all(np.asarray(self.g2) != 0):
            raise ValueError("coba mode requires g2 != 0")

    @property
    def tau_syn(self):
        return self.C_line / (self.g_leak_line * self.leak_gain)

    @property
    def dv_unit(self):
        """Line deflection caused by one unit-weight event."""
        return self.q_unit / self.C_line

    @property
    def virtual_reversal(self):
        if not self.coba_enabled:
            raise InvalidConfig("virtual reversal is only defined in conductance-based mode")
        return self.E_syn_hat + self.I_b_cuba / self.g2


def coba_effective_bias(V_m, cfg: SynInCircuitConfig):
    """Modulated OTA1 bias max(0, I_b_cuba + g2 * (E_syn_hat - V_m)).

    Its zero crossing defines the virtual reversal potential; bias currents
    cannot go negative, hence the clamp.
    """
    if not cfg.coba_enabled:
        raise InvalidConfig("conductance-based feedback is disabled")
    return np.maximum(0.0, cfg.I_b_cuba + cfg.g2 * (cfg.E_syn_hat - np.asarray(V_m)))


@dataclass(frozen=True)
class CircuitNeuronConfig:
    """Full behavioral neuron: membrane node plus its four sub-circuits.

    `stim_gain` models the per-neuron gain error of the stimulus DAC;
    `stim_trim` is the commanded-side correction written by calibration
    (injected current = stim_gain * stim_trim * requested current).
    """

    C_mem: float
    leak_ota: OtaModel
    E_l: float
    V_det: float
    V_r: float
    t_ref: float
    adaptation: AdaptationCircuitConfig
    exponential: ExponentialCircuitConfig
    syn_exc: SynInCircuitConfig
    syn_inh: SynInCircuitConfig
    stim_gain: float = 1.0
    stim_trim: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.C_mem)
        if not _all((c > 0) & (c <= MAX_MEMBRANE_CAPACITANCE * (1 + 1e-9))):
            raise ValueError(
                f"C_mem must lie in (0, {MAX_MEMBRANE_CAPACITANCE:.3g}] F")
        if not _all(np.asarray(self.t_ref) >= 0):
            raise ValueError("t_ref must be >= 0")
        if not _all(np.asarray(self.stim_gain) > 0):
            raise ValueError("stim_gain must be > 0")

    @property
    def g_l(self):
        return self.leak_ota.g

    @property
    def tau_m(self):
        return self.C_mem / self.g_l


@dataclass(frozen=True)
class CircuitState:
    """Node voltages plus the refractory and adaptation-pulse timers."""

    V_m: float
    V_w: float
    s_exc: float = 0.0
    s_inh: float = 0.0
    ref_remaining: float = 0.0
    pulse_remaining: float = 0.0

    def __post_init__(self):
        # scalar states are validated here; array states are checked by the
        # stepper itself (cheaper than per-construction full scans)
        for f in (self.V_m, self.V_w, self.s_exc, self.s_inh,
                  self.ref_remaining, self.pulse_remaining):
            if np.ndim(f) == 0 and not np.isfinite(f):
                raise NonFiniteState("non-finite circuit state")


def quiescent_state(cfg: CircuitNeuronConfig) -> CircuitState:
    """Resting state: membrane at E_l, filter node at its linear equilibrium."""
    v_w = np.asarray(cfg.adaptation.V_ref, dtype=float)
    if cfg.adaptation.enabled:
        g_tau = cfg.adaptation.g_tau
        drive = cfg.adaptation.sign * cfg.adaptation.g_a * (
            np.asarray(cfg.E_l) - cfg.adaptation.E_l_adapt)
        v_w = v_w - np.where(g_tau > 0, drive / np.where(g_tau > 0, g_tau, 1.0), 0.0)
    shape = np.broadcast(np.asarray(cfg.C_mem), v_w).shape
    zeros = np.zeros(shape) if shape else 0.0
    return CircuitState(V_m=np.broadcast_to(np.asarray(cfg.E_l, dtype=float), shape).copy() if shape else float(cfg.E_l),
                        V_w=np.broadcast_to(v_w, shape).copy() if shape else float(v_w),
                        s_exc=zeros, s_inh=zeros,
                        ref_remaining=zeros, pulse_remaining=zeros)


def _phi(lam, h):
    """(1 - exp(-lam*h)) / lam, safe at lam -> 0."""
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(h, dtype=float)
    small = lam * h < 1e-12
    safe = np.where(small, 1.0, lam)
    return np.where(small, h, -np.expm1(-safe * h) / safe)


@dataclass
class PopulationRun:
    """Result of a stacked population simulation."""

    dt: float
    spikes: list
    final_state: CircuitState
    # (step, neuron) of every spike as two rows, in step order
    spike_columns: np.ndarray | None = None
    V: np.ndarray | None = None
    V_w: np.ndarray | None = None
    s_exc: np.ndarray | None = None
    s_inh: np.ndarray | None = None
    adaptation_gain: np.ndarray | None = None
    adaptation_ref: np.ndarray | None = None

    def trace(self, i: int) -> SimulationTrace:
        if self.V is None:
            raise ValueError("run was not recorded")
        return SimulationTrace(
            dt=self.dt, V=self.V[:, i].copy(), w=self.V_w[:, i].copy(),
            s_exc=self.s_exc[:, i].copy(), s_inh=self.s_inh[:, i].copy(),
            spikes=np.asarray(self.spikes[i]),
            w_is_voltage=True,
            adaptation_gain=float(np.asarray(self.adaptation_gain)[i])
            if self.adaptation_gain is not None else 0.0,
            adaptation_ref=float(np.asarray(self.adaptation_ref)[i])
            if self.adaptation_ref is not None else 0.0)


def _plus_zero(x) -> bool:
    """Whether every element of x is +0.0 (-0.0 and NaN are not)."""
    x = np.asarray(x)
    return not (np.any(x != 0) or np.any(np.signbit(x)))


def _check_width(obj, n: int) -> None:
    """Raise ValueError naming the first numeric leaf of a config or state
    that is neither one value nor n values."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _check_width(value, n)
        elif not isinstance(value, (bool, str, type(None))) and np.shape(value) not in ((), (n,)):
            raise ValueError(f"{type(obj).__name__}.{f.name} does not hold {n} values")


def _countdown(x0, dt: float, limit):
    """Run timers x0 down by the engine's x <- max(x - dt, 0) while they
    are at or above dt, each for at most `limit` steps (one number, or one
    per timer).

    Returns the steps each ran and the value it then holds.  A timer that
    stopped below dt before its limit is +0.0 one step later and stays so.
    """
    x = np.array(x0, dtype=float)
    ran = np.zeros(x.shape, dtype=np.int64)
    limit = np.broadcast_to(limit, x.shape)
    on = np.flatnonzero((x >= dt) & (limit > 0))
    while on.size:
        x[on] = np.maximum(x[on] - dt, 0.0)
        ran[on] += 1
        on = on[(x[on] >= dt) & (ran[on] < limit[on])]
    return ran, x


def _engine(cfg: CircuitNeuronConfig, n: int, currents, arr_exc, arr_inh,
            state: CircuitState, dt: float, n_steps: int, record: bool):
    """Hot loop behind simulate_population, the one integrator of the circuit.

    Its oracle is the stepwise reference `circuit_step` in
    tests/stepwise_reference.py.  Every value the engine computes uses the
    math of that reference: the same operations on the same operands in
    the same order, so the engine matches it bit for bit, and a neuron's
    bits do not depend on the rest of its batch.  Constants are hoisted out of the
    loop and the arrays are updated in place.  V_w and V_m are the two rows
    of one (2, n) state, so one set of calls advances both
    exponential-Euler nodes.  A node of capacitance C, forcing F (the sum
    of its currents) and linear conductance g toward ref has the
    exponential-Euler step ref + (V - ref) * exp(-lam*h)
    + (F + g * (V - ref)) / C * phi(lam, h), with lam = g / C and
    phi(lam, h) = (1 - exp(-lam*h)) / lam.  As exp(-lam*h) + lam * phi = 1,
    that is V + F * phi(lam, h) / C, which the engine takes in its reduced
    form V <- V + F * B with B = phi(lam, h) / C: one multiply and one add
    per step.  A step skips only work whose result is known exactly:

    - the refractory and adaptation-pulse timers: from a spike each runs
      down from t_ref or pulse_width (0 with adaptation off, whose pulse
      never applies) by x <- max(x - dt, 0), so one
      countdown before the loop (`_countdown`) gives each neuron's course:
      its held steps (h = 0, B = 0, I_exp gated), its release step
      (0 < x < dt, h = dt - x, gated) with that h's B, and its pulse
      currents min(x, dt) * p_amp / dt: full while x >= dt, fractional at
      the x left below dt, idle at 0.  The membrane row of B, the I_exp
      gate mask and the pulse-current row are written
      only for the neurons that spike or change phase on a step, from
      step-keyed buckets whose entries are skipped for a neuron that has
      spiked again since.  Initial timers take the same course, and the
      final timers come from the same countdown;
    - no course gated or pulsing on a step: no I_exp gate, and no pulse
      current unless some idle pulse current (p_amp * 0.0 / dt) is not
      +0.0 (x - (+0.0) is x);
    - an adaptation sign of +1 (or -1) for every neuron: the coupling is
      subtracted (or added) without the multiply, since x - (-y) is x + y;
    - the injected current stim_gain * stim_trim * I is computed once per
      stimulus segment, where the bits of I change, not once per step;
    - a synaptic line with no arrivals that starts at +0.0 stays at +0.0:
      no decay update, and a current-based line adds a constant current;
    - an OTA whose bias is live for every neuron needs no dead-bias mask;
    - a disabled term subtracted from the forcing is left out (x - 0.0
      is x); a disabled term added stays (x + 0.0 turns -0.0 into +0.0).

    Returns the (step, neuron) columns of every spike in step order, the
    final state and the records (None unless `record`).
    """
    bc = lambda x: np.broadcast_to(np.asarray(x, dtype=float), (n,)).copy()

    ad, ex = cfg.adaptation, cfg.exponential
    # the node state: row 0 the adaptation filter V_w, row 1 the membrane V_m
    S = np.empty((2, n))
    V_w, V_m = S
    V_w[:], V_m[:] = bc(state.V_w), bc(state.V_m)
    s_exc, s_inh = bc(state.s_exc), bc(state.s_inh)
    ref0, pulse0 = bc(state.ref_remaining), bc(state.pulse_remaining)
    # an array state is checked here as a scalar CircuitState checks itself;
    # the timer courses below need finite timers to end
    for x in (V_w, V_m, s_exc, s_inh, ref0, pulse0):
        if not np.isfinite(x).all():
            raise NonFiniteState("non-finite circuit state", time=0.0)

    # the nodes integrated, the last rows of S: both, or the membrane alone
    # when adaptation is off.  Per node, in the same rows: its forcing and
    # the factor phi(lam, h) / C that turns it into the step's change (the
    # membrane's changes while refractory).
    m = 2 if ad.enabled else 1
    NODE = S[2 - m:]
    FN, B = np.empty((m, n)), np.empty((m, n))
    E_l, C_mem = bc(cfg.E_l), bc(cfg.C_mem)
    V_det, V_r, t_ref = bc(cfg.V_det), bc(cfg.V_r), bc(cfg.t_ref)
    stim_scale = bc(cfg.stim_gain) * bc(cfg.stim_trim)

    # the saturating OTAs, one row each: the leak, then the exponential's
    # and the adaptation filter's and coupling's when enabled.  A row holds
    # the input difference, then safe * tanh(g * difference / safe).
    otas = [cfg.leak_ota]
    if ex.enabled:
        otas.append(ex.ota)
    if ad.enabled:
        otas += [ad.ota_tau, ad.ota_a]
    G = np.array([bc(o.g) for o in otas])
    i_sat = np.array([bc(o.i_sat) for o in otas])
    live = i_sat > 0
    SAFE = np.where(live, i_sat, 1.0)
    dead = None if live.all() else ~live
    Z = np.empty_like(G)
    rows = iter(Z)
    z_leak = next(rows)
    lam_m = G[0] / C_mem

    if ex.enabled:
        z_exp = next(rows)
        ex_r = EXP_CONVERSION_RATIO * bc(ex.r_conv)
        ex_nvt = bc(ex.n) * bc(ex.V_therm)
        I_0, I_max = bc(ex.I_0), bc(ex.I_max)
        ex_cap = np.log(np.where(np.isfinite(I_max),
                                 I_max / np.maximum(I_0, 1e-300), 1e300))
        ex_floor = I_0 * EXP_POWER_DOWN_FLOOR
        ex_vexp = bc(ex.V_exp)
        floored = np.empty(n, dtype=bool)
    if ad.enabled:
        z_tau, z_a = rows
        V_ref, C_w, E_la = bc(ad.V_ref), bc(ad.C_w), bc(ad.E_l_adapt)
        sign, gw_f = bc(ad.sign), bc(ad.g_w_factor)
        sign_rule = 1 if np.all(sign == 1) else -1 if np.all(sign == -1) else 0
        B[0] = _phi(G[-2] / C_w, dt) / C_w
    # forcing rows: the filter node's W and the membrane's F; X is the
    # scratch of the forcing
    W, F, X = FN[0], FN[-1], np.empty(n)

    # the timer courses.  The membrane's factor over a step with h of it
    # integrated and the I_exp gate: held at h = 0 (phi = 0), free at
    # h = dt, one release step in between; the pulse current
    # min(x, dt) * p_amp / dt is full while x >= dt.  A write is
    # (row, values) pairs, made for the neurons that take it.
    pulse_i, gated = np.empty(n), np.empty(n, dtype=bool)
    p_amp = bc(ad.pulse_amplitude)
    p_width = bc(ad.pulse_width) if ad.enabled else np.zeros(n)
    pulse_at = lambda x: np.minimum(x, dt) * p_amp / dt
    full_i, idle_i = pulse_at(dt), pulse_at(0.0)
    membrane = (B[-1], gated)
    HELD = (np.zeros(n), np.ones(n, dtype=bool))
    FREE = (_phi(lam_m, dt) / C_mem, np.zeros(n, dtype=bool))

    def course(t0, p0):
        """Timers started at t0 (refractory) and p0 (pulse): the write of
        their first step, the most steps one stays gated or pulsing, and
        their phase changes.  Per change: its write, each neuron's step
        after the start (-1 where it takes none), the distinct steps, and
        whether every neuron takes it at the one step."""
        held, left = _countdown(t0, dt, n_steps)
        release = left > 0
        h = np.clip(dt - left, 0.0, dt)
        RELEASE = (_phi(lam_m, h) / C_mem, HELD[1])
        first = [(row, np.where(held > 0, a, np.where(release, b, c)))
                 for row, a, b, c in zip(membrane, HELD, RELEASE, FREE)]
        changes = [(((membrane[0], RELEASE[0]),), held, (held > 0) & release),
                   (tuple(zip(membrane, FREE)), held + release, (held > 0) | release)]
        gate_len = int((held + release).max())
        held, left = _countdown(p0, dt, n_steps)
        tail = (left != 0) | np.signbit(left)
        tail_i = pulse_at(left)
        first.append((pulse_i, np.where(held > 0, full_i, np.where(tail, tail_i, idle_i))))
        changes += [(((pulse_i, tail_i),), held, (held > 0) & tail),
                    (((pulse_i, idle_i),), held + tail, (held > 0) | tail)]
        plan = []
        for write, at, takes in changes:
            at = np.where(takes, at, -1)
            steps = np.unique(at[takes]).tolist()
            plan.append((write, at, steps, len(steps) == 1 and takes.all()))
        return first, gate_len, int((held + tail).max()), plan

    buckets = {}

    def schedule(k, idx, plan):
        """File the phase changes of the neurons idx, whose timers started
        at the end of step k, under the steps they fall on."""
        for write, at, steps, every in plan:
            for d in steps:
                if k + 1 + d < n_steps:
                    sel = idx if every else idx[at[idx] == d]
                    if sel.size:
                        buckets.setdefault(k + 1 + d, []).append((write, k, sel))

    # the initial timers start as if set by a spike at the end of step -1
    last = np.full(n, -1, dtype=np.int64)
    first, gate_until, pulse_until, plan = course(ref0, pulse0)
    for row, values in first:
        row[:] = values
    schedule(-1, np.arange(n), plan)
    on_spike, gate_len, pulse_len, spike_plan = course(t_ref, p_width)
    idle_live = not _plus_zero(idle_i)

    # synaptic lines as terms of the forcing: (kind, op, operands), op the
    # ufunc that applies the term (add for exc, subtract for inh)
    terms, moving = [], []
    for s, arrivals, syn, op in ((s_exc, arr_exc, cfg.syn_exc, np.add),
                                 (s_inh, arr_inh, cfg.syn_inh, np.subtract)):
        decay, dv = np.exp(-dt / bc(syn.tau_syn)), bc(syn.dv_unit)
        off = bc(syn.follower_offset) + bc(syn.offset_trim)
        # with no arrivals, s = +0.0 is a fixed point of the decay update
        quiet = (not np.any(arrivals) and _plus_zero(s)
                 and _plus_zero(0.0 * decay + 0.0 * dv))
        if not quiet:
            moving.append((s, decay, arrivals, dv))
        g1pb = bc(syn.g1_per_bias)
        if not syn.enabled:
            if op is np.add:
                terms.append(("const", op, 0.0))
        elif syn.coba_enabled:
            terms.append(("coba", op, (bc(syn.E_syn_hat), bc(syn.g2), bc(syn.I_b_cuba),
                                       g1pb, s, off, s - off if quiet else None)))
        elif quiet:
            terms.append(("const", op, g1pb * bc(syn.I_b_cuba) * (s - off)))
        else:
            terms.append(("cuba", op, (s, off, g1pb * bc(syn.I_b_cuba))))

    # the injected current, recomputed where the bits of the stimulus change
    segment_starts = iter(_run_starts(currents))
    next_segment = next(segment_starts)
    I_inj = np.empty(n)
    count = np.count_nonzero

    spiked = np.empty(n, dtype=bool)
    # spikes as (step, neuron) columns, in step order, of a buffer that
    # grows by half when full
    spikes, n_spikes = np.empty((2, n), dtype=np.int64), 0
    if record:
        V_rec = np.empty((n_steps + 1, n))
        Vw_rec = np.empty((n_steps + 1, n))
        se_rec = np.empty((n_steps + 1, n))
        si_rec = np.empty((n_steps + 1, n))
        V_rec[0], Vw_rec[0], se_rec[0], si_rec[0] = V_m, V_w, s_exc, s_inh

    # the loop runs a few dozen ufunc calls per step, so at small widths
    # their call overhead is the cost: ufuncs are bound to locals and
    # their output arrays passed positionally (except to np.minimum and
    # np.maximum, where a positional output is deprecated and slower)
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    minimum, maximum, copyto = np.minimum, np.maximum, np.copyto
    ex_on, ad_on = ex.enabled, ad.enabled
    gate = ex_on and ex.gate_in_refractory

    for k in range(n_steps):
        # the phase changes due on this step, but for neurons that have
        # spiked again since they were filed
        for write, k_start, sel in buckets.pop(k, ()):
            sel = sel[last[sel] == k_start]
            for row, values in write:
                row[sel] = values[sel]

        sub(E_l, V_m, z_leak)
        if ex_on:
            sub(V_m, ex_vexp, z_exp)
        if ad_on:
            sub(V_ref, V_w, z_tau)
            sub(V_m, E_la, z_a)
        mul(Z, G, Z)
        div(Z, SAFE, Z)
        np.tanh(Z, Z)
        mul(Z, SAFE, Z)
        if dead is not None:
            copyto(Z, 0.0, where=dead)

        # forcing, in the order of the stepwise reference:
        # leak + I_exp - I_w + I_syn_exc - I_syn_inh + I_stim
        if ex_on:
            mul(z_exp, ex_r, z_exp)
            div(z_exp, ex_nvt, z_exp)
            minimum(z_exp, ex_cap, out=z_exp)
            np.exp(z_exp, z_exp)
            mul(z_exp, I_0, z_exp)
            minimum(z_exp, I_max, out=z_exp)
            np.less(z_exp, ex_floor, floored)
            copyto(z_exp, 0.0, where=floored)
            if gate and k < gate_until:
                copyto(z_exp, 0.0, where=gated)
            add(z_leak, z_exp, F)
        else:
            add(z_leak, 0.0, F)
        if ad_on:
            mul(gw_f, z_tau, X)
            sub(F, X, F)
            # filter node: out_tau - sign * out_a - pulse current
            if sign_rule > 0:
                sub(z_tau, z_a, W)
            elif sign_rule < 0:
                add(z_tau, z_a, W)
            else:
                mul(z_a, sign, z_a)
                sub(z_tau, z_a, W)
            if k < pulse_until or idle_live:
                sub(W, pulse_i, W)
        for kind, op, a in terms:
            if kind == "const":
                op(F, a, F)
                continue
            if kind == "coba":
                ehat, g2, ib, g1pb, s, off, s_off = a
                sub(ehat, V_m, X)
                mul(X, g2, X)
                add(X, ib, X)
                maximum(0.0, X, out=X)
                mul(X, g1pb, X)
                mul(X, s - off if s_off is None else s_off, X)
            else:
                s, off, gib = a
                sub(s, off, X)
                mul(X, gib, X)
            op(F, X, F)
        if k == next_segment:
            mul(stim_scale, currents[k], I_inj)
            next_segment = next(segment_starts, n_steps)
        add(F, I_inj, F)

        # each node: V <- V + forcing * phi(lam, h) / C
        mul(FN, B, FN)
        add(NODE, FN, NODE)

        for s, decay, arrivals, dv in moving:
            mul(s, decay, s)
            add(s, arrivals[k] * dv, s)

        np.greater_equal(V_m, V_det, spiked)
        fired = count(spiked)
        if fired:
            copyto(V_m, V_r, where=spiked)
            idx = np.flatnonzero(spiked)
            last[idx] = k
            for row, values in on_spike:
                row[idx] = values[idx]
            schedule(k, idx, spike_plan)
            gate_until = max(gate_until, k + 1 + gate_len)
            pulse_until = max(pulse_until, k + 1 + pulse_len)
            end = n_spikes + fired
            if end > spikes.shape[1]:
                grow = max(end - spikes.shape[1], spikes.shape[1] // 2)
                spikes = np.concatenate((spikes, np.empty((2, grow), dtype=np.int64)), axis=1)
            spikes[0, n_spikes:end] = k + 1
            spikes[1, n_spikes:end] = idx
            n_spikes = end
        if record:
            V_rec[k + 1], Vw_rec[k + 1] = V_m, V_w
            se_rec[k + 1], si_rec[k + 1] = s_exc, s_inh
        if (k & 0xFF) == 0xFF and not np.isfinite(S).all():
            raise NonFiniteState("circuit state became non-finite (dt too large?)",
                                 time=(k + 1) * dt)

    if not np.isfinite(S).all():
        raise NonFiniteState("circuit state became non-finite (dt too large?)",
                             time=n_steps * dt)
    # each timer runs down from its last start for the steps left after it
    left_steps = n_steps - 1 - last
    timers = []
    for start in (np.where(last >= 0, t_ref, ref0), np.where(last >= 0, p_width, pulse0)):
        ran, x = _countdown(start, dt, left_steps)
        timers.append(np.where(ran == left_steps, x, 0.0))
    final = CircuitState(V_m=V_m, V_w=V_w, s_exc=s_exc, s_inh=s_inh,
                         ref_remaining=timers[0], pulse_remaining=timers[1])
    recs = (V_rec, Vw_rec, se_rec, si_rec) if record else None
    return spikes[:, :n_spikes], final, recs


def simulate_population(cfg: CircuitNeuronConfig, n: int,
                        stimulus: StimulusProgram,
                        syn_events=None,
                        *,
                        duration: float, dt: float,
                        initial_state: CircuitState | None = None,
                        record: bool = False) -> PopulationRun:
    """Run `n` neurons in lockstep; `cfg` leaves may be arrays of length n.

    `syn_events` maps 'exc'/'inh' to WeightedSpikeTrain objects shared by
    the whole population.  Spike times land on sample boundaries; the run
    is deterministic.
    """
    from .synapse import weights_per_boundary

    for obj in (cfg, initial_state):
        if obj is not None:
            _check_width(obj, n)
    n_steps = _n_steps(duration, dt)
    currents = stimulus.per_step_currents(n_steps, dt)

    arrivals = {}
    init_s = {}
    for key in ("exc", "inh"):
        train = (syn_events or {}).get(key)
        if train is None:
            init_s[key], arrivals[key] = 0.0, np.zeros(n_steps)
        else:
            init_s[key], arrivals[key] = weights_per_boundary(train, n_steps, dt)

    state = initial_state or quiescent_state(cfg)
    state = CircuitState(
        V_m=state.V_m, V_w=state.V_w,
        s_exc=np.asarray(state.s_exc, dtype=float)
        + init_s["exc"] * np.asarray(cfg.syn_exc.dv_unit),
        s_inh=np.asarray(state.s_inh, dtype=float)
        + init_s["inh"] * np.asarray(cfg.syn_inh.dv_unit),
        ref_remaining=state.ref_remaining,
        pulse_remaining=state.pulse_remaining)

    columns, final, recs = _engine(
        cfg, n, currents, arrivals["exc"], arrivals["inh"],
        state, dt, n_steps, record)
    steps, neuron = columns

    # each neuron's spike times, in step order: one slice of a single array
    order = np.argsort(neuron, kind="stable")
    spikes = np.split(steps[order] * dt, np.cumsum(np.bincount(neuron, minlength=n))[:-1])
    run = PopulationRun(dt=dt, spikes=spikes, final_state=final,
                        spike_columns=columns)
    if record:
        ad = cfg.adaptation
        run.V, run.V_w, run.s_exc, run.s_inh = recs
        run.adaptation_gain = np.broadcast_to(np.asarray(ad.g_w, dtype=float), (n,))
        run.adaptation_ref = np.broadcast_to(np.asarray(ad.V_ref, dtype=float), (n,))
    return run


def simulate_circuit(cfg: CircuitNeuronConfig,
                     stimulus: StimulusProgram,
                     syn_events=None,
                     *,
                     duration: float, dt: float,
                     initial_state: CircuitState | None = None) -> SimulationTrace:
    """Single-neuron circuit simulation; records V_m and the raw V_w."""
    run = simulate_population(cfg, 1, stimulus, syn_events=syn_events,
                              duration=duration, dt=dt,
                              initial_state=initial_state, record=True)
    return run.trace(0)


def derive_effective_adex(cfg: CircuitNeuronConfig) -> AdExParameters:
    """Ideal-model parameters equivalent to the circuit's small-signal limit.

    Disabled sub-circuits map to neutral values (a = b = 0, exponential
    off).  The soft threshold solves I_exp(V_T) = g_l * Delta_T.
    """
    g_l = cfg.g_l
    if not _all(np.asarray(g_l) > 0):
        raise InvalidConfig("leak bias is zero; the effective model is undefined")
    ad = cfg.adaptation
    ex = cfg.exponential
    if ad.enabled:
        tau_w = ad.tau_w
        a = ad.a_effective
        b = ad.b_effective
    else:
        tau_w = np.broadcast_to(1.0, np.shape(np.asarray(cfg.C_mem))) if np.ndim(cfg.C_mem) else 1.0
        a = b = 0.0 * np.asarray(g_l)
    delta_t = ex.delta_t_eff
    if ex.enabled:
        v_t = ex.V_exp + delta_t * np.log(g_l * delta_t / ex.I_0)
        v_det = np.broadcast_to(np.asarray(cfg.V_det, dtype=float), np.shape(v_t))
        reached = np.atleast_1d(~(v_det > v_t))
        if reached.any():
            i = int(np.argmax(reached))
            raise NoIdealEquivalent(
                f"neuron {i}: derived V_T = {np.atleast_1d(v_t)[i]:.6g} V reaches "
                f"V_det = {np.atleast_1d(v_det)[i]:.6g} V, no ideal AdEx equivalent "
                f"with the exponential term on")
    else:
        v_t = np.asarray(cfg.E_l, dtype=float)
    return AdExParameters(
        C=cfg.C_mem, g_l=g_l, E_l=cfg.E_l, V_T=v_t, Delta_T=delta_t,
        tau_w=tau_w, a=a, b=b, V_r=cfg.V_r, V_det=cfg.V_det,
        t_ref=cfg.t_ref, exp_enabled=ex.enabled,
        exp_gated_in_ref=ex.gate_in_refractory)


# ---------------------------------------------------------------------------
# defaults and construction helpers

def default_leak_ota(tau_m: float = 20e-6, C_mem: float = MAX_MEMBRANE_CAPACITANCE,
                     g_per_bias: float = 0.5) -> OtaModel:
    g = C_mem / tau_m
    return OtaModel(I_bias=g / g_per_bias, g_per_bias=g_per_bias)


def default_circuit_config(tau_m: float = 20e-6,
                           E_l: float = 0.5, V_det: float = 0.75, V_r: float = 0.35,
                           t_ref: float = 1e-6,
                           adaptation_enabled: bool = False,
                           exponential_enabled: bool = False,
                           coba: bool = False) -> CircuitNeuronConfig:
    """Nominal neuron with device constants spanning the documented ranges.

    The device constants (g_per_bias, r_conv, I_0, n, V_therm) are not
    measured quantities; they are defaults chosen so the reachable
    effective-parameter ranges cover the documented hardware envelope.

    With the exponential enabled these defaults have no ideal equivalent:
    the derived V_T is 0.760 V, above V_det = 0.75 V, so
    `derive_effective_adex` (and `default_mismatch_model`, which calls it)
    raises NoIdealEquivalent.  For a neuron with one, build it with
    `circuit_for_adex` from ideal parameters, or give it a V_T below V_det
    (a config's `v_t`).
    """
    C_mem = MAX_MEMBRANE_CAPACITANCE
    adaptation = AdaptationCircuitConfig(
        C_w=2e-12,
        ota_tau=OtaModel(I_bias=2e-12 / 100e-6 / 0.5, g_per_bias=0.5),
        ota_a=OtaModel(I_bias=1e-8, g_per_bias=0.5),
        V_ref=0.6, E_l_adapt=E_l, sign=1,
        pulse_amplitude=0.0, pulse_width=0.1e-6,
        enabled=adaptation_enabled)
    exponential = ExponentialCircuitConfig(
        I_0=10e-12,
        ota=OtaModel(I_bias=4.847e-7 / 0.25, g_per_bias=0.25),
        r_conv=500e3, V_exp=0.65,
        enabled=exponential_enabled)
    syn_exc = SynInCircuitConfig(
        C_line=3e-12, g_leak_line=0.3e-6, I_b_cuba=0.5e-6, q_unit=0.18e-12,
        g2=0.5e-6 if coba else 0.0, E_syn_hat=0.7,
        coba_enabled=coba, sign="exc")
    syn_inh = SynInCircuitConfig(
        C_line=3e-12, g_leak_line=0.3e-6, I_b_cuba=0.5e-6, q_unit=0.18e-12,
        g2=-0.5e-6 if coba else 0.0, E_syn_hat=0.45,
        coba_enabled=coba, sign="inh")
    return CircuitNeuronConfig(
        C_mem=C_mem,
        leak_ota=default_leak_ota(tau_m, C_mem),
        E_l=E_l, V_det=V_det, V_r=V_r, t_ref=t_ref,
        adaptation=adaptation, exponential=exponential,
        syn_exc=syn_exc, syn_inh=syn_inh)


def circuit_for_adex(target: AdExParameters,
                     template: CircuitNeuronConfig | None = None,
                     pulse_width: float | None = None) -> CircuitNeuronConfig:
    """Nominal circuit configuration realizing the given ideal parameters.

    Biases follow the small-signal formulas; V_exp is placed so the
    exponential current at V_T equals g_l * Delta_T.  Mismatch-free, this
    round-trips through derive_effective_adex.
    """
    cfg = template or default_circuit_config()
    ad = cfg.adaptation
    ex = cfg.exponential

    leak = replace(cfg.leak_ota, I_bias=target.g_l / cfg.leak_ota.g_per_bias)

    width = pulse_width if pulse_width is not None else (
        ad.pulse_width if ad.pulse_width > 0 else 0.1e-6)
    adapt_on = (target.a != 0.0) or (target.b != 0.0)
    g_tau = ad.C_w / target.tau_w
    ota_tau = replace(ad.ota_tau, I_bias=g_tau / ad.ota_tau.g_per_bias)
    g_a = abs(target.a) / ad.g_w_factor
    ota_a = replace(ad.ota_a, I_bias=g_a / ad.ota_a.g_per_bias)
    g_w = ad.g_w_factor * g_tau
    amplitude = target.b * ad.C_w / (g_w * width)
    adaptation = replace(
        ad, ota_tau=ota_tau, ota_a=ota_a,
        sign=1 if target.a >= 0 else -1,
        E_l_adapt=target.E_l,
        pulse_amplitude=amplitude, pulse_width=width,
        enabled=adapt_on)

    if target.exp_enabled:
        g_ota = ex.n * ex.V_therm / (EXP_CONVERSION_RATIO * ex.r_conv * target.Delta_T)
        v_exp = target.V_T - target.Delta_T * math.log(
            target.g_l * target.Delta_T / ex.I_0)
        exponential = replace(
            ex, ota=replace(ex.ota, I_bias=g_ota / ex.ota.g_per_bias),
            V_exp=v_exp, enabled=True,
            gate_in_refractory=target.exp_gated_in_ref)
    else:
        exponential = replace(ex, enabled=False)

    return replace(
        cfg, C_mem=target.C, leak_ota=leak,
        E_l=target.E_l, V_det=target.V_det, V_r=target.V_r, t_ref=target.t_ref,
        adaptation=adaptation, exponential=exponential)


# ---------------------------------------------------------------------------
# bias paths

def get_bias(cfg, path: str):
    """Read a numeric knob by dotted path, e.g. 'leak_ota.I_bias'."""
    obj = cfg
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def set_bias(cfg, path: str, value):
    """Return a copy of cfg with the knob at the dotted path replaced."""
    names = path.split(".")

    def rec(obj, idx):
        if idx == len(names) - 1:
            return replace(obj, **{names[idx]: value})
        child = getattr(obj, names[idx])
        return replace(obj, **{names[idx]: rec(child, idx + 1)})

    return rec(cfg, 0)
