"""Measurement routines: extract effective parameters from circuit responses.

Each routine scripts a stimulus/response protocol (release transient,
clamped sweep, single event) and fits the effective parameter with plain
linear least squares on suitably transformed data, or solves the
subthreshold steady state directly (`_steady_state`).  No routine
integrates on its own: a response is either run on the circuit engine
(`simulate_population`) or the ideal model (`simulate`), or read from a
closed form (the release transients, `_release_fit`).
Routines accept an ideal-model parameter set, a single circuit config, or
a stacked population config (array leaves); population calls return arrays
with NaN marking per-neuron fit failures, scalar calls raise FitFailed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    CircuitNeuronConfig, OtaModel, coba_effective_bias, exponential_current,
    simulate_population,
)
from .errors import FitFailed, InvalidConfig
from .model import AdExParameters, StimulusProgram, simulate
from .synapse import SynapseConfig, WeightedSpikeTrain


@dataclass(frozen=True)
class ReleaseProtocol:
    """Clamp-and-release measurement: offset, fit window and quality gate.

    The default offset stays well inside the linear range of the
    transconductors; the fit runs from release until the deflection has
    decayed to `floor_fraction` of the offset.  The release is sampled
    every tau_min / RELEASE_STEPS_PER_TAU for RELEASE_WINDOW_TAUS * tau_max,
    with tau the nominal time constants of the population.
    """

    offset: float = 0.05
    floor_fraction: float = 0.02
    r2_min: float = 0.99
    min_samples: int = 12


RELEASE_STEPS_PER_TAU = 150
RELEASE_WINDOW_TAUS = 7.0
NO_DECAY = "deflection did not decay"


def _population_size(cfg: CircuitNeuronConfig):
    arr = np.asarray(cfg.C_mem)
    return int(arr.shape[0]) if arr.ndim else None


def _scalarize(values, errors, n):
    """Population call -> array; scalar call -> float or FitFailed."""
    if n is not None:
        return values
    if errors and errors[0] is not None:
        raise FitFailed(errors[0])
    return float(values[0])


def log_linear_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares fit of ln(y) = slope * x + intercept; returns (slope, intercept, r2)."""
    ly = np.log(y)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _fit_decay(times, deflection, proto: ReleaseProtocol):
    """Fit a single-exponential decay; returns (tau, None) or (nan, reason)."""
    if abs(deflection[0]) < 1e-12:
        return math.nan, "nothing to fit (zero release offset)"
    y = deflection / deflection[0]
    floor = proto.floor_fraction
    below = np.nonzero(y <= floor)[0]
    end = int(below[0]) if len(below) else len(y)
    if end < proto.min_samples:
        return math.nan, f"only {end} samples above the fit floor"
    yw = y[:end]
    if np.any(yw <= 0):
        return math.nan, "non-monotone trace (deflection crossed zero)"
    slope, _, r2 = log_linear_fit(times[:end], yw)
    if slope >= 0:
        return math.nan, NO_DECAY
    if r2 < proto.r2_min:
        return math.nan, f"fit R^2 = {r2:.4f} below {proto.r2_min}"
    return -1.0 / slope, None


def _disable(cfg: CircuitNeuronConfig, adaptation=False, exponential=False,
             synin=False, spiking=False) -> CircuitNeuronConfig:
    """Copy of cfg with the named sub-circuits digitally disabled."""
    out = cfg
    if adaptation and out.adaptation.enabled:
        out = replace(out, adaptation=replace(out.adaptation, enabled=False))
    if exponential and out.exponential.enabled:
        out = replace(out, exponential=replace(out.exponential, enabled=False))
    if synin:
        out = replace(out,
                      syn_exc=replace(out.syn_exc, enabled=False),
                      syn_inh=replace(out.syn_inh, enabled=False))
    if spiking:
        out = replace(out, V_det=math.inf)
    return out


def _per_neuron(x, m):
    return np.broadcast_to(np.asarray(x, dtype=float), (m,))


# ---------------------------------------------------------------------------
# subthreshold steady states

# reasons a steady-state solve comes back NaN
NO_ROOT = "no steady state inside the leak OTA's saturation"
FILTER_SATURATED = "adaptation filter node has no fixed point (|out_a| >= ota_tau saturation)"
UNSTABLE = "steady state is unstable (a <= -g_l locally)"

# leak OTA argument g * dV / I_sat beyond which tanh is 1 in double precision:
# the edge of the search window around E_l
LEAK_SATURATION_ARG = 20.0
# geometric scan from the start point toward the window edge, factor 2 apart
SCAN_POINTS = 64


def _ota(ota: OtaModel, dv, m):
    """Output of a saturating OTA and its slope d(out)/d(dv)."""
    g = _per_neuron(ota.g, m)
    i_sat = _per_neuron(ota.i_sat, m)
    live = i_sat > 0
    t = np.tanh(g * dv / np.where(live, i_sat, 1.0))
    return np.where(live, i_sat * t, 0.0), np.where(live, g * (1.0 - t * t), 0.0)


def _steady_state(cfg: CircuitNeuronConfig, m: int, current, start=None):
    """Resting V_m of every neuron under a constant stimulus command.

    `cfg` must have spiking, the exponential and the adaptation pulse off;
    enabled synaptic lines contribute at zero deflection.  At rest the
    filter node forces out_tau = sign * out_a, so V solves

        leak(E_l - V) - sign * g_w_factor * out_a(V - E_l_adapt)
            + I_syn(s = 0) + stim_gain * stim_trim * I = 0,

    which is also the fixed point of the exponential-Euler update for any
    dt.  From `start` (default E_l) the root is bracketed by a geometric
    scan in the direction the net current pushes V, then bisected to
    adjacent doubles; every neuron is solved on its own, so a batch gives
    the same bits as each neuron alone.  Returns (V, reasons): V is NaN
    and reasons[i] names the cause where neuron i has no stable rest.
    """
    e_l = _per_neuron(cfg.E_l, m)
    inj = _per_neuron(cfg.stim_gain, m) * _per_neuron(cfg.stim_trim, m) \
        * _per_neuron(current, m)
    ad = cfg.adaptation
    lines = [(sgn, syn) for sgn, syn in ((1.0, cfg.syn_exc), (-1.0, cfg.syn_inh))
             if syn.enabled]

    def balance(V):
        """Net membrane current at the filter node's fixed point and its slope."""
        f, df = _ota(cfg.leak_ota, e_l - V, m)
        df = -df
        if ad.enabled:
            out_a, d_a = _ota(ad.ota_a, V - _per_neuron(ad.E_l_adapt, m), m)
            gain = _per_neuron(ad.sign, m) * _per_neuron(ad.g_w_factor, m)
            f, df = f - gain * out_a, df - gain * d_a
        for sgn, syn in lines:
            level = -sgn * _per_neuron(syn.g1_per_bias, m) * (
                _per_neuron(syn.follower_offset, m) + _per_neuron(syn.offset_trim, m))
            if syn.coba_enabled:
                g2 = _per_neuron(syn.g2, m)
                bias = coba_effective_bias(V, syn)
                f, df = f + level * bias, df - level * np.where(bias > 0, g2, 0.0)
            else:
                f = f + level * _per_neuron(syn.I_b_cuba, m)
        return f + inj, df

    with np.errstate(invalid="ignore", divide="ignore"):
        g_l = _per_neuron(cfg.g_l, m)
        half = LEAK_SATURATION_ARG * _per_neuron(cfg.leak_ota.i_sat, m) \
            / np.where(g_l > 0, g_l, math.nan)
        v0 = e_l if start is None else _per_neuron(start, m)
        direction = np.sign(balance(v0)[0])
        # scan points v0 + 2^-k * (edge - v0), nearest first
        span = e_l + direction * half - v0
        grid = v0 + 2.0 ** -np.arange(SCAN_POINTS - 1, -1, -1.0)[:, None] * span
        crossed = direction * balance(grid)[0] <= 0
        first = np.argmax(crossed, axis=0)
        cols = np.arange(m)
        found = crossed[first, cols] & (direction * span > 0)
        hi = grid[first, cols]
        lo = np.where(first > 0, grid[first - 1, cols], v0)
        active = found.copy()
        while True:
            mid = lo + 0.5 * (hi - lo)
            active &= (mid != lo) & (mid != hi)
            if not active.any():
                break
            ahead = direction * balance(mid)[0] > 0
            lo = np.where(active & ahead, mid, lo)
            hi = np.where(active & ~ahead, mid, hi)
        root = np.where(direction == 0, v0, np.where(found, hi, math.nan))
        slope = balance(root)[1]
        filter_ok = np.ones(m, dtype=bool)
        if ad.enabled:
            out_a = _ota(ad.ota_a, root - _per_neuron(ad.E_l_adapt, m), m)[0]
            filter_ok = np.abs(out_a) < _per_neuron(ad.ota_tau.i_sat, m)

    reasons = []
    for i in range(m):
        if not np.isfinite(root[i]):
            reasons.append(NO_ROOT)
        elif not filter_ok[i]:
            reasons.append(FILTER_SATURATED)
        elif not slope[i] < 0:
            reasons.append(UNSTABLE)
        else:
            reasons.append(None)
    return np.where([r is None for r in reasons], root, math.nan), reasons


def _steady_deflection(cfg: CircuitNeuronConfig, m: int, step):
    """Shift of the resting V_m when the command steps from 0 to `step`;
    returns (deflection, reasons) as `_steady_state` does."""
    rest, err_rest = _steady_state(cfg, m, 0.0)
    moved, err_moved = _steady_state(cfg, m, step, start=rest)
    return moved - rest, [e0 or e1 for e0, e1 in zip(err_rest, err_moved)]


# ---------------------------------------------------------------------------
# release transients

def _release_fit(ota: OtaModel, cap, proto: ReleaseProtocol, n):
    """Fit the release of a node that only a saturating OTA pulls back.

    The deflection x from the OTA's reference then obeys
    C dx/dt = -I_sat * tanh(g * x / I_sat), whose exact solution is
    sinh(g * x / I_sat) = sinh(g * x0 / I_sat) * exp(-g * t / C).  It is
    sampled on the protocol grid, with tau = C / g of the live neurons,
    and fitted as a recorded release would be.  A dead bias (I_sat = 0)
    leaves the node at x0, which the fit reports as not decaying.
    """
    m = n or 1
    g, i_sat, cap = (_per_neuron(x, m) for x in (ota.g, ota.i_sat, cap))
    live = i_sat > 0
    if not live.any():
        return _scalarize(np.full(m, math.nan), [NO_DECAY] * m, n)
    tau = cap[live] / g[live]
    dt = float(tau.min()) / RELEASE_STEPS_PER_TAU
    times = np.arange(int(round(RELEASE_WINDOW_TAUS * float(tau.max()) / dt)) + 1) * dt
    k = g / np.where(live, i_sat, 1.0)
    u0 = np.abs(k * proto.offset)
    with np.errstate(divide="ignore", invalid="ignore"):
        # ln sinh(u), so that a large u0 cannot overflow; then
        # u = asinh(exp(ln sinh(u)))
        log_sinh = (u0 + np.log(-np.expm1(-2.0 * u0)) - math.log(2.0)
                    - times[:, None] * (g / cap))
        u = np.logaddexp(log_sinh, 0.5 * np.logaddexp(2.0 * log_sinh, 0.0))
        trace = np.where(live, math.copysign(1.0, proto.offset) * u / k, proto.offset)
    values = np.empty(m)
    errors = []
    for i in range(m):
        values[i], err = _fit_decay(times, trace[:, i], proto)
        errors.append(err)
    return _scalarize(values, errors, n)


def measure_tau_m(neuron, protocol: ReleaseProtocol | None = None):
    """Membrane time constant from the release of an offset membrane.

    With every sub-circuit but the leak off, the release follows the
    leak OTA's closed form (`_release_fit`, C_mem and g_l).  The ideal
    model's membrane decays as a pure exponential, whose fit returns
    C / g_l to rounding, so that is returned directly (the protocol
    applies to circuits only).
    """
    if isinstance(neuron, AdExParameters):
        return float(neuron.tau_m)
    return _release_fit(neuron.leak_ota, neuron.C_mem, protocol or ReleaseProtocol(),
                        _population_size(neuron))


# ---------------------------------------------------------------------------
# adaptation: time constant and subthreshold strength

def measure_tau_w(neuron, protocol: ReleaseProtocol | None = None):
    """Adaptation time constant from the release of an offset filter node.

    The membrane is held at the adaptation reference so the subthreshold
    coupling contributes nothing; the filter node relaxes toward V_ref
    along the `ota_tau` closed form (`_release_fit`, C_w and g_tau).  The
    ideal model's w decays as a pure exponential, whose fit returns tau_w
    to rounding, so that is returned directly (the protocol applies to
    circuits only).
    """
    if isinstance(neuron, AdExParameters):
        return float(neuron.tau_w)
    ad = neuron.adaptation
    if not ad.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    return _release_fit(ad.ota_tau, ad.C_w, protocol or ReleaseProtocol(),
                        _population_size(neuron))


def _a_protocol(a, g_l, deflection_target):
    """Per-neuron leak boost and step amplitude of the `a` readout.

    For strong negative coupling the leak is raised to keep the coupled
    system stable (a <= -g_l has no subthreshold steady state otherwise);
    the step is sized for a fixed deflection of the coupled system.
    """
    boost = np.maximum(1.0, 2.5 * np.abs(a) / g_l)
    g_meas = g_l * boost
    return boost, deflection_target * np.maximum(g_meas + a, 0.2 * g_meas)


def measure_subthreshold_a(neuron, deflection_target: float = 0.03):
    """Effective subthreshold adaptation strength from two steady states.

    With adaptation disabled the steady deflection under a current step
    gives g_l = dI/dV; with adaptation enabled it gives g_l + a.  Spiking,
    the exponential and the synaptic inputs are off throughout, and each
    steady state is solved directly (see `_steady_state`).  The coupling
    is a property of the adaptation circuit alone, so for strong negative
    coupling each neuron's leak bias is temporarily raised (`_a_protocol`).
    """
    if isinstance(neuron, AdExParameters):
        return _measure_a_ideal(neuron, deflection_target)

    if not neuron.adaptation.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    n = _population_size(neuron)
    m = n or 1
    base = _disable(neuron, exponential=True, synin=True, spiking=True)
    boost, d_i = _a_protocol(_per_neuron(base.adaptation.a_effective, m),
                             _per_neuron(base.g_l, m), deflection_target)
    base = replace(base, leak_ota=replace(
        base.leak_ota, I_bias=np.asarray(base.leak_ota.I_bias, dtype=float) * boost))
    dv_off, err_off = _steady_deflection(_disable(base, adaptation=True), m, d_i)
    dv_on, err_on = _steady_deflection(base, m, d_i)

    values = np.full(m, math.nan)
    errors = []
    for i in range(m):
        err = err_off[i] or err_on[i]
        if err is None and (dv_off[i] <= 0 or dv_on[i] <= 0):
            err = "non-positive steady deflection"
        if err is None:
            values[i] = d_i[i] / dv_on[i] - d_i[i] / dv_off[i]
        errors.append(err)
    return _scalarize(values, errors, n)


def _measure_a_ideal(p: AdExParameters, deflection_target):
    # steady states of the linear equation -(g + a)(V - E_l) + I = 0
    boost, d_i = _a_protocol(p.a, p.g_l, deflection_target)
    g_meas = p.g_l * boost
    if not g_meas + p.a > 0:
        raise FitFailed(UNSTABLE)
    dv_off = d_i / g_meas
    dv_on = d_i / (g_meas + p.a)
    return float(d_i / dv_on - d_i / dv_off)


# ---------------------------------------------------------------------------
# exponential circuit: slope and onset

def exponential_sweep(neuron, v_lo=None, v_hi=None, n_points: int = 100):
    """Clamped I(V) sweep of the exponential branch.

    Returns (V grid, currents).  For a stacked population with no explicit
    range, every neuron is swept over its own slope-scaled window, so the
    grid comes back as a matrix of shape (n_points, n) matching the
    currents; otherwise both are (n_points,) vectors.
    """
    if isinstance(neuron, AdExParameters):
        if not neuron.exp_enabled:
            raise InvalidConfig("exponential term is disabled")
        dt_nom = neuron.Delta_T
        lo = neuron.V_T - 3.5 * dt_nom if v_lo is None else v_lo
        hi = neuron.V_T + 9.0 * dt_nom if v_hi is None else v_hi
        grid = np.linspace(lo, hi, n_points)
        cur = neuron.g_l * neuron.Delta_T * np.exp((grid - neuron.V_T) / neuron.Delta_T)
        return grid, cur
    ex = neuron.exponential
    if not ex.enabled:
        raise InvalidConfig("exponential circuit is disabled")
    n = _population_size(neuron)
    if n is not None and v_lo is None and v_hi is None:
        units = np.linspace(-3.5, 9.0, n_points)
        dt_eff = np.broadcast_to(np.asarray(ex.delta_t_eff, dtype=float), (n,))
        v_exp = np.broadcast_to(np.asarray(ex.V_exp, dtype=float), (n,))
        grid = v_exp + units[:, None] * dt_eff
        return grid, exponential_current(grid, ex, in_refractory=False)
    dt_nom = float(np.median(np.atleast_1d(np.asarray(ex.delta_t_eff))))
    v_exp = float(np.median(np.atleast_1d(np.asarray(ex.V_exp))))
    lo = v_exp - 3.5 * dt_nom if v_lo is None else v_lo
    hi = v_exp + 9.0 * dt_nom if v_hi is None else v_hi
    grid = np.linspace(lo, hi, n_points)
    arg = grid[:, None] if n is not None else grid
    return grid, exponential_current(arg, ex, in_refractory=False)


def fit_exponential_slope(grid: np.ndarray, currents: np.ndarray,
                          i_max: float, r2_min: float = 0.995,
                          min_decades: float = 3.0):
    """Log-linear fit below saturation; returns (delta_t, intercept, decades).

    The fit band excludes powered-down samples and everything at or above
    the saturation shoulder (the output ceiling, or the point where the
    local log slope collapses below half its median).
    """
    peak = float(np.max(currents))
    top = i_max / 10.0 if peak >= 0.9 * i_max else peak
    band = (currents > 0) & (currents <= top)
    idx = np.nonzero(band)[0]
    if len(idx) >= 8:
        seg_v = grid[idx]
        seg_i = np.log(currents[idx])
        local = np.diff(seg_i) / np.diff(seg_v)
        median_slope = float(np.median(local))
        flat = np.nonzero(local < 0.5 * median_slope)[0]
        if len(flat) and median_slope > 0:
            band = band.copy()
            band[idx[flat[0] + 1:]] = False
    if int(np.count_nonzero(band)) < 8:
        raise FitFailed("too few samples below saturation")
    decades = math.log10(float(currents[band].max() / currents[band].min()))
    if decades < min_decades:
        raise FitFailed(f"usable band spans {decades:.2f} decades, need {min_decades}")
    slope, intercept, r2 = log_linear_fit(grid[band], currents[band])
    if slope <= 0 or r2 < r2_min:
        raise FitFailed(f"log-linear fit rejected (slope {slope:.3g}, R^2 {r2:.5f})")
    return 1.0 / slope, intercept, decades


def measure_delta_t(neuron, n_points: int = 100, min_decades: float = 2.5):
    """Effective exponential slope from a three-decade clamped sweep."""
    if isinstance(neuron, AdExParameters):
        grid, cur = exponential_sweep(neuron, n_points=n_points)
        delta_t, _, _ = fit_exponential_slope(grid, cur, math.inf, min_decades=min_decades)
        return float(delta_t)
    n = _population_size(neuron)
    grid, cur = exponential_sweep(neuron, n_points=n_points)
    cur = np.atleast_2d(cur.T).T  # (n_points, m)
    m = cur.shape[1]
    grid = grid if grid.ndim == 2 else np.repeat(grid[:, None], m, axis=1)
    i_max = np.broadcast_to(np.asarray(neuron.exponential.I_max, dtype=float), (m,))
    values = np.empty(m)
    errors = []
    for i in range(m):
        try:
            values[i], _, _ = fit_exponential_slope(grid[:, i], cur[:, i], i_max[i],
                                                    min_decades=min_decades)
            errors.append(None)
        except FitFailed as err:
            values[i] = math.nan
            errors.append(str(err))
    return _scalarize(values, errors, n)


def measure_exp_onset(neuron, g_l_ref, n_points: int = 100, min_decades: float = 2.5):
    """Soft-threshold estimate: the V where the fitted exponential current
    equals g_l_ref * Delta_T_fit."""
    n = _population_size(neuron) if not isinstance(neuron, AdExParameters) else None
    grid, cur = exponential_sweep(neuron, n_points=n_points)
    if isinstance(neuron, AdExParameters):
        delta_t, intercept, _ = fit_exponential_slope(grid, cur, math.inf, min_decades=min_decades)
        return delta_t * (math.log(g_l_ref * delta_t) - intercept)
    cur = np.atleast_2d(cur.T).T
    m = cur.shape[1]
    grid = grid if grid.ndim == 2 else np.repeat(grid[:, None], m, axis=1)
    i_max = np.broadcast_to(np.asarray(neuron.exponential.I_max, dtype=float), (m,))
    g_ref = np.broadcast_to(np.asarray(g_l_ref, dtype=float), (m,))
    values = np.empty(m)
    errors = []
    for i in range(m):
        try:
            delta_t, intercept, _ = fit_exponential_slope(grid[:, i], cur[:, i], i_max[i],
                                                          min_decades=min_decades)
            values[i] = delta_t * (math.log(g_ref[i] * delta_t) - intercept)
            errors.append(None)
        except FitFailed as err:
            values[i] = math.nan
            errors.append(str(err))
    return _scalarize(values, errors, n)


# ---------------------------------------------------------------------------
# synaptic input: time constant, PSP amplitude, resting offset

def measure_tau_syn(neuron, line: str = "exc"):
    """Decay time constant of the synaptic line after a single event.

    The line is linear: an event's deflection decays as a pure
    exponential, whose fit returns tau_syn = C_line / (g_leak_line *
    leak_gain) to rounding, so that is returned directly (per neuron for
    a population).  `neuron` is a circuit config or a SynapseConfig.
    """
    if isinstance(neuron, SynapseConfig):
        return float(neuron.tau_syn)
    syn = getattr(neuron, f"syn_{line}")
    if not syn.enabled:
        raise InvalidConfig(f"synaptic input '{line}' is disabled")
    n = _population_size(neuron)
    return _scalarize(np.array(_per_neuron(syn.tau_syn, n or 1)), [], n)


def _psp_run(neuron, line, weight, dt):
    """Simulate one PSP; returns (run, onset index, pre-window length, m)."""
    n = _population_size(neuron)
    m = n or 1
    other = "inh" if line == "exc" else "exc"
    cfg = _disable(neuron, adaptation=True, exponential=True, spiking=True)
    cfg = replace(cfg, **{f"syn_{other}": replace(getattr(cfg, f"syn_{other}"), enabled=False)})
    syn = getattr(cfg, f"syn_{line}")
    if not syn.enabled:
        raise InvalidConfig(f"synaptic input '{line}' is disabled")
    tau_m_nom = np.atleast_1d(np.asarray(cfg.tau_m, dtype=float))
    tau_s_nom = np.atleast_1d(np.asarray(syn.tau_syn, dtype=float))
    dt = dt or min(float(tau_m_nom.min()), float(tau_s_nom.min())) / 60.0
    settle = 10.0 * float(tau_m_nom.max())
    tail = 10.0 * max(float(tau_m_nom.max()), float(tau_s_nom.max()))
    train = WeightedSpikeTrain.single(settle, weight)
    run = simulate_population(cfg, m, StimulusProgram.constant(0.0),
                              syn_events={line: train},
                              duration=settle + tail, dt=dt, record=True)
    k_on = int(round(settle / dt))
    win = max(int(round(2.0 * float(tau_m_nom.max()) / dt)), 8)
    return run, k_on, win, m, n


def measure_psp_amplitude(neuron, line: str = "exc", weight: float = 1.0,
                          dt: float | None = None):
    """Signed peak deflection of a single postsynaptic potential.

    `neuron` is a circuit config; the ideal-model route takes an
    (AdExParameters, SynapseConfig) pair instead.
    """
    if isinstance(neuron, tuple):
        return _measure_psp_ideal(*neuron, weight=weight, dt=dt)
    run, k_on, win, m, n = _psp_run(neuron, line, weight, dt)
    baseline = run.V[k_on - win:k_on].mean(axis=0)
    post = run.V[k_on:] - baseline
    idx = np.argmax(np.abs(post), axis=0)
    values = post[idx, np.arange(m)]
    return _scalarize(values, [None] * m, n)


def measure_resting_offset(neuron, line: str = "exc"):
    """Baseline shift of the resting potential caused by the input circuit's
    residual offset current (V_rest - E_l), solved at zero line deflection."""
    n = _population_size(neuron)
    m = n or 1
    other = "inh" if line == "exc" else "exc"
    cfg = _disable(neuron, adaptation=True, exponential=True, spiking=True)
    cfg = replace(cfg, **{f"syn_{other}": replace(getattr(cfg, f"syn_{other}"), enabled=False)})
    if not getattr(cfg, f"syn_{line}").enabled:
        raise InvalidConfig(f"synaptic input '{line}' is disabled")
    rest, errors = _steady_state(cfg, m, 0.0)
    return _scalarize(rest - _per_neuron(cfg.E_l, m), errors, n)


def _measure_psp_ideal(p: AdExParameters, syn_cfg: SynapseConfig,
                       weight: float, dt):
    base = replace(p, a=0.0, b=0.0, exp_enabled=False, t_ref=0.0, V_det=math.inf)
    dt = dt or min(base.tau_m, syn_cfg.tau_syn) / 60.0
    settle = 10.0 * base.tau_m
    tail = 10.0 * max(base.tau_m, syn_cfg.tau_syn)
    train = WeightedSpikeTrain.single(settle, weight)
    tr = simulate(base, StimulusProgram.constant(0.0), [(syn_cfg, train)],
                  duration=settle + tail, dt=dt)
    from .synapse import psp_metrics
    _, amplitude = psp_metrics(tr, settle)
    return amplitude


# ---------------------------------------------------------------------------
# stimulus path and spike-triggered increment

def measure_stim_gain(neuron, deflection_target: float = 0.04,
                      tau_m_measured=None):
    """Effective command-to-current gain of the stimulus path.

    A known current command produces a steady deflection dV; with
    g_l = C_mem / tau_m (capacitances are matched) the injected current is
    dV * g_l and the gain follows.  Returns gain * trim as seen end to end.
    """
    if isinstance(neuron, AdExParameters):
        raise InvalidConfig("the stimulus path is a circuit-level property")
    n = _population_size(neuron)
    m = n or 1
    cfg = _disable(neuron, adaptation=True, exponential=True, synin=True, spiking=True)
    tau = _per_neuron(
        measure_tau_m(cfg) if tau_m_measured is None else tau_m_measured, m)
    g_l_meas = _per_neuron(cfg.C_mem, m) / tau
    i_cmd = deflection_target * _per_neuron(cfg.g_l, m)
    dv, errors = _steady_deflection(cfg, m, i_cmd)
    return _scalarize(dv * g_l_meas / i_cmd, errors, n)


def measure_b(neuron, tau_w_measured=None, dt: float | None = None):
    """Spike-triggered adaptation increment from the filter-node jump.

    One spike is forced with a brief strong pulse; the jump of the
    recorded adaptation voltage across the pulse window, scaled by
    g_w = g_w_factor * C_w / tau_w, gives the increment of I_w.
    """
    if isinstance(neuron, AdExParameters):
        raise InvalidConfig("the increment pulse is a circuit-level property")
    ad = neuron.adaptation
    if not ad.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    n = _population_size(neuron)
    m = n or 1
    cfg = _disable(neuron, exponential=True, synin=True)
    tau_w = np.broadcast_to(np.asarray(
        measure_tau_w(cfg) if tau_w_measured is None else tau_w_measured,
        dtype=float), (m,))
    tau_m_nom = np.atleast_1d(np.asarray(cfg.tau_m, dtype=float))
    dt = dt or min(float(tau_m_nom.min()) / 60.0,
                   float(np.broadcast_to(np.asarray(ad.pulse_width, dtype=float), (m,)).min()) / 5.0)
    g_nom = np.asarray(cfg.g_l, dtype=float)
    drive = 6.0 * float(np.median(np.atleast_1d(
        g_nom * (np.asarray(cfg.V_det) - np.asarray(cfg.E_l)))))
    kick = 4.0 * float(tau_m_nom.max())
    width = float(np.broadcast_to(np.asarray(ad.pulse_width, dtype=float), (m,)).max())
    duration = kick + 3.0 * max(width, float(tau_m_nom.max()))
    stim = StimulusProgram(((0.0, drive), (kick, 0.0)))
    run = simulate_population(cfg, m, stim, duration=duration, dt=dt, record=True)

    g_w = np.broadcast_to(np.asarray(ad.g_w_factor, dtype=float), (m,)) \
        * np.broadcast_to(np.asarray(ad.C_w, dtype=float), (m,)) / tau_w
    values = np.empty(m)
    errors = []
    for i in range(m):
        if len(run.spikes[i]) == 0:
            values[i], err = math.nan, "forcing pulse produced no spike"
        else:
            k_spk = int(round(run.spikes[i][0] / dt))
            k_end = k_spk + int(math.ceil(width / dt)) + 1
            if k_end >= run.V_w.shape[0]:
                values[i], err = math.nan, "pulse window ran past the trace"
            else:
                values[i] = g_w[i] * (run.V_w[k_spk, i] - run.V_w[k_end, i])
                err = None
        errors.append(err)
    return _scalarize(values, errors, n)
