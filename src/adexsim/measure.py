"""Measurement routines: extract effective parameters from circuit responses.

Each routine scripts a stimulus/response protocol (release transient,
clamped sweep, single event) and fits the effective parameter with plain
linear least squares on suitably transformed data, or solves the
subthreshold steady state directly (`_steady_state`).  No routine
integrates on its own: a response is either run on the circuit engine
through `simulate_population` (from rest, or from the threshold state in
`measure_b`) or read from a closed form (the release transients,
`_release_fit`).
Every `measure_*` takes a circuit config of width n (a stacked
population, or a config of single values as width 1) and returns a float
array of n values, NaN where a neuron's readout failed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    CircuitNeuronConfig, OtaModel, _transfer, coba_effective_bias,
    exponential_current, ota_output, quiescent_state, simulate_population,
)
from .errors import InvalidConfig
from .model import StimulusProgram
from .synapse import WeightedSpikeTrain


# The clamp-and-release measurement.  The node starts RELEASE_OFFSET from
# its reference, well inside the linear range of the transconductors; the
# fit runs from release until the deflection has decayed to
# RELEASE_FIT_FLOOR of the offset, and a release that never gets there
# inside the window is not fitted.  The fit needs RELEASE_MIN_SAMPLES
# samples above the floor and an R^2 of at least RELEASE_R2_MIN.  Each
# neuron's release is sampled on its own grid, every tau /
# RELEASE_STEPS_PER_TAU for RELEASE_WINDOW_TAUS * tau, with tau its own
# nominal time constant.
RELEASE_OFFSET = 0.05
RELEASE_FIT_FLOOR = 0.02
RELEASE_R2_MIN = 0.99
RELEASE_MIN_SAMPLES = 12
RELEASE_STEPS_PER_TAU = 150
RELEASE_WINDOW_TAUS = 7.0
# neurons sampled and fitted at a time, and release fits kept for reuse
RELEASE_BLOCK = 16
RELEASE_FITS_KEPT = 4


class _Reasons:
    """Why each row's fit failed ('' if it did not): a template per row,
    formatted with its numbers only where it is read, `reasons[i]`."""

    def __init__(self, templates, **numbers):
        self.templates, self.numbers = templates, numbers

    def __getitem__(self, i):
        return self.templates[i].format(
            **{k: v[i] if np.ndim(v) else v for k, v in self.numbers.items()})


def _population_size(cfg: CircuitNeuronConfig) -> int:
    """Width n of a circuit config: 1 for a config of single values."""
    if not isinstance(cfg, CircuitNeuronConfig):
        raise InvalidConfig(f"a measurement takes a circuit config, not {type(cfg).__name__}")
    return int(np.size(cfg.C_mem))


def log_linear_fit(x: np.ndarray, y: np.ndarray, mask=True):
    """Least-squares fit of ln(y) = slope * x + intercept along the last axis,
    over the samples where `mask` is set (all by default); returns (slope,
    intercept, r2) per row, the same bits for a row alone and in a batch."""
    mask = np.broadcast_to(mask, np.shape(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        # ln(y) reads 0 outside the mask
        ly = np.log(np.where(mask, y, 1.0))
        count = np.sum(mask, axis=-1)
        x_mean = np.sum(np.where(mask, x, 0.0), axis=-1) / count
        y_mean = np.sum(ly, axis=-1) / count
        dx = np.where(mask, x - x_mean[..., None], 0.0)
        dy = np.where(mask, ly - y_mean[..., None], 0.0)
        slope = np.sum(dx * dy, axis=-1) / np.sum(dx * dx, axis=-1)
        resid = dy - slope[..., None] * dx
        ss_tot = np.sum(dy * dy, axis=-1)
        r2 = np.where(ss_tot == 0, 1.0, 1.0 - np.sum(resid * resid, axis=-1) / ss_tot)
    return slope, y_mean - slope * x_mean, r2


def _fit_decay(times, deflection):
    """Fit a single-exponential decay to each row of `deflection` (samples on
    the last axis, at `times`) up to its first sample at or below
    RELEASE_FIT_FLOOR of its start; returns tau, NaN where a row has no
    such sample, fewer than RELEASE_MIN_SAMPLES before it, or a fit that
    does not decay or has an R^2 below RELEASE_R2_MIN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        y = deflection / deflection[..., :1]
    below = y <= RELEASE_FIT_FLOOR
    # a row that never reaches the floor ends at -1, short of the minimum
    end = np.where(below.any(axis=-1), np.argmax(below, axis=-1), -1)
    window = np.arange(y.shape[-1]) < end[..., None]
    slope, _, r2 = log_linear_fit(times, y, window)
    ok = (end >= RELEASE_MIN_SAMPLES) & (slope < 0) & (r2 >= RELEASE_R2_MIN)
    with np.errstate(divide="ignore"):
        return np.where(ok, -1.0 / slope, math.nan)


def _disable(cfg: CircuitNeuronConfig, adaptation=False, exponential=False,
             synin=False, spiking=False, keep_line=None) -> CircuitNeuronConfig:
    """Copy of cfg with the named sub-circuits digitally disabled.

    `synin` disables both synaptic lines; `keep_line` ('exc' or 'inh')
    disables every line but that one, which must be enabled.
    """
    out = cfg
    if keep_line is not None:
        if not getattr(out, f"syn_{keep_line}").enabled:
            raise InvalidConfig(f"synaptic input '{keep_line}' is disabled")
        other = "syn_inh" if keep_line == "exc" else "syn_exc"
        out = replace(out, **{other: replace(getattr(out, other), enabled=False)})
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


def _per_neuron(x, n):
    return np.broadcast_to(np.asarray(x, dtype=float), (n,))


def _live_tau_m(cfg, n):
    """Each neuron's C_mem / g_l, NaN where its leak is dead (g_l = 0): a
    dead leak has no membrane time constant and sets no timing."""
    g_l = _per_neuron(cfg.g_l, n)
    return _per_neuron(cfg.C_mem, n) / np.where(g_l > 0, g_l, math.nan)


# ---------------------------------------------------------------------------
# subthreshold steady states

# leak OTA argument g * dV / I_sat beyond which tanh is 1 in double precision:
# the edge of the search window around E_l
LEAK_SATURATION_ARG = 20.0
# geometric scan from the start point toward the window edge, factor 2 apart
SCAN_POINTS = 64


def _ota_slope(ota: OtaModel, V_plus, V_minus):
    """Slope of `ota_output` in V_plus: g * (1 - (out / I_sat)^2)."""
    live, safe, _ = _transfer(ota)
    ratio = ota_output(ota, V_plus, V_minus) / safe
    return np.where(live, ota.g * (1.0 - ratio * ratio), 0.0)


def _steady_state(cfg: CircuitNeuronConfig, n: int, current, start=None):
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
    the same bits as each neuron alone.  Returns V, NaN where a neuron has
    no stable rest: no root inside the leak OTA's saturation, no fixed
    point of the filter node (|out_a| reaches the `ota_tau` saturation), or
    an unstable root (a <= -g_l locally).
    """
    e_l = _per_neuron(cfg.E_l, n)
    inj = _per_neuron(cfg.stim_gain, n) * _per_neuron(cfg.stim_trim, n) \
        * _per_neuron(current, n)
    ad = cfg.adaptation
    gain = _per_neuron(ad.sign, n) * _per_neuron(ad.g_w_factor, n)
    # offset current per unit bias of each enabled line at zero deflection
    lines = [(-sgn * _per_neuron(syn.g1_per_bias, n) * (
                _per_neuron(syn.follower_offset, n) + _per_neuron(syn.offset_trim, n)), syn)
             for sgn, syn in ((1.0, cfg.syn_exc), (-1.0, cfg.syn_inh)) if syn.enabled]

    def balance(V):
        """Net membrane current at the filter node's fixed point."""
        f = ota_output(cfg.leak_ota, e_l, V)
        if ad.enabled:
            f = f - gain * ota_output(ad.ota_a, V, ad.E_l_adapt)
        for level, syn in lines:
            f = f + level * (coba_effective_bias(V, syn) if syn.coba_enabled
                             else _per_neuron(syn.I_b_cuba, n))
        return f + inj

    def slope(V):
        """d(balance)/dV."""
        df = -_ota_slope(cfg.leak_ota, e_l, V)
        if ad.enabled:
            df = df - gain * _ota_slope(ad.ota_a, V, ad.E_l_adapt)
        for level, syn in lines:
            if syn.coba_enabled:
                df = df - level * np.where(coba_effective_bias(V, syn) > 0, syn.g2, 0.0)
        return df

    with np.errstate(invalid="ignore", divide="ignore"):
        g_l = _per_neuron(cfg.g_l, n)
        half = LEAK_SATURATION_ARG * _per_neuron(cfg.leak_ota.I_bias, n) \
            / np.where(g_l > 0, g_l, math.nan)
        v0 = e_l if start is None else _per_neuron(start, n)
        direction = np.sign(balance(v0))
        # scan points v0 + 2^-k * (edge - v0), nearest first
        span = e_l + direction * half - v0
        grid = v0 + 2.0 ** -np.arange(SCAN_POINTS - 1, -1, -1.0)[:, None] * span
        crossed = direction * balance(grid) <= 0
        first = np.argmax(crossed, axis=0)
        cols = np.arange(n)
        found = crossed[first, cols] & (direction * span > 0)
        hi = grid[first, cols]
        lo = np.where(first > 0, grid[first - 1, cols], v0)
        active = found.copy()
        while True:
            mid = lo + 0.5 * (hi - lo)
            active &= (mid != lo) & (mid != hi)
            if not active.any():
                break
            ahead = direction * balance(mid) > 0
            lo = np.where(active & ahead, mid, lo)
            hi = np.where(active & ~ahead, mid, hi)
        root = np.where(direction == 0, v0, np.where(found, hi, math.nan))
        stable = slope(root) < 0
        filter_ok = np.ones(n, dtype=bool)
        if ad.enabled:
            filter_ok = np.abs(ota_output(ad.ota_a, root, ad.E_l_adapt)) \
                < _per_neuron(ad.ota_tau.I_bias, n)

    return np.where(np.isfinite(root) & filter_ok & stable, root, math.nan)


def _steady_deflection(cfg: CircuitNeuronConfig, n: int, step):
    """Shift of the resting V_m when the command steps from 0 to `step`,
    NaN where either rest is (`_steady_state`)."""
    rest = _steady_state(cfg, n, 0.0)
    return _steady_state(cfg, n, step, start=rest) - rest


# ---------------------------------------------------------------------------
# release transients

def _release_fit(ota: OtaModel, cap, n):
    """Fit the release of a node that only a saturating OTA pulls back.

    The deflection x from the OTA's reference then obeys
    C dx/dt = -I_sat * tanh(g * x / I_sat), whose exact solution is
    sinh(g * x / I_sat) = sinh(g * x0 / I_sat) * exp(-g * t / C).  Each
    neuron's release is sampled on its own grid (the RELEASE_* constants),
    with tau = C / g, and fitted as a recorded release would be, so a
    neuron's fit does not depend on its batch.  A dead bias (I_sat = 0)
    leaves the node at x0, which does not decay and reads NaN.  Returns the
    n time constants.
    """
    return _release_rows(*(_per_neuron(x, n).tobytes()
                           for x in (ota.g, ota.I_bias, cap))).copy()


@functools.lru_cache(maxsize=RELEASE_FITS_KEPT)
def _release_rows(g, i_sat, cap):
    """The time constants of `_release_fit` for the float64 bytes of g, I_sat
    and C.  A calibration fits the same release again (the stimulus-gain
    readout fits the `tau_m` entry's last release, `measure_b` the `tau_w`
    entry's), so the last few fits are kept; callers copy tau.  Rows are
    sampled and fitted RELEASE_BLOCK at a time, each on its own axis, so a
    block gives the bits of the whole batch and the temporaries do not
    grow with the population."""
    g, i_sat, cap = (np.frombuffer(x) for x in (g, i_sat, cap))
    live = i_sat > 0
    dt = cap / np.where(live, g, math.inf) / RELEASE_STEPS_PER_TAU
    grid = np.arange(int(round(RELEASE_WINDOW_TAUS * RELEASE_STEPS_PER_TAU)) + 1)
    k = g / np.where(live, i_sat, 1.0)
    u0 = k * RELEASE_OFFSET
    with np.errstate(divide="ignore", invalid="ignore"):
        # ln sinh(u0), so that a large u0 cannot overflow
        log_sinh0 = u0 + np.log(-np.expm1(-2.0 * u0)) - math.log(2.0)
    taus = []
    for rows in (slice(i, i + RELEASE_BLOCK) for i in range(0, len(g), RELEASE_BLOCK)):
        times = grid * dt[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            # ln sinh(u) along the release, then u = asinh(exp(ln sinh(u)))
            log_sinh = log_sinh0[rows, None] - times * (g / cap)[rows, None]
            u = np.logaddexp(log_sinh, 0.5 * np.logaddexp(2.0 * log_sinh, 0.0))
            trace = np.where(live[rows, None], u / k[rows, None], RELEASE_OFFSET)
        taus.append(_fit_decay(times, trace))
    return np.concatenate(taus)


def measure_tau_m(neuron):
    """Membrane time constant from the release of an offset membrane.

    With every sub-circuit but the leak off, the release follows the
    leak OTA's closed form (`_release_fit`, C_mem and g_l).
    """
    n = _population_size(neuron)
    return _release_fit(neuron.leak_ota, neuron.C_mem, n)


# ---------------------------------------------------------------------------
# adaptation: time constant and subthreshold strength

def measure_tau_w(neuron):
    """Adaptation time constant from the release of an offset filter node.

    The membrane is held at the adaptation reference so the subthreshold
    coupling contributes nothing; the filter node relaxes toward V_ref
    along the `ota_tau` closed form (`_release_fit`, C_w and g_tau).
    """
    n = _population_size(neuron)
    ad = neuron.adaptation
    if not ad.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    return _release_fit(ad.ota_tau, ad.C_w, n)


# steady deflection of the coupled system that sizes the `a` readout's step
A_DEFLECTION = 0.03


def _a_protocol(a, g_l, deflection):
    """Per-neuron leak boost and step amplitude of the `a` readout.

    For strong negative coupling the leak is raised to keep the coupled
    system stable (a <= -g_l has no subthreshold steady state otherwise);
    the step is sized for a steady `deflection` (volts) of the coupled
    system, A_DEFLECTION in `measure_subthreshold_a`.  A dead leak (g_l =
    0) is not boosted: it stays dead, and its readout NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        boost = np.where(g_l > 0, np.maximum(1.0, 2.5 * np.abs(a) / g_l), 1.0)
    g_meas = g_l * boost
    return boost, deflection * np.maximum(g_meas + a, 0.2 * g_meas)


def measure_subthreshold_a(neuron):
    """Effective subthreshold adaptation strength from two steady states.

    With adaptation disabled the steady deflection under a current step
    gives g_l = dI/dV; with adaptation enabled it gives g_l + a.  Spiking,
    the exponential and the synaptic inputs are off throughout, and each
    steady state is solved directly (see `_steady_state`).  The coupling
    is a property of the adaptation circuit alone, so for strong negative
    coupling each neuron's leak bias is temporarily raised (`_a_protocol`,
    sized for a deflection of A_DEFLECTION).
    """
    n = _population_size(neuron)
    if not neuron.adaptation.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    base = _disable(neuron, exponential=True, synin=True, spiking=True)
    boost, d_i = _a_protocol(_per_neuron(base.adaptation.a_effective, n),
                             _per_neuron(base.g_l, n), A_DEFLECTION)
    base = replace(base, leak_ota=replace(
        base.leak_ota, I_bias=np.asarray(base.leak_ota.I_bias, dtype=float) * boost))
    dv_off = _steady_deflection(_disable(base, adaptation=True), n, d_i)
    dv_on = _steady_deflection(base, n, d_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((dv_off > 0) & (dv_on > 0), d_i / dv_on - d_i / dv_off, math.nan)


# ---------------------------------------------------------------------------
# exponential circuit: slope and onset

def exponential_sweep(neuron, n_points: int = 100):
    """Clamped I(V) sweep of the exponential branch.

    Every neuron is swept over its own window, centre + linspace(-3.5, 9,
    n_points) * slope, with the centre (V_exp) and slope (delta_t_eff) of
    its own exponential, so a neuron's sweep does not depend on its batch.
    Returns (V grid, currents): (n_points,) vectors for one neuron,
    (n, n_points) matrices for a circuit with array leaves.
    """
    _population_size(neuron)
    units = np.linspace(-3.5, 9.0, n_points)
    ex = neuron.exponential
    if not ex.enabled:
        raise InvalidConfig("exponential circuit is disabled")
    centre, slope = np.broadcast_arrays(ex.V_exp, ex.delta_t_eff)
    grid = centre[..., None] + units * slope[..., None]
    # the circuit's leaves broadcast against the sweep points on axis 0
    return grid, np.ascontiguousarray(exponential_current(grid.T, ex, in_refractory=False).T)


def fit_exponential_slope(grid: np.ndarray, currents: np.ndarray,
                          i_max, min_decades: float = 3.0):
    """Log-linear fit of each row below saturation; returns (delta_t,
    intercept, decades, reasons), delta_t and intercept NaN where a row's
    fit failed: fewer than 8 samples in the band, a band narrower than
    `min_decades` decades, or a fit with a slope <= 0 or R^2 below 0.995.

    The fit band excludes powered-down samples and everything at or above
    the saturation shoulder (the output ceiling `i_max`, or the first point
    where the local log slope between consecutive band samples collapses
    below half its median).
    """
    peak = np.max(currents, axis=-1)
    top = np.where(peak >= 0.9 * i_max, i_max / 10.0, peak)
    band = (currents > 0) & (currents <= top[..., None])
    count = np.sum(band, axis=-1)
    # band samples moved to the front of each row, in grid order
    order = np.argsort(~band, axis=-1, kind="stable")
    log_i = np.log(np.where(band, currents, 1.0))
    local = np.diff(np.take_along_axis(log_i, order, axis=-1), axis=-1) \
        / np.diff(np.take_along_axis(grid, order, axis=-1), axis=-1)
    n_pairs = (count - 1)[..., None]
    pairs = np.arange(local.shape[-1]) < n_pairs
    # the median of each row's pairs, as np.median takes it
    ranked = np.sort(np.where(pairs, local, math.inf), axis=-1)
    middle = np.maximum(np.concatenate(((n_pairs - 1) // 2, n_pairs // 2), axis=-1), 0)
    median = 0.5 * np.sum(np.take_along_axis(ranked, middle, axis=-1), axis=-1)
    flat = pairs & (local < 0.5 * median[..., None])
    shoulder = (count >= 8) & (median > 0) & np.any(flat, axis=-1)
    rank = np.cumsum(band, axis=-1) - 1
    band &= ~(shoulder[..., None] & (rank > np.argmax(flat, axis=-1)[..., None]))
    count = np.sum(band, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        decades = np.log10(np.max(np.where(band, currents, -math.inf), axis=-1)
                           / np.min(np.where(band, currents, math.inf), axis=-1))
    slope, intercept, r2 = log_linear_fit(grid, currents, band)
    reasons = np.select(
        [count < 8, ~(decades >= min_decades), ~(slope > 0) | ~(r2 >= 0.995)],
        ["too few samples below saturation",
         "usable band spans {decades:.2f} decades, need {min_decades}",
         "log-linear fit rejected (slope {slope:.3g}, R^2 {r2:.5f})"], "")
    ok = reasons == ""
    with np.errstate(divide="ignore"):
        delta_t = np.where(ok, 1.0 / slope, math.nan)
    return delta_t, np.where(ok, intercept, math.nan), decades, _Reasons(
        reasons, decades=decades, min_decades=min_decades, slope=slope, r2=r2)


def _exponential_fits(neuron):
    """Fit every neuron's exponential sweep (100 points) over at least 2.5
    decades; returns (delta_t, intercept), NaN where a fit failed."""
    grid, cur = exponential_sweep(neuron, n_points=100)
    delta_t, intercept, _, _ = fit_exponential_slope(
        grid.reshape(-1, 100), cur.reshape(-1, 100), neuron.exponential.I_max,
        min_decades=2.5)
    return delta_t, intercept


def measure_delta_t(neuron):
    """Effective exponential slope from a clamped sweep of 100 points whose
    fit spans at least 2.5 decades below saturation."""
    return _exponential_fits(neuron)[0]


def measure_exp_onset(neuron, g_l_ref):
    """Soft-threshold estimate: the V where the fitted exponential current
    (the sweep and fit of `measure_delta_t`) equals g_l_ref * Delta_T_fit."""
    delta_t, intercept = _exponential_fits(neuron)
    return delta_t * (np.log(np.asarray(g_l_ref) * delta_t) - intercept)


# ---------------------------------------------------------------------------
# synaptic input: time constant, PSP amplitude, resting offset

def measure_tau_syn(neuron, line: str = "exc"):
    """Decay time constant of the synaptic line after a single event.

    The line is linear: an event's deflection decays as a pure
    exponential, whose fit returns tau_syn = C_line / (g_leak_line *
    leak_gain) to rounding, so that is returned directly (per neuron for
    a population).
    """
    n = _population_size(neuron)
    syn = getattr(neuron, f"syn_{line}")
    if not syn.enabled:
        raise InvalidConfig(f"synaptic input '{line}' is disabled")
    return np.array(_per_neuron(syn.tau_syn, n))


@dataclass(frozen=True)
class PspProtocol:
    """Single events on one synaptic line of an otherwise quiet membrane.

    Adaptation, the exponential, spiking and the other line are off.  The
    membrane settles for ten slowest membrane time constants;
    the events of `weight` then follow `spacing_factor` slowest time
    constants (membrane or line) apart.
    """

    line: str = "exc"
    weight: float = 1.0
    spacing_factor: float = 12.0

    def __post_init__(self):
        if not self.weight >= 0:
            raise ValueError(f"weight must be >= 0, got {self.weight!r}")


def _psp_response(neuron, proto: PspProtocol, n_events: int):
    """Run the PSP protocol on a circuit; returns (baseline, amplitudes).

    The step is a 60th of the fastest time constant (membrane or line).
    The baseline is the mean V_m over the last two membrane time constants
    before the first event; amplitudes[j] is each neuron's signed peak
    deflection from it between event j and the next event (the end of the
    run for the last one).  A membrane without a leak (g_l = 0) has no rest
    to deflect from: it reads NaN and takes no part in the timing, and
    with no leak at all nothing is run.
    """
    n = _population_size(neuron)
    cfg = _disable(neuron, adaptation=True, exponential=True, spiking=True,
                   keep_line=proto.line)
    tau_m = _live_tau_m(cfg, n)
    live = ~np.isnan(tau_m)
    if not live.any():
        return np.full(n, math.nan), np.full((n_events, n), math.nan)
    tau_s = np.atleast_1d(np.asarray(getattr(cfg, f"syn_{proto.line}").tau_syn, dtype=float))
    dt = min(float(np.nanmin(tau_m)), float(tau_s.min())) / 60.0
    settle = 10.0 * float(np.nanmax(tau_m))
    spacing = proto.spacing_factor * max(float(np.nanmax(tau_m)), float(tau_s.max()))
    times = [settle + k * spacing for k in range(n_events)]
    train = WeightedSpikeTrain(tuple((t, proto.weight) for t in times))
    run = simulate_population(cfg, n, StimulusProgram.constant(0.0),
                              syn_events={proto.line: train},
                              duration=settle + n_events * spacing, dt=dt, record=True)
    win = max(int(round(2.0 * float(np.nanmax(tau_m)) / dt)), 8)
    onsets = [int(round(t / dt)) for t in times] + [run.V.shape[0]]
    baseline = np.where(live, run.V[onsets[0] - win:onsets[0]].mean(axis=0), math.nan)
    amplitudes = np.empty((n_events, n))
    for j in range(n_events):
        seg = run.V[onsets[j]:onsets[j + 1]] - baseline
        amplitudes[j] = seg[np.argmax(np.abs(seg), axis=0), np.arange(n)]
    return baseline, amplitudes


def measure_psp_amplitude(neuron, line: str = "exc", weight: float = 1.0):
    """Signed peak deflection of a single postsynaptic potential of a
    circuit config (`PspProtocol`, one event and ten time constants after
    it)."""
    proto = PspProtocol(line=line, weight=weight, spacing_factor=10.0)
    return _psp_response(neuron, proto, n_events=1)[1][0]


def measure_resting_offset(neuron, line: str = "exc"):
    """Baseline shift of the resting potential caused by the input circuit's
    residual offset current (V_rest - E_l), solved at zero line deflection."""
    n = _population_size(neuron)
    cfg = _disable(neuron, adaptation=True, exponential=True, spiking=True,
                   keep_line=line)
    return _steady_state(cfg, n, 0.0) - _per_neuron(cfg.E_l, n)


# ---------------------------------------------------------------------------
# stimulus path and spike-triggered increment

def measure_stim_gain(neuron):
    """Effective command-to-current gain of the stimulus path.

    A known current command, 0.04 V * g_l, produces a steady deflection
    dV; with g_l = C_mem / tau_m (capacitances are matched) the injected
    current is dV * g_l and the gain follows.  Returns gain * trim as seen
    end to end.
    """
    n = _population_size(neuron)
    cfg = _disable(neuron, adaptation=True, exponential=True, synin=True, spiking=True)
    g_l_meas = _per_neuron(cfg.C_mem, n) / measure_tau_m(cfg)
    i_cmd = 0.04 * _per_neuron(cfg.g_l, n)
    return _steady_deflection(cfg, n, i_cmd) * g_l_meas / i_cmd


def measure_b(neuron):
    """Spike-triggered adaptation increment from the filter-node jump.

    Each neuron starts at the threshold state: V_m at its own V_det, the
    filter node at rest (`quiescent_state`), driven at 6x its own
    threshold current g_l * (V_det - E_l), so it spikes on the first step.
    The run lasts until the widest pulse window has passed,
    ceil(width / dt) + 2 steps, with dt the smaller of the fastest
    membrane's tau_m / 60 and the narrowest pulse_width / 5.  The jump of
    the adaptation voltage across each neuron's pulse window (its own
    pulse_width), scaled by g_w = g_w_factor * C_w / tau_w, gives the
    increment of I_w.
    """
    n = _population_size(neuron)
    ad = neuron.adaptation
    if not ad.enabled:
        raise InvalidConfig("adaptation circuit is disabled")
    cfg = _disable(neuron, exponential=True, synin=True)
    tau_w = measure_tau_w(cfg)
    widths = _per_neuron(ad.pulse_width, n)
    fastest = float(np.nanmin(_live_tau_m(cfg, n), initial=math.inf))
    dt = min(fastest / 60.0, float(widths.min()) / 5.0)
    v_det = _per_neuron(cfg.V_det, n)
    # the drive folded into each neuron's stimulus trim, under a unit command
    drive = 6.0 * _per_neuron(cfg.g_l, n) * (v_det - _per_neuron(cfg.E_l, n))
    cfg = replace(cfg, stim_trim=_per_neuron(cfg.stim_trim, n) * drive)
    window = np.ceil(widths / dt).astype(int) + 1
    n_steps = int(window.max()) + 1
    run = simulate_population(cfg, n, StimulusProgram.constant(1.0), duration=n_steps * dt,
                              dt=dt, record=True, start=replace(quiescent_state(cfg), V_m=v_det))

    g_w = _per_neuron(ad.g_w_factor, n) * _per_neuron(ad.C_w, n) / tau_w
    # each neuron's first spike step: the spike columns come in step order
    step, who = run.spike_columns
    spiked, first = np.unique(who, return_index=True)
    k_spk = np.full(n, -1)
    k_spk[spiked] = step[first]
    k_end = k_spk + window
    # read where the neuron spiked and its pulse window ended inside the run
    ok = (k_spk >= 0) & (k_end < run.V_w.shape[0])
    cols = np.arange(n)
    jump = run.V_w[np.where(ok, k_spk, 0), cols] - run.V_w[np.where(ok, k_end, 0), cols]
    return np.where(ok, g_w * jump, math.nan)
