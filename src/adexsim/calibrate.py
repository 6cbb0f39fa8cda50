"""Iterative calibration: map per-neuron targets to circuit bias settings.

Every tunable parameter is reached through a measured, monotone
bias-to-parameter map.  A three-point probe asserts monotonicity and
estimates the local power law; refinement then updates each neuron's bias
proportionally (with a guarded bisection fallback) until the measured
value sits within tolerance.  One population-wide measurement serves all
neurons per iteration, so the loop cost is independent of the population
size up to array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import EXP_CONVERSION_RATIO, get_bias, set_bias
from .errors import ValidationError
from .measure import (
    measure_b, measure_delta_t, measure_exp_onset, measure_psp_amplitude,
    measure_resting_offset, measure_stim_gain, measure_subthreshold_a,
    measure_tau_m, measure_tau_syn, measure_tau_w, _population_size,
)
from .mismatch import PARAMETER_RANGES, Population


@dataclass(frozen=True)
class CalibrationTarget:
    """Desired effective parameters; None leaves a knob untouched.

    `stim_gain` and the two offsets are flags: they calibrate toward unit
    gain and zero baseline shift rather than toward a value.  The time
    constants and delta_t must be > 0, whatever `allow_out_of_range` says.
    """

    tau_m: float | None = None
    stim_gain: bool = False
    delta_t: float | None = None
    v_t: float | None = None
    tau_w: float | None = None
    a: float | None = None
    b: float | None = None
    tau_syn_exc: float | None = None
    tau_syn_inh: float | None = None
    psp_amplitude_exc: float | None = None
    psp_amplitude_inh: float | None = None
    offset_exc: bool = False
    offset_inh: bool = False
    allow_out_of_range: bool = False

    def range_violations(self) -> list:
        """Targets outside the documented reachable ranges."""
        checks = [("tau_m", self.tau_m), ("delta_t", self.delta_t),
                  ("tau_w", self.tau_w), ("tau_syn", self.tau_syn_exc),
                  ("tau_syn", self.tau_syn_inh)]
        if self.a is not None:
            checks.append(("a", abs(self.a)))
        if self.b is not None:
            checks.append(("b", abs(self.b)))
        out = []
        for name, value in checks:
            if value is None:
                continue
            rng = PARAMETER_RANGES[name]
            if not rng.contains(value):
                out.append(f"{name} target {value:.4g} outside [{rng.lo:.4g}, {rng.hi:.4g}]")
        return out

    def __post_init__(self):
        # no bias reaches a time constant or slope <= 0, in range or not
        for name in ("tau_m", "tau_w", "delta_t", "tau_syn_exc", "tau_syn_inh"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValidationError(f"{name} target must be > 0, got {value:.4g}")
        violations = self.range_violations()
        if violations and not self.allow_out_of_range:
            raise ValidationError("; ".join(violations))


@dataclass
class ParameterOutcome:
    """Per-neuron outcome of one calibration entry."""

    bias_path: str
    biases: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    pre_spread: float
    post_spread: float
    evaluations: int


@dataclass
class CalibrationResult:
    """Per-neuron bias settings, residuals and convergence flags."""

    population: Population
    outcomes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def all_converged(self) -> bool:
        return all(bool(np.all(o.converged)) for o in self.outcomes.values())


def _spread(values: np.ndarray, absolute: bool = False) -> float:
    """Relative spread, or the plain standard deviation for additive knobs
    whose values sit around zero."""
    good = values[np.isfinite(values)]
    if len(good) == 0:
        return math.nan
    if absolute:
        return float(np.std(good))
    if np.mean(good) == 0:
        return math.nan
    return float(np.std(good) / abs(np.mean(good)))


PROBE_FAILED = "probe measurement failed at bias"
# refinement evaluations after the 3-point probe
MAX_REFINEMENTS = 12


def _tune_population(cfg, bias_path, measure_fn, targets, bounds,
                     tol=0.02, tol_abs=None, scale="log"):
    """Probe, then refine per-neuron biases until measurements hit targets.

    Each bias is measured once: every entry's `measure_fn` measures each
    neuron on its own (a neuron's value does not depend on its batch), so
    the value measured at a neuron's chosen bias is kept next to that bias
    and not measured again.  A monotone, reachable neuron's best starts at
    its current bias and changes only for a smaller residual, so it never
    ends worse than it started.  `evaluations` counts the calls of
    `measure_fn`: the 3-point probe plus one per refinement.

    Returns (cfg', ParameterOutcome, per-neuron error strings).
    """
    n = _population_size(cfg)
    targets = np.broadcast_to(np.asarray(targets, dtype=float), (n,)).copy()
    lo, hi = bounds
    current = np.broadcast_to(np.asarray(get_bias(cfg, bias_path), dtype=float), (n,)).copy()
    current = np.clip(current, lo, hi)
    # the probe midpoint must stay distinct from the endpoints, otherwise
    # the monotonicity differences degenerate to zero
    interior = math.sqrt(lo * hi) if scale == "log" and lo > 0 \
        else 0.5 * (lo + hi)
    margin = 1e-3 * (hi - lo)
    current = np.where((current <= lo + margin) | (current >= hi - margin),
                       interior, current)

    def residual(meas):
        if tol_abs is not None:
            return meas - targets
        return (meas - targets) / np.where(targets != 0, targets, 1.0)

    def within(res):
        return np.abs(res) <= (tol_abs if tol_abs is not None else tol)

    def evaluate(biases):
        nonlocal cfg
        cfg = set_bias(cfg, bias_path, biases)
        return measure_fn(cfg)

    # 3-point probe: bounds plus the current setting
    b_lo = np.full(n, lo)
    b_hi = np.full(n, hi)
    f_lo = evaluate(b_lo)
    f_hi = evaluate(b_hi)
    f_cur = evaluate(current)
    evaluations = 3
    absolute = tol_abs is not None
    pre_spread = _spread(f_cur, absolute)

    d_lo = f_cur - f_lo
    d_hi = f_hi - f_cur
    probed = np.isfinite(f_lo) & np.isfinite(f_hi) & np.isfinite(f_cur)
    monotone = probed & (d_lo * d_hi > 0)
    direction = np.sign(f_hi - f_lo)

    f_min = np.minimum(f_lo, f_hi)
    f_max = np.maximum(f_lo, f_hi)
    reachable = (targets >= f_min) & (targets <= f_max)

    errors = [None] * n
    for i in range(n):
        if not probed[i]:
            failed = [b for b, f in ((lo, f_lo[i]), (current[i], f_cur[i]), (hi, f_hi[i]))
                      if not np.isfinite(f)]
            errors[i] = f"{PROBE_FAILED} " + ", ".join(f"{b:.4g}" for b in failed)
        elif not monotone[i]:
            errors[i] = (f"bias->parameter map not monotone over [{lo:.4g}, {hi:.4g}] "
                         f"(probe {f_lo[i]:.4g}, {f_cur[i]:.4g}, {f_hi[i]:.4g})")
        elif not reachable[i]:
            errors[i] = (f"target {targets[i]:.4g} outside reachable "
                         f"[{f_min[i]:.4g}, {f_max[i]:.4g}]")

    # bracket around the target for monotone, reachable neurons
    blo = np.where(direction > 0, np.where(f_cur <= targets, current, b_lo),
                   np.where(f_cur >= targets, current, b_lo))
    bhi = np.where(direction > 0, np.where(f_cur <= targets, b_hi, current),
                   np.where(f_cur >= targets, b_hi, current))

    # boundary residual for out-of-range neurons: clamp to the nearer bound
    lower_side = np.where(direction > 0, targets < f_min, targets > f_max)
    clamped = np.where(lower_side, lo, hi)

    best_bias = np.where(reachable & monotone, current, np.where(monotone, clamped, current))
    best_f = np.where(reachable & monotone, f_cur,
                      np.where(monotone, np.where(lower_side, f_lo, f_hi), f_cur))
    best_res = residual(best_f)

    if scale == "log":
        # local power-law exponent from the probe
        with np.errstate(divide="ignore", invalid="ignore"):
            expo = np.log(np.abs(f_hi / np.where(f_lo != 0, f_lo, 1.0))) \
                / math.log(hi / lo)
        expo = np.where(np.isfinite(expo) & (np.abs(expo) > 0.1) & (np.abs(expo) < 10),
                        expo, direction * 1.0)
    else:
        expo = direction * 1.0

    active = monotone & reachable & ~within(best_res)
    bias = best_bias.copy()
    f_val = best_f.copy()
    while evaluations < MAX_REFINEMENTS + 3 and bool(np.any(active)):
        if scale == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                prop = bias * np.exp(np.log(targets / f_val) / expo)
            fallback = np.sqrt(blo * np.maximum(bhi, 1e-300))
        else:
            span = f_hi - f_lo
            prop = bias + (targets - f_val) * (hi - lo) / np.where(span != 0, span, 1.0)
            fallback = 0.5 * (blo + bhi)
        inside = np.isfinite(prop) & (prop > blo) & (prop < bhi)
        nxt = np.where(active, np.where(inside, prop, fallback), bias)
        f_new = evaluate(nxt)
        evaluations += 1
        ok = np.isfinite(f_new)
        res_new = residual(f_new)
        better = active & ok & (np.abs(res_new) < np.abs(best_res))
        best_res = np.where(better, res_new, best_res)
        best_bias = np.where(better, nxt, best_bias)
        best_f = np.where(better, f_new, best_f)
        # bracket update
        low_side = np.where(direction > 0, f_new < targets, f_new > targets)
        blo = np.where(active & ok & low_side, nxt, blo)
        bhi = np.where(active & ok & ~low_side, nxt, bhi)
        bias = np.where(active, nxt, bias)
        f_val = np.where(active & ok, f_new, f_val)
        active = active & ~within(best_res)

    cfg = set_bias(cfg, bias_path, best_bias)
    converged = within(best_res) & monotone & reachable
    for i in range(n):
        if errors[i] is None and not converged[i]:
            errors[i] = f"stopped above tolerance (residual {best_res[i]:.4g})"
    outcome = ParameterOutcome(
        bias_path=bias_path, biases=best_bias, residuals=best_res,
        converged=converged, pre_spread=pre_spread,
        post_spread=_spread(best_f, absolute), evaluations=evaluations)
    return cfg, outcome, errors


# ---------------------------------------------------------------------------
# calibration entries

def _median(x) -> float:
    """Median of a scalar or per-neuron leaf."""
    return float(np.median(np.atleast_1d(np.asarray(x, dtype=float))))


def _bounds_around(cfg, path, factor):
    center = _median(get_bias(cfg, path))
    return center / factor, center * factor


def _entry_tau_syn(line):
    def run(cfg, target, tol):
        path = f"syn_{line}.g_leak_line"
        syn = getattr(cfg, f"syn_{line}")
        center = _median(syn.C_line) / target
        return _tune_population(cfg, path,
                                lambda c: measure_tau_syn(c, line),
                                target, (center / 8, center * 8), tol=tol)
    return run


def _entry_tau_m(cfg, target, tol):
    path = "leak_ota.I_bias"
    center = _median(cfg.C_mem) / (target * _median(cfg.leak_ota.g_per_bias))
    return _tune_population(cfg, path, measure_tau_m, target,
                            (center / 8, center * 8), tol=tol)


def _entry_delta_t(cfg, target, tol):
    path = "exponential.ota.I_bias"
    ex = cfg.exponential
    center = _median(ex.n) * _median(ex.V_therm) / (
        EXP_CONVERSION_RATIO * _median(ex.r_conv) * target * _median(ex.ota.g_per_bias))
    return _tune_population(cfg, path, measure_delta_t, target,
                            (center / 8, center * 8), tol=tol)


def _entry_tau_w(cfg, target, tol):
    path = "adaptation.ota_tau.I_bias"
    ad = cfg.adaptation
    center = _median(ad.C_w) / (target * _median(ad.ota_tau.g_per_bias))
    return _tune_population(cfg, path, measure_tau_w, target,
                            (center / 8, center * 8), tol=tol)


def _exact(cfg, path, values: dict):
    """Set each bias path of `values` in every neuron, where that makes the
    parameter exact; the outcome reads `path`, every neuron converged."""
    n = _population_size(cfg)
    for p, value in values.items():
        cfg = set_bias(cfg, p, np.full(n, value))
    return cfg, ParameterOutcome(
        bias_path=path, biases=np.full(n, values[path]), residuals=np.zeros(n),
        converged=np.ones(n, dtype=bool), pre_spread=math.nan, post_spread=0.0,
        evaluations=0), [None] * n


def _entry_a(cfg, target, tol):
    path = "adaptation.ota_a.I_bias"
    if target == 0:
        # a_effective = sign * g_w_factor * I_bias * g_per_bias: exactly +0
        return _exact(cfg, path, {path: 0.0, "adaptation.sign": 1.0})
    ad = cfg.adaptation
    sign = 1 if target >= 0 else -1
    cfg = set_bias(cfg, "adaptation.sign", np.full(_population_size(cfg), float(sign)))
    center = abs(target) / (_median(ad.g_w_factor) * _median(ad.ota_a.g_per_bias))
    return _tune_population(
        cfg, path, lambda c: sign * measure_subthreshold_a(c),
        abs(target), (center / 8, center * 8), tol=tol)


def _entry_psp(line):
    def run(cfg, target, tol):
        path = f"syn_{line}.I_b_cuba"
        sgn = 1.0 if line == "exc" else -1.0
        bounds = _bounds_around(cfg, path, 8)
        return _tune_population(cfg, path,
                                lambda c: sgn * measure_psp_amplitude(c, line),
                                target, bounds, tol=tol)
    return run


def _entry_offset(line):
    def run(cfg, target, tol):
        path = f"syn_{line}.offset_trim"
        # additive knob: secant on a linear scale toward zero baseline shift
        return _tune_population(cfg, path,
                                lambda c: measure_resting_offset(c, line),
                                0.0, (-0.03, 0.03), tol=tol,
                                tol_abs=0.5e-3, scale="linear")
    return run


def _oneshot(cfg, path, measure_fn, update_fn, tol, verify_tol_abs=None):
    """Measure, apply an analytic correction, verify; used for linear knobs."""
    n = _population_size(cfg)
    absolute = verify_tol_abs is not None
    pre = measure_fn(cfg)
    pre_spread = _spread(pre, absolute)
    cfg = set_bias(cfg, path, update_fn(
        np.broadcast_to(np.asarray(get_bias(cfg, path), dtype=float), (n,)).copy(), pre))
    post = measure_fn(cfg)
    if verify_tol_abs is not None:
        residuals = post
        converged = np.isfinite(post) & (np.abs(post) <= verify_tol_abs)
    else:
        residuals = post - 1.0
        converged = np.isfinite(post) & (np.abs(post - 1.0) <= tol)
    errors = [None if c else f"one-shot correction left residual {r:.4g}"
              for c, r in zip(converged, residuals)]
    outcome = ParameterOutcome(
        bias_path=path,
        biases=np.broadcast_to(np.asarray(get_bias(cfg, path), dtype=float), (n,)).copy(),
        residuals=residuals, converged=converged,
        pre_spread=pre_spread, post_spread=_spread(post, absolute), evaluations=2)
    return cfg, outcome, errors


def _entry_stim_gain(cfg, target, tol):
    return _oneshot(cfg, "stim_trim", measure_stim_gain,
                    lambda trim, gain: trim / np.where(np.isfinite(gain) & (gain > 0), gain, 1.0),
                    tol)


def _make_entry_v_t(g_l_ref):
    def run(cfg, target, tol):
        return _oneshot(cfg, "exponential.V_exp",
                        lambda c: measure_exp_onset(c, g_l_ref) - target,
                        lambda v_exp, err: v_exp - np.where(np.isfinite(err), err, 0.0),
                        tol, verify_tol_abs=2e-3)
    return run


def _entry_b(cfg, target, tol):
    path = "adaptation.pulse_amplitude"
    if target == 0:
        # b_effective = g_w * pulse_amplitude * pulse_width / C_w: exactly 0
        return _exact(cfg, path, {path: 0.0})
    return _oneshot(cfg, path, lambda c: measure_b(c) / target,
                    lambda amp, ratio: amp / np.where(np.isfinite(ratio) & (ratio > 0), ratio, 1.0),
                    tol)


def calibrate_population(pop: Population, target: CalibrationTarget,
                         tol: float = 0.02) -> CalibrationResult:
    """Sequential per-parameter calibration of a whole population.

    Runs the entry of each target that is set (a value, or a flag that is
    on), upstream parameters first (see `entries`); a zero `a` or `b` is
    set exactly, with no measurement.  Per-neuron failures are collected,
    flagged in the outcome and do not abort the rest of the population.
    """
    cfg = pop.stacked()
    # run order: synaptic and membrane time constants first, then the
    # stimulus path, the exponential, adaptation, and finally the
    # input-circuit offsets and amplitudes which assume everything upstream
    entries = {
        "tau_syn_exc": _entry_tau_syn("exc"),
        "tau_syn_inh": _entry_tau_syn("inh"),
        "tau_m": _entry_tau_m,
        "stim_gain": _entry_stim_gain,
        "delta_t": _entry_delta_t,
        "v_t": _make_entry_v_t(_median(cfg.C_mem) / (target.tau_m or _median(cfg.tau_m))),
        "tau_w": _entry_tau_w,
        "a": _entry_a,
        "b": _entry_b,
        "offset_exc": _entry_offset("exc"),
        "offset_inh": _entry_offset("inh"),
        "psp_amplitude_exc": _entry_psp("exc"),
        "psp_amplitude_inh": _entry_psp("inh"),
    }

    result = CalibrationResult(population=pop)
    for name, runner in entries.items():
        value = getattr(target, name)
        if value is None or value is False:
            continue
        cfg, outcome, errors = runner(cfg, value, tol)
        result.outcomes[name] = outcome
        for i, err in enumerate(errors):
            if err is not None:
                result.failures.append(f"neuron {i}, {name}: {err}")

    result.population = Population.from_stacked(cfg, pop.size)
    return result
