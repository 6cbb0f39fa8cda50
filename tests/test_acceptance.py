"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured values.  Tolerances are fixed here, not tuned at run time.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from adexsim import (
    AdExParameters, StimulusProgram, circuit_for_adex, default_circuit_config,
    derive_effective_adex, lif_parameters, predicted_lot_isi, simulate,
    simulate_circuit,
)
from adexsim.calibrate import CalibrationTarget, calibrate_population
from adexsim.circuit import MAX_MEMBRANE_CAPACITANCE
from adexsim.experiments import (
    LotProtocol, run_exponential_sweep, run_firing_patterns,
    run_leak_over_threshold,
)
from adexsim.measure import measure_psp_amplitude, measure_tau_m
from adexsim.mismatch import (
    PARAMETER_RANGES, default_mismatch_model, sample_population,
)


def report(index, name, passed, detail):
    print(f"\nACCEPTANCE {index} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def lot_circuit(tau_m=50e-6):
    return circuit_for_adex(
        lif_parameters(C=MAX_MEMBRANE_CAPACITANCE,
                       g_l=MAX_MEMBRANE_CAPACITANCE / tau_m,
                       E_l=0.5, V_r=0.44, V_det=0.62, t_ref=1e-6),
        default_circuit_config())


def test_01_lif_oracle_randomized():
    """Simulated ISI matches the closed form within 1% at dt = tau_m/500."""
    rng = np.random.default_rng(20260808)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        tau_m = float(10 ** rng.uniform(math.log10(2e-6), math.log10(900e-6)))
        C = MAX_MEMBRANE_CAPACITANCE
        e_l = float(rng.uniform(0.3, 0.6))
        v_det = e_l + float(rng.uniform(0.1, 0.25))
        v_r = e_l - float(rng.uniform(0.0, 0.1))
        t_ref = float(rng.uniform(0.0, 0.2)) * tau_m
        p = lif_parameters(C=C, g_l=C / tau_m, E_l=e_l, V_r=v_r,
                           V_det=v_det, t_ref=t_ref)
        margin = float(rng.uniform(1.35, 3.0))
        current = margin * (v_det - e_l) * p.g_l
        predicted = predicted_lot_isi(p, current)
        trace = simulate(p, StimulusProgram.constant(current),
                         duration=8 * predicted + 5 * tau_m, dt=tau_m / 500)
        isis = np.diff(trace.spikes)[1:]
        assert len(isis) >= 3
        worst = max(worst, abs(float(np.median(isis)) - predicted) / predicted)
    elapsed = time.time() - t0
    ok = worst < 0.01 and elapsed < 10.0
    assert report(1, "LIF oracle", ok,
                  f"worst rel dev {worst:.4f} over 50 configs, {elapsed:.1f}s"), \
        f"worst deviation {worst}, elapsed {elapsed}"


def test_02_two_decade_tau_m_sweep():
    """Calibrated 128-neuron population over two decades of tau_m:
    median |ISI - predicted|/predicted <= 5% per target."""
    t0 = time.time()
    nominal = lot_circuit()
    pop = sample_population(nominal, default_mismatch_model(nominal, seed=0), 128)
    targets = (9e-6, 28.5e-6, 90e-6, 285e-6, 900e-6)
    rep = run_leak_over_threshold(pop, targets,
                                  LotProtocol(v_inf_margin=1.5, n_isis=8,
                                              tolerance=0.05))
    elapsed = time.time() - t0
    medians = {}
    for row in rep.per_neuron:
        medians.setdefault(row["tau_m_target"], []).append(row["abs_rel_dev"])
    medians = {k: float(np.nanmedian(v)) for k, v in medians.items()}
    worst = max(medians.values())
    ok = rep.passed and worst <= 0.05 and elapsed < 120.0
    assert report(2, "two-decade tau_m sweep", ok,
                  f"per-target medians {sorted(medians.values())}, {elapsed:.0f}s"), medians


def test_03_calibration_spread_reduction():
    """With the documented endpoint spread (~0.153), post-calibration
    std/mean of measured tau_m < 0.05 versus pre-calibration ~ sigma_rel."""
    t0 = time.time()
    nominal = lot_circuit(tau_m=900e-6)
    sigma = PARAMETER_RANGES["tau_m"].sigma_at(900e-6)
    assert sigma == pytest.approx(0.153, abs=0.003)
    pop = sample_population(nominal, default_mismatch_model(nominal, seed=1), 128)
    pre = measure_tau_m(pop.stacked())
    pre_spread = float(np.nanstd(pre) / np.nanmean(pre))
    res = calibrate_population(pop, CalibrationTarget(tau_m=900e-6), tol=0.02)
    post = measure_tau_m(res.population.stacked())
    post_spread = float(np.nanstd(post) / np.nanmean(post))
    elapsed = time.time() - t0
    ok = abs(pre_spread - sigma) < 0.04 and post_spread < 0.05 and elapsed < 60.0
    assert report(3, "calibration spread reduction", ok,
                  f"pre {pre_spread:.3f} (sigma {sigma:.3f}), post {post_spread:.3f}, "
                  f"{elapsed:.0f}s"), (pre_spread, post_spread)


def test_04_exponential_fidelity():
    """>= 3 decades below saturation, slope error <= 3%, onset shifts leave
    the slope unchanged within 2%."""
    t0 = time.time()
    cfg = default_circuit_config(exponential_enabled=True)
    rep = run_exponential_sweep(cfg, slopes=(0.015, 0.02, 0.04))
    elapsed = time.time() - t0
    worst_slope = max(r["slope_rel_err"] for r in rep.per_neuron)
    min_dec = min(r["decades"] for r in rep.per_neuron)
    ok = bool(rep.passed) and elapsed < 10.0
    assert report(4, "exponential fidelity", ok,
                  f"worst slope err {worst_slope:.4f}, min decades {min_dec:.2f}, "
                  f"{elapsed:.1f}s"), rep.notes


def test_05_coba_virtual_reversal():
    """PSP amplitude vs holding potential is affine with zero crossing at
    the configured virtual reversal within 2 mV, including reversals above
    the spiking threshold."""
    t0 = time.time()
    holdings = np.linspace(0.35, 0.65, 5)
    crossings = {}
    for e_syn in (0.85, 1.1, 1.3):  # all above the 0.75 V threshold
        cfg = default_circuit_config(coba=True)
        syn = cfg.syn_exc
        cfg = replace(cfg, syn_exc=replace(
            syn, E_syn_hat=e_syn - syn.I_b_cuba / syn.g2))
        amps = []
        for v_h in holdings:
            hold = replace(cfg, E_l=v_h,
                           adaptation=replace(cfg.adaptation, E_l_adapt=v_h))
            amps.append(measure_psp_amplitude(hold, weight=0.2))
        slope, intercept = np.polyfit(holdings, amps, 1)
        fit = np.polyval((slope, intercept), holdings)
        nonlin = float(np.max(np.abs(fit - amps)) / np.max(np.abs(amps)))
        crossings[e_syn] = (-intercept / slope, nonlin)
    elapsed = time.time() - t0
    worst = max(abs(c - e) for e, (c, _) in crossings.items())
    worst_nonlin = max(nl for _, nl in crossings.values())
    ok = worst <= 2e-3 and worst_nonlin < 0.02 and elapsed < 30.0
    assert report(5, "coba virtual reversal", ok,
                  f"worst crossing error {worst * 1e3:.2f} mV, "
                  f"affine residual {worst_nonlin:.4f}, {elapsed:.1f}s"), crossings


def test_06_firing_patterns():
    """Ideal model reproduces every published pattern label; >= 95% of a
    calibrated 128-neuron circuit population matches per pattern."""
    t0 = time.time()
    ideal = run_firing_patterns(model="ideal", record_first=False)
    circuit = run_firing_patterns(model="circuit", population_size=128,
                                  seed=0, agreement=0.95, record_first=False)
    elapsed = time.time() - t0
    fractions = {}
    for row in circuit.per_neuron:
        fractions.setdefault(row["pattern"], []).append(row["match"])
    fractions = {k: float(np.mean(v)) for k, v in fractions.items()}
    ok = bool(ideal.passed) and bool(circuit.passed) and elapsed < 180.0
    assert report(6, "firing patterns", ok,
                  f"ideal all-match {ideal.passed}, population agreement "
                  f"{min(fractions.values()):.3f}..{max(fractions.values()):.3f}, "
                  f"{elapsed:.0f}s"), (ideal.passed, fractions)


def test_07_circuit_vs_ideal_equivalence():
    """20 randomized saturation-free parameterizations: equal spike counts
    and per-spike timing deviation < 2% of the mean ISI."""
    rng = np.random.default_rng(77)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        tau_m = float(10 ** rng.uniform(-5.0, -4.3))
        C = MAX_MEMBRANE_CAPACITANCE
        g_l = C / tau_m
        e_l = 0.5
        v_det = e_l + float(rng.uniform(0.1, 0.14))
        use_exp = bool(rng.random() < 0.5)
        use_ad = bool(rng.random() < 0.7)
        t_ref = float(rng.uniform(0.5e-6, 2e-6))
        target = AdExParameters(
            C=C, g_l=g_l, E_l=e_l, V_T=e_l + 0.07,
            Delta_T=float(rng.uniform(0.015, 0.025)),
            tau_w=float(rng.uniform(40e-6, 200e-6)),
            a=float(rng.uniform(0.0, 0.3)) * g_l if use_ad else 0.0,
            b=float(rng.uniform(0.0, 2e-9)) if use_ad else 0.0,
            V_r=e_l - float(rng.uniform(0.02, 0.06)),
            V_det=v_det, t_ref=t_ref, exp_enabled=use_exp)
        template = default_circuit_config(adaptation_enabled=use_ad,
                                          exponential_enabled=use_exp)
        template = replace(template, leak_ota=replace(
            template.leak_ota, g_per_bias=0.25,
            I_bias=template.leak_ota.g / 0.25))
        cfg = circuit_for_adex(target, template, pulse_width=0.4 * t_ref)
        stim = StimulusProgram.step(
            5 * tau_m, float(rng.uniform(1.5, 1.9)) * g_l * (v_det - e_l))
        dt = tau_m / 600
        tr_c = simulate_circuit(cfg, stim, duration=20 * tau_m, dt=dt)
        tr_i = simulate(target, stim, duration=20 * tau_m, dt=dt)
        assert len(tr_c.spikes) == len(tr_i.spikes)
        assert len(tr_i.spikes) >= 4
        mean_isi = float(np.mean(np.diff(tr_i.spikes)))
        worst = max(worst, float(np.max(np.abs(tr_c.spikes - tr_i.spikes))) / mean_isi)
    elapsed = time.time() - t0
    ok = worst < 0.02 and elapsed < 60.0
    assert report(7, "circuit vs ideal", ok,
                  f"worst per-spike dev {worst:.4f} of mean ISI, {elapsed:.0f}s"), worst


def test_08_determinism(tmp_path, cli_env):
    """Reruns with the same seed produce byte-identical outputs."""
    t0 = time.time()
    config = """
[run]
mode = simulate
model = circuit
seed = 99
dt = 0.05 us
duration = 150 us

[circuit]
tau_m = 20 us
V_det = 0.62 V
V_r = 0.44 V

[adaptation]
enabled = true
tau_w = 100 us
a = 30 nS
b = 2 nA

[stimulus]
current = 24 nA
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(config)
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "adexsim.cli", "simulate",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=cli_env)
        assert proc.returncode == 0, proc.stderr
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    identical_cli = blobs[0] == blobs[1]

    from adexsim.patterns import load_patterns
    patterns = load_patterns()
    subset = {k: patterns[k] for k in ("tonic_spiking", "regular_bursting")}
    reports = []
    for _ in range(2):
        rep = run_firing_patterns(
            parameter_sets=subset, model="circuit", population_size=6, seed=3,
            record_first=False)
        reports.append(json.dumps(rep.to_json_dict(), sort_keys=True))
    identical_reports = reports[0] == reports[1]
    elapsed = time.time() - t0
    ok = identical_cli and identical_reports
    assert report(8, "determinism", ok,
                  f"cli bytes identical {identical_cli}, report json identical "
                  f"{identical_reports}, {elapsed:.0f}s"), (identical_cli,
                                                            identical_reports)


def test_09_integrator_convergence_order():
    """dt-halving sweep on a spiking configuration measures the declared
    first-order convergence within +-0.3."""
    t0 = time.time()
    p = AdExParameters(C=200e-12, g_l=10e-9, E_l=-70e-3, V_T=-50e-3,
                       Delta_T=2e-3, tau_w=30e-3, a=2e-9, b=30e-12,
                       V_r=-58e-3, V_det=-40e-3)
    stim = StimulusProgram.constant(500e-12)

    def mean_isi(dt):
        tr = simulate(p, stim, duration=0.12, dt=dt)
        return float(np.mean(np.diff(tr.spikes)))

    ref = mean_isi(p.tau_m / 12800)
    dts = [p.tau_m / f for f in (100, 200, 400, 800)]
    errs = [abs(mean_isi(dt) - ref) for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    ok = 0.7 <= slope <= 1.3
    assert report(9, "integrator convergence", ok,
                  f"measured order {slope:.2f} (declared 1), {elapsed:.0f}s"), slope
