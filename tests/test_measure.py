import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adexsim import (
    AdExParameters, InvalidConfig, OtaModel, circuit_for_adex,
    default_circuit_config, derive_effective_adex,
)
from adexsim import measure
from adexsim.circuit import (
    MAX_MEMBRANE_CAPACITANCE, CircuitState, ota_output, quiescent_state, set_bias,
    simulate_population,
)
from adexsim.measure import (
    RELEASE_BLOCK, RELEASE_FIT_FLOOR, RELEASE_MIN_SAMPLES, RELEASE_OFFSET,
    RELEASE_R2_MIN, RELEASE_STEPS_PER_TAU, RELEASE_WINDOW_TAUS, _a_protocol,
    _disable, _fit_decay, _release_rows,
    _steady_state, exponential_sweep, fit_exponential_slope, measure_b,
    measure_delta_t, measure_exp_onset, measure_psp_amplitude, measure_resting_offset,
    measure_stim_gain, measure_subthreshold_a, measure_tau_m, measure_tau_syn,
    measure_tau_w,
)
from adexsim.mismatch import (
    MismatchModel, Population, _take, default_mismatch_model, sample_population,
)
from adexsim.model import StimulusProgram
from adexsim.patterns import load_patterns
from stepwise_reference import run_from_state


@pytest.mark.parametrize("measure", [
    measure_tau_m, measure_tau_w, measure_subthreshold_a, exponential_sweep,
    measure_delta_t, lambda p: measure_exp_onset(p, p.g_l), measure_tau_syn,
    measure_psp_amplitude, measure_resting_offset, measure_stim_gain, measure_b,
], ids=["tau_m", "tau_w", "a", "sweep", "delta_t", "exp_onset", "tau_syn",
        "psp", "resting_offset", "stim_gain", "b"])
def test_ideal_parameter_set_is_invalid_config(hw_circuit, measure):
    # every routine measures a circuit; the ideal model has no such route
    with pytest.raises(InvalidConfig, match="circuit config, not AdExParameters"):
        measure(derive_effective_adex(hw_circuit))


# every measure_*, and whether its readout goes through the leak: a dead
# leak bias reads NaN there, and does not stop the others
READOUTS = {
    "tau_m": (measure_tau_m, True), "tau_w": (measure_tau_w, False),
    "a": (measure_subthreshold_a, True), "delta_t": (measure_delta_t, False),
    "exp_onset": (lambda c: measure_exp_onset(c, 0.12e-6), False),
    "tau_syn": (measure_tau_syn, False), "psp": (measure_psp_amplitude, True),
    "resting_offset": (measure_resting_offset, True), "stim_gain": (measure_stim_gain, True),
    "b": (measure_b, False),
}


@pytest.mark.parametrize("name", sorted(READOUTS))
def test_every_readout_returns_one_value_per_neuron(hw_circuit, name):
    readout, through_leak = READOUTS[name]
    trio = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=6), 3).stacked()
    for cfg, n in ((trio, 3), (_take(trio, slice(1, 2), 1), 1), (hw_circuit, 1)):
        values = readout(cfg)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == (n,) and np.all(np.isfinite(values))
    # a config of single values is its width-1 take
    np.testing.assert_array_equal(readout(hw_circuit),
                                  readout(_take(hw_circuit, slice(0, 1), 1)))
    dead = set_bias(trio, "leak_ota.I_bias",
                    np.asarray(trio.leak_ota.I_bias, dtype=float) * [1.0, 0.0, 1.0])
    single = replace(hw_circuit, leak_ota=replace(hw_circuit.leak_ota, I_bias=0.0))
    for cfg, column in ((dead, 1), (_take(dead, slice(1, 2), 1), 0), (single, 0)):
        values = readout(cfg)
        assert values.shape == (np.size(cfg.C_mem),)
        assert np.isnan(values[column]) == through_leak
        assert np.all(np.isfinite(np.delete(values, column)))


class TestTauM:
    def test_circuit_matches_derived(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        assert measure_tau_m(hw_circuit)[0] == pytest.approx(eff.tau_m, rel=0.02)

    def test_saturated_release_rejected(self):
        # a slew-limited transconductor makes the release non-exponential;
        # g * x0 / I_sat is that of a 0.45 V offset with I_bias / 20, at the
        # same g
        cfg = default_circuit_config(tau_m=20e-6)
        cfg = replace(cfg, leak_ota=OtaModel(
            I_bias=cfg.leak_ota.I_bias / 20 / 9, g_per_bias=cfg.leak_ota.g_per_bias * 20 * 9))
        assert np.isnan(measure_tau_m(cfg)[0])

    def test_default_offset_within_linear_range(self, hw_circuit):
        assert RELEASE_OFFSET <= float(hw_circuit.leak_ota.linear_range)

    def test_dead_leak_does_not_decay(self, hw_circuit):
        # I_sat = I_bias = 0: the leak OTA gives no current and the node
        # stays put
        dead = replace(hw_circuit, leak_ota=replace(hw_circuit.leak_ota, I_bias=0.0))
        assert np.isnan(measure_tau_m(dead)[0])
        pop = Population([hw_circuit, dead, hw_circuit]).stacked()
        taus = measure_tau_m(pop)
        assert np.isnan(taus[1]) and np.all(np.isfinite(taus[[0, 2]]))
        assert taus[0] == measure_tau_m(hw_circuit)[0]

    def test_deep_slew_follows_slew_line(self, hw_circuit):
        # g * x0 / I_sat ~ 2e3, whose sinh overflows a double: the membrane
        # slews at I_sat / C_mem, loses a few percent of the offset in the
        # window and never reaches the fit floor, as the slew line does not
        # (I_bias * 1e-4 / 9 at the same g and RELEASE_OFFSET: the
        # g * x0 / I_sat of a 0.45 V offset with I_bias * 1e-4)
        leak = hw_circuit.leak_ota
        cfg = replace(hw_circuit, leak_ota=replace(leak, I_bias=leak.I_bias * 1e-4 / 9,
                                                   g_per_bias=leak.g_per_bias * 9e4))
        dt = cfg.tau_m / RELEASE_STEPS_PER_TAU
        times = np.arange(int(round(RELEASE_WINDOW_TAUS * cfg.tau_m / dt)) + 1) * dt
        line = RELEASE_OFFSET - cfg.leak_ota.I_bias / cfg.C_mem * times
        assert np.all(line > RELEASE_FIT_FLOOR * RELEASE_OFFSET)
        assert math.isnan(_fit_decay(times, line[None])[0])
        with np.errstate(over="raise"):
            assert math.isnan(measure_tau_m(cfg)[0])
        pop = Population([hw_circuit, cfg]).stacked()
        with np.errstate(over="raise"):
            taus = measure_tau_m(pop)
        assert np.isfinite(taus[0]) and np.isnan(taus[1])


class TestTauW:
    def test_circuit_matches_derived(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        assert measure_tau_w(hw_circuit)[0] == pytest.approx(eff.tau_w, rel=0.02)

    def test_disabled_raises(self):
        cfg = default_circuit_config()
        with pytest.raises(InvalidConfig):
            measure_tau_w(cfg)


class TestSubthresholdA:
    def test_circuit_matches_derived(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        assert measure_subthreshold_a(hw_circuit)[0] == pytest.approx(eff.a, rel=0.05)

    def test_zero_coupling_reads_zero(self, hw_circuit):
        cfg = replace(hw_circuit, adaptation=replace(
            hw_circuit.adaptation,
            ota_a=replace(hw_circuit.adaptation.ota_a, I_bias=0.0)))
        assert abs(measure_subthreshold_a(cfg)[0]) < 1e-9

    def test_marginal_negative_a_measurable(self):
        # a ~ -g_l has no subthreshold steady state at the operating point;
        # the protocol raises the leak for the measurement
        C = MAX_MEMBRANE_CAPACITANCE
        g_l = C / 10e-6
        target = AdExParameters(C=C, g_l=g_l, E_l=0.5, V_T=0.6, Delta_T=0.02,
                                tau_w=90e-6, a=-g_l, b=3e-9, V_r=0.58,
                                V_det=0.7, t_ref=0.0, exp_enabled=False)
        cfg = circuit_for_adex(target, default_circuit_config(
            adaptation_enabled=True))
        assert measure_subthreshold_a(cfg)[0] == pytest.approx(-g_l, rel=0.05)


# ---------------------------------------------------------------------------
# release closed forms against engine releases

def row_fit_decay(times, deflection):
    """One row's decay fit as a loop over rows ran it before the fit was
    batched (np.linalg.lstsq); returns (tau, reason), reason None on success.
    A trace that never falls below its start reads as not decaying."""
    y = deflection / deflection[0]
    if np.all(y >= 1.0):
        return math.nan, "deflection did not decay"
    below = np.nonzero(y <= RELEASE_FIT_FLOOR)[0]
    if not len(below):
        return math.nan, (f"deflection never fell to the fit floor "
                          f"({RELEASE_FIT_FLOOR:g} of the offset)")
    end = int(below[0])
    if end < RELEASE_MIN_SAMPLES:
        return math.nan, f"only {end} samples above the fit floor"
    if np.any(y[:end] <= 0):
        return math.nan, "non-monotone trace (deflection crossed zero)"
    A = np.column_stack([times[:end], np.ones(end)])
    ly = np.log(y[:end])
    coef = np.linalg.lstsq(A, ly, rcond=None)[0]
    r2 = 1.0 - np.sum((ly - A @ coef) ** 2) / np.sum((ly - ly.mean()) ** 2)
    if coef[0] >= 0:
        return math.nan, "deflection did not decay"
    if r2 < RELEASE_R2_MIN:
        return math.nan, f"fit R^2 = {r2:.4f} below {RELEASE_R2_MIN}"
    return -1.0 / coef[0], None


def test_batched_decay_fit_matches_row_loop():
    # one row per gate of the row loop, each on its own time grid: NaN where
    # the row loop names a reason, and the same tau to rounding elsewhere
    t = np.linspace(0.0, 7.0, 1051) * np.array([1e-6, 3e-5, 1e-4, 1e-5, 2e-6,
                                                 1e-5, 1e-5, 4e-5])[:, None]
    u = np.linspace(0.0, 7.0, 1051)
    rows = np.array([
        np.exp(-u),                         # clean decay
        np.exp(-1.3 * u) * (1 + 0.01 * np.sin(40 * u)),  # decay with ripple
        np.full_like(u, 0.05),              # dead bias
        np.exp(-u / 50),                    # never reaches the floor
        np.exp(-400 * u),                   # too few samples above it
        np.exp(u / 10),                     # rising
        1.0 - u / 3 + 0.3 * np.sin(6 * u),  # far from one exponential
        0.05 * np.exp(-2.0 * u),            # scaled decay
    ])
    taus = _fit_decay(t, rows)
    want = [row_fit_decay(*row) for row in zip(t, rows)]
    np.testing.assert_allclose(taus, [w[0] for w in want], rtol=1e-9)
    assert len({w[1] for w in want}) >= 5


def engine_release(cfg, initial_state, node):
    """Each neuron's release fitted from a recorded engine run on the
    protocol grid.  `node` is (record 'V' or 'V_w', the node's reference,
    its nominal time constants)."""
    run_node, reference, tau = node
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    m = int(np.size(np.asarray(cfg.C_mem)))
    dt = float(tau.min()) / RELEASE_STEPS_PER_TAU
    run = run_from_state(cfg, m, StimulusProgram.constant(0.0), initial_state,
                         duration=RELEASE_WINDOW_TAUS * float(tau.max()), dt=dt,
                         record=True)
    trace = getattr(run, run_node)
    times = np.arange(trace.shape[0]) * dt
    reference = np.broadcast_to(np.asarray(reference, dtype=float), (m,))
    return _fit_decay(times, (trace - reference).T)


def engine_release_tau_m(cfg):
    """measure_tau_m by an engine run: the membrane released from E_l +
    offset with every sub-circuit but the leak off."""
    cfg = _disable(cfg, adaptation=True, exponential=True, synin=True, spiking=True)
    rest = quiescent_state(cfg)
    state = CircuitState(V_m=np.asarray(rest.V_m) + RELEASE_OFFSET, V_w=rest.V_w)
    return engine_release(cfg, state, ("V", cfg.E_l, cfg.tau_m))


def engine_release_tau_w(cfg):
    """measure_tau_w by an engine run: the filter node released from V_ref
    + offset with ota_a dead, so the membrane does not feed back."""
    cfg = _disable(cfg, exponential=True, synin=True, spiking=True)
    ad = cfg.adaptation
    cfg = replace(cfg, adaptation=replace(
        ad, ota_a=replace(ad.ota_a, I_bias=0.0 * ad.ota_a.I_bias)))
    rest = quiescent_state(cfg)
    state = CircuitState(V_m=rest.V_m, V_w=np.asarray(rest.V_w) + RELEASE_OFFSET)
    return engine_release(cfg, state, ("V_w", ad.V_ref, ad.tau_w))


PATTERN_NOMINALS = ("tonic_spiking", "delayed_regular_bursting")


@functools.lru_cache(maxsize=None)
def pattern_nominal(name):
    """A firing pattern's nominal circuit, as `run_firing_patterns` builds it."""
    hw, _, _, _ = load_patterns()[name].to_hardware()
    return circuit_for_adex(hw, default_circuit_config(E_l=hw.E_l))


@pytest.fixture(scope="module", params=PATTERN_NOMINALS)
def pattern_seed3(request):
    """128 mismatched neurons (seed 3) of a pattern's nominal circuit."""
    nominal = pattern_nominal(request.param)
    return sample_population(nominal, default_mismatch_model(nominal, seed=3), 128).stacked()


def alone(readout, cfg):
    """Each neuron of a stacked config read alone: the value of its width-1
    take, one per neuron."""
    return [readout(_take(cfg, slice(i, i + 1), 1))[0] for i in range(np.size(cfg.C_mem))]


class TestReleaseBlocks:
    @pytest.fixture(scope="class")
    def wide(self):
        """40 mismatched delayed_regular_bursting neurons (seed 3), more
        than two row blocks."""
        nominal = pattern_nominal("delayed_regular_bursting")
        pop = sample_population(nominal, default_mismatch_model(nominal, seed=3), 40)
        assert pop.size > 2 * RELEASE_BLOCK
        return pop.stacked()

    @pytest.mark.parametrize("release", [measure_tau_m, measure_tau_w])
    def test_batch_equals_each_neuron_alone(self, wide, release):
        np.testing.assert_array_equal(release(wide), alone(release, wide))

    @pytest.mark.parametrize("release", [measure_tau_m, measure_tau_w])
    def test_returned_array_is_the_callers(self, wide, release):
        # a repeated fit is kept, and what is returned is a copy of it
        first = release(wide)
        kept = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(release(wide), kept)

    def test_fit_memory_does_not_grow_with_width(self, pattern_seed3):
        # 128 releases of 1051 samples fitted 16 rows at a time: about
        # 1.3 MiB traced, against 10.5 MiB in one pass
        _release_rows.cache_clear()
        tracemalloc.start()
        try:
            measure_tau_m(pattern_seed3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20, peak / 2 ** 20


class TestReleaseClosedForm:
    def test_tau_m_agrees_with_engine_release(self, pattern_seed3):
        oracle = engine_release_tau_m(pattern_seed3)
        assert np.all(np.isfinite(oracle))
        rel = np.abs(measure_tau_m(pattern_seed3) - oracle) / oracle
        assert np.all(rel <= 1e-5), rel.max()

    def test_tau_w_agrees_with_engine_release(self, pattern_seed3):
        oracle = engine_release_tau_w(pattern_seed3)
        assert np.all(np.isfinite(oracle))
        rel = np.abs(measure_tau_w(pattern_seed3) - oracle) / oracle
        assert np.all(rel <= 1e-5), rel.max()


class TestDeltaT:
    def test_circuit_three_decades(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        assert measure_delta_t(hw_circuit)[0] == pytest.approx(eff.Delta_T, rel=0.03)

    def test_onset_estimate(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        v_t = measure_exp_onset(hw_circuit, eff.g_l)[0]
        assert v_t == pytest.approx(eff.V_T, abs=1e-3)

    def test_disabled_raises(self):
        with pytest.raises(InvalidConfig):
            measure_delta_t(default_circuit_config())

    @given(pattern=st.sampled_from(PATTERN_NOMINALS), seed=st.integers(0, 2 ** 32 - 1),
           width=st.integers(1, 6))
    def test_scalar_equals_batch_column(self, pattern, seed, width):
        # every engine-free readout samples, sweeps or solves each neuron on
        # its own, so it does not depend on the batch: each batch column is
        # the neuron's width-1 take, NaN included
        nominal = pattern_nominal(pattern)
        cfg = sample_population(
            nominal, default_mismatch_model(nominal, seed=seed), width).stacked()
        for readout in (measure_tau_m, measure_tau_w, measure_delta_t,
                        measure_subthreshold_a, measure_stim_gain, measure_resting_offset):
            np.testing.assert_array_equal(
                readout(cfg), alone(readout, cfg), err_msg=readout.__name__)
        g_l = np.asarray(cfg.g_l)
        np.testing.assert_array_equal(
            measure_exp_onset(cfg, g_l),
            [measure_exp_onset(_take(cfg, slice(i, i + 1), 1), g_l[i])[0]
             for i in range(width)])

    @given(pattern=st.sampled_from(PATTERN_NOMINALS), seed=st.integers(0, 2 ** 32 - 1),
           width=st.integers(1, 6))
    def test_b_scalar_equals_batch_column(self, pattern, seed, width):
        # measure_b drives each neuron from its own threshold state at its
        # own threshold current, so it does not depend on the batch either
        # (the pattern nominals share pulse_width, which sets dt); each run
        # lasts just past the pulse window
        nominal = pattern_nominal(pattern)
        cfg = sample_population(
            nominal, default_mismatch_model(nominal, seed=seed), width).stacked()
        runs = []

        def simulate(cfg, n, stimulus, *args, duration, dt, **kwargs):
            runs.append((dt, round(duration / dt), float(np.max(cfg.adaptation.pulse_width))))
            return real(cfg, n, stimulus, *args, duration=duration, dt=dt, **kwargs)

        real = measure.simulate_population
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measure, "simulate_population", simulate)
            batch = measure_b(cfg)
            singles = alone(measure_b, cfg)
        np.testing.assert_array_equal(batch, singles)
        assert np.all(np.isfinite(batch))
        assert len(runs) == width + 1
        assert all(n_steps <= math.ceil(w / dt) + 3 for dt, n_steps, w in runs)


def row_exponential_fit(grid, currents, i_max, r2_min=0.995, min_decades=2.5):
    """One row's exponential fit as a loop over rows ran it before the fit
    was batched (np.median of the local slopes, np.linalg.lstsq); returns
    delta_t, or NaN where a gate rejects the row."""
    peak = float(np.max(currents))
    top = i_max / 10.0 if peak >= 0.9 * i_max else peak
    band = (currents > 0) & (currents <= top)
    idx = np.nonzero(band)[0]
    if len(idx) >= 8:
        local = np.diff(np.log(currents[idx])) / np.diff(grid[idx])
        median = float(np.median(local))
        flat = np.nonzero(local < 0.5 * median)[0]
        if len(flat) and median > 0:
            band[idx[flat[0] + 1:]] = False
    if np.count_nonzero(band) < 8:
        return math.nan
    x, ly = grid[band], np.log(currents[band])
    A = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.lstsq(A, ly, rcond=None)[0]
    r2 = 1.0 - np.sum((ly - A @ coef) ** 2) / np.sum((ly - ly.mean()) ** 2)
    decades = math.log10(currents[band].max() / currents[band].min())
    if decades < min_decades or coef[0] <= 0 or r2 < r2_min:
        return math.nan
    return 1.0 / coef[0]


@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 6))
def test_batched_exponential_fit_matches_row_loop(seed, width):
    # noisy sweeps with a powered-down start, a soft shoulder below the
    # ceiling or a hard one at it: the same bands and gates as the row loop,
    # and the same slope to rounding
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.3, 0.9, 100) + rng.uniform(-0.05, 0.05, (width, 1))
    ideal = 1e-12 * np.exp((grid - 0.4) / rng.uniform(0.01, 0.05, (width, 1)))
    knee = 10.0 ** rng.uniform(-10, -7, (width, 1))
    cur = ideal / (1.0 + ideal / knee) * rng.lognormal(0.0, 0.02, grid.shape)
    cur[:, :rng.integers(0, 20)] = 0.0
    i_max = 10.0 ** rng.uniform(-9, -6, width)
    np.testing.assert_allclose(
        fit_exponential_slope(grid, cur, i_max, min_decades=2.5)[0],
        [row_exponential_fit(*row) for row in zip(grid, cur, i_max)], rtol=1e-9)


class TestTauSyn:
    def test_circuit_route(self):
        cfg = default_circuit_config()
        assert measure_tau_syn(cfg, "exc")[0] == \
            pytest.approx(cfg.syn_exc.tau_syn, rel=0.01)
        assert measure_tau_syn(cfg, "inh")[0] == \
            pytest.approx(cfg.syn_inh.tau_syn, rel=0.01)


class TestStimGainAndB:
    def test_stim_gain_reads_true_gain(self, hw_circuit):
        cfg = replace(hw_circuit, stim_gain=1.13)
        assert measure_stim_gain(cfg)[0] == pytest.approx(1.13, rel=0.01)

    def test_b_matches_derived(self, hw_circuit):
        eff = derive_effective_adex(hw_circuit)
        assert measure_b(hw_circuit)[0] == pytest.approx(eff.b, rel=0.03)


class TestPspAndOffset:
    def test_offset_free_circuit_reads_zero(self):
        cfg = default_circuit_config()
        assert abs(measure_resting_offset(cfg)[0]) < 1e-6

    def test_follower_offset_shifts_baseline(self):
        cfg = default_circuit_config()
        cfg = replace(cfg, syn_exc=replace(cfg.syn_exc, follower_offset=4e-3))
        shift = measure_resting_offset(cfg)[0]
        # negative offset current pulls the membrane below the leak potential
        expected = -cfg.syn_exc.g1_per_bias * cfg.syn_exc.I_b_cuba * 4e-3 / cfg.g_l
        assert shift == pytest.approx(expected, rel=0.05)

    def test_amplitude_scales_with_weight(self):
        cfg = default_circuit_config()
        a1 = measure_psp_amplitude(cfg, weight=0.1)[0]
        a2 = measure_psp_amplitude(cfg, weight=0.2)[0]
        assert a2 == pytest.approx(2 * a1, rel=0.02)


class TestUnbiasedness:
    def test_median_error_below_two_percent(self, rng):
        # randomized valid parameterizations measured against derived truth
        n = 40
        neurons = []
        for _ in range(n):
            tau_m = float(10 ** rng.uniform(-5.3, -4.0))
            target = AdExParameters(
                C=MAX_MEMBRANE_CAPACITANCE,
                g_l=MAX_MEMBRANE_CAPACITANCE / tau_m,
                E_l=0.5, V_T=0.62, Delta_T=float(rng.uniform(0.014, 0.05)),
                tau_w=float(10 ** rng.uniform(-4.5, -3.2)),
                a=float(rng.uniform(0.05, 0.5)) * MAX_MEMBRANE_CAPACITANCE / tau_m,
                b=float(rng.uniform(0.5e-9, 5e-9)),
                V_r=0.42, V_det=0.72, t_ref=1e-6)
            neurons.append(circuit_for_adex(target, default_circuit_config(
                adaptation_enabled=True, exponential_enabled=True)))
        stacked = Population(neurons).stacked()
        truth_tau_m = np.array([derive_effective_adex(c).tau_m for c in neurons])
        truth_tau_w = np.array([derive_effective_adex(c).tau_w for c in neurons])
        truth_a = np.array([derive_effective_adex(c).a for c in neurons])
        truth_dt = np.array([derive_effective_adex(c).Delta_T for c in neurons])
        for measure, truth in ((measure_tau_m, truth_tau_m),
                               (measure_tau_w, truth_tau_w),
                               (measure_subthreshold_a, truth_a),
                               (measure_delta_t, truth_dt)):
            got = np.asarray(measure(stacked))
            rel = np.abs(got - truth) / np.abs(truth)
            assert np.nanmedian(rel) <= 0.02, measure.__name__


# ---------------------------------------------------------------------------
# steady-state solver against the step-response protocol

def step_response(cfg, m, settle, dt, step=1.0):
    """Step-response protocol: settle, step the command by `step`, settle
    again.  Returns (deflection, settled) from window means of V_m; a
    neuron counts as settled when its last two windows agree within 1e-3
    of the deflection."""
    run = simulate_population(cfg, m, StimulusProgram.step(settle, step),
                              duration=2 * settle, dt=dt, record=True)
    k_on = int(round(settle / dt))
    win = max(int(round(0.1 * settle / dt)), 4)
    before = run.V[k_on - win:k_on].mean(axis=0)
    after = run.V[-win:].mean(axis=0)
    mid = run.V[-2 * win:-win].mean(axis=0)
    settled = np.abs(after - mid) <= 1e-3 * np.maximum(np.abs(after - before), 1e-12) + 1e-9
    return after - before, settled


def per_neuron_step(cfg, amplitude):
    """Config whose unit command injects `amplitude` (per neuron)."""
    return replace(cfg, stim_trim=np.asarray(cfg.stim_trim, dtype=float) * amplitude)


def transient_a(cfg, m, deflection_target=0.03):
    """The `a` readout by step responses, with the solver's per-neuron
    leak boost and step amplitude."""
    base = _disable(cfg, exponential=True, synin=True, spiking=True)
    a = np.broadcast_to(np.asarray(base.adaptation.a_effective, dtype=float), (m,))
    g_l = np.broadcast_to(np.asarray(base.g_l, dtype=float), (m,))
    boost, d_i = _a_protocol(a, g_l, deflection_target)
    base = replace(base, leak_ota=replace(base.leak_ota, I_bias=base.leak_ota.I_bias * boost))
    g_meas = g_l * boost
    stretch = g_meas / np.maximum(g_meas + a, 0.2 * g_meas)
    tau_m = np.asarray(base.tau_m, dtype=float)
    slowest = float(np.maximum(tau_m, np.asarray(base.adaptation.tau_w) * stretch).max())
    # the exponential-Euler update has the same fixed point for any dt, so
    # a coarse step suffices for the settled deflection
    dt = float(tau_m.min()) / 5.0
    base = per_neuron_step(base, d_i)
    dv_off, ok_off = step_response(_disable(base, adaptation=True), m, 10 * slowest, dt)
    dv_on, ok_on = step_response(base, m, 10 * slowest, dt)
    return d_i / dv_on - d_i / dv_off, ok_off & ok_on


@pytest.fixture(scope="module")
def drb_seed3():
    """delayed_regular_bursting (a = -g_l) at mismatch seed 3 after the plan
    entries upstream of `a`, with the `a` entry's sign and probe biases."""
    from adexsim.calibrate import calibrate_population, CalibrationTarget
    from adexsim.patterns import load_patterns
    hw, _, _, _ = load_patterns()["delayed_regular_bursting"].to_hardware()
    nominal = circuit_for_adex(hw, default_circuit_config(E_l=hw.E_l))
    pop = sample_population(nominal, default_mismatch_model(nominal, seed=3), 128)
    target = CalibrationTarget(tau_m=hw.tau_m, stim_gain=True, delta_t=hw.Delta_T,
                               v_t=hw.V_T, tau_w=hw.tau_w, allow_out_of_range=True)
    cal = calibrate_population(pop, target, tol=0.015)
    cfg = set_bias(cal.population.stacked(), "adaptation.sign", -1)
    ad = cfg.adaptation
    # probe bounds of the `a` plan entry
    center = abs(hw.a) / (float(np.median(ad.g_w_factor))
                          * float(np.median(ad.ota_a.g_per_bias)))
    probes = {"low": np.full(128, center / 8), "current": np.asarray(ad.ota_a.I_bias),
              "high": np.full(128, center * 8)}
    return cfg, probes


class TestSteadyStateSolver:
    def test_batch_equals_alone_with_outlier(self, drb_seed3):
        # neuron 9's a sits far from the population median; a settle window
        # sized from the median once left it unsettled in the batch only
        cfg, _ = drb_seed3
        a_eff = np.asarray(cfg.adaptation.a_effective)
        assert a_eff[9] < 1.4 * np.median(a_eff)
        batch = measure_subthreshold_a(cfg)
        assert np.array_equal(batch, alone(measure_subthreshold_a, cfg))
        assert batch[9] == pytest.approx(-3.806e-7, rel=1e-3)
        assert np.all(np.isfinite(batch))

    @pytest.mark.parametrize("probe", ["low", "current", "high"])
    def test_a_agrees_with_step_responses(self, drb_seed3, probe):
        cfg, probes = drb_seed3
        keep = [9, 0, 1, 2, 3, 4, 5, 6]  # the outlier plus a sample
        neurons = Population.from_stacked(
            set_bias(cfg, "adaptation.ota_a.I_bias", probes[probe]), 128).neurons
        cfg = Population([neurons[i] for i in keep]).stacked()
        m = len(keep)
        solved = measure_subthreshold_a(cfg)
        oracle, settled = transient_a(cfg, m)
        assert np.count_nonzero(settled) >= m - 1
        rel = np.abs(solved - oracle) / np.abs(oracle)
        assert np.all(rel[settled] <= 1e-3), rel

    def test_stim_gain_agrees_with_step_response(self, drb_seed3):
        cfg, _ = drb_seed3
        m = 128
        base = _disable(cfg, adaptation=True, exponential=True, synin=True, spiking=True)
        tau = measure_tau_m(base)
        i_cmd = 0.04 * np.asarray(base.g_l)
        tau_m = np.asarray(base.tau_m)
        dv, settled = step_response(per_neuron_step(base, i_cmd), m,
                                    10 * float(tau_m.max()), float(tau_m.min()) / 20)
        oracle = dv * np.asarray(base.C_mem) / tau / i_cmd
        solved = measure_stim_gain(cfg)
        assert np.count_nonzero(settled) >= m - 1
        assert np.all(np.abs(solved - oracle)[settled] <= 1e-3 * np.abs(oracle[settled]))

    @pytest.mark.parametrize("coba", [False, True])
    def test_resting_offset_agrees_with_settled_transient(self, coba):
        nominal = default_circuit_config(coba=coba)
        mm = MismatchModel(relative={"leak_ota.g_per_bias": 0.2, "syn_exc.g1_per_bias": 0.2},
                           additive={"syn_exc.follower_offset": 5e-3}, seed=5)
        cfg = sample_population(nominal, mm, 16).stacked()
        m = 16
        base = _disable(cfg, adaptation=True, exponential=True, spiking=True)
        base = replace(base, syn_inh=replace(base.syn_inh, enabled=False))
        tau_m = np.asarray(base.tau_m)
        # a zero step: the "before" window is the settled rest
        settle = 10 * float(tau_m.max())
        run = simulate_population(base, m, StimulusProgram.constant(0.0),
                                  duration=2 * settle, dt=float(tau_m.min()) / 20,
                                  record=True)
        win = run.V.shape[0] // 20
        last, prev = run.V[-win:].mean(axis=0), run.V[-2 * win:-win].mean(axis=0)
        oracle = last - np.asarray(cfg.E_l)
        settled = np.abs(last - prev) <= 1e-3 * np.abs(oracle) + 1e-9
        solved = measure_resting_offset(cfg)
        assert np.count_nonzero(settled) >= m - 1
        assert np.all(np.abs(solved - oracle)[settled] <= 1e-3 * np.abs(oracle[settled]))

    @given(pattern=st.sampled_from(PATTERN_NOMINALS), seed=st.integers(0, 2 ** 32 - 1),
           command=st.floats(-2.5, 2.5))
    def test_root_brackets_a_sign_change(self, pattern, seed, command):
        # each finite rest and the adjacent double on the start side (E_l)
        # bracket a sign change or a zero of the net current
        nominal = pattern_nominal(pattern)
        cfg = _disable(sample_population(nominal, default_mismatch_model(nominal, seed=seed),
                                         8).stacked(),
                       exponential=True, synin=True, spiking=True)
        ad = cfg.adaptation
        current = command * cfg.leak_ota.I_bias

        def net(V):
            f = ota_output(cfg.leak_ota, cfg.E_l, V)
            f = f - ad.sign * ad.g_w_factor * ota_output(ad.ota_a, V, ad.E_l_adapt)
            return f + cfg.stim_gain * cfg.stim_trim * current

        rest = _steady_state(cfg, 8, current)
        solved = np.isfinite(rest)
        across = net(rest) * net(np.nextafter(rest, cfg.E_l))
        assert np.all(across[solved] <= 0)

    def test_unstable_rest_reads_nan(self, hw_circuit):
        # a = -2 g_l without the readout's leak boost: the rest is unstable
        cfg = _disable(hw_circuit, exponential=True, synin=True, spiking=True)
        ad = cfg.adaptation
        cfg = replace(cfg, adaptation=replace(ad, sign=-1, ota_a=replace(
            ad.ota_a, I_bias=2 * cfg.g_l / (ad.g_w_factor * ad.ota_a.g_per_bias))))
        assert np.isnan(_steady_state(cfg, 1, 0.0)[0])

    def test_saturated_filter_reads_nan(self, hw_circuit):
        # a command far beyond what ota_tau, at its g and a 1 pA bias, can
        # balance
        cfg = _disable(hw_circuit, exponential=True, synin=True, spiking=True)
        ad = cfg.adaptation
        cfg = replace(cfg, adaptation=replace(ad, ota_tau=replace(
            ad.ota_tau, I_bias=1e-12, g_per_bias=ad.ota_tau.g / 1e-12)))
        assert np.isnan(_steady_state(cfg, 1, 0.2 * float(cfg.g_l))[0])

    def test_no_root_reads_nan(self, hw_circuit):
        # more current than the saturated leak and adaptation can sink
        cfg = _disable(hw_circuit, adaptation=True, exponential=True, synin=True,
                       spiking=True)
        assert np.isnan(_steady_state(cfg, 1, 2 * float(cfg.leak_ota.I_bias))[0])
        assert np.isnan(measure_stim_gain(replace(cfg, stim_gain=60.0))[0])
