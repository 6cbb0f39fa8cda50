import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from adexsim import (
    CalibrationTarget, calibrate_population, circuit_for_adex,
    default_circuit_config, derive_effective_adex, load_patterns,
    run_firing_patterns, run_psp_experiment,
)
from adexsim import mismatch
from adexsim.circuit import get_bias
from adexsim.mismatch import (
    MismatchModel, PARAMETER_RANGES, Population, default_mismatch_model,
    sample_population,
)
from adexsim.units import DomainMap


@functools.lru_cache(maxsize=None)
def pattern_nominal(name):
    """A firing pattern's nominal circuit, as `run_firing_patterns` builds it."""
    hw, _, _, _ = load_patterns()[name].to_hardware(DomainMap())
    return circuit_for_adex(hw, default_circuit_config(E_l=hw.E_l))


def leaf_bits(cfg) -> dict:
    """Dotted path -> (dtype, shape, bytes) of each numeric leaf, or the
    flag or mode itself."""
    out = {}

    def walk(obj, path):
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}".lstrip("."))
        elif obj is None or isinstance(obj, (bool, str)):
            out[path] = obj
        else:
            arr = np.asarray(obj)
            out[path] = (arr.dtype.str, arr.shape, arr.tobytes())

    walk(cfg, "")
    return out


class TestSamplePopulation:
    def test_zero_sigma_identical_copies(self, hw_circuit):
        mm = MismatchModel(relative={"leak_ota.g_per_bias": 0.0}, seed=7)
        pop = sample_population(hw_circuit, mm, 5)
        assert pop.size == 5
        assert all(n == hw_circuit for n in pop.neurons)

    def test_law_of_large_numbers(self, hw_circuit):
        # sigma_rel = 0.15 on the leak constant, ten thousand samples
        mm = MismatchModel(relative={"leak_ota.g_per_bias": 0.15}, seed=11)
        pop = sample_population(hw_circuit, mm, 10_000)
        g = np.array([n.leak_ota.g_per_bias for n in pop.neurons])
        spread = np.std(g) / np.mean(g)
        assert abs(spread - 0.15) < 0.01
        assert np.mean(g) == pytest.approx(hw_circuit.leak_ota.g_per_bias, rel=0.01)
        assert np.all(g > 0)

    def test_same_seed_identical_populations(self, hw_circuit):
        mm = default_mismatch_model(hw_circuit, seed=3)
        a = sample_population(hw_circuit, mm, 32)
        b = sample_population(hw_circuit, mm, 32)
        assert a.neurons == b.neurons

    def test_different_seeds_differ(self, hw_circuit):
        a = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=3), 8)
        b = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=4), 8)
        assert a.neurons != b.neurons

    def test_additive_offsets(self, hw_circuit):
        mm = MismatchModel(additive={"syn_exc.follower_offset": 5e-3}, seed=2)
        pop = sample_population(hw_circuit, mm, 2000)
        offs = np.array([n.syn_exc.follower_offset for n in pop.neurons])
        assert np.std(offs) == pytest.approx(5e-3, rel=0.1)
        assert abs(np.mean(offs)) < 5e-4

    def test_stack_round_trip(self, hw_circuit):
        mm = default_mismatch_model(hw_circuit, seed=5)
        pop = sample_population(hw_circuit, mm, 6)
        again = Population.from_stacked(pop.stacked(), 6)
        assert again.neurons == pop.neurons



def refuse_to_split(cfg, n):
    raise AssertionError("stacked population split into scalar configs")


class TestStackedRepresentation:
    def test_population_paths_never_split_the_config(self, hw_circuit, monkeypatch):
        # sampling, calibration and the PSP experiment read the stacked
        # config only; none may build the scalar per-neuron configs
        monkeypatch.setattr(mismatch, "_unstack", refuse_to_split)
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=2), 16)
        target = CalibrationTarget(tau_m=derive_effective_adex(hw_circuit).tau_m,
                                   stim_gain=True)
        cal = calibrate_population(pop, target, plan=("tau_m", "stim_gain"))
        report = run_psp_experiment(cal.population)
        assert cal.population.size == 16
        assert len(report.per_neuron) == 16
        with pytest.raises(AssertionError, match="split"):
            cal.population.neurons

    def test_recorded_first_neuron_never_splits_the_config(self, monkeypatch):
        # the recorded trace of neuron 0 builds that neuron alone
        monkeypatch.setattr(mismatch, "_unstack", refuse_to_split)
        patterns = {"tonic_spiking": load_patterns()["tonic_spiking"]}
        report = run_firing_patterns(patterns, model="circuit", population_size=16,
                                     seed=0, record_first=True)
        assert len(report.traces["tonic_spiking"].spikes) > 0

    def test_neurons_built_once(self, hw_circuit):
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=4), 5)
        first = pop.neurons
        assert pop.neurons is first
        assert Population(first).neurons == first

    def test_from_stacked_checks_the_size(self, hw_circuit):
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=4), 5)
        with pytest.raises(ValueError, match="does not hold 4 neurons"):
            Population.from_stacked(pop.stacked(), 4)

    @given(pattern=st.sampled_from(sorted(load_patterns())),
           seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 6))
    def test_round_trip_keeps_every_bit(self, pattern, seed, width):
        nominal = pattern_nominal(pattern)
        pop = sample_population(nominal, default_mismatch_model(nominal, seed=seed), width)
        assert leaf_bits(Population(pop.neurons).stacked()) == leaf_bits(pop.stacked())
        assert Population.from_stacked(pop.stacked(), width).neurons == pop.neurons
        assert mismatch._neuron(pop.stacked(), width - 1) == pop.neurons[-1]


class TestDefaultModel:
    def test_paths_reference_real_knobs(self, hw_circuit):
        mm = default_mismatch_model(hw_circuit, seed=0)
        for path in list(mm.relative) + list(mm.additive):
            get_bias(hw_circuit, path)  # raises if the path is wrong

    def test_endpoint_sigma_interpolation(self):
        rng = PARAMETER_RANGES["tau_m"]
        assert rng.sigma_at(0.6e-6) == pytest.approx(0.2 / 0.6)
        assert rng.sigma_at(915e-6) == pytest.approx(140 / 915)
        mid = rng.sigma_at(20e-6)
        assert min(rng.sigma_lo, rng.sigma_hi) < mid < max(rng.sigma_lo, rng.sigma_hi)

    def test_tau_m_endpoint_sigma_value(self):
        # documented endpoint spread at the slow end: 140/915 ~ 0.153
        assert PARAMETER_RANGES["tau_m"].sigma_hi == pytest.approx(0.153, abs=0.001)

    def test_disabled_circuits_contribute_no_spreads(self):
        from adexsim import default_circuit_config
        cfg = default_circuit_config()  # adaptation and exponential off
        mm = default_mismatch_model(cfg, seed=0)
        assert not any(p.startswith("adaptation") for p in mm.relative)
        assert not any(p.startswith("exponential") for p in mm.relative)
