import dataclasses
import functools
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from adexsim import (
    CalibrationTarget, calibrate_population, circuit_for_adex,
    default_circuit_config, derive_effective_adex, load_patterns,
    run_firing_patterns, run_psp_experiment,
)
from adexsim import mismatch
from adexsim.circuit import (
    AdaptationCircuitConfig, CircuitNeuronConfig, CircuitState, ExponentialCircuitConfig,
    OtaModel, SynInCircuitConfig, get_bias, set_bias, simulate_population,
)
from adexsim.mismatch import (
    MismatchModel, PARAMETER_RANGES, Population, default_mismatch_model,
    sample_population,
)
from adexsim.model import StimulusProgram
from adexsim.synapse import WeightedSpikeTrain


@functools.lru_cache(maxsize=None)
def pattern_nominal(name):
    """A firing pattern's nominal circuit, as `run_firing_patterns` builds it."""
    hw, _, _, _ = load_patterns()[name].to_hardware()
    return circuit_for_adex(hw, default_circuit_config(E_l=hw.E_l))


def is_flag(value) -> bool:
    return value is None or isinstance(value, (bool, str))


def leaves(cfg) -> dict:
    """Dotted path -> each leaf of a config: a number, an array, a flag or
    a mode."""
    out = {}

    def walk(obj, path):
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}".lstrip("."))
        else:
            out[path] = obj

    walk(cfg, "")
    return out


def leaf_bits(cfg) -> dict:
    """Dotted path -> (dtype, shape, bytes) of each numeric leaf, or the
    flag or mode itself."""
    return {path: leaf if is_flag(leaf) else
            (np.asarray(leaf).dtype.str, np.shape(leaf), np.asarray(leaf).tobytes())
            for path, leaf in leaves(cfg).items()}


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

    def test_draw_outside_the_domain_names_the_spread(self, hw_circuit):
        # a ValueError that names the spread, its constant and the domain
        mm = MismatchModel(additive={"C_mem": 1e-12}, seed=0)
        with pytest.raises(ValueError, match=r"^additive spread of C_mem: C_mem must lie in "
                                             r"\(0, 2.47e-12\] F$") as err:
            sample_population(hw_circuit, mm, 4)
        assert (err.value.spreads, err.value.path) == ("additive", "C_mem")



def refuse_to_build(cfg, cols, n):
    raise AssertionError("stacked population split into scalar configs")


class TestStackedRepresentation:
    def test_population_paths_never_split_the_config(self, hw_circuit, monkeypatch):
        # sampling, calibration and the PSP experiment read the stacked
        # config only; none may build a scalar per-neuron config
        monkeypatch.setattr(mismatch, "_columns", refuse_to_build)
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=2), 16)
        target = CalibrationTarget(tau_m=derive_effective_adex(hw_circuit).tau_m,
                                   stim_gain=True)
        cal = calibrate_population(pop, target)
        report = run_psp_experiment(cal.population)
        assert cal.population.size == len(cal.population.neurons) == 16
        assert len(report.per_neuron) == 16
        with pytest.raises(AssertionError, match="split"):
            next(iter(cal.population.neurons))

    def test_recorded_first_neuron_never_splits_the_config(self, monkeypatch):
        # the recorded trace of neuron 0 runs its width-1 take: no scalar
        # config is built
        widths, columns = [], mismatch._columns
        def counted(cfg, cols, n):
            widths.append(n)
            return columns(cfg, cols, n)
        monkeypatch.setattr(mismatch, "_columns", counted)
        patterns = {"tonic_spiking": load_patterns()["tonic_spiking"]}
        report = run_firing_patterns(patterns, model="circuit", population_size=16,
                                     seed=0, record_first=True)
        assert len(report.traces["tonic_spiking"].spikes) > 0
        assert widths == []

    def test_neurons_are_built_as_they_are_read(self, hw_circuit):
        # a population holds its stacked config alone; `.neurons` is a view
        # that builds each scalar config when it is read and keeps none
        pop = sample_population(hw_circuit, default_mismatch_model(hw_circuit, seed=4), 5)
        view = pop.neurons
        first = list(view)
        assert set(vars(pop)) == {"_cfg", "size"}
        assert view[0] == first[0] and view[0] is not view[0]
        assert view == first and first == view and view == pop.neurons
        assert view != first[:4] and view != first[::-1] and view != tuple(first)
        assert view[-1] == first[-1] and view[1:4] == first[1:4] and len(view[1:4]) == 3
        assert view[2:][1:] == first[3:] and view[4:1] == []
        assert Population(first).neurons == first
        assert Population(view).neurons == first
        with pytest.raises(IndexError):
            view[5]
        with pytest.raises(ValueError, match="unit-step"):
            view[::2]
        with pytest.raises(ValueError, match="empty population"):
            Population(view[3:3])

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


def constructed_columns(cfg, n) -> list:
    """The n scalar configs of a stacked config, each node built by its
    class's own validating constructor: the oracle for `mismatch._unstack`."""
    def columns(obj) -> list:
        if dataclasses.is_dataclass(obj):
            names = [f.name for f in dataclasses.fields(obj)]
            per_field = [columns(getattr(obj, name)) for name in names]
            return [type(obj)(**dict(zip(names, values))) for values in zip(*per_field)]
        if obj is None or isinstance(obj, (bool, str)):
            return [obj] * n
        arr = np.asarray(obj, dtype=float)
        return arr.tolist() if arr.ndim else [float(arr)] * n

    return columns(cfg)


# spreads on every sub-circuit, enabled or not, so that each node's columns differ
SPREAD = MismatchModel(
    relative={"leak_ota.g_per_bias": 0.1, "stim_gain": 0.1, "adaptation.C_w": 0.1,
              "adaptation.ota_tau.g_per_bias": 0.1, "adaptation.ota_a.I_bias": 0.1,
              "exponential.r_conv": 0.1, "exponential.ota.g_per_bias": 0.1,
              "syn_exc.q_unit": 0.1, "syn_inh.leak_gain": 0.1, "syn_inh.g2": 0.1},
    additive={"syn_exc.follower_offset": 5e-3, "syn_inh.offset_trim": 5e-3})


def spread_population(n, seed=0, adaptation=True, exponential=True, coba=False,
                      synapses=True):
    nominal = default_circuit_config(adaptation_enabled=adaptation,
                                     exponential_enabled=exponential, coba=coba)
    nominal = dataclasses.replace(
        nominal, syn_exc=dataclasses.replace(nominal.syn_exc, enabled=synapses))
    return sample_population(nominal, dataclasses.replace(SPREAD, seed=seed), n)


# (dotted path, a value its check rejects, the check's message), one per
# elementwise check of every __post_init__ in a stacked config
BAD_COLUMNS = [
    ("leak_ota.I_bias", -1e-9, "I_bias must be >= 0"),
    ("adaptation.ota_tau.I_bias", -1e-9, "I_bias must be >= 0"),
    ("adaptation.ota_a.g_per_bias", 0.0, "g_per_bias must be > 0"),
    ("exponential.ota.g_per_bias", -0.5, "g_per_bias must be > 0"),
    ("adaptation.C_w", 0.0, "C_w must be > 0"),
    ("adaptation.sign", 0.5, "sign must be +1 or -1"),
    ("adaptation.g_w_factor", 0.0, "g_w_factor must be > 0"),
    ("adaptation.pulse_width", -1e-9, "pulse_width must be >= 0"),
    ("exponential.I_0", -1e-12, "I_0 must be >= 0"),
    ("exponential.r_conv", 0.0, "r_conv must be > 0"),
    ("exponential.n", 0.0, "n and V_therm must be > 0"),
    ("exponential.V_therm", -1.0, "n and V_therm must be > 0"),
    ("exponential.I_max", 0.0, "I_max must be > 0"),
    ("syn_exc.C_line", 0.0, "C_line must be > 0"),
    ("syn_inh.g_leak_line", -1e-6, "g_leak_line must be > 0"),
    ("syn_exc.leak_gain", 0.0, "leak_gain must be > 0"),
    ("syn_inh.I_b_cuba", -1e-9, "I_b_cuba must be >= 0"),
    ("syn_exc.q_unit", -1e-15, "q_unit must be >= 0"),
    ("syn_inh.g2", 0.0, "coba mode requires g2 != 0"),
    ("C_mem", 3e-12, "C_mem must lie in (0, 2.47e-12] F"),
    ("C_mem", np.nan, "C_mem must lie in (0, 2.47e-12] F"),
    ("t_ref", -1e-6, "t_ref must be >= 0"),
    ("stim_gain", 0.0, "stim_gain must be > 0"),
]


def write_column(cfg, path, column, value):
    """Put one value into a stacked leaf, past the checks that construction
    ran: the leaf's node takes a writable copy of the leaf holding the
    value (a uniform leaf is a read-only view)."""
    *parents, name = path.split(".")
    node = get_bias(cfg, ".".join(parents)) if parents else cfg
    leaf = np.array(getattr(node, name), dtype=float)
    leaf[column] = value
    object.__setattr__(node, name, leaf)


class TestColumns:
    @given(width=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
           adaptation=st.booleans(), exponential=st.booleans(), coba=st.booleans(),
           synapses=st.booleans(), data=st.data())
    def test_columns_equal_constructed_columns(self, width, seed, adaptation,
                                               exponential, coba, synapses, data):
        pop = spread_population(width, seed, adaptation, exponential, coba, synapses)
        cfg = pop.stacked()
        expected = constructed_columns(cfg, width)
        neurons = list(pop.neurons)
        assert neurons == expected
        # same types, same bits, same field order
        assert pickle.dumps(neurons) == pickle.dumps(expected)
        i = data.draw(st.integers(0, width - 1))
        assert mismatch._neuron(cfg, i) == neurons[i]
        assert pickle.dumps(mismatch._neuron(cfg, i)) == pickle.dumps(expected[i])

    @given(width=st.integers(1, 24), block=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_equal_constructed_columns(self, width, block, seed):
        # iteration builds NEURON_BLOCK columns at a time; the blocks join
        # into the columns built in one
        pop = spread_population(width, seed, coba=True)
        with mock.patch.object(mismatch, "NEURON_BLOCK", block):
            neurons = list(pop.neurons)
            assert pickle.dumps(neurons) == pickle.dumps(
                constructed_columns(pop.stacked(), width))
            assert pop.neurons == neurons

    def test_iteration_holds_one_block(self):
        # 8192 scalar configs are about 8.5 MiB; iterating the view holds
        # one block of NEURON_BLOCK of them at a time
        pop = spread_population(8192, seed=7)
        tracemalloc.start()
        try:
            count = sum(1 for _ in pop.neurons)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 8192
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("path, bad, message", BAD_COLUMNS,
                             ids=[f"{p}={v}" for p, v, _ in BAD_COLUMNS])
    def test_one_bad_column_raises_the_constructor_message(self, path, bad, message):
        pop = spread_population(8, coba=True)
        write_column(pop.stacked(), path, 5, bad)
        with pytest.raises(ValueError) as constructed:
            constructed_columns(pop.stacked(), 8)
        with pytest.raises(ValueError) as split:
            list(pop.neurons)
        assert str(split.value) == str(constructed.value) == message
        # neuron 5 alone raises it too; neuron 4 does not read column 5
        with pytest.raises(ValueError, match=re.escape(message)):
            mismatch._neuron(pop.stacked(), 5)
        mismatch._neuron(pop.stacked(), 4)

    @pytest.mark.parametrize("bad", [
        # a child is checked before its parent, whatever the columns
        [("C_mem", 1, 3e-12), ("leak_ota.I_bias", 6, -1.0)],
        # siblings are checked in field order
        [("syn_inh.C_line", 0, 0.0), ("adaptation.C_w", 7, 0.0)],
        # within a node, the first bad column raises its first failing check
        [("adaptation.pulse_width", 2, -1.0), ("adaptation.C_w", 3, 0.0)],
        [("adaptation.pulse_width", 2, -1.0), ("adaptation.C_w", 2, 0.0)],
    ], ids=["child_first", "field_order", "first_bad_column", "check_order"])
    def test_first_error_is_the_constructors(self, bad):
        pop = spread_population(8)
        for path, column, value in bad:
            write_column(pop.stacked(), path, column, value)
        with pytest.raises(ValueError) as constructed:
            constructed_columns(pop.stacked(), 8)
        with pytest.raises(ValueError) as split:
            list(pop.neurons)
        assert str(split.value) == str(constructed.value)

    def test_leaf_of_another_length_rejected(self):
        # the columns used to be cut to the shortest leaf without a word
        pop = spread_population(5)
        short = dataclasses.replace(pop.stacked(), E_l=np.full(3, 0.5))
        with pytest.raises(ValueError, match=r"^CircuitNeuronConfig.E_l does not hold 5 values$"):
            Population.from_stacked(short, 5).neurons

    def test_from_stacked_rejects_a_leaf_of_another_length(self):
        # once only C_mem was checked, and numpy's broadcast error came later
        pop = spread_population(5)
        short = dataclasses.replace(pop.stacked(), E_l=np.full(3, 0.5))
        with pytest.raises(ValueError, match=r"^CircuitNeuronConfig.E_l does not hold 5 values$"):
            Population.from_stacked(short, 5)
        deep = set_bias(pop.stacked(), "adaptation.ota_tau.I_bias", np.ones(6))
        with pytest.raises(ValueError, match=r"^OtaModel.I_bias does not hold 5 values$"):
            Population.from_stacked(deep, 5)

    def test_each_node_checked_once(self, monkeypatch):
        pop = spread_population(16, coba=True)
        calls = {}
        for kind in (OtaModel, AdaptationCircuitConfig, ExponentialCircuitConfig,
                     SynInCircuitConfig, CircuitNeuronConfig):
            def counted(self, check=kind.__post_init__):
                calls[type(self).__name__] = calls.get(type(self).__name__, 0) + 1
                check(self)
            monkeypatch.setattr(kind, "__post_init__", counted)
        assert len(list(pop.neurons)) == 16
        assert calls == {"OtaModel": 4, "AdaptationCircuitConfig": 1,
                         "ExponentialCircuitConfig": 1, "SynInCircuitConfig": 2,
                         "CircuitNeuronConfig": 1}


def stride_zero(cfg) -> set:
    """Paths of the stride-0 leaves of a stacked config."""
    return {path for path, leaf in leaves(cfg).items()
            if not is_flag(leaf) and np.asarray(leaf).strides == (0,)}


def uniform(cfg) -> set:
    """Paths of the numeric leaves of a stacked config whose values all
    have the same bits."""
    return {path for path, leaf in leaves(cfg).items()
            if not is_flag(leaf) and np.unique(np.asarray(leaf).view(np.uint64)).size == 1}


def materialized(cfg):
    """A copy of a config whose numeric leaves are all ordinary arrays."""
    if dataclasses.is_dataclass(cfg):
        return dataclasses.replace(cfg, **{f.name: materialized(getattr(cfg, f.name))
                                           for f in dataclasses.fields(cfg)})
    return cfg if is_flag(cfg) else np.array(cfg, dtype=float)


populations = dict(width=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
                   adaptation=st.booleans(), exponential=st.booleans(), coba=st.booleans(),
                   synapses=st.booleans())


class TestUniformLeaves:
    """A value every neuron holds with the same bits is stored once."""

    @given(**populations)
    def test_stack_stores_a_uniform_leaf_once(self, width, seed, adaptation, exponential,
                                              coba, synapses):
        pop = spread_population(width, seed, adaptation, exponential, coba, synapses)
        stacked = mismatch._stack(pop.neurons)
        once = uniform(stacked)
        for path, leaf in leaves(stacked).items():
            if not is_flag(leaf):
                assert np.shape(leaf) == (width,), path
                assert (leaf.strides == (0,)) == (path in once), path
                assert leaf.flags.writeable == (path not in once), path
        # sampling perturbs the spread constants alone; every other leaf
        # keeps the nominal value's one slot
        spread = set(SPREAD.relative) | set(SPREAD.additive)
        numeric = {path for path, leaf in leaves(stacked).items() if not is_flag(leaf)}
        assert stride_zero(pop.stacked()) == numeric - spread

    @given(width=st.integers(1, 12), adaptation=st.booleans(), exponential=st.booleans(),
           coba=st.booleans())
    def test_shared_nominal_stacks_as_its_copies(self, width, adaptation, exponential, coba):
        # n references to one nominal are read once; the stacked config is
        # the one that n copies of it, each with float objects of its own,
        # give through the bit scan, leaf for leaf and stride for stride
        nominal = default_circuit_config(adaptation_enabled=adaptation,
                                         exponential_enabled=exponential, coba=coba)
        copies = [pickle.loads(pickle.dumps(nominal)) for _ in range(width)]
        assert width == 1 or copies[0].C_mem is not copies[1].C_mem
        shared, copied = (mismatch._stack(c) for c in ([nominal] * width, copies))
        assert leaf_bits(shared) == leaf_bits(copied)
        for path, leaf in leaves(shared).items():
            if not is_flag(leaf):
                other = get_bias(copied, path)
                assert leaf.strides == other.strides == (0,), path
                assert not leaf.flags.writeable and not other.flags.writeable, path

    @given(**populations)
    def test_neurons_share_the_float_of_a_uniform_leaf(self, width, seed, adaptation,
                                                       exponential, coba, synapses):
        pop = spread_population(width, seed, adaptation, exponential, coba, synapses)
        paths = stride_zero(pop.stacked())
        assert paths
        # the neurons of one block of the view
        neurons = list(pop.neurons)
        for path in paths:
            first = get_bias(neurons[0], path)
            assert type(first) is float
            assert all(get_bias(neuron, path) is first for neuron in neurons), path
        last = mismatch._neuron(pop.stacked(), width - 1)
        assert all(get_bias(last, path) == get_bias(pop.neurons[0], path) for path in paths)

    @given(**populations)
    def test_restack_keeps_every_bit_and_every_uniform_leaf(self, width, seed, adaptation,
                                                            exponential, coba, synapses):
        pop = spread_population(width, seed, adaptation, exponential, coba, synapses)
        restacked = Population(pop.neurons).stacked()
        assert leaf_bits(restacked) == leaf_bits(pop.stacked())
        assert stride_zero(pop.stacked()) <= stride_zero(restacked) == uniform(restacked)

    @given(**populations)
    def test_simulation_equals_a_materialized_copy(self, width, seed, adaptation,
                                                   exponential, coba, synapses):
        pop = spread_population(width, seed, adaptation, exponential, coba, synapses)
        cfg, neuron = pop.stacked(), pop.neurons[0]
        stimulus = StimulusProgram.step(
            5e-6, 3.0 * neuron.g_l * (neuron.V_det - neuron.E_l), 40e-6)
        events = {side: WeightedSpikeTrain(((8e-6, 1.0), (20e-6, 0.5)))
                  for side in ("exc", "inh")} if synapses else None
        runs = [simulate_population(c, width, stimulus, events, duration=40e-6, dt=0.05e-6)
                for c in (cfg, materialized(cfg))]
        assert stride_zero(cfg) and not stride_zero(materialized(cfg))
        assert runs[0].spike_columns.size
        assert runs[0].spike_columns.tobytes() == runs[1].spike_columns.tobytes()
        for f in dataclasses.fields(CircuitState):
            assert (np.asarray(getattr(runs[0].final_state, f.name)).tobytes()
                    == np.asarray(getattr(runs[1].final_state, f.name)).tobytes()), f.name


class TestTake:
    """A slice of the neurons view restacks by cutting the stacked config."""

    @given(**populations, data=st.data())
    def test_a_slice_restacks_as_its_configs(self, width, seed, adaptation, exponential,
                                             coba, synapses, data):
        # `Population(pop.neurons[a:b])` cuts every leaf of the stacked
        # config; it holds the bits, the strides and the uniform leaves of
        # the same configs stacked one by one, and no writable array: a cut
        # that shares `pop`'s memory cannot write it
        pop = spread_population(width, seed, adaptation, exponential, coba, synapses)
        bound = st.none() | st.integers(-width - 2, width + 2)
        a, b = data.draw(bound, label="a"), data.draw(bound, label="b")
        configs = list(pop.neurons)[a:b]
        assert pop.neurons[a:b] == configs and len(pop.neurons[a:b]) == len(configs)
        assume(configs)
        taken = Population(pop.neurons[a:b])
        stacked = Population(configs).stacked()
        assert taken.size == len(configs)
        assert leaf_bits(taken.stacked()) == leaf_bits(stacked)
        assert stride_zero(taken.stacked()) == stride_zero(stacked) == uniform(stacked)
        for path, leaf in leaves(taken.stacked()).items():
            if not is_flag(leaf):
                assert not leaf.flags.writeable, path


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
