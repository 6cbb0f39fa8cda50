import pytest
from hypothesis import given, settings, strategies as st

from adexsim import ParseError, ValidationError, derive_effective_adex
from adexsim.config import (
    _EXPERIMENT_KEYS, SCHEMA, parse_config, read_config_sections, serialize_config,
)
from adexsim.units import format_quantity, parse_quantity

MINIMAL_LIF = """
[run]
mode = simulate
model = ideal

[neuron]
C = 200 pF
g_l = 10 nS
E_l = -70 mV
V_r = -58 mV
V_det = -40 mV
exp_enabled = false
"""

CIRCUIT_FULL = """
[run]
mode = simulate
model = circuit
seed = 7
dt = 0.05 us
duration = 300 us
format = csv

[circuit]
tau_m = 20 us
E_l = 0.5 V
V_det = 0.72 V
V_r = 0.42 V
t_ref = 1 us

[adaptation]
enabled = true
tau_w = 100 us
a = 30 nS
b = 3 nA
pulse_width = 0.1 us

[exponential]
enabled = true
delta_t = 20 mV
v_t = 0.62 V

[syn_exc]
enabled = true
tau_syn = 10 us
coba = true
e_syn = 1.3 V

[stimulus]
segments = 0 us : 0 nA, 20 us : 60 nA, 250 us : 0 nA

[events_exc]
events = 30 us : 1.0, 60 us : 0.5

[mismatch]
size = 16
seed = 3

[calibration]
tau_m = 20 us
stim_gain = true
tol = 0.015
"""


class TestReader:
    def test_tracks_lines(self):
        text = "[run]\nmode = simulate\n"
        sections = read_config_sections(text)
        assert sections["run"]["mode"] == ("simulate", 2)

    def test_rejects_malformed_line_with_position(self):
        with pytest.raises(ParseError) as err:
            read_config_sections("[run]\nmode simulate\n")
        assert err.value.line == 2

    def test_rejects_key_outside_section(self):
        with pytest.raises(ParseError) as err:
            read_config_sections("mode = simulate\n")
        assert err.value.line == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ParseError):
            read_config_sections("[run]\nmode = a\nmode = b\n")


class TestParse:
    def test_minimal_lif_defaults_filled(self):
        run = parse_config(MINIMAL_LIF)
        assert run.mode == "simulate"
        assert run.model == "ideal"
        assert run.seed == 12345  # documented default
        assert run.dt > 0 and run.duration > 0
        assert run.neuron is not None
        assert not run.neuron.exp_enabled
        assert run.neuron.a == 0.0 and run.neuron.b == 0.0

    def test_full_circuit_config(self):
        run = parse_config(CIRCUIT_FULL)
        assert run.model == "circuit"
        cfg = run.circuit
        assert cfg.adaptation.enabled and cfg.exponential.enabled
        assert cfg.syn_exc.coba_enabled
        assert cfg.syn_exc.virtual_reversal == pytest.approx(1.3)
        assert run.events["exc"].events[0] == (pytest.approx(30e-6), 1.0)
        assert run.mismatch_size == 16
        assert run.calibration.tau_m == pytest.approx(20e-6)
        assert run.calibration_tol == pytest.approx(0.015)

    def test_negative_time_constant_names_invariant(self):
        bad = MINIMAL_LIF.replace("[neuron]", "[circuit]\ntau_m = -1 us\n\n[neuron]")
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert "tau_m" in str(err.value) or "> 0" in str(err.value)

    def test_unknown_key_is_error_with_line(self):
        bad = MINIMAL_LIF + "frobnicate = 3\n"
        with pytest.raises(ParseError) as err:
            parse_config(bad)
        assert "frobnicate" in str(err.value)
        assert err.value.line is not None

    def test_unknown_section_is_error(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL_LIF + "\n[warp_drive]\nx = 1\n")

    def test_missing_unit_is_error(self):
        bad = MINIMAL_LIF.replace("C = 200 pF", "C = 200")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_wrong_dimension_is_error(self):
        bad = MINIMAL_LIF.replace("C = 200 pF", "C = 200 mV")
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_sigma_override_keys_allowed(self):
        text = CIRCUIT_FULL + "\n"
        text = text.replace("[mismatch]\nsize = 16\nseed = 3\n",
                            "[mismatch]\nsize = 16\nseed = 3\n"
                            "sigma_rel_leak_ota.g_per_bias = 0.2\n")
        run = parse_config(text)
        assert run.mismatch_overrides["sigma_rel_leak_ota.g_per_bias"] == 0.2


    def test_dt_longer_than_duration_rejected(self):
        text = CIRCUIT_FULL.replace("duration = 300 us", "duration = 0.02 us")
        with pytest.raises(ValidationError, match="must not exceed duration"):
            parse_config(text)

    @pytest.mark.parametrize("key, values, match", [
        ("neuron.g_l", "0.1 uS, 0.2 uS", "not read by model 'circuit'"),
        ("stimulus.current", "1 nA, 2 nA", "not supported"),
        ("run.dt", "0.1 us, 1 ms", "must not exceed duration"),
    ])
    def test_sweep_key_checked_at_parse_time(self, key, values, match):
        text = CIRCUIT_FULL.replace("mode = simulate", "mode = sweep") \
            + f"\n[sweep]\nkey = {key}\nvalues = {values}\n"
        with pytest.raises(ValidationError, match=match):
            parse_config(text)

    def test_jobs_key_accepted_and_checked(self):
        # runs are sequential: the key has no effect and is not carried on
        text = MINIMAL_LIF.replace("model = ideal", "model = ideal\njobs = 4")
        assert serialize_config(parse_config(text)) == \
            serialize_config(parse_config(MINIMAL_LIF))
        with pytest.raises(ParseError):
            parse_config(text.replace("jobs = 4", "jobs = many"))

    def test_neuron_sweep_accepted_for_ideal_model(self):
        run = parse_config(MINIMAL_LIF + "\n[sweep]\nkey = neuron.g_l\nvalues = 10 nS, 20 nS\n")
        assert run.sweep["values"] == pytest.approx((10e-9, 20e-9))

    def test_neuron_sweep_value_checked_at_parse_time(self):
        text = MINIMAL_LIF + "\n[sweep]\nkey = neuron.C\nvalues = 2 pF, 0 pF\n"
        with pytest.raises(ValidationError,
                           match=r"^\[sweep\] neuron.C = 0.0 F: C must be > 0$"):
            parse_config(text)

    @pytest.mark.parametrize("tail, match", [
        ("[circuit]\ntau_m = 0 us", r"\[circuit\] violates tau_m > 0"),
        ("[adaptation]\npulse_width = 0 us", r"\[adaptation\] violates pulse_width > 0"),
        ("[experiment]\nname = psp\nn_events = 0",
         r"\[experiment\] n_events must be >= 1, got 0"),
        ("[experiment]\nname = leak_over_threshold\nn_isis = 0",
         r"\[experiment\] n_isis must be >= 1, got 0"),
        ("[experiment]\nname = firing_patterns\npopulation = 0",
         r"\[experiment\] population must be >= 1, got 0"),
        ("[experiment]\nname = firing_patterns\npatterns =",
         r"\[experiment\] patterns needs at least one value"),
        ("out =", r"\[run\] out needs a value"),
    ], ids=["tau_m", "pulse_width", "n_events", "n_isis", "population", "patterns", "out"])
    def test_written_value_outside_domain_rejected(self, tail, match):
        # a written 0 or an empty value used to be replaced by a default
        with pytest.raises(ValidationError, match=match):
            parse_config(f"[run]\nmodel = circuit\n{tail}\n")

    def test_written_zero_used_as_written(self):
        run = parse_config(CIRCUIT_FULL.replace("v_t = 0.62 V", "v_t = 0 V")
                           + "\n[experiment]\nname = psp\nweight = 0\n")
        assert derive_effective_adex(run.circuit).V_T == pytest.approx(0.0, abs=1e-12)
        assert run.experiment["weight"] == 0.0
        assert "weight = 0.0" in serialize_config(run).splitlines()

    @pytest.mark.parametrize("value", ["nan pF", "inf pF", "-inf pF", "NaN F"])
    def test_non_finite_scalar_rejected_with_line(self, value):
        text = MINIMAL_LIF.replace("C = 200 pF", f"C = {value}")
        with pytest.raises(ParseError, match="not a finite number") as err:
            parse_config(text)
        assert err.value.line == text.splitlines().index(f"C = {value}") + 1

    def test_unit_scale_overflow_rejected(self):
        # finite as written, infinite once scaled to SI units
        assert parse_quantity("1e299 GOhm", "resistance") == 1e308
        with pytest.raises(ParseError, match="not a finite number"):
            parse_quantity("1e300 GOhm", "resistance", line=4)

    @pytest.mark.parametrize("old, new", [
        # pairs: a stimulus segment and a synaptic event
        ("segments = 0 us : 0 nA, 20 us : 60 nA, 250 us : 0 nA",
         "segments = 0 us : 0 nA, 20 us : nan nA, 250 us : 0 nA"),
        ("events = 30 us : 1.0, 60 us : 0.5", "events = 30 us : inf, 60 us : 0.5"),
        # a mismatch override
        ("seed = 3\n", "seed = 3\nsigma_rel_leak_ota.g_per_bias = nan\n"),
    ], ids=["segment", "event_weight", "mismatch_override"])
    def test_non_finite_pair_and_override_rejected(self, old, new):
        assert old in CIRCUIT_FULL
        text = CIRCUIT_FULL.replace(old, new)
        with pytest.raises(ParseError, match="not a finite number") as err:
            parse_config(text)
        bad_line = next(line for line in new.splitlines() if "nan" in line or "inf" in line)
        assert err.value.line == text.splitlines().index(bad_line) + 1

    @pytest.mark.parametrize("section", [
        "[sweep]\nkey = neuron.g_l\nvalues = 10 nS, nan nS\n",
        "[experiment]\nname = exponential_sweep\nonsets = 0.6 V, inf V\n",
    ], ids=["sweep_values", "list"])
    def test_non_finite_list_and_sweep_values_rejected(self, section):
        text = MINIMAL_LIF + "\n" + section
        with pytest.raises(ParseError, match="not a finite number") as err:
            parse_config(text)
        assert err.value.line == len(text.splitlines())

    def test_negative_onset_names_the_onset(self):
        text = CIRCUIT_FULL.replace(
            "segments = 0 us : 0 nA, 20 us : 60 nA, 250 us : 0 nA",
            "current = 60 nA\nonset = -5 us")
        with pytest.raises(ValidationError, match=r"\[stimulus\] onset must be >= 0 s"):
            parse_config(text)

    def test_offset_before_onset_names_both_keys(self):
        text = CIRCUIT_FULL.replace(
            "segments = 0 us : 0 nA, 20 us : 60 nA, 250 us : 0 nA",
            "current = 60 nA\nonset = 20 us\noffset = 10 us")
        with pytest.raises(ValidationError, match=(
                r"\[stimulus\] offset must be after onset, "
                r"got offset 1e-05 s, onset 2e-05 s")):
            parse_config(text)


class TestSynapticLines:
    @pytest.mark.parametrize("exc, inh", [(True, False), (False, True), (True, True)])
    def test_each_line_has_its_own_coba_flag(self, exc, inh):
        # a written false on one line used to be overridden by a true on the other
        text = (f"[run]\nmodel = circuit\n[syn_exc]\ncoba = {str(exc).lower()}\n"
                f"[syn_inh]\ncoba = {str(inh).lower()}\n")
        run = parse_config(text)
        exc_line, inh_line = run.circuit.syn_exc, run.circuit.syn_inh
        assert (exc_line.coba_enabled, inh_line.coba_enabled) == (exc, inh)
        # a conductance-based line takes the default circuit's g2, a
        # current-based one none
        assert exc_line.g2 == (0.5e-6 if exc else 0.0)
        assert inh_line.g2 == (-0.5e-6 if inh else 0.0)
        resolved = serialize_config(run)
        assert f"coba = {str(exc).lower()}" in resolved.split("[syn_exc]")[1].split("[")[0]
        assert f"coba = {str(inh).lower()}" in resolved.split("[syn_inh]")[1].split("[")[0]
        again = parse_config(resolved)
        assert again.circuit == run.circuit
        assert serialize_config(again) == resolved


class TestSwitches:
    def test_written_switch_applied_without_a_or_b(self):
        # adaptation used to stay off: a = b = 0 turned it off, and only a
        # written false was applied again
        run = parse_config("[run]\nmodel = circuit\n[adaptation]\nenabled = true\n"
                           "tau_w = 50 us\n")
        ad = run.circuit.adaptation
        assert ad.enabled
        assert ad.tau_w == pytest.approx(50e-6)
        assert (ad.a_effective, ad.b_effective) == (0.0, 0.0)
        resolved = serialize_config(run)
        assert "enabled = true" in resolved.split("[adaptation]")[1].split("[")[0]
        assert serialize_config(parse_config(resolved)) == resolved

    @pytest.mark.parametrize("section, lines, key, switch", [
        ("adaptation", "a = 30 nS\nb = 2 nA", "a", "enabled"),
        ("exponential", "delta_t = 30 mV", "delta_t", "enabled"),
        ("exponential", "enabled = false\ngate_in_refractory = false",
         "gate_in_refractory", "enabled"),
        ("syn_exc", "e_syn = 0.9 V", "e_syn", "coba"),
        ("syn_inh", "coba = false\ne_syn_hat = 0.4 V", "e_syn_hat", "coba"),
        ("neuron", "exp_enabled = false\nV_T = -50 mV\nDelta_T = 2 mV", "V_T", "exp_enabled"),
        ("neuron", "exp_enabled = false\nDelta_T = 2 mV", "Delta_T", "exp_enabled"),
        ("neuron", "exp_enabled = false\nexp_gated_in_ref = true", "exp_gated_in_ref",
         "exp_enabled"),
        ("syn_exc", "enabled = false\ntau_syn = 3 us\nbias = 0.2 uA", "tau_syn", "enabled"),
        ("syn_inh", "enabled = false\nbias = 0.2 uA", "bias", "enabled"),
        ("syn_exc", "enabled = false\ncoba = true\ne_syn = 0.9 V", "coba", "enabled"),
        ("syn_inh", "enabled = false\ncoba = false", "coba", "enabled"),
    ], ids=["adaptation_a_b", "exponential_delta_t", "exponential_gate",
            "syn_exc_e_syn", "syn_inh_e_syn_hat", "neuron_V_T", "neuron_Delta_T",
            "neuron_gate", "syn_exc_tau_syn", "syn_inh_bias", "syn_exc_coba_e_syn",
            "syn_inh_coba"])
    def test_key_its_switch_leaves_unread_rejected(self, section, lines, key, switch):
        # each used to be parsed and dropped
        with pytest.raises(ValidationError, match=(
                rf"^\[{section}\] {key} is not read unless {switch} = true$")):
            parse_config(f"[run]\nmodel = circuit\n[{section}]\n{lines}\n")

    def test_neuron_sweep_key_its_exponential_leaves_unread_rejected(self):
        text = (MINIMAL_LIF.replace("mode = simulate", "mode = sweep")
                + "[sweep]\nkey = neuron.V_T\nvalues = -50 mV, -48 mV\n")
        with pytest.raises(ValidationError, match=(
                r"^\[sweep\] key 'neuron.V_T' is not read unless "
                r"\[neuron\] exp_enabled = true$")):
            parse_config(text)

    def test_switched_off_sections_resolve_to_their_switches(self):
        # the resolved text writes no key a switch leaves unread, also
        # where adaptation's b is rebuilt from its bias
        text = (MINIMAL_LIF + "[adaptation]\nenabled = true\nb = 2 nA\n"
                "[syn_exc]\nenabled = false\n[syn_inh]\nenabled = false\n")
        run = parse_config(text)
        resolved = serialize_config(run)
        sections = read_config_sections(resolved)
        assert set(sections["neuron"]) == set(SCHEMA["neuron"]) - {
            "V_T", "Delta_T", "exp_gated_in_ref"}
        assert sections["syn_exc"].keys() == sections["syn_inh"].keys() == {"enabled"}
        assert serialize_config(parse_config(resolved)) == resolved
        assert parse_config(resolved).neuron == run.neuron


class TestResolvedText:
    @pytest.mark.parametrize("lines", [
        "[exponential]\nenabled = true\ndelta_t = 0.15 V",
        "[adaptation]\nenabled = true\ntau_w = 0.0001722 s\nb = 2 nA",
    ], ids=["delta_t", "b"])
    def test_drifting_value_resolves_to_a_fixed_point(self, lines):
        # the effective delta_t or b used to rebuild a neighbouring bias,
        # and the resolved text changed on every round trip
        run = parse_config(f"[run]\nmodel = circuit\n{lines}\n")
        resolved = serialize_config(run)
        assert parse_config(resolved).circuit == run.circuit
        assert serialize_config(parse_config(resolved)) == resolved

    @settings(max_examples=200)
    @given(tau_w=st.floats(20e-6, 800e-6), b=st.floats(0.0, 20e-9),
           pulse_width=st.floats(0.05e-6, 5e-6), delta_t=st.floats(5e-3, 0.3),
           v_t=st.floats(0.3, 0.8))
    def test_resolved_text_builds_the_same_circuit(self, tau_w, b, pulse_width, delta_t,
                                                   v_t):
        text = ("[run]\nmodel = circuit\n[circuit]\nV_det = 0.9 V\n"
                f"[adaptation]\nenabled = true\ntau_w = {tau_w!r} s\nb = {b!r} A\n"
                f"pulse_width = {pulse_width!r} s\n"
                f"[exponential]\nenabled = true\ndelta_t = {delta_t!r} V\nv_t = {v_t!r} V\n")
        run = parse_config(text)
        resolved = serialize_config(run)
        assert parse_config(resolved).circuit == run.circuit


# (experiment, key) for each [experiment] key an experiment does not read
UNREAD = [(name, key) for name, reads in _EXPERIMENT_KEYS.items()
          for key in SCHEMA["experiment"] if key not in reads + ("name",)]


class TestExperimentKeys:
    def test_table_names_every_experiment_and_key(self):
        assert SCHEMA["experiment"]["name"][1] == tuple(_EXPERIMENT_KEYS)
        read = {key for reads in _EXPERIMENT_KEYS.values() for key in reads}
        assert read | {"name"} == set(SCHEMA["experiment"])

    @pytest.mark.parametrize("name, key", UNREAD, ids=[f"{n}.{k}" for n, k in UNREAD])
    def test_key_the_experiment_does_not_read_rejected(self, name, key):
        # such a key used to be accepted and dropped
        kind, dim = SCHEMA["experiment"][key]
        value = ({"int": "2", "string": "exc", "names": "tonic_spiking"}[kind]
                 if kind in ("int", "string", "names") else format_quantity(0.5, dim))
        text = f"[run]\nmodel = circuit\n[experiment]\nname = {name}\n{key} = {value}\n"
        with pytest.raises(ValidationError, match=(
                rf"^\[experiment\] {key} is not read by {name}, which reads "
                + ", ".join(_EXPERIMENT_KEYS[name]) + "$")):
            parse_config(text)

    @pytest.mark.parametrize("v_inf", ["0.7 V", "0.75 V", "0 V"])
    def test_v_inf_at_or_below_v_det_rejected(self, v_inf):
        # it used to fail at run time with exit 1
        text = ("[run]\nmodel = circuit\n[experiment]\n"
                f"name = leak_over_threshold\nv_inf = {v_inf}\n")
        with pytest.raises(ValidationError, match=(
                r"^\[experiment\] v_inf = .* V must exceed the circuit's "
                r"V_det = 0.75 V$")):
            parse_config(text)

    def test_v_inf_above_v_det_kept(self):
        run = parse_config("[run]\nmodel = circuit\n[experiment]\n"
                           "name = leak_over_threshold\nv_inf = 0.8 V\n")
        assert run.experiment["v_inf"] == pytest.approx(0.8)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL_LIF, CIRCUIT_FULL])
    def test_serialize_parse_round_trip(self, text):
        first = parse_config(text)
        rendered = serialize_config(first)
        second = parse_config(rendered)
        assert second.neuron == first.neuron
        assert second.circuit == first.circuit
        assert second.stimulus == first.stimulus
        assert second.events == first.events
        assert second.calibration == first.calibration
        assert (second.mode, second.model, second.seed, second.dt,
                second.duration, second.fmt) == \
            (first.mode, first.model, first.seed, first.dt,
             first.duration, first.fmt)
        # a second round trip is byte-identical
        assert serialize_config(second) == rendered


# a value in the usual range of each dimension; the property test scales it
# by 0, negative and positive factors
TYPICAL = {"time": 20e-6, "voltage": 0.6, "capacitance": 2e-12, "current": 10e-9,
           "conductance": 30e-9, "none": 0.5}
NUMERIC_KEYS = [(section, key, kind, dim)
                for section in ("run", "neuron", "circuit", "adaptation", "exponential",
                                "syn_exc", "syn_inh", "stimulus", "experiment")
                for key, (kind, dim) in SCHEMA[section].items()
                if kind in ("quantity", "int")]
# the keys a [neuron] section must set, and those it needs with the
# exponential on
NEURON_BASE = {"C": "2.4 pF", "g_l": "0.12 uS", "E_l": "0.5 V", "V_r": "0.44 V",
               "V_det": "0.62 V"}
NEURON_EXP = {"V_T": "0.57 V", "Delta_T": "20 mV"}


def written_value(kind, dim):
    if kind == "int":
        return st.integers(-2, 4).map(str)
    return st.sampled_from((0.0, -1.0, 0.25, 1.0, 3.0)).map(
        lambda factor: format_quantity(factor * TYPICAL[dim], dim))


@st.composite
def numeric_configs(draw):
    chosen = draw(st.lists(st.sampled_from(NUMERIC_KEYS), min_size=1, max_size=3,
                           unique_by=lambda k: k[:2]))
    sections = {"run": {"model": "circuit"},
                "experiment": {"name": draw(st.sampled_from(
                    SCHEMA["experiment"]["name"][1]))}}
    for section, key, kind, dim in chosen:
        sections.setdefault(section, {})[key] = draw(written_value(kind, dim))
    # the keys of these sections are read only with the section enabled
    for section in ("adaptation", "exponential"):
        if section in sections and draw(st.booleans()):
            sections[section]["enabled"] = "true"
    # a line's switches, also in a section with no other key, and the
    # neuron's exponential: written true, false or not at all
    switch = st.sampled_from((None, "true", "false"))
    for section, names in (("syn_exc", ("enabled", "coba")),
                           ("syn_inh", ("enabled", "coba")), ("neuron", ("exp_enabled",))):
        for name in names:
            value = draw(switch) if section in sections or section != "neuron" else None
            if value is not None:
                sections.setdefault(section, {})[name] = value
    if "neuron" in sections:
        base = {**NEURON_BASE,
                **({} if sections["neuron"].get("exp_enabled") == "false" else NEURON_EXP)}
        sections["neuron"] = {**base, **sections["neuron"]}
    return "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for section, keys in sections.items())


class TestWrittenValues:
    @settings(max_examples=300)
    @given(text=numeric_configs())
    def test_used_as_written_or_rejected(self, text):
        # a written value, 0 and negatives included, is either a config
        # error or runs as written: the resolved text is a fixed point and
        # carries every written [experiment] value unchanged
        try:
            run = parse_config(text)
        except (ParseError, ValidationError):
            return
        resolved = serialize_config(run)
        assert serialize_config(parse_config(resolved)) == resolved
        experiment = read_config_sections(text)["experiment"]
        for key, (raw, _) in experiment.items():
            assert f"{key} = {raw}" in resolved.splitlines()
