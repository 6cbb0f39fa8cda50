import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from adexsim import ParseError, ValidationError, derive_effective_adex
from adexsim.config import (
    _READS, EXPERIMENTS, SCHEMA, parse_config, read_config_sections, serialize_config,
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

# the circuit sections, which simulate and calibrate read alike
CIRCUIT = """
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
"""

CIRCUIT_FULL = """
[run]
mode = simulate
model = circuit
seed = 7
dt = 0.05 us
duration = 300 us
format = csv
""" + CIRCUIT + """
[stimulus]
segments = 0 us : 0 nA, 20 us : 60 nA, 250 us : 0 nA

[events_exc]
events = 30 us : 1.0, 60 us : 0.5
"""

CALIBRATE_FULL = """
[run]
mode = calibrate
model = circuit
seed = 7
""" + CIRCUIT + """
[mismatch]
size = 16
seed = 3

[calibration]
tau_m = 20 us
stim_gain = true
tol = 0.015
"""

# the [neuron] keys an ideal run needs besides those of the exponential
NEURON = "[neuron]\nC = 2.4 pF\ng_l = 0.12 uS\nE_l = 0.5 V\nV_r = 0.44 V\nV_det = 0.62 V\n"


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

    def test_omitted_mode_is_left_to_the_command(self):
        text = MINIMAL_LIF.replace("mode = simulate\n", "")
        with pytest.raises(ValidationError, match=(
                r"^\[run\] mode is required where no command runs the file$")):
            parse_config(text)
        run = parse_config(text, "simulate")
        assert run.mode == "simulate"
        resolved = serialize_config(run)
        assert read_config_sections(resolved)["run"]["mode"] == ("simulate", 2)
        assert resolved == serialize_config(parse_config(MINIMAL_LIF))

    def test_full_circuit_config(self):
        run = parse_config(CIRCUIT_FULL)
        assert run.model == "circuit"
        cfg = run.circuit
        assert cfg.adaptation.enabled and cfg.exponential.enabled
        assert cfg.syn_exc.coba_enabled
        assert cfg.syn_exc.virtual_reversal == pytest.approx(1.3)
        assert run.events["exc"].events[0] == (pytest.approx(30e-6), 1.0)
        run = parse_config(CALIBRATE_FULL)
        assert run.circuit == parse_config(CIRCUIT_FULL).circuit
        assert run.mismatch_size == 16
        assert run.calibration.tau_m == pytest.approx(20e-6)
        assert run.calibration_tol == pytest.approx(0.015)

    def test_negative_time_constant_names_invariant(self):
        bad = CIRCUIT_FULL.replace("tau_m = 20 us", "tau_m = -1 us")
        with pytest.raises(ValidationError, match=r"^\[circuit\] violates tau_m > 0$"):
            parse_config(bad)

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
        text = CALIBRATE_FULL.replace("[mismatch]\nsize = 16\nseed = 3\n",
                            "[mismatch]\nsize = 16\nseed = 3\n"
                            "sigma_rel_leak_ota.g_per_bias = 0.2\n"
                            "sigma_abs_E_l = 0.01\n")
        run = parse_config(text)
        # split once into the relative and additive spreads of a MismatchModel
        assert run.mismatch_overrides == {"relative": {"leak_ota.g_per_bias": 0.2},
                                          "additive": {"E_l": 0.01}}


    def test_dt_longer_than_duration_rejected(self):
        text = CIRCUIT_FULL.replace("duration = 300 us", "duration = 0.02 us")
        with pytest.raises(ValidationError, match="must not exceed duration"):
            parse_config(text)

    @pytest.mark.parametrize("key, values, match", [
        ("neuron.g_l", "0.1 uS, 0.2 uS",
         r"^\[sweep\] key 'neuron.g_l' is not read by sweep with model = circuit$"),
        ("stimulus.current", "1 nA, 2 nA", "not supported"),
        ("run.dt", "0.1 us, 1 ms", "must not exceed duration"),
    ])
    def test_sweep_key_checked_at_parse_time(self, key, values, match):
        # a sweep writes CSV alone and reads no [run] format
        text = CIRCUIT_FULL.replace("mode = simulate", "mode = sweep").replace(
            "format = csv\n", "") + f"\n[sweep]\nkey = {key}\nvalues = {values}\n"
        with pytest.raises(ValidationError, match=match):
            parse_config(text)

    def test_jobs_key_rejected(self):
        # runs are sequential: the key used to be accepted with no effect
        text = MINIMAL_LIF.replace("model = ideal", "model = ideal\njobs = 4")
        with pytest.raises(ParseError, match=r"^unknown key 'jobs' in \[run\] \(line 5\)$"):
            parse_config(text)

    def test_neuron_sweep_accepted_for_ideal_model(self):
        run = parse_config(MINIMAL_LIF.replace("mode = simulate", "mode = sweep")
                           + "\n[sweep]\nkey = neuron.g_l\nvalues = 10 nS, 20 nS\n")
        assert run.sweep["values"] == pytest.approx((10e-9, 20e-9))

    def test_neuron_sweep_value_checked_at_parse_time(self):
        text = (MINIMAL_LIF.replace("mode = simulate", "mode = sweep")
                + "\n[sweep]\nkey = neuron.C\nvalues = 2 pF, 0 pF\n")
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
        command = "experiment" if "[experiment]" in tail else "simulate"
        with pytest.raises(ValidationError, match=match):
            parse_config(f"[run]\nmodel = circuit\n{tail}\n", command)

    def test_written_zero_used_as_written(self):
        run = parse_config(CIRCUIT_FULL.replace("v_t = 0.62 V", "v_t = 0 V"))
        assert derive_effective_adex(run.circuit).V_T == pytest.approx(0.0, abs=1e-12)
        run = parse_config("[run]\nmodel = circuit\n[experiment]\nname = psp\nweight = 0\n",
                           "experiment")
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

    @pytest.mark.parametrize("base, old, new", [
        # pairs: a stimulus segment and a synaptic event
        (CIRCUIT_FULL, "segments = 0 us : 0 nA, 20 us : 60 nA, 250 us : 0 nA",
         "segments = 0 us : 0 nA, 20 us : nan nA, 250 us : 0 nA"),
        (CIRCUIT_FULL, "events = 30 us : 1.0, 60 us : 0.5",
         "events = 30 us : inf, 60 us : 0.5"),
        # a mismatch override
        (CALIBRATE_FULL, "seed = 3\n", "seed = 3\nsigma_rel_leak_ota.g_per_bias = nan\n"),
    ], ids=["segment", "event_weight", "mismatch_override"])
    def test_non_finite_pair_and_override_rejected(self, base, old, new):
        assert old in base
        text = base.replace(old, new)
        with pytest.raises(ParseError, match="not a finite number") as err:
            parse_config(text)
        bad_line = next(line for line in new.splitlines() if "nan" in line or "inf" in line)
        assert err.value.line == text.splitlines().index(bad_line) + 1

    @pytest.mark.parametrize("head, section", [
        (MINIMAL_LIF.replace("mode = simulate", "mode = sweep"),
         "[sweep]\nkey = neuron.g_l\nvalues = 10 nS, nan nS\n"),
        ("[run]\nmode = experiment\nmodel = circuit\n",
         "[experiment]\nname = exponential_sweep\nonsets = 0.6 V, inf V\n"),
    ], ids=["sweep_values", "list"])
    def test_non_finite_list_and_sweep_values_rejected(self, head, section):
        text = head + "\n" + section
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
        run = parse_config(text, "simulate")
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
                           "tau_w = 50 us\n", "simulate")
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
        ("mismatch", "enabled = false\nseed = 9\nsigma_rel_leak_ota.g_per_bias = 0.5",
         "seed", "enabled"),
        ("mismatch", "enabled = false\nsigma_abs_E_l = 0.01", "sigma_abs_E_l", "enabled"),
    ], ids=["adaptation_a_b", "exponential_delta_t", "exponential_gate",
            "syn_exc_e_syn", "syn_inh_e_syn_hat", "neuron_V_T", "neuron_Delta_T",
            "neuron_gate", "syn_exc_tau_syn", "syn_inh_bias", "syn_exc_coba_e_syn",
            "syn_inh_coba", "mismatch_seed", "mismatch_sigma"])
    def test_key_its_switch_leaves_unread_rejected(self, section, lines, key, switch):
        # each used to be parsed and dropped; each section under a command
        # that reads it
        head, command = {"neuron": ("[run]\nmodel = ideal\n" + NEURON, "simulate"),
                         "mismatch": ("[run]\nmodel = circuit\n[calibration]\n", "calibrate")
                         }.get(section, ("[run]\nmodel = circuit\n", "simulate"))
        body = f"{lines}\n" if section == "neuron" else f"[{section}]\n{lines}\n"
        with pytest.raises(ValidationError, match=(
                rf"^\[{section}\] {key} is not read unless {switch} = true$")):
            parse_config(head + body, command)

    @pytest.mark.parametrize("sub, default", [
        ("adaptation", ""), ("exponential", ""),
        ("syn_exc", "enabled = false\n"), ("syn_inh", "enabled = false\n")])
    def test_spread_of_a_switched_off_constant_rejected(self, sub, default):
        # the spread used to be drawn, shifting the other constants' draws,
        # and had no effect of its own
        path = {"adaptation": "ota_tau.g_per_bias", "exponential": "r_conv",
                "syn_exc": "q_unit", "syn_inh": "leak_gain"}[sub]
        text = (f"[run]\nmodel = circuit\n[{sub}]\n{default}[calibration]\n"
                f"[mismatch]\nsigma_rel_{sub}.{path} = 0.5\n")
        with pytest.raises(ValidationError, match=(
                rf"^\[mismatch\] sigma_rel_{sub}.{path} is not read unless "
                rf"\[{sub}\] enabled = true$")):
            parse_config(text, "calibrate")
        on = text.replace(default, "") if default else text.replace(
            f"[{sub}]\n", f"[{sub}]\nenabled = true\n")
        run = parse_config(on, "calibrate")
        assert run.mismatch_overrides == {"relative": {f"{sub}.{path}": 0.5}}

    @pytest.mark.parametrize("side", ["exc", "inh"])
    def test_events_on_a_switched_off_line_rejected(self, side):
        # the events used to parse and never reach the membrane
        text = (f"[run]\nmodel = circuit\n[syn_{side}]\nenabled = false\n"
                f"[events_{side}]\nevents = 30 us : 1.0\n")
        with pytest.raises(ValidationError, match=(
                rf"^\[events_{side}\] is not read unless \[syn_{side}\] enabled = true$")):
            parse_config(text, "simulate")
        # the other line's switch does not matter
        other = "inh" if side == "exc" else "exc"
        run = parse_config(text.replace(f"[syn_{side}]", f"[syn_{other}]"), "simulate")
        assert len(run.events[side].events) == 1

    @pytest.mark.parametrize("side", ["exc", "inh"])
    def test_events_on_the_ideal_model_rejected(self, side):
        # the ideal model has no synaptic input; the events used to be
        # refused by simulate and sweep at run time and ignored by calibrate
        text = MINIMAL_LIF + f"[events_{side}]\nevents = 30 us : 1.0\n"
        with pytest.raises(ValidationError, match=(
                rf"^\[events_{side}\] events is not read by simulate with model = ideal$")):
            parse_config(text)

    def test_neuron_sweep_key_its_exponential_leaves_unread_rejected(self):
        text = (MINIMAL_LIF.replace("mode = simulate", "mode = sweep")
                + "[sweep]\nkey = neuron.V_T\nvalues = -50 mV, -48 mV\n")
        with pytest.raises(ValidationError, match=(
                r"^\[sweep\] key 'neuron.V_T' is not read unless "
                r"\[neuron\] exp_enabled = true$")):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        MINIMAL_LIF,
        "[run]\nmode = simulate\nmodel = circuit\n[adaptation]\nenabled = true\nb = 2 nA\n"
        "[syn_exc]\nenabled = false\n[syn_inh]\nenabled = false\n"], ids=["neuron", "circuit"])
    def test_switched_off_sections_resolve_to_their_switches(self, text):
        # the resolved text writes no key a switch leaves unread, also
        # where adaptation's b is rebuilt from its bias
        run = parse_config(text)
        resolved = serialize_config(run)
        sections = read_config_sections(resolved)
        if run.neuron is not None:
            assert set(sections["neuron"]) == set(SCHEMA["neuron"]) - {
                "V_T", "Delta_T", "exp_gated_in_ref"}
        else:
            assert sections["syn_exc"].keys() == sections["syn_inh"].keys() == {"enabled"}
        assert serialize_config(parse_config(resolved)) == resolved
        assert parse_config(resolved).neuron == run.neuron
        assert parse_config(resolved).circuit == run.circuit


class TestResolvedText:
    @pytest.mark.parametrize("lines", [
        "[exponential]\nenabled = true\ndelta_t = 0.15 V",
        "[adaptation]\nenabled = true\ntau_w = 0.0001722 s\nb = 2 nA",
    ], ids=["delta_t", "b"])
    def test_drifting_value_resolves_to_a_fixed_point(self, lines):
        # the effective delta_t or b used to rebuild a neighbouring bias,
        # and the resolved text changed on every round trip
        run = parse_config(f"[run]\nmodel = circuit\n{lines}\n", "simulate")
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
        run = parse_config(text, "simulate")
        resolved = serialize_config(run)
        assert parse_config(resolved).circuit == run.circuit


# the [experiment] keys each experiment reads on the circuit model
EXPERIMENT_READS = {name: _READS["experiment", name, "circuit"]["experiment"]
                    for name in EXPERIMENTS}
# (experiment, key) for each [experiment] key an experiment does not read
UNREAD = [(name, key) for name, reads in EXPERIMENT_READS.items()
          for key in SCHEMA["experiment"] if key not in reads]


class TestExperimentKeys:
    def test_table_names_every_experiment_and_key(self):
        assert {name for _, name, _ in _READS} == {None, *EXPERIMENTS}
        read = {key for reads in EXPERIMENT_READS.values() for key in reads}
        assert read == set(SCHEMA["experiment"])

    @pytest.mark.parametrize("name, key", UNREAD, ids=[f"{n}.{k}" for n, k in UNREAD])
    def test_key_the_experiment_does_not_read_rejected(self, name, key):
        # such a key used to be accepted and dropped
        kind, dim = SCHEMA["experiment"][key]
        value = ({"int": "2", "string": "exc", "names": "tonic_spiking"}[kind]
                 if kind in ("int", "string", "names") else format_quantity(0.5, dim))
        text = f"[run]\nmodel = circuit\n[experiment]\nname = {name}\n{key} = {value}\n"
        with pytest.raises(ValidationError, match=(
                rf"^\[experiment\] {key} is not read by experiment {name}"
                r"( with model = circuit)?, which reads \[experiment\] "
                + ", ".join(EXPERIMENT_READS[name]) + "$")):
            parse_config(text, "experiment")

    @pytest.mark.parametrize("v_inf", ["0.7 V", "0.75 V", "0 V"])
    def test_v_inf_at_or_below_v_det_rejected(self, v_inf):
        # it used to fail at run time with exit 1
        text = ("[run]\nmodel = circuit\n[experiment]\n"
                f"name = leak_over_threshold\nv_inf = {v_inf}\n")
        with pytest.raises(ValidationError, match=(
                r"^\[experiment\] v_inf = .* V must exceed the circuit's "
                r"V_det = 0.75 V$")):
            parse_config(text, "experiment")

    def test_v_inf_above_v_det_kept(self):
        run = parse_config("[run]\nmodel = circuit\n[experiment]\n"
                           "name = leak_over_threshold\nv_inf = 0.8 V\n", "experiment")
        assert run.experiment["v_inf"] == pytest.approx(0.8)


class TestMismatchKeys:
    @pytest.mark.parametrize("section", ["run", "mismatch"])
    def test_negative_seed_rejected(self, section):
        # numpy used to reject it at run time with a ValueError traceback
        def text(seed):
            return ("[run]\nmodel = circuit\n" + ("" if section == "run" else "[mismatch]\n")
                    + f"seed = {seed}\n[calibration]\n")
        with pytest.raises(ValidationError, match=(
                rf"^\[{section}\] seed must be >= 0, got -3$")):
            parse_config(text(-3), "calibrate")
        run = parse_config(text(0), "calibrate")
        assert (run.seed if section == "run" else run.mismatch_seed) == 0

    @pytest.mark.parametrize("path", [
        "nonexistent.path", "leak_ota", "leak_ota.nonexistent", "adaptation.enabled",
        "adaptation.sign", "C_mem.real", "syn_exc.sign"])
    def test_override_names_a_float_constant(self, path):
        # such a path used to end in an AttributeError or TypeError traceback
        # at sampling, or perturb a flag
        with pytest.raises(ValidationError, match=(
                rf"^\[mismatch\] sigma_rel_{path}: '{path}' names no numeric "
                r"constant of the circuit$")):
            parse_config("[run]\nmodel = circuit\n[adaptation]\nenabled = true\n[calibration]\n"
                         f"[mismatch]\nsigma_rel_{path} = 0.1\n", "calibrate")

    @pytest.mark.parametrize("path, adaptation", [
        ("syn_exc.follower_offset", ""), ("adaptation.pulse_amplitude", "enabled = true\n")])
    def test_relative_spread_of_a_zero_nominal_rejected(self, path, adaptation):
        # x * m is 0 for every draw m: the sigma was read by nothing and
        # only shifted the later constants' draws
        text = (f"[run]\nmodel = circuit\n[adaptation]\n{adaptation}[calibration]\n"
                f"[mismatch]\nsigma_rel_{path} = 0.1\n")
        with pytest.raises(ValidationError, match=(
                rf"^\[mismatch\] sigma_rel_{path}: the nominal {path} is 0, which a "
                r"relative spread leaves unchanged$")):
            parse_config(text, "calibrate")
        # an absolute spread, or a b that makes the pulse nonzero, is read
        run = parse_config(text.replace("sigma_rel_", "sigma_abs_"), "calibrate")
        assert run.mismatch_overrides == {"additive": {path: 0.1}}
        if adaptation:
            run = parse_config(text.replace("enabled = true\n", "enabled = true\nb = 1 nA\n"),
                               "calibrate")
            assert run.mismatch_overrides == {"relative": {path: 0.1}}

    @pytest.mark.parametrize("key", ["sigma_rel_leak_ota.g_per_bias", "sigma_abs_E_l"])
    def test_negative_sigma_rejected(self, key):
        # it used to end in a ValueError traceback from MismatchModel
        with pytest.raises(ValidationError, match=(
                rf"^\[mismatch\] {key} must be >= 0, got -0.1$")):
            parse_config(f"[run]\nmodel = circuit\n[calibration]\n[mismatch]\n{key} = -0.1\n",
                         "calibrate")

    @pytest.mark.parametrize("lines, key", [
        ("seed = 9", "seed"), ("enabled = true", "enabled"),
        ("enabled = false", "enabled"), ("sigma_abs_E_l = 0.01", "sigma_abs_E_l"),
        ("size = 8", "size"),
    ], ids=["seed", "enabled_true", "enabled_false", "sigma", "size_with_population"])
    def test_key_firing_patterns_does_not_read_rejected(self, lines, key):
        # the run seed and defaults drew the population, and the key was written back
        population = "population = 4\n" if key == "size" else ""
        which = ("[experiment] population in its place" if key == "size"
                 else "[mismatch] size")
        with pytest.raises(ValidationError, match=(
                rf"^\[mismatch\] {key} is not read by experiment firing_patterns with "
                rf"model = circuit, which reads {re.escape(which)}$")):
            parse_config("[run]\nmodel = circuit\n[experiment]\nname = firing_patterns\n"
                         f"{population}[mismatch]\n{lines}\n", "experiment")
        run = parse_config("[run]\nmodel = circuit\n[experiment]\nname = firing_patterns\n"
                           "[mismatch]\nsize = 8\n", "experiment")
        assert run.mismatch_size == 8


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL_LIF, CIRCUIT_FULL, CALIBRATE_FULL])
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

    @pytest.mark.parametrize("name, digest", [
        ("adex_step", "48e1e9011884dea4a275d32f48154b0a1ecb90367749a36248131e5c3edae2a8"),
        ("calibrate_tau", "da66518314537cf88c07cbae37daaa817cae0aac6f0fabc05e0397e429bbd2de"),
        ("firing_patterns",
         "c1f2b48d0238aa1a856c1003ccf6a55c4b6e94a4bd7e9af63f4f7192bf4242af"),
        ("lif_demo", "621da1a53e059193dee43dcfdba7761b4bd07282025e02e56547fadd78e7aa33"),
    ])
    def test_shipped_config_resolves_to_pinned_bytes(self, name, digest):
        # the resolved text of each shipped config, as written before the
        # grammar's kinds read and wrote every section; calibrate_tau and
        # firing_patterns without the lines their runs do not read
        text = (Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg").read_text()
        resolved = serialize_config(parse_config(text)).encode()
        assert hashlib.sha256(resolved).hexdigest() == digest


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
    """(text, command, experiment name): numeric keys the run reads, and
    now and then one it does not."""
    command, name, model = draw(st.sampled_from(sorted(_READS, key=str)))
    row = _READS[command, name, model]

    def read(section, key):
        return section in row and (row[section] is None or key in row[section])

    keys = NUMERIC_KEYS if draw(st.integers(0, 4)) == 0 else [
        k for k in NUMERIC_KEYS if read(*k[:2])]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                           unique_by=lambda k: k[:2]))
    sections = {"run": {"model": model}}
    if name is not None:
        sections["experiment"] = {"name": name}
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
        for key in names:
            value = draw(switch) if read(section, key) else None
            if value is not None:
                sections.setdefault(section, {})[key] = value
    if "neuron" in row:
        base = {**NEURON_BASE,
                **({} if sections.get("neuron", {}).get("exp_enabled") == "false"
                   else NEURON_EXP)}
        sections["neuron"] = {**base, **sections.get("neuron", {})}
    # the sections the command needs
    if command == "calibrate":
        sections["calibration"] = {}
    if command == "sweep":
        sections["sweep"] = {"key": "run.duration", "values": "100 us, 200 us"}
    text = "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for section, keys in sections.items())
    return text, command, name


class TestWrittenValues:
    @settings(max_examples=300)
    @given(config=numeric_configs())
    def test_used_as_written_or_rejected(self, config):
        # a written value, 0 and negatives included, is either a config
        # error or runs as written: the resolved text is a fixed point,
        # writes every section of the file and carries every written
        # [experiment] value unchanged
        text, command, name = config
        try:
            run = parse_config(text, command, name)
        except (ParseError, ValidationError):
            return
        resolved = serialize_config(run)
        assert serialize_config(parse_config(resolved)) == resolved
        written = read_config_sections(text)
        assert set(written) <= set(read_config_sections(resolved))
        for key, (raw, _) in written.get("experiment", {}).items():
            assert f"{key} = {raw}" in resolved.splitlines()


@pytest.mark.parametrize("line, key", [
    ("exp_enabled = false", "exp_enabled"), ("V_th = -50 mV", "V_th")])
def test_pattern_file_sets_neuron_quantities_only(line, key):
    from adexsim.patterns import _parse_pattern
    text = ("[pattern]\nname = x\nlabel = x\n[neuron]\nC = 200 pF\n" + line
            + "\n[stimulus]\ncurrent = 500 pA\nonset = 20 ms\nduration = 500 ms\n")
    with pytest.raises(ValueError, match=f"^x.cfg: unknown neuron key '{key}'$"):
        _parse_pattern(text, "x.cfg")
