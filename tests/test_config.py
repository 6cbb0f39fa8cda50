import pytest

from adexsim import ParseError, ValidationError
from adexsim.config import parse_config, read_config_sections, serialize_config
from adexsim.units import parse_quantity

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
