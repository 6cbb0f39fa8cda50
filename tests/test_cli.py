import json
import subprocess
import sys

import numpy as np
import pytest

CONFIG_CIRCUIT = """
[run]
mode = simulate
model = circuit
seed = 42
dt = 0.05 us
duration = 200 us

[circuit]
tau_m = 20 us
E_l = 0.5 V
V_det = 0.62 V
V_r = 0.44 V
t_ref = 1 us

[stimulus]
current = 22 nA
"""

CONFIG_FLAT = CONFIG_CIRCUIT.replace("current = 22 nA", "current = 0 nA")

CONFIG_EXP_SWEEP = """
[run]
mode = experiment
model = circuit

[circuit]
tau_m = 20 us

[exponential]
enabled = true
delta_t = 20 mV
v_t = 0.62 V

[experiment]
name = exponential_sweep
"""

CONFIG_IDEAL_SWEEP = """
[run]
mode = sweep
model = ideal
duration = 50 us

[neuron]
C = 2.4 pF
g_l = 0.12 uS
E_l = 0.5 V
V_r = 0.44 V
V_det = 0.62 V
exp_enabled = false

[sweep]
key = neuron.g_l
values = 0.1 uS, 0.2 uS
"""

CONFIG_PSP = """
[run]
mode = experiment
model = circuit

[circuit]
tau_m = 20 us

[mismatch]
size = 3
enabled = false

[experiment]
name = psp
"""

CONFIG_SWEEP = CONFIG_CIRCUIT.replace(
    "mode = simulate", "mode = sweep") + """
[sweep]
key = run.duration
values = 100 us, 200 us
"""


@pytest.fixture
def run_cli(cli_env):
    def run(args, cwd):
        return subprocess.run([sys.executable, "-m", "adexsim.cli", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env=cli_env)
    return run


@pytest.fixture
def cfg_path(tmp_path):
    def write(text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


class TestSimulateCommand:
    def test_writes_trace_and_summary(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_CIRCUIT),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "time_us,V_mV,w_nA,s_exc,s_inh"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 42
        assert summary["n_spikes"] > 0
        assert (out / "spikes.csv").exists()
        assert (out / "config.resolved.cfg").exists()

    def test_zero_stimulus_constant_column(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_FLAT),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        v = {row.split(",")[1] for row in rows}
        assert v == {"500"}

    def test_byte_identical_reruns(self, tmp_path, cfg_path, run_cli):
        cfg = cfg_path(CONFIG_CIRCUIT)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = run_cli(["simulate", "--config", cfg, "--out", str(out)],
                             cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outs[0] == outs[1]

    def test_seed_override(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_CIRCUIT),
                          "--seed", "7", "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert json.loads((out / "summary.json").read_text())["seed"] == 7

    def test_invalid_output_location_no_partial_files(self, tmp_path, cfg_path,
                                                       run_cli):
        missing = tmp_path / "no" / "such" / "dir" / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_CIRCUIT),
                          "--out", str(missing)], cwd=tmp_path)
        assert result.returncode == 2
        assert not missing.exists()
        assert not (tmp_path / "no").exists()

    def test_config_error_exit_code(self, tmp_path, cfg_path, run_cli):
        bad = cfg_path(CONFIG_CIRCUIT.replace("tau_m = 20 us", "tau_m = -1 us"))
        result = run_cli(["simulate", "--config", bad, "--out",
                          str(tmp_path / "out")], cwd=tmp_path)
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_env_var_output_dir(self, tmp_path, cfg_path, cli_env):
        env = dict(cli_env, ADEXSIM_OUT=str(tmp_path / "envout"))
        result = subprocess.run(
            [sys.executable, "-m", "adexsim.cli", "simulate",
             "--config", cfg_path(CONFIG_CIRCUIT)],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "envout" / "trace.csv").exists()


class TestExperimentCommand:
    def test_exponential_sweep_end_to_end(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(["experiment", "exponential_sweep",
                          "--config", cfg_path(CONFIG_EXP_SWEEP),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report_exponential_sweep.json").read_text())
        assert report["passed"] is True
        assert report["population"] == {} or report["population"]

    def test_name_mismatch_rejected(self, tmp_path, cfg_path, run_cli):
        result = run_cli(["experiment", "psp",
                          "--config", cfg_path(CONFIG_EXP_SWEEP),
                          "--out", str(tmp_path / "out")], cwd=tmp_path)
        assert result.returncode == 2


    @pytest.mark.parametrize("command, key, message", [
        ("psp", "weight = -1", "[experiment] weight must be >= 0, got -1.0"),
        ("psp", "n_events = 0", "[experiment] n_events must be >= 1, got 0"),
        ("firing_patterns", "population = 0", "[experiment] population must be >= 1, got 0"),
        ("leak_over_threshold", "v_inf = 0.7 V",
         "[experiment] v_inf = 0.7 V must exceed the circuit's V_det = 0.75 V"),
        ("leak_over_threshold", "weight = 0.3",
         "[experiment] weight is not read by leak_over_threshold, "
         "which reads tau_m_targets, v_inf, n_isis, tolerance"),
    ], ids=["negative_weight", "zero_events", "zero_population", "v_inf_below_v_det",
            "unread_key"])
    def test_bad_experiment_value_exit_2_without_output(self, tmp_path, cfg_path,
                                                        run_cli, command, key, message):
        # 0 used to run with the default and -1 ended in a traceback
        out = tmp_path / "out"
        text = CONFIG_PSP.replace("name = psp", f"name = {command}\n{key}")
        result = run_cli(["experiment", command, "--config", cfg_path(text),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_zero_weight_runs_as_written(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        text = CONFIG_PSP.replace("name = psp", "name = psp\nweight = 0")
        result = run_cli(["experiment", "psp", "--config", cfg_path(text),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report_psp.json").read_text())
        assert [row["amplitude"] for row in report["per_neuron"]] == [0.0] * 3
        assert "weight = 0.0" in (out / "config.resolved.cfg").read_text().splitlines()


class TestSweepCommand:
    def test_sweep_writes_summary_and_traces(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(["sweep", "--config", cfg_path(CONFIG_SWEEP),
                          "--out", str(out), "--jobs", "2"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (out / "sweep_000.csv").exists()
        assert (out / "sweep_001.csv").exists()
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "index,value,n_spikes,median_isi_us"
        assert len(lines) == 3

    def test_jobs_has_no_effect(self, tmp_path, cfg_path, run_cli):
        # --jobs is accepted, runs stay sequential, and the files do not
        # depend on it (not even the resolved config)
        path = cfg_path(CONFIG_SWEEP)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out_{jobs}"
            result = run_cli(["sweep", "--config", path, "--out", str(out),
                              "--jobs", jobs], cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "sweep_summary.csv" in outputs[0]
        assert outputs[0] == outputs[1]


class TestConfigErrorsAtParseTime:
    @pytest.mark.parametrize("text", [
        # a step longer than the run
        CONFIG_CIRCUIT.replace("dt = 0.05 us", "dt = 1 ms").replace(
            "duration = 200 us", "duration = 400 us"),
        # the circuit model reads no [neuron] quantity
        CONFIG_SWEEP.replace("key = run.duration", "key = neuron.g_l").replace(
            "values = 100 us, 200 us", "values = 0.1 uS, 0.2 uS"),
        # a swept neuron value its owner rejects
        CONFIG_IDEAL_SWEEP.replace("key = neuron.g_l", "key = neuron.C").replace(
            "values = 0.1 uS, 0.2 uS", "values = 2 pF, 0 pF"),
        # the ideal model takes no [events_*]; a sweep used to drop them
        CONFIG_IDEAL_SWEEP + "\n[events_exc]\nevents = 10 us : 1.0\n",
    ], ids=["dt_longer_than_duration", "neuron_sweep_on_circuit", "neuron_sweep_bad_value",
            "events_on_ideal_sweep"])
    def test_exit_2_without_output(self, tmp_path, cfg_path, run_cli, text):
        out = tmp_path / "out"
        command = "sweep" if "[sweep]" in text else "simulate"
        result = run_cli([command, "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: [")
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("current = 22 nA", "current = nan nA", "not a finite number: 'nan' (line "),
        ("current = 22 nA", "current = 22 nA\nonset = -5 us",
         "[stimulus] onset must be >= 0 s"),
        ("current = 22 nA", "current = 22 nA\nonset = 20 us\noffset = 20 us",
         "[stimulus] offset must be after onset, got offset 2e-05 s, onset 2e-05 s"),
        # a written 0 used to be replaced by the default
        ("tau_m = 20 us", "tau_m = 0 us", "[circuit] violates tau_m > 0"),
        ("current = 22 nA", "current = 22 nA\n\n[adaptation]\npulse_width = 0 us",
         "[adaptation] violates pulse_width > 0"),
    ], ids=["nan_current", "negative_onset", "offset_not_after_onset", "zero_tau_m",
            "zero_pulse_width"])
    def test_bad_value_exit_2_without_output(self, tmp_path, cfg_path, run_cli,
                                             old, new, message):
        # a NaN current used to run and fail late as a non-finite circuit state
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_CIRCUIT.replace(old, new)),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert message in result.stderr
        assert "non-finite" not in result.stderr and "Traceback" not in result.stderr
        assert not out.exists()


CONFIG_CALIBRATE = """
[run]
mode = calibrate
model = circuit

[circuit]
tau_m = 20 us

[adaptation]
enabled = true
a = 30 nS
b = 2 nA

[mismatch]
size = 8

[calibration]
"""


class TestZeroCalibrationTargets:
    @pytest.mark.parametrize("target, name, path", [
        ("a = 0 nS", "a", "adaptation.ota_a.I_bias"),
        ("b = 0 A", "b", "adaptation.pulse_amplitude"),
    ], ids=["a", "b"])
    def test_zero_a_or_b_converges_exactly(self, tmp_path, cfg_path, run_cli,
                                           target, name, path):
        # a = 0 used to end in a ZeroDivisionError traceback, and b = 0 left
        # every neuron's b as sampled, with no outcome and no failure
        out = tmp_path / "out"
        result = run_cli(["calibrate", "--config", cfg_path(CONFIG_CALIBRATE + target),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "calibration.json").read_text())
        assert report["failures"] == []
        outcome = report["outcomes"][name]
        assert (outcome["bias_path"], outcome["evaluations"]) == (path, 0)
        assert outcome["biases"] == [0.0] * 8
        assert outcome["converged"] == [True] * 8

    def test_zero_tau_m_exit_2_without_output(self, tmp_path, cfg_path, run_cli):
        # with allow_out_of_range it used to end in a ZeroDivisionError
        out = tmp_path / "out"
        text = CONFIG_CALIBRATE + "tau_m = 0 us\nallow_out_of_range = true"
        result = run_cli(["calibrate", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: tau_m target must be > 0, got 0\n"
        assert not out.exists()

    def test_plan_key_exit_2_without_output(self, tmp_path, cfg_path, run_cli):
        # the calibration target alone says which entries run
        out = tmp_path / "out"
        text = CONFIG_CALIBRATE + "tau_m = 20 us\nplan = tau_m"
        result = run_cli(["calibrate", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: unknown key 'plan' in [calibration]")
        assert not out.exists()


class TestSwitchedKeys:
    def test_key_its_switch_leaves_unread_exit_2_without_output(self, tmp_path, cfg_path,
                                                               run_cli):
        # [adaptation] a and b used to be parsed and dropped
        out = tmp_path / "out"
        text = CONFIG_CIRCUIT + "\n[adaptation]\na = 30 nS\nb = 2 nA\n"
        result = run_cli(["simulate", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: [adaptation] a is not read unless enabled = true\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (CONFIG_IDEAL_SWEEP.replace("exp_enabled = false",
                                    "exp_enabled = false\nV_T = 0.55 V\nDelta_T = 20 mV"),
         "[neuron] V_T is not read unless exp_enabled = true"),
        (CONFIG_CIRCUIT + "\n[syn_inh]\nenabled = false\ntau_syn = 3 us\n",
         "[syn_inh] tau_syn is not read unless enabled = true"),
    ], ids=["neuron_exp_off", "syn_inh_off"])
    def test_key_a_switched_off_neuron_or_line_leaves_unread_exit_2(
            self, tmp_path, cfg_path, run_cli, text, message):
        # each used to be parsed and dropped
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()


class TestCsvRoundTrip:
    def test_reingested_trace_supports_postprocessing(self, tmp_path, cfg_path,
                                                       run_cli):
        from adexsim.cli import csv_to_trace
        from adexsim.experiments import phase_plane
        from adexsim.synapse import psp_metrics
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_FLAT),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        trace = csv_to_trace((out / "trace.csv").read_text())
        poly = phase_plane(trace)
        assert poly.shape[1] == 2
        baseline, amplitude = psp_metrics(trace, 100e-6)
        assert baseline == pytest.approx(0.5, abs=1e-6)
        assert abs(amplitude) < 1e-9

    def test_csv_numbers_survive_round_trip(self, tmp_path, cfg_path, run_cli):
        from adexsim.cli import csv_to_trace, trace_to_csv
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(CONFIG_CIRCUIT),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        text = (out / "trace.csv").read_text()
        again = trace_to_csv(csv_to_trace(text))
        # %.9g formatting is stable after one round trip
        assert again.splitlines()[1:] == text.splitlines()[1:]
