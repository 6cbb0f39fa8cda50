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
    ], ids=["dt_longer_than_duration", "neuron_sweep_on_circuit"])
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
    ], ids=["nan_current", "negative_onset"])
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
