import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import adexsim.experiments
from adexsim import ParseError, ValidationError
from adexsim.cli import _build_population, _run_one_experiment, main, report_to_json
from adexsim.config import (
    EXPERIMENTS, SCHEMA, parse_config, read_config_sections, serialize_config,
)

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
         "[experiment] weight is not read by experiment leak_over_threshold, "
         "which reads [experiment] name, tau_m_targets, v_inf, n_isis, tolerance"),
    ], ids=["negative_weight", "zero_events", "zero_population", "v_inf_below_v_det",
            "unread_key"])
    def test_bad_experiment_value_exit_2_without_output(self, tmp_path, cfg_path,
                                                        run_cli, command, key, message):
        # 0 used to run with the default and -1 ended in a traceback
        out = tmp_path / "out"
        text = CONFIG_PSP.replace("name = psp", f"name = {command}\n{key}")
        if command == "firing_patterns":
            # it reads no circuit section and no [mismatch] key but size
            text = text.split("[circuit]")[0] + text[text.index("[experiment]"):]
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

    def test_jobs_key_exit_2_without_output(self, tmp_path, cfg_path, run_cli):
        # only the --jobs flag is accepted; the config key used to be too
        out = tmp_path / "out"
        text = CONFIG_SWEEP.replace("mode = sweep", "mode = sweep\njobs = 4")
        result = run_cli(["sweep", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: unknown key 'jobs' in [run]")
        assert not out.exists()

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
        (CONFIG_IDEAL_SWEEP.split("[sweep]")[0].replace("mode = sweep", "mode = simulate")
         .replace("exp_enabled = false", "exp_enabled = false\nV_T = 0.55 V\nDelta_T = 20 mV"),
         "[neuron] V_T is not read unless exp_enabled = true"),
        (CONFIG_CIRCUIT + "\n[syn_inh]\nenabled = false\ntau_syn = 3 us\n",
         "[syn_inh] tau_syn is not read unless enabled = true"),
        (CONFIG_CIRCUIT + "\n[syn_exc]\nenabled = false\n[events_exc]\n"
                          "events = 30 us : 1.0\n",
         "[events_exc] is not read unless [syn_exc] enabled = true"),
    ], ids=["neuron_exp_off", "syn_inh_off", "events_exc_line_off"])
    def test_key_a_switched_off_neuron_or_line_leaves_unread_exit_2(
            self, tmp_path, cfg_path, run_cli, text, message):
        # each used to be parsed and dropped
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


class TestModeMatchesCommand:
    def test_written_mode_other_than_the_command_exit_2_without_output(self, tmp_path,
                                                                      run_cli):
        # the subcommand used to run and the file's mode was written back
        out = tmp_path / "out"
        result = run_cli(["simulate", "--config", str(SHIPPED / "calibrate_tau.cfg"),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == ("error: [run] mode declares 'calibrate', "
                                 "command line asks for 'simulate'\n")
        assert not out.exists()

    def test_omitted_mode_resolves_to_the_command(self, tmp_path, cfg_path, run_cli):
        out = tmp_path / "out"
        text = CONFIG_SWEEP.replace("mode = sweep\n", "")
        result = run_cli(["sweep", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        resolved = (out / "config.resolved.cfg").read_text().splitlines()
        assert resolved[:2] == ["[run]", "mode = sweep"]

    def test_written_mode_runs_as_an_omitted_one(self, tmp_path, cfg_path, run_cli):
        # `mode = experiment` without an [experiment] section used to exit 2,
        # while the file without the mode ran the experiment the command names
        text = CONFIG_EXP_SWEEP.replace("[experiment]\nname = exponential_sweep\n", "")
        omitted = text.replace("mode = experiment\n", "")
        reports = []
        for name, body in (("written", text), ("omitted", omitted)):
            out = tmp_path / name
            result = run_cli(["experiment", "exponential_sweep", "--config",
                              cfg_path(body, f"{name}.cfg"), "--out", str(out)],
                             cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert reports[0] == reports[1]

    def test_sweep_without_sweep_section_exit_2_without_output(self, tmp_path, cfg_path,
                                                              run_cli):
        # with the mode left out, this used to end in a KeyError traceback
        out = tmp_path / "out"
        text = CONFIG_CIRCUIT.replace("mode = simulate\n", "")
        result = run_cli(["sweep", "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == ("error: sweep with model = circuit requires a [sweep] "
                                 "section\n")
        assert not out.exists()


class TestEventsNeedTheCircuit:
    @pytest.mark.parametrize("command, message", [
        (["simulate"], "[events_inh] events is not read by simulate with model = ideal"),
        (["sweep"], "[events_inh] events is not read by sweep with model = ideal"),
        (["calibrate"], "[run] model = ideal is not read by calibrate, "
                        "which runs model = circuit"),
        (["experiment", "firing_patterns"],
         "[run] duration is not read by experiment firing_patterns with model = ideal, "
         "which reads [run] mode, model, seed, out, format")])
    def test_exit_2_at_parse_time_under_every_command(self, tmp_path, cfg_path, run_cli,
                                                      command, message):
        # calibrate used to ignore the events without a word, and
        # firing_patterns the neuron
        out = tmp_path / "out"
        text = (CONFIG_IDEAL_SWEEP.replace("mode = sweep\n", "").split("[sweep]")[0]
                + "\n[events_inh]\nevents = 10 us : 1.0\n")
        result = run_cli([*command, "--config", cfg_path(text), "--out", str(out)],
                         cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()


CALIBRATE_TAU = (SHIPPED / "calibrate_tau.cfg").read_text()


class TestSeedsAndMismatchKeys:
    @pytest.mark.parametrize("text, flags, message", [
        (CALIBRATE_TAU.replace("seed = 3", "seed = -3"), [],
         "[run] seed must be >= 0, got -3"),
        (CALIBRATE_TAU.replace("size = 32", "size = 32\nseed = -3"), [],
         "[mismatch] seed must be >= 0, got -3"),
        (CALIBRATE_TAU, ["--seed", "-3"], "--seed must be >= 0, got -3"),
        (CALIBRATE_TAU.replace("size = 32", "size = 32\nsigma_rel_nonexistent.path = 0.1"),
         [], "[mismatch] sigma_rel_nonexistent.path: 'nonexistent.path' names no "
             "numeric constant of the circuit"),
        (CALIBRATE_TAU.replace("size = 32", "size = 32\nsigma_rel_leak_ota.g_per_bias = -0.1"),
         [], "[mismatch] sigma_rel_leak_ota.g_per_bias must be >= 0, got -0.1"),
        (CALIBRATE_TAU.replace("size = 32", "size = 32\nenabled = false\nseed = 9\n"
                               "sigma_rel_leak_ota.g_per_bias = 0.5"),
         [], "[mismatch] seed is not read unless enabled = true"),
        (CALIBRATE_TAU.replace("size = 32", "size = 4\nsigma_abs_C_mem = 1e-12"),
         [], "[mismatch] sigma_abs_C_mem = 1e-12 draws C_mem outside its domain "
             "(C_mem must lie in (0, 2.47e-12] F)"),
        (CALIBRATE_TAU.replace("size = 32", "size = 32\nsigma_rel_leak_ota.I_out_max = 0.1"),
         [], "[mismatch] sigma_rel_leak_ota.I_out_max: 'leak_ota.I_out_max' names no "
             "numeric constant of the circuit"),
        (CALIBRATE_TAU.replace("size = 32",
                               "size = 32\nsigma_rel_syn_exc.follower_offset = 0.1"),
         [], "[mismatch] sigma_rel_syn_exc.follower_offset: the nominal "
             "syn_exc.follower_offset is 0, which a relative spread leaves unchanged"),
        (CALIBRATE_TAU.replace("size = 32", "size = 32\n"
                               "sigma_rel_adaptation.ota_a.g_per_bias = 0.3\n"
                               "[adaptation]\nenabled = true"),
         [], "[mismatch] sigma_rel_adaptation.ota_a.g_per_bias: the nominal "
             "adaptation.ota_a.I_bias is 0 and no nonzero [calibration] a sets it, so "
             "nothing reads its g_per_bias"),
    ], ids=["run_seed", "mismatch_seed", "seed_flag", "unknown_path", "negative_sigma",
            "switched_off", "out_of_domain", "output_cap", "zero_nominal", "zero_coupling"])
    def test_exit_2_without_output(self, tmp_path, cfg_path, run_cli, text, flags,
                                   message):
        # the seeds, the first two keys and a spread that draws a constant
        # out of its domain used to end in a traceback with exit 1; the
        # switched-off keys ran and were written back; the OTA output cap,
        # now gone, and a relative spread of a zero nominal ran without
        # changing an output
        out = tmp_path / "out"
        result = run_cli(["calibrate", "--config", cfg_path(text), "--out", str(out),
                          *flags], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_firing_patterns_named_on_the_command_line_reads_only_size(
            self, tmp_path, cfg_path, run_cli):
        # without an [experiment] section the file runs as one that names
        # the experiment: its [mismatch] seed used to be dropped
        out = tmp_path / "out"
        text = (SHIPPED / "firing_patterns.cfg").read_text().replace(
            "size = 32", "size = 32\nseed = 5").split("[experiment]")[0]
        result = run_cli(["experiment", "firing_patterns", "--config", cfg_path(text),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == ("error: [mismatch] seed is not read by experiment "
                                 "firing_patterns with model = circuit, which reads "
                                 "[mismatch] size\n")
        assert not out.exists()


class TestCouplingSpread:
    # with adaptation on and `a` omitted, ota_a.I_bias is 0 and its g is 0
    # whatever g_per_bias is drawn: calibrate and psp wrote byte-identical
    # outputs at sigma 0.1 and 0.3
    SPREAD = "sigma_rel_adaptation.ota_a.g_per_bias = 0.3\n"
    TEXT = ("[run]\nmodel = circuit\nseed = 5\n[adaptation]\nenabled = true\nb = 1 nA\n"
            "{circuit}[mismatch]\nsize = 3\n{spread}[calibration]\ntau_m = 20 us\n{a}")

    @pytest.mark.parametrize("circuit, a, read", [
        ("", "", False), ("", "a = 0 nS\n", False), ("", "a = 20 nS\n", True),
        ("a = 20 nS\n", "", True)], ids=["omitted", "zero_target", "target", "nominal"])
    @pytest.mark.parametrize("command, experiment", [("calibrate", None), ("experiment", "psp")])
    def test_read_only_with_a_live_coupling_bias(self, circuit, a, read, command, experiment):
        text = self.TEXT.format(circuit=circuit, spread=self.SPREAD, a=a)
        if experiment:
            text += f"[experiment]\nname = {experiment}\n"
        if read:
            assert parse_config(text, command).mismatch_overrides == {
                "relative": {"adaptation.ota_a.g_per_bias": 0.3}}
        else:
            with pytest.raises(ValidationError, match=r"^\[mismatch\] sigma_rel_adaptation"
                               r"\.ota_a\.g_per_bias: the nominal adaptation\.ota_a\.I_bias "
                               r"is 0 and no nonzero \[calibration\] a sets it"):
                parse_config(text, command)
        # the default model's own draw of the path is left as it is
        assert parse_config(self.TEXT.format(circuit=circuit, spread="", a=a) + (
            f"[experiment]\nname = {experiment}\n" if experiment else ""), command)

    def test_leak_over_threshold_reads_no_coupling_spread(self):
        # the run reads neither [adaptation] a nor [calibration]: the bias
        # stays 0, and only the default model's draw of the path is left
        text = ("[run]\nmodel = circuit\n[adaptation]\nenabled = true\n[mismatch]\nsize = 2\n"
                "{spread}[experiment]\nname = leak_over_threshold\n"
                "tau_m_targets = 20 us\nn_isis = 3\n")
        with pytest.raises(ValidationError, match="no nonzero \\[calibration\\] a sets it"):
            parse_config(text.format(spread=self.SPREAD), "experiment")
        parse_config(text.format(spread=""), "experiment")


class TestLeakOverThresholdReads:
    TEXT = ("[run]\nmodel = circuit\n[mismatch]\nsize = 2\n[experiment]\n"
            "name = leak_over_threshold\ntau_m_targets = 20 us\nn_isis = 3\n")
    SWITCHES = "[adaptation]\nenabled = true\n[exponential]\nenabled = true\n"

    def test_reads_the_switches_and_no_value_they_switch(self):
        # the run switches adaptation, the exponential and the synaptic lines
        # off; the first two switches still add mismatch draws ahead of the
        # leak's, so they are read, and the values behind them are not
        def report(run):
            return report_to_json(_run_one_experiment(run, run.experiment))

        off = report(parse_config(self.TEXT, "experiment"))
        run = parse_config(self.TEXT + self.SWITCHES, "experiment")
        on = report(run)
        assert on != off
        other = parse_config(
            "[run]\nmodel = circuit\n[adaptation]\nenabled = true\ntau_w = 50 us\n"
            "a = 20 nS\nb = 2 nA\npulse_width = 0.2 us\n[exponential]\nenabled = true\n"
            "delta_t = 30 mV\nv_t = 0.65 V\n[syn_exc]\nenabled = false\n"
            "[syn_inh]\ncoba = true\n", "simulate").circuit
        assert other != run.circuit
        assert report(replace(run, circuit=other)) == on
        for section, key in (("adaptation", "tau_w = 50 us"), ("exponential", "v_t = 0.65 V")):
            switch = f"[{section}]\nenabled = true\n"
            with pytest.raises(ValidationError, match=(
                    rf"^\[{section}\] {key.split()[0]} is not read by experiment "
                    rf"leak_over_threshold, which reads \[{section}\] enabled$")):
                parse_config(self.TEXT + self.SWITCHES.replace(switch, f"{switch}{key}\n"),
                             "experiment")
        with pytest.raises(ValidationError, match=(
                r"^\[syn_exc\] enabled is not read by experiment leak_over_threshold$")):
            parse_config(self.TEXT + "[syn_exc]\nenabled = false\n", "experiment")

    @pytest.mark.parametrize("override", ["sigma_rel_syn_exc.q_unit = 0.5",
                                          "sigma_abs_syn_inh.follower_offset = 0.05"])
    def test_spread_of_a_switched_off_line_rejected(self, override, tmp_path, cfg_path,
                                                    run_cli):
        # the lines' constants are drawn after the leak's and the run switches
        # the lines off: the report used to be that of the run without it
        out = tmp_path / "out"
        text = self.TEXT.replace("size = 2\n", f"size = 2\n{override}\n")
        result = run_cli(["experiment", "leak_over_threshold", "--config", cfg_path(text),
                          "--out", str(out)], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        key = override.split()[0]
        assert result.stderr.startswith(f"error: [mismatch] {key} is not read by experiment "
                                        "leak_over_threshold, which reads [mismatch] ")
        assert not out.exists()

    def test_each_neuron_predicted_from_its_own_constants(self):
        # every row used to hold neuron 0's prediction: with V_det spread the
        # deviations read 0.0004 / 0.0905 / -0.332 / -0.124 and the run
        # exited 1.  Each neuron's ISI is now predicted from its own
        # constants under the one command current of the median constants
        text = self.TEXT.replace("[run]\nmodel = circuit\n", (
            "[run]\nmodel = circuit\nseed = 5\n[circuit]\nV_det = 0.62 V\nV_r = 0.44 V\n")
        ).replace("size = 2\n", "size = 4\nsigma_abs_V_det = 0.02\n")
        run = parse_config(text, "experiment")
        report = _run_one_experiment(run, run.experiment)
        assert report.passed
        pop = _build_population(run).stacked()
        tau, v_det = 20e-6, np.asarray(pop.V_det)
        assert np.unique(v_det).size == 4
        g_l = run.circuit.C_mem / tau
        i_cmd = 1.6 * (float(np.median(v_det)) - run.circuit.E_l) * g_l
        v_inf = run.circuit.E_l + i_cmd / g_l
        for row, own in zip(report.per_neuron, v_det):
            closed = run.circuit.t_ref + tau * math.log(
                (v_inf - run.circuit.V_r) / (v_inf - own))
            assert row["isi_predicted"] == pytest.approx(closed, rel=1e-12)
            # a spike lands on the end of its step: within one dt = tau / 500
            assert abs(row["isi_measured"] - row["isi_predicted"]) < tau / 500
            assert abs(row["rel_dev"]) < 0.0015

    def test_reset_at_or_above_its_own_threshold_has_no_prediction(self):
        # with V_det spread by 0.2 V, neuron 2 draws a V_det below its V_r:
        # its prediction read -7.60 us and its rel_dev -1.005, and the run
        # exited 0.  Neuron 1's V_inf does not exceed its V_det
        text = self.TEXT.replace("[run]\nmodel = circuit\n", (
            "[run]\nmodel = circuit\nseed = 5\n[circuit]\nV_det = 0.62 V\nV_r = 0.44 V\n")
        ).replace("size = 2\n", "size = 4\nsigma_abs_V_det = 0.2\n")
        run = parse_config(text, "experiment")
        report = _run_one_experiment(run, run.experiment)
        v_det = np.asarray(_build_population(run).stacked().V_det)
        assert (v_det <= run.circuit.V_r).tolist() == [False, False, True, False]
        rows = report.per_neuron
        assert [math.isnan(row["isi_predicted"]) for row in rows] == [False, True, True, False]
        assert all(row["isi_predicted"] > 0 for row in (rows[0], rows[3]))
        assert math.isnan(rows[2]["rel_dev"]) and rows[2]["isi_measured"] > 0
        assert report.notes[1] == ("tau_m=2e-05: neuron 2: reset 0.44 V is not below the "
                                   f"detection threshold {v_det[2]:.6g} V")
        # the median |dev| is taken over neurons 0 and 3
        assert report.notes[2] == "tau_m=2e-05s median |dev| = " + "%.4f" % np.median(
            [rows[0]["abs_rel_dev"], rows[3]["abs_rel_dev"]])
        assert report.passed

    # V_det spread around 0.46 V, below E_l: the command current of the
    # median constants places V_inf at 0.4305 V, below the median V_det
    LOW_V_DET = "[run]\nmodel = circuit\nseed = 2\n[circuit]\nV_det = 0.46 V\nV_r = 0.3 V\n"

    def test_median_without_prediction_leaves_the_others_measured(self):
        # the median constants have no prediction; the run used to exit 1
        # with no report, although neurons 0 and 3 (V_det 0.430 and 0.411 V)
        # have one
        text = self.TEXT.replace("[run]\nmodel = circuit\n", self.LOW_V_DET).replace(
            "size = 2\n", "size = 4\nsigma_abs_V_det = 0.03\n")
        run = parse_config(text, "experiment")
        report = _run_one_experiment(run, run.experiment)
        rows = report.per_neuron
        assert [math.isnan(row["isi_predicted"]) for row in rows] == [False, True, True, False]
        for row in (rows[0], rows[3]):
            assert row["isi_measured"] > 0 and abs(row["rel_dev"]) < 0.01
        assert [note.split(":")[1] for note in report.notes[:2]] == [" neuron 1", " neuron 2"]
        assert report.passed

    def test_target_without_prediction_runs_nothing_and_fails(self, tmp_path, monkeypatch):
        # no neuron's V_inf exceeds its V_det: the rows read NaN with their
        # notes, no simulation runs, and the report is written and fails
        def no_run(*args, **kwargs):
            raise AssertionError("a target without a prediction ran a simulation")

        monkeypatch.setattr(adexsim.experiments, "simulate_population", no_run)
        text = self.TEXT.replace("[run]\nmodel = circuit\n", self.LOW_V_DET)
        path, out = tmp_path / "run.cfg", tmp_path / "out"
        path.write_text(text, encoding="utf-8")
        assert main(["experiment", "leak_over_threshold", "--config", str(path),
                     "--out", str(out)]) == 1
        report = json.loads((out / "report_leak_over_threshold.json").read_text())
        assert not report["passed"] and len(report["per_neuron"]) == 2
        for row in report["per_neuron"]:
            assert all(math.isnan(row[key]) for key in
                       ("isi_measured", "isi_predicted", "rel_dev", "abs_rel_dev"))
        assert report["notes"] == [
            f"tau_m=2e-05: neuron {i}: equilibrium 0.436 V does not exceed the detection "
            "threshold 0.46 V" for i in range(2)] + ["tau_m=2e-05s median |dev| = nan"]

    def test_spread_of_a_constant_it_reads_changes_the_report(self):
        def report(text):
            run = parse_config(text, "experiment")
            return report_to_json(_run_one_experiment(run, run.experiment))

        for override in ("sigma_rel_leak_ota.g_per_bias = 0.3", "sigma_abs_V_det = 0.01"):
            text = self.TEXT.replace("size = 2\n", f"size = 2\n{override}\n")
            assert report(text) != report(self.TEXT), override
            assert override in serialize_config(parse_config(text, "experiment"))


# every command a file can run under: (command, experiment name)
COMMANDS = [("simulate", None), ("sweep", None), ("calibrate", None),
            *(("experiment", name) for name in EXPERIMENTS)]
# the commands whose output files take a format: trace files in CSV or JSON
FORMAT_COMMANDS = {("simulate", None), ("experiment", "firing_patterns")}
# lines of the sections the parse-level property leaves out, valid or not
SECTION_LINES = {
    "calibration": ("tau_m = 30 us", "stim_gain = true", "tol = 0.05", "tol = 20 mV",
                    "plan = tau_m"),
    "events_exc": ("events = 30 us : 1.0", "events = 30 us : nan"),
    "events_inh": ("events = 10 us : 0.5", "events = 10 us"),
    "sweep": ("key = run.duration", "key = neuron.g_l", "key = circuit.tau_m",
              "values = 100 us, 200 us", "values = 0.1 uS"),
    "mismatch": ("size = 3", "size = 0", "seed = 4", "enabled = false",
                 "sigma_rel_leak_ota.g_per_bias = 0.2",
                 "sigma_rel_adaptation.ota_a.g_per_bias = 0.1", "sigma_abs_nonexistent = 0.1"),
}
NEURON = "[neuron]\nC = 2.4 pF\ng_l = 0.12 uS\nE_l = 0.5 V\nV_r = 0.44 V\nV_det = 0.62 V\n"


@st.composite
def cli_configs(draw):
    """(config text, --format value or None)."""
    model = draw(st.sampled_from(("circuit", "ideal")))
    text = f"[run]\nmodel = {model}\n" + (NEURON if model == "ideal" else "")
    if draw(st.booleans()):
        text += "[stimulus]\ncurrent = 20 nA\n"
    if draw(st.booleans()):
        text += f"[experiment]\nname = {draw(st.sampled_from(EXPERIMENTS))}\n"
    for section in draw(st.lists(st.sampled_from(sorted(SECTION_LINES)), min_size=1,
                                 max_size=3, unique=True)):
        lines = draw(st.lists(st.sampled_from(SECTION_LINES[section]), min_size=1,
                              max_size=2, unique=True))
        text += f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
    return text, draw(st.sampled_from((None, "csv", "json")))


def names_the_fault(message: str, text: str) -> bool:
    """Whether an error message names a section of `text` and one of its
    keys, that section and the `SCHEMA` keys of it the text lacks, the line
    it points at, the section the command needs or the flag."""
    if "(line " in message or "requires a [" in message or "--format" in message:
        return True
    sections = read_config_sections(text)
    missing = re.search(r"\[(\w+)\] missing required keys: (.+)", message)
    return (any(f"[{section}]" in message
                and any(re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", message)
                        for key in keys)
                for section, keys in sections.items())
            or (missing is not None and missing[1] in sections
                and all(key in SCHEMA.get(missing[1], ()) and key not in sections[missing[1]]
                        for key in missing[2].split(", "))))


class TestConfigPropertyAtTheCommandLine:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=cli_configs())
    # `sweep` on this text names the [neuron] keys it lacks: "[neuron]
    # missing required keys: V_T, Delta_T"
    @example(config=("[run]\nmodel = ideal\n" + NEURON + "[sweep]\nkey = run.duration\n", None))
    def test_invalid_config_exit_2_naming_section_and_key_without_output(
            self, tmp_path, capsys, config):
        # each command runs a generated config in-process; a config the
        # parser or the --format gate rejects must exit 2 at once, naming
        # what it rejects, and leave no output directory.  A valid one is
        # not run.
        text, fmt = config
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        flags = [] if fmt is None else ["--format", fmt]
        for command, name in COMMANDS:
            try:
                parse_config(text, command, name)
                if fmt is None or (command, name) in FORMAT_COMMANDS:
                    continue
            except (ParseError, ValidationError):
                pass
            status = main([command, *filter(None, [name]), "--config", str(path),
                           "--out", str(out), *flags])
            message = capsys.readouterr().err
            assert status == 2, (command, name, text, message)
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert names_the_fault(message, text), (command, name, text, message)
            assert not out.exists()


def per_value_trace_csv(trace) -> str:
    # the reference trace writer: one _format_float call per value
    from adexsim.cli import TRACE_COLUMNS, _format_float
    w_na = trace.w * 1e9
    lines = [",".join(TRACE_COLUMNS)]
    times = trace.times
    for k in range(len(trace.V)):
        lines.append(",".join(_format_float(v) for v in (
            times[k] * 1e6, trace.V[k] * 1e3, w_na[k],
            trace.s_exc[k], trace.s_inh[k])))
    return "\n".join(lines) + "\n"


def per_value_spikes_csv(spikes) -> str:
    # the reference spike writer: one _format_float call per spike time
    from adexsim.cli import _format_float
    lines = ["spike_time_us"]
    lines += [_format_float(t * 1e6) for t in spikes]
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("kind", ["recorded", "nan"])
    def test_row_writers_give_the_per_value_bytes(self, hw_circuit, kind):
        # the trace and spike writers format a row at a time; their bytes
        # are those of one _format_float per value
        from adexsim import SimulationTrace, StimulusProgram, simulate_circuit
        from adexsim.cli import spikes_to_csv, trace_to_csv
        trace = simulate_circuit(hw_circuit, StimulusProgram.step(20e-6, 58e-9),
                                 duration=120e-6, dt=0.04e-6)
        assert len(trace.spikes) >= 3
        if kind == "nan":
            V, w = trace.V.copy(), trace.w.copy()
            V[5], w[7], V[-1] = math.nan, math.nan, math.inf
            trace = SimulationTrace(dt=trace.dt, V=V, w=w, s_exc=trace.s_exc,
                                    s_inh=trace.s_inh,
                                    spikes=np.append(trace.spikes, math.nan))
        assert trace_to_csv(trace) == per_value_trace_csv(trace)
        assert spikes_to_csv(trace.spikes) == per_value_spikes_csv(trace.spikes)

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
