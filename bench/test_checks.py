"""Each benchmark check rejects a wrong output.

Every test runs a real operation at reduced size, corrupts its output the
way a fault would, and expects the runner to count a failed operation;
the uncorrupted output is the control.  Run with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def corrupted(op, corrupt):
    """The same operation with its output passed through `corrupt`."""
    return workloads.Op(op.name, lambda: corrupt(op.run()), op.check)


def expect_failure(op, capsys, message):
    ok, _, _ = run.attempt(op)
    assert not ok
    assert message in capsys.readouterr().err


def shifted(trains, factor):
    return [np.asarray(s) * factor for s in trains]


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(root=ROOT, seed=5, out=tmp_path / "out", traced=False)


@pytest.fixture
def small_wide(ctx, monkeypatch):
    monkeypatch.setattr(workloads, "WIDTHS", (24,))
    monkeypatch.setattr(workloads, "WIDE_IDEAL_SAMPLE", 3)
    wide = workloads.Wide()
    wide.setup(ctx)
    return wide.ops()


def test_lif_population_rejects_shifted_train(small_wide, capsys):
    lif = small_wide[0]
    assert run.attempt(lif)[0]
    bad = corrupted(lif, lambda r: dataclasses.replace(r, spikes=shifted(r.spikes, 1.04)))
    expect_failure(bad, capsys, "off the closed form")


def test_adex_sample_rejects_shifted_train(small_wide, capsys):
    adex = small_wide[1]
    assert run.attempt(adex)[0]
    bad = corrupted(adex, lambda r: dataclasses.replace(r, spikes=shifted(r.spikes, 1.05)))
    expect_failure(bad, capsys, "of the mean ISI")


def test_batch_column_rejects_changed_neuron(small_wide, capsys):
    def nudge(r):
        v = np.array(r.final_state.V_m, copy=True)
        v += 1e-12
        return dataclasses.replace(r, final_state=dataclasses.replace(r.final_state, V_m=v))
    expect_failure(corrupted(small_wide[0], nudge), capsys, "differs from its column")


def test_pattern_rejects_flipped_label(ctx, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "PATTERNS", ("tonic_spiking",))
    monkeypatch.setattr(workloads, "PATTERN_POPULATION", 8)
    patterns = workloads.Patterns()
    patterns.setup(ctx)
    op = patterns.ops()[0]
    result = op.run()
    op.check(result)

    def flip(which):
        def corrupt(_):
            reports = [dataclasses.replace(r, per_neuron=[dict(row) for row in r.per_neuron])
                       for r in result]
            for row in reports[which].per_neuron:
                row["label"] = "adaptation"
            return tuple(reports)
        return corrupted(workloads.Op(op.name, lambda: None, op.check), corrupt)
    expect_failure(flip(1), capsys, "ideal label")
    expect_failure(flip(0), capsys, "circuit agreement")


@pytest.fixture
def cli(ctx):
    workload = workloads.Cli()
    workload.setup(ctx)
    return {op.name: op for op in workload.ops()}


def test_cli_rejects_shifted_spikes(cli, capsys):
    op = cli["adex_a"]
    assert run.attempt(op)[0]

    def shift(out):
        path = out / "spikes.csv"
        times = checks.read_spike_csv(path.read_text()) * 1.02
        path.write_text("spike_time_us\n" + "".join("%.9g\n" % (t * 1e6) for t in times))
        return out
    expect_failure(corrupted(op, shift), capsys, "of the mean ISI")


def test_cli_rejects_one_byte_change_in_rerun(cli, capsys):
    assert run.attempt(cli["adex_a"])[0]
    assert run.attempt(cli["adex_b"])[0]

    def flip_byte(out):
        path = out / "trace.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return out
    expect_failure(corrupted(cli["adex_b"], flip_byte), capsys, "not byte-identical")


def test_cli_rejects_sweep_isi_off_by_dt(cli, capsys):
    op = cli["sweep"]
    assert run.attempt(op)[0]

    def delay(out):
        path = out / "sweep_summary.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "%.9g" % (float(cells[3]) + 3 * workloads.SWEEP_DT * 1e6)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return out
    expect_failure(corrupted(op, delay), capsys, "closed form")


def test_cli_rejects_unconverged_calibration(cli, capsys):
    op = cli["calibrate"]
    assert run.attempt(op)[0]

    def unconverge(out):
        path = out / "calibration.json"
        payload = json.loads(path.read_text())
        payload["outcomes"]["tau_m"]["converged"][0] = False
        path.write_text(json.dumps(payload))
        return out
    expect_failure(corrupted(op, unconverge), capsys, "not every neuron converged")


def test_identical_lif_spikes_reject_one_changed_time():
    ideal = np.array([10e-6, 20e-6, 30e-6])
    good = "spike_time_us\n10\n20\n30\n"
    checks.check_identical_spike_csv(good, ideal)
    with pytest.raises(checks.CheckFailed):
        checks.check_identical_spike_csv("spike_time_us\n10\n20.04\n30\n", ideal)


def test_spike_match_excuses_only_a_spike_at_the_window_end():
    ideal = np.array([20e-6, 40e-6, 60e-6, 80e-6])
    late = ideal[:3] + 0.04e-6  # the fourth circuit spike falls past 80 us
    checks.check_spike_match(late, ideal, 0.10, t_end=80e-6)
    with pytest.raises(checks.CheckFailed, match="circuit spikes"):
        checks.check_spike_match(late, ideal, 0.10)
    with pytest.raises(checks.CheckFailed, match="circuit spikes"):
        checks.check_spike_match(late, ideal, 0.10, t_end=100e-6)
    with pytest.raises(checks.CheckFailed, match="circuit spikes"):
        checks.check_spike_match(late[:2], ideal, 0.10, t_end=80e-6)
