"""The three benchmark workloads.

Each workload sets up its inputs from the seed, then offers one round of
operations.  An operation is a timed call into adexsim plus an untimed
check of its output (see checks.py); the runner repeats whole rounds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import adexsim as ax
import adexsim.cli
from adexsim.config import parse_config
from adexsim.mismatch import Population

import checks

# tonic_spiking is cheap and adapts with a > 0; delayed_regular_bursting has
# a < 0, so its `a` plan entry runs the long stabilised step responses that
# dominate calibration.  The other five patterns would take ~130 s more.
PATTERNS = ("tonic_spiking", "delayed_regular_bursting")
PATTERN_POPULATION = 128
WIDTHS = (512, 1024, 2048, 4096, 8192)
WIDE_LIF_DURATION = 80e-6     # >= 4 ISIs for the weakest of 8192 neurons
WIDE_ADEX_DURATION = 120e-6   # step onset at 20 us, then ~4-6 spikes
# LIF drive as a multiple of the nominal threshold current.  At 3x the
# weakest of 8192 mismatched neurons sits just above threshold, where the
# saturating leak moves its ISI 2-4% off the closed form; at 4x the worst
# neuron is within 0.6%.
WIDE_DRIVE = 4.0
WIDE_LIF_V_DET, WIDE_LIF_V_R = 0.62, 0.44  # the thresholds of configs/lif_demo.cfg
WIDE_IDEAL_SAMPLE = 8         # AdEx neurons per width checked against `simulate`
# Ideal spikes in the window of a sampled AdEx neuron.  Near rheobase (1-3
# spikes) the ISI is ill-conditioned: a neuron whose circuit fires twice
# fired once in the ideal model, which a 0.2% stronger drive turns into two.
# At high rates (9 and more) the circuit's lag of one or two steps per ISI
# accumulates to 8% of the mean ISI.  Both are noted in CHANGES.md.
WIDE_IDEAL_SPIKES = (4, 8)
SWEEP_VALUES = 4
# the ideal LIF neuron of the sweep config below, in SI units
SWEEP_C, SWEEP_E_L, SWEEP_V_R, SWEEP_V_DET = 2.4e-12, 0.5, 0.44, 0.62
SWEEP_T_REF, SWEEP_I, SWEEP_DT = 1e-6, 30e-9, 0.05e-6


@dataclass
class Context:
    root: Path
    seed: int
    out: Path
    traced: bool


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _config(ctx: Context, name: str):
    return parse_config((ctx.root / "configs" / name).read_text())


def _without_synapses(cfg):
    return replace(cfg, syn_exc=replace(cfg.syn_exc, enabled=False),
                   syn_inh=replace(cfg.syn_inh, enabled=False))


def _lif(cfg):
    return replace(_without_synapses(cfg), V_det=WIDE_LIF_V_DET, V_r=WIDE_LIF_V_R,
                   adaptation=replace(cfg.adaptation, enabled=False),
                   exponential=replace(cfg.exponential, enabled=False))


def _has_ideal_equivalent(neuron) -> bool:
    try:
        ax.derive_effective_adex(neuron)
    except ValueError:
        return False
    return True


def _scaled(stimulus, gain: float):
    return ax.StimulusProgram(tuple((t, i * gain) for t, i in stimulus.segments))


class Workload:
    # whether the timed calls run in child processes (cli), whose peak
    # memory is then the one reported
    in_children = False

    def setup(self, ctx: Context):
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def layer_extras(self, rounds: int) -> dict:
        """Per-layer metrics the workload counts itself, per round."""
        return {}


class Patterns(Workload):
    """Calibrated 128-neuron circuit populations and the ideal model on a
    subset of the published firing patterns."""

    def setup(self, ctx):
        self.seed = ctx.seed
        shipped = ax.load_patterns()
        self.patterns = {name: shipped[name] for name in PATTERNS}

    def ops(self):
        return [self._op(name, p) for name, p in self.patterns.items()]

    def _op(self, name, pattern):
        def run():
            circuit = ax.run_firing_patterns(
                {name: pattern}, model="circuit", population_size=PATTERN_POPULATION,
                seed=self.seed, record_first=False)
            ideal = ax.run_firing_patterns({name: pattern}, model="ideal",
                                           record_first=False)
            return circuit, ideal

        def check(result):
            circuit, ideal = result
            checks.check_pattern(pattern.label,
                                 [row["label"] for row in ideal.per_neuron],
                                 [row["label"] for row in circuit.per_neuron])
        return Op(name, run, check)


class Wide(Workload):
    """Uncalibrated mismatched populations from 512 to 8192 neurons, not
    recorded: an LIF population at 4x threshold drive and the AdEx neuron
    of configs/adex_step.cfg, both with synaptic inputs off."""

    def setup(self, ctx):
        self.seed = ctx.seed
        run = _config(ctx, "adex_step.cfg")
        self.dt, self.stimulus = run.dt, run.stimulus
        nominal = run.circuit
        self.pop = ax.sample_population(
            nominal, ax.default_mismatch_model(nominal, seed=ctx.seed), max(WIDTHS))
        self.adex, self.lif = {}, {}
        for w in WIDTHS:
            stacked = Population(self.pop.neurons[:w]).stacked()
            self.adex[w] = _without_synapses(stacked)
            self.lif[w] = _lif(stacked)
        self.lif_current = WIDE_DRIVE * nominal.g_l * (WIDE_LIF_V_DET - nominal.E_l)
        self._derived = None
        self._ideal = {}
        self._samples = {}
        self._alone = {}

    def ops(self):
        lif = ax.StimulusProgram.constant(self.lif_current)
        return ([self._op("lif", w, self.lif[w], lif, WIDE_LIF_DURATION) for w in WIDTHS]
                + [self._op("adex", w, self.adex[w], self.stimulus, WIDE_ADEX_DURATION)
                   for w in WIDTHS])

    def _op(self, kind, w, cfg, stimulus, duration):
        def run():
            return ax.simulate_population(cfg, w, stimulus, duration=duration, dt=self.dt)

        def check(result):
            if kind == "lif":
                checks.check_lif_population(result.spikes, self._lif_closed_form(w))
            else:
                for i in self._sample(w):
                    checks.check_spike_match(result.spikes[i], self._ideal_spikes(i),
                                             checks.ADEX_ISI_FRACTION,
                                             t_end=WIDE_ADEX_DURATION)
            j = int(self._sample(w)[0])
            alone = self._alone_run(kind, j, stimulus, duration)
            checks.check_batch_invariance(alone.spikes[0], result.spikes[j],
                                          alone.final_state.V_m[0],
                                          result.final_state.V_m[j])
        return Op(f"{kind}.w{w}", run, check)

    def _sample(self, w):
        """Seeded sample of the first w neurons that have an ideal AdEx
        equivalent (see the FOUND note on derive_effective_adex) firing
        within WIDE_IDEAL_SPIKES in the window."""
        if w not in self._samples:
            candidates = self._references()["adex_ok"][:w].nonzero()[0]
            lo, hi = WIDE_IDEAL_SPIKES
            picked = []
            for i in np.random.default_rng([self.seed, w]).permutation(candidates):
                if lo <= len(self._ideal_spikes(i)) <= hi:
                    picked.append(int(i))
                    if len(picked) == WIDE_IDEAL_SAMPLE:
                        break
            self._samples[w] = picked
        return self._samples[w]

    def _references(self):
        """Derived LIF parameters of every neuron, and which neurons the
        ideal model can represent with their exponential on."""
        if self._derived is None:
            lif = [ax.derive_effective_adex(_lif(n)) for n in self.pop.neurons]
            ref = {k: np.array([getattr(p, k) for p in lif], dtype=float)
                   for k in ("C", "g_l", "E_l", "V_r", "V_det", "t_ref")}
            ref["gain"] = np.array([n.stim_gain * n.stim_trim for n in self.pop.neurons])
            ref["adex_ok"] = np.array([_has_ideal_equivalent(n) for n in self.pop.neurons])
            self._derived = ref
        return self._derived

    def _lif_closed_form(self, w):
        d = {k: v[:w] for k, v in self._references().items()}
        v_inf = d["E_l"] + self.lif_current * d["gain"] / d["g_l"]
        return checks.lif_isi(d["t_ref"], d["C"] / d["g_l"], v_inf, d["V_r"], d["V_det"])

    def _ideal_spikes(self, i):
        if i not in self._ideal:
            neuron = self.pop.neurons[i]
            params = ax.derive_effective_adex(neuron)
            stim = _scaled(self.stimulus, neuron.stim_gain * neuron.stim_trim)
            self._ideal[i] = ax.simulate(params, stim, duration=WIDE_ADEX_DURATION,
                                         dt=self.dt).spikes
        return self._ideal[i]

    def _alone_run(self, kind, j, stimulus, duration):
        if (kind, j) not in self._alone:
            one = Population([self.pop.neurons[j]]).stacked()
            cfg = _lif(one) if kind == "lif" else _without_synapses(one)
            self._alone[kind, j] = ax.simulate_population(cfg, 1, stimulus,
                                                          duration=duration, dt=self.dt)
        return self._alone[kind, j]


class Cli(Workload):
    """The command line as users run it, one child process at a time."""

    in_children = True

    def setup(self, ctx):
        self.ctx = ctx
        ctx.out.mkdir(parents=True, exist_ok=True)
        configs = ctx.root / "configs"
        self.sweep_cfg = ctx.out / "sweep_lif.cfg"
        # rounded to the digits the config is written with, so that the
        # closed form sees the conductances the program parses
        self.sweep_g = np.sort(np.round(
            np.random.default_rng(ctx.seed).uniform(0.08, 0.16, SWEEP_VALUES), 5))
        self.sweep_cfg.write_text(SWEEP_TEMPLATE.format(
            values=", ".join("%.5f uS" % g for g in self.sweep_g)))
        self.calls = [
            ("adex_a", ["simulate", "--config", str(configs / "adex_step.cfg")]),
            ("adex_b", ["simulate", "--config", str(configs / "adex_step.cfg")]),
            ("lif", ["simulate", "--config", str(configs / "lif_demo.cfg")]),
            ("sweep", ["sweep", "--config", str(self.sweep_cfg), "--jobs", "2"]),
            ("calibrate", ["calibrate", "--config", str(configs / "calibrate_tau.cfg")]),
        ]
        self.output_bytes = 0
        self._refs = {}

    @staticmethod
    def startup_command():
        return [sys.executable, "-m", "adexsim.cli", "--version"]

    def ops(self):
        return [self._op(name, argv) for name, argv in self.calls]

    def _op(self, name, argv):
        out = self.ctx.out / name
        argv = argv + ["--out", str(out), "--seed", str(self.ctx.seed)]

        def run():
            shutil.rmtree(out, ignore_errors=True)
            if self.ctx.traced:
                status = adexsim.cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"adexsim {argv[0]} exited {status}")
            else:
                proc = subprocess.run([sys.executable, "-m", "adexsim.cli", *argv],
                                      cwd=self.ctx.root, env=child_env(self.ctx.root),
                                      capture_output=True, text=True, timeout=150)
                if proc.returncode != 0:
                    raise RuntimeError(f"adexsim {argv[0]} exited {proc.returncode}: "
                                       f"{proc.stderr[-500:]}")
            return out

        def check(out_dir):
            self.output_bytes += sum(p.stat().st_size for p in out_dir.rglob("*")
                                     if p.is_file())
            if name in ("adex_a", "adex_b"):
                checks.check_spike_match(
                    checks.read_spike_csv((out_dir / "spikes.csv").read_text()),
                    self._ideal("adex_step.cfg"), checks.CLI_ADEX_ISI_FRACTION)
                if name == "adex_b":
                    checks.check_identical_dirs(self.ctx.out / "adex_a", out_dir)
            elif name == "lif":
                checks.check_identical_spike_csv((out_dir / "spikes.csv").read_text(),
                                                 self._ideal("lif_demo.cfg"))
            elif name == "sweep":
                checks.check_sweep((out_dir / "sweep_summary.csv").read_text(),
                                   self._sweep_closed_form(), SWEEP_DT)
            else:
                checks.check_calibration(json.loads((out_dir / "calibration.json").read_text()))
        return Op(name, run, check)

    def _ideal(self, config_name):
        """Ideal model on the parameters derived from the config's circuit."""
        if config_name not in self._refs:
            run = _config(self.ctx, config_name)
            params = ax.derive_effective_adex(run.circuit)
            self._refs[config_name] = ax.simulate(params, run.stimulus,
                                                  duration=run.duration, dt=run.dt).spikes
        return self._refs[config_name]

    def _sweep_closed_form(self):
        g = self.sweep_g * 1e-6
        return checks.lif_isi(SWEEP_T_REF, SWEEP_C / g, SWEEP_E_L + SWEEP_I / g,
                              SWEEP_V_R, SWEEP_V_DET)

    def layer_extras(self, rounds):
        return {"cli.output_bytes": self.output_bytes // rounds}


SWEEP_TEMPLATE = """\
# Ideal leaky integrate-and-fire neuron swept over its leak conductance.
[run]
mode = sweep
model = ideal
dt = 0.05 us
duration = 300 us

[neuron]
C = 2.4 pF
g_l = 0.12 uS
E_l = 0.5 V
V_r = 0.44 V
V_det = 0.62 V
t_ref = 1 us
exp_enabled = false

[stimulus]
current = 30 nA

[sweep]
key = neuron.g_l
values = {values}
"""


def child_env(root: Path) -> dict:
    """The environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {"patterns": Patterns, "wide": Wide, "cli": Cli}
