"""Spans around the public functions of each adexsim module, recorded from
outside the package.

`install` replaces a function by a timing wrapper in every loaded
``adexsim`` module that holds it (``from .circuit import simulate_population``
binds the name in several modules), so calls between modules are traced
too.  Spans are kept in memory; `layer_metrics` turns them into the
per-layer metrics of the benchmark.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# plan entries of adexsim.calibrate, by the module function that runs them
CALIBRATE_ENTRIES = {
    "_entry_tau_m": "tau_m", "_entry_stim_gain": "stim_gain",
    "_entry_delta_t": "delta_t", "_entry_tau_w": "tau_w", "_entry_a": "a",
    "_entry_b": "b",
}
ENTRY_NAMES = ("tau_m", "stim_gain", "delta_t", "v_t", "tau_w", "a", "b")
MEASURE_FNS = ("measure_tau_m", "measure_stim_gain", "measure_delta_t",
               "measure_exp_onset", "measure_tau_w", "measure_subthreshold_a",
               "measure_b")
CLI_COMMANDS = ("simulate", "sweep", "calibrate")
RECORDED_ARRAYS = 4  # V, V_w, s_exc and s_inh per recorded step and neuron


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans of one thread nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.phase = "setup"

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, layer: str, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(id=len(self.spans), parent=stack[-1].id if stack else None,
                        layer=layer, name=name, start=time.perf_counter(),
                        attrs={"phase": self.phase})
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, layer, name, fn, after=None):
        """Timing wrapper; `name` is a string or a function of the call's
        arguments, `after(span, args, kwargs, result)` adds attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(layer, name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                self.end(span)
        return wrapper


def _patch_everywhere(original, wrapper):
    """Rebind `original` to `wrapper` in every loaded adexsim module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "adexsim" or modname.startswith("adexsim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _n_steps(duration, dt) -> int:
    return int(round(duration / dt))


def install(tracer: Tracer):
    """Wrap the public functions of each layer; returns nothing, patches
    the loaded modules in place."""
    from adexsim import calibrate, circuit, cli, config, experiments, measure, mismatch, model

    def circuit_after(span, args, kwargs, run):
        n = int(_arg(args, kwargs, 1, "n"))
        steps = _n_steps(kwargs["duration"], kwargs["dt"])
        span.attrs.update(n=n, steps=steps, spikes=sum(len(s) for s in run.spikes),
                          record_bytes=(RECORDED_ARRAYS * (steps + 1) * n * 8
                                        if kwargs.get("record") else 0))

    _patch_everywhere(circuit.simulate_population, tracer.wrap(
        "circuit", "simulate_population", circuit.simulate_population, circuit_after))

    _patch_everywhere(mismatch.sample_population, tracer.wrap(
        "mismatch", "sample", mismatch.sample_population))
    pop_cls = mismatch.Population
    pop_cls.stacked = tracer.wrap("mismatch", "stack", pop_cls.stacked)
    pop_cls.from_stacked = classmethod(tracer.wrap(
        "mismatch", "unstack", pop_cls.__dict__["from_stacked"].__func__))

    def measure_after(span, args, kwargs, values):
        span.attrs["nan"] = int(np.count_nonzero(np.isnan(np.atleast_1d(
            np.asarray(values, dtype=float)))))

    for fn_name in MEASURE_FNS:
        fn = getattr(measure, fn_name, None)
        if fn is not None:
            _patch_everywhere(fn, tracer.wrap("measure", fn_name, fn, measure_after))

    def calibrate_after(span, args, kwargs, result):
        span.attrs["outcomes"] = {
            name: (oc.evaluations, int(np.count_nonzero(oc.converged)), len(oc.converged))
            for name, oc in result.outcomes.items()}
        failures = {}
        for line in result.failures:
            entry = line.split(",", 1)[1].split(":", 1)[0].strip()
            failures[entry] = failures.get(entry, 0) + 1
        span.attrs["failures"] = failures

    _patch_everywhere(calibrate.calibrate_population, tracer.wrap(
        "calibrate", "calibrate_population", calibrate.calibrate_population,
        calibrate_after))
    # plan entries are looked up in the module namespace on every call
    for fn_name, entry in CALIBRATE_ENTRIES.items():
        fn = getattr(calibrate, fn_name, None)
        if fn is not None:
            setattr(calibrate, fn_name, tracer.wrap("calibrate", f"entry.{entry}", fn))
    make_v_t = getattr(calibrate, "_make_entry_v_t", None)
    if make_v_t is not None:
        calibrate._make_entry_v_t = lambda g_l_ref: tracer.wrap(
            "calibrate", "entry.v_t", make_v_t(g_l_ref))

    def patterns_name(args, kwargs):
        sets = _arg(args, kwargs, 0, "parameter_sets") or {}
        return "patterns:" + ",".join(sets)

    _patch_everywhere(experiments.run_firing_patterns, tracer.wrap(
        "experiments", patterns_name, experiments.run_firing_patterns))

    _patch_everywhere(experiments.classify_firing_pattern, tracer.wrap(
        "experiments", "classify", experiments.classify_firing_pattern))

    def model_after(span, args, kwargs, trace):
        span.attrs["steps"] = _n_steps(kwargs["duration"], kwargs["dt"])

    _patch_everywhere(model.simulate, tracer.wrap("model", "simulate", model.simulate,
                                                  model_after))

    def cli_name(args, kwargs):
        argv = _arg(args, kwargs, 0, "argv")
        return f"command.{argv[0]}"

    _patch_everywhere(cli.main, tracer.wrap("cli", cli_name, cli.main))
    for fn in (config.parse_config, config.serialize_config):
        _patch_everywhere(fn, tracer.wrap("cli", "config", fn))
    for fn in (cli.trace_to_csv, cli.report_to_json):
        _patch_everywhere(fn, tracer.wrap("cli", "serialize", fn))


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct child spans cover."""
    covered: dict = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - covered.get(s.id, 0.0) for s in spans}


def layer_metrics(spans, rounds: int, patterns=(), widths=(), extra=None) -> dict:
    """Per-layer metrics: set-up spans once plus the per-round mean of the
    spans recorded in the timed rounds.  Counts of identical rounds divide
    exactly."""
    def per_round(select, value):
        setup = sum(value(s) for s in spans if s.attrs["phase"] == "setup" and select(s))
        timed = sum(value(s) for s in spans if s.attrs["phase"] == "run" and select(s))
        total = setup + timed / rounds
        return int(round(total)) if isinstance(setup + timed, int) else float(total)

    dur = lambda s: s.end - s.start
    is_ = lambda layer, name=None: (lambda s: s.layer == layer
                                    and (name is None or s.name == name))
    attr = lambda key: (lambda s: s.attrs.get(key, 0))
    out = {}

    circ = is_("circuit")
    steps = per_round(circ, attr("steps"))
    neuron_steps = per_round(circ, lambda s: s.attrs["steps"] * s.attrs["n"])
    busy = per_round(circ, dur)
    out.update({
        "circuit.calls": per_round(circ, lambda s: 1),
        "circuit.steps": steps,
        "circuit.neuron_steps": neuron_steps,
        "circuit.spikes": per_round(circ, attr("spikes")),
        "circuit.busy_s": busy,
        "circuit.us_per_step": busy / steps * 1e6 if steps else 0.0,
        "circuit.ns_per_neuron_step": busy / neuron_steps * 1e9 if neuron_steps else 0.0,
        "circuit.record_mib": per_round(circ, attr("record_bytes")) / 2 ** 20,
    })
    for w in widths:
        sel = lambda s, w=w: s.layer == "circuit" and s.attrs["n"] == w
        w_steps = per_round(sel, attr("steps"))
        out[f"circuit.w{w}.us_per_step"] = (per_round(sel, dur) / w_steps * 1e6
                                            if w_steps else 0.0)

    for key, name in (("sample_s", "sample"), ("stack_s", "stack"),
                      ("unstack_s", "unstack")):
        out[f"mismatch.{key}"] = per_round(is_("mismatch", name), dur)

    for fn in MEASURE_FNS:
        sel = is_("measure", fn)
        ids = {s.id for s in spans if sel(s)}
        out[f"measure.{fn}.calls"] = per_round(sel, lambda s: 1)
        out[f"measure.{fn}.busy_s"] = per_round(sel, dur)
        out[f"measure.{fn}.engine_steps"] = per_round(
            lambda s: s.layer == "circuit" and s.parent in ids, attr("steps"))
        out[f"measure.{fn}.nan"] = per_round(sel, attr("nan"))

    cal = is_("calibrate", "calibrate_population")
    for entry in ENTRY_NAMES:
        out[f"calibrate.{entry}.busy_s"] = per_round(is_("calibrate", f"entry.{entry}"), dur)
        out[f"calibrate.{entry}.evaluations"] = per_round(
            cal, lambda s, e=entry: s.attrs.get("outcomes", {}).get(e, (0, 0, 0))[0])
        out[f"calibrate.{entry}.failures"] = per_round(
            cal, lambda s, e=entry: s.attrs.get("failures", {}).get(e, 0))
    own = self_times(spans)
    out["calibrate.self_s"] = per_round(is_("calibrate"), lambda s: own[s.id])
    converged = per_round(cal, lambda s: sum(v[1] for v in s.attrs.get("outcomes", {}).values()))
    attempted = per_round(cal, lambda s: sum(v[2] for v in s.attrs.get("outcomes", {}).values()))
    out["calibrate.converged_ratio"] = converged / attempted if attempted else 0.0

    for pattern in patterns:
        out[f"experiments.{pattern}.s"] = per_round(
            is_("experiments", f"patterns:{pattern}"), dur)
    out["experiments.classify_s"] = per_round(is_("experiments", "classify"), dur)

    sim = is_("model", "simulate")
    m_steps = per_round(sim, attr("steps"))
    out["model.calls"] = per_round(sim, lambda s: 1)
    out["model.steps"] = m_steps
    out["model.us_per_step"] = per_round(sim, dur) / m_steps * 1e6 if m_steps else 0.0

    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = per_round(is_("cli", f"command.{command}"), dur)
    out["cli.config_s"] = per_round(is_("cli", "config"), dur)
    out["cli.serialize_s"] = per_round(is_("cli", "serialize"), dur)
    out.update(extra or {})
    return out
