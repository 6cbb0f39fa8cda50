"""Command-line front end: config parsing, experiment dispatch, seeding,
and trace/report serialization.

Subcommands: simulate, calibrate, experiment <name>, sweep.  Outputs are
CSV traces (time column plus per-quantity columns, units in the header)
and structured JSON reports; identical configs and seeds produce
byte-identical files.  The ADEXSIM_OUT environment variable overrides the
default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .calibrate import calibrate_population
from .circuit import simulate_circuit
from .config import (
    _READS, _SPREADS, EXPERIMENTS, RunConfig, _label, parse_config, serialize_config,
)
from .errors import AdexSimError, ParseError, ValidationError
from .experiments import (
    LotProtocol, PspProtocol, run_exponential_sweep, run_firing_patterns,
    run_leak_over_threshold, run_psp_experiment,
)
from .mismatch import (
    MismatchModel, Population, _OutOfDomain, default_mismatch_model, sample_population,
)
from .model import simulate
from .patterns import load_patterns

OUTPUT_DIR_ENV = "ADEXSIM_OUT"

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_USAGE = 2


# every float the CSV and sweep outputs write
FLOAT_FORMAT = "%.9g"


def _format_float(x: float) -> str:
    return FLOAT_FORMAT % x


# the columns of a trace CSV, units in the names
TRACE_COLUMNS = ["time_us", "V_mV", "w_nA", "s_exc", "s_inh"]


def trace_to_csv(trace) -> str:
    """Self-describing CSV: time plus per-quantity columns with units."""
    # one %-format per row over the columns as Python floats: the bytes of
    # _format_float on each value
    columns = (trace.times * 1e6, trace.V * 1e3, trace.w * 1e9, trace.s_exc, trace.s_inh)
    row = ",".join([FLOAT_FORMAT] * len(columns))
    lines = [",".join(TRACE_COLUMNS)]
    lines += [row % values for values in zip(*(np.asarray(c).tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def csv_to_trace(text: str):
    """Re-ingest a trace CSV written by trace_to_csv."""
    from .model import SimulationTrace

    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    if header != TRACE_COLUMNS:
        raise ValidationError(f"unexpected CSV columns {header}, need {TRACE_COLUMNS}")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if len(data) < 2:
        raise ValidationError("trace CSV needs at least two samples")
    dt = (data[1, 0] - data[0, 0]) * 1e-6
    return SimulationTrace(dt=dt, V=data[:, 1] * 1e-3, w=data[:, 2] * 1e-9,
                           s_exc=data[:, 3], s_inh=data[:, 4],
                           spikes=np.array([]))


def spikes_to_csv(spikes) -> str:
    lines = ["spike_time_us"]
    lines += [FLOAT_FORMAT % t for t in (np.asarray(spikes, dtype=float) * 1e6).tolist()]
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def report_to_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True,
                      default=_json_default) + "\n"


class _Output:
    """Collects files in memory and writes them all at the end, so a failed
    run leaves no partial outputs."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: dict = {}

    def add(self, name: str, content: str):
        self.files[name] = content

    def flush(self):
        os.makedirs(self.out_dir, exist_ok=True)
        for name, content in sorted(self.files.items()):
            path = os.path.join(self.out_dir, name)
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)


def _build_population(run: RunConfig) -> Population:
    nominal = run.circuit
    if run.mismatch_enabled:
        mm = default_mismatch_model(nominal, seed=(
            run.seed if run.mismatch_seed is None else run.mismatch_seed))
        mm = replace(mm, **{spreads: {**getattr(mm, spreads), **sigmas}
                            for spreads, sigmas in run.mismatch_overrides.items()})
    else:
        mm = MismatchModel(seed=run.seed)
    try:
        return sample_population(nominal, mm, run.mismatch_size)
    except _OutOfDomain as err:
        sigma = run.mismatch_overrides.get(err.spreads, {}).get(err.path)
        prefix = next(p for p, spreads in _SPREADS.items() if spreads == err.spreads)
        spread = (f"the default {err.spreads} spread of {err.path}" if sigma is None
                  else f"{prefix}{err.path} = {sigma:g}")
        raise ValidationError(f"[mismatch] {spread} draws {err.path} outside its domain "
                              f"({err.__cause__})") from err


def _simulate(run: RunConfig):
    """The trace of the run's one neuron under its stimulus."""
    if run.model == "ideal":
        return simulate(run.neuron, run.stimulus, duration=run.duration, dt=run.dt)
    return simulate_circuit(run.circuit, run.stimulus, syn_events=run.events,
                            duration=run.duration, dt=run.dt)


def _cmd_simulate(run: RunConfig, out: _Output) -> int:
    trace = _simulate(run)
    if run.fmt == "csv":
        out.add("trace.csv", trace_to_csv(trace))
        out.add("spikes.csv", spikes_to_csv(trace.spikes))
    else:
        payload = {
            "dt_us": trace.dt * 1e6,
            "V_mV": (trace.V * 1e3).tolist(),
            "w_nA": (trace.w * 1e9).tolist(),
            "spikes_us": (trace.spikes * 1e6).tolist(),
        }
        out.add("trace.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    summary = {
        "mode": "simulate", "model": run.model, "seed": run.seed,
        "n_spikes": int(len(trace.spikes)),
        "V_final_mV": float(trace.V[-1] * 1e3),
    }
    out.add("summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_calibrate(run: RunConfig, out: _Output) -> int:
    pop = _build_population(run)
    result = calibrate_population(pop, run.calibration, tol=run.calibration_tol)
    payload = {"size": pop.size, "failures": result.failures, "outcomes": {}}
    for name, oc in result.outcomes.items():
        payload["outcomes"][name] = {
            "bias_path": oc.bias_path,
            "biases": oc.biases.tolist(),
            "residuals": oc.residuals.tolist(),
            "converged": oc.converged.astype(bool).tolist(),
            "pre_spread": oc.pre_spread,
            "post_spread": oc.post_spread,
            "evaluations": oc.evaluations,
        }
    out.add("calibration.json",
            json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")
    return EXIT_OK if result.all_converged else EXIT_GATE_FAILED


# the time constants of a leak-over-threshold config that names none
_LOT_TAU_M_TARGETS = (10e-6, 31.6e-6, 100e-6, 316e-6, 900e-6)


def _run_one_experiment(run: RunConfig, spec: dict):
    """Run the named experiment with the keys the config sets; the
    experiment's own defaults fill the rest.  `parse_config` admits only
    the keys the experiment reads, and each of them is forwarded here."""
    name = spec["name"]
    args = {key: value for key, value in spec.items() if key != "name"}
    if name == "leak_over_threshold":
        targets = args.pop("tau_m_targets", _LOT_TAU_M_TARGETS)
        if "v_inf" in args:
            cfg = run.circuit
            args["v_inf_margin"] = (args.pop("v_inf") - cfg.E_l) / (cfg.V_det - cfg.E_l)
        return run_leak_over_threshold(_build_population(run), targets, LotProtocol(**args))
    if name == "psp":
        events = {"n_events": args.pop("n_events")} if "n_events" in args else {}
        try:
            proto = PspProtocol(**args)
        except ValueError as err:
            raise ValidationError(f"[experiment] {err}") from None
        pop = _build_population(run)
        if run.calibration is not None:
            pop = calibrate_population(pop, run.calibration, tol=run.calibration_tol).population
        return run_psp_experiment(pop, proto, **events)
    if name == "exponential_sweep":
        cfg = run.circuit
        if not cfg.exponential.enabled:
            raise ValidationError("exponential_sweep requires [exponential] enabled = true")
        return run_exponential_sweep(cfg, **args)
    # firing_patterns, the last of `EXPERIMENTS`
    patterns = load_patterns()
    if "patterns" in args:
        unknown = [w for w in args["patterns"] if w not in patterns]
        if unknown:
            raise ValidationError(f"unknown patterns: {', '.join(unknown)}")
        patterns = {k: patterns[k] for k in args.pop("patterns")}
    return run_firing_patterns(
        patterns, model=run.model,
        population_size=args.pop("population", run.mismatch_size),
        seed=run.seed, **args)


def _cmd_experiment(run: RunConfig, out: _Output) -> int:
    report = _run_one_experiment(run, run.experiment)
    safe_name = report.name.replace("[", "_").replace("]", "")
    out.add(f"report_{safe_name}.json", report_to_json(report))
    for key, trace in sorted(report.traces.items()):
        if run.fmt == "csv":
            out.add(f"trace_{key}.csv", trace_to_csv(trace))
    return EXIT_OK if report.passed in (True, None) else EXIT_GATE_FAILED


def _cmd_sweep(run: RunConfig, out: _Output) -> int:
    section, _, name = run.sweep["key"].partition(".")
    summary_rows = ["index,value,n_spikes,median_isi_us"]
    for idx, value in enumerate(run.sweep["values"]):
        # parse_config admits only neuron.* and run.* keys the run reads
        point = (replace(run, neuron=replace(run.neuron, **{name: value}))
                 if section == "neuron" else replace(run, **{name: value}))
        trace = _simulate(point)
        out.add(f"sweep_{idx:03d}.csv", trace_to_csv(trace))
        isis = np.diff(trace.spikes)
        med = float(np.median(isis)) * 1e6 if len(isis) else float("nan")
        summary_rows.append(
            f"{idx},{_format_float(value)},{len(trace.spikes)},{_format_float(med)}")
    out.add("sweep_summary.csv", "\n".join(summary_rows) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adexsim",
        description="Behavioral simulator of an analog AdEx neuron")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("simulate", "calibrate", "sweep"):
        p = sub.add_parser(cmd)
        _common_args(p)
    p = sub.add_parser("experiment")
    p.add_argument("name", choices=EXPERIMENTS)
    _common_args(p)
    return parser


def _common_args(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for compatibility and has no effect: "
                        "every command runs sequentially")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        run = parse_config(text, args.command, getattr(args, "name", None))
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError(f"--seed must be >= 0, got {args.seed}")
            run.seed = args.seed
        if args.fmt is not None:
            reading = (run.mode, run.experiment.get("name"), run.model)
            if "format" not in _READS[reading]["run"]:
                raise ValidationError(f"--format is not read by {_label(*reading)}")
            run.fmt = args.fmt
        out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or (
            "adexsim-out" if run.out_dir is None else run.out_dir)
        parent = os.path.dirname(os.path.abspath(out_dir))
        if not os.path.isdir(parent):
            print(f"error: output location {parent!r} does not exist",
                  file=sys.stderr)
            return EXIT_USAGE
        out = _Output(out_dir)
        out.add("config.resolved.cfg", serialize_config(run))
        if args.command == "simulate":
            status = _cmd_simulate(run, out)
        elif args.command == "calibrate":
            status = _cmd_calibrate(run, out)
        elif args.command == "experiment":
            status = _cmd_experiment(run, out)
        else:
            status = _cmd_sweep(run, out)
        out.flush()
        return status
    except (ParseError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except AdexSimError as err:
        print(json.dumps({"failure": str(err)}, sort_keys=True), file=sys.stderr)
        return EXIT_GATE_FAILED


if __name__ == "__main__":
    sys.exit(main())
