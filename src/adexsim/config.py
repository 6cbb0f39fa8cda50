"""Config-file grammar, validation and serialization.

The format is line based:

    # comment (also ;)
    [section]
    key = value

Values carry mandatory unit suffixes for dimensioned quantities
("0.5 V", "20 us", "60 nA", "2.47 pF", "0.1 uS"); lists are
comma-separated; time-tagged pairs use "time : value".  Unknown sections
or keys are errors, as are missing units or wrong dimensions.  The exact
schema is in SCHEMA below and documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .calibrate import DEFAULT_PLAN, CalibrationTarget
from .circuit import CircuitNeuronConfig, circuit_for_adex, default_circuit_config
from .errors import ParseError, ValidationError
from .model import AdExParameters, StimulusProgram
from .synapse import WeightedSpikeTrain
from .units import format_quantity, parse_quantity

DEFAULT_SEED = 12345


def read_config_sections(text: str):
    """Low-level reader: returns {section: {key: (raw_value, line_no)}}.

    Raises ParseError with line/column positions for malformed lines.
    """
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError("malformed section header", lineno, raw.index("[") + 1)
            name = line[1:-1].strip()
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        if current is None:
            raise ParseError("key outside of any section", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", lineno, 1)
        if key in current:
            raise ParseError(f"duplicate key {key!r}", lineno)
        current[key] = (value, lineno)
    return sections


def _parse_bool(text, line):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"expected a boolean, got {text!r}", line)


def _parse_list(text, dimension, line):
    return tuple(parse_quantity(part, dimension, line)
                 for part in text.split(",") if part.strip())


def _parse_pairs(text, dim_left, dim_right, line):
    """Comma-separated "left : right" pairs."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"expected 'time : value' pair, got {part!r}", line)
        left, _, right = part.partition(":")
        pairs.append((parse_quantity(left, dim_left, line),
                      parse_quantity(right, dim_right, line)))
    return tuple(pairs)


def _parse_names(text, line):
    return tuple(part.strip() for part in text.split(",") if part.strip())


# schema: section -> key -> (kind, dimension)
# kinds: quantity, bool, int, string, list, pairs, names
SCHEMA = {
    "run": {
        "mode": ("string", ("simulate", "calibrate", "experiment", "sweep")),
        "model": ("string", ("ideal", "circuit")),
        "seed": ("int", None),
        "dt": ("quantity", "time"),
        "duration": ("quantity", "time"),
        "format": ("string", ("csv", "json")),
        "out": ("string", None),
        "jobs": ("int", None),
    },
    "neuron": {
        "C": ("quantity", "capacitance"),
        "g_l": ("quantity", "conductance"),
        "E_l": ("quantity", "voltage"),
        "V_T": ("quantity", "voltage"),
        "Delta_T": ("quantity", "voltage"),
        "tau_w": ("quantity", "time"),
        "a": ("quantity", "conductance"),
        "b": ("quantity", "current"),
        "V_r": ("quantity", "voltage"),
        "V_det": ("quantity", "voltage"),
        "t_ref": ("quantity", "time"),
        "exp_enabled": ("bool", None),
        "exp_gated_in_ref": ("bool", None),
    },
    "circuit": {
        "tau_m": ("quantity", "time"),
        "C_mem": ("quantity", "capacitance"),
        "E_l": ("quantity", "voltage"),
        "V_det": ("quantity", "voltage"),
        "V_r": ("quantity", "voltage"),
        "t_ref": ("quantity", "time"),
    },
    "adaptation": {
        "enabled": ("bool", None),
        "tau_w": ("quantity", "time"),
        "a": ("quantity", "conductance"),
        "b": ("quantity", "current"),
        "pulse_width": ("quantity", "time"),
    },
    "exponential": {
        "enabled": ("bool", None),
        "delta_t": ("quantity", "voltage"),
        "v_t": ("quantity", "voltage"),
        "i_max": ("quantity", "current"),
        "gate_in_refractory": ("bool", None),
    },
    "syn_exc": {
        "enabled": ("bool", None),
        "tau_syn": ("quantity", "time"),
        "coba": ("bool", None),
        "e_syn": ("quantity", "voltage"),
        "e_syn_hat": ("quantity", "voltage"),
        "bias": ("quantity", "current"),
    },
    "syn_inh": {
        "enabled": ("bool", None),
        "tau_syn": ("quantity", "time"),
        "coba": ("bool", None),
        "e_syn": ("quantity", "voltage"),
        "e_syn_hat": ("quantity", "voltage"),
        "bias": ("quantity", "current"),
    },
    "stimulus": {
        "segments": ("pairs", ("time", "current")),
        "current": ("quantity", "current"),
        "onset": ("quantity", "time"),
        "offset": ("quantity", "time"),
    },
    "events_exc": {"events": ("pairs", ("time", "none"))},
    "events_inh": {"events": ("pairs", ("time", "none"))},
    "mismatch": {
        "size": ("int", None),
        "seed": ("int", None),
        "enabled": ("bool", None),
    },
    "calibration": {
        "tau_m": ("quantity", "time"),
        "stim_gain": ("bool", None),
        "delta_t": ("quantity", "voltage"),
        "v_t": ("quantity", "voltage"),
        "tau_w": ("quantity", "time"),
        "a": ("quantity", "conductance"),
        "b": ("quantity", "current"),
        "tau_syn_exc": ("quantity", "time"),
        "tau_syn_inh": ("quantity", "time"),
        "psp_amplitude_exc": ("quantity", "voltage"),
        "psp_amplitude_inh": ("quantity", "voltage"),
        "offset_exc": ("bool", None),
        "offset_inh": ("bool", None),
        "allow_out_of_range": ("bool", None),
        "tol": ("quantity", "none"),
        "plan": ("names", None),
    },
    "experiment": {
        "name": ("string", ("leak_over_threshold", "psp", "exponential_sweep",
                            "firing_patterns")),
        "tau_m_targets": ("list", "time"),
        "v_inf": ("quantity", "voltage"),
        "n_isis": ("int", None),
        "line": ("string", ("exc", "inh")),
        "weight": ("quantity", "none"),
        "n_events": ("int", None),
        "onsets": ("list", "voltage"),
        "slopes": ("list", "voltage"),
        "patterns": ("names", None),
        "population": ("int", None),
        "agreement": ("quantity", "none"),
        "tolerance": ("quantity", "none"),
    },
    "sweep": {
        "key": ("string", None),
        "values": ("names", None),
    },
}

# mismatch sigma overrides use prefixed keys with a dotted constant path
_SIGMA_PREFIXES = ("sigma_rel_", "sigma_abs_")

@dataclass
class RunConfig:
    """Validated run-level settings plus the parsed payload objects."""

    mode: str = "simulate"
    model: str = "ideal"
    seed: int = DEFAULT_SEED
    dt: float = 0.05e-6
    duration: float = 500e-6
    out_dir: str | None = None
    fmt: str = "csv"

    neuron: AdExParameters | None = None
    circuit: CircuitNeuronConfig | None = None
    stimulus: StimulusProgram = field(default_factory=lambda: StimulusProgram.constant(0.0))
    events: dict = field(default_factory=dict)
    mismatch_size: int = 128
    mismatch_seed: int | None = None
    mismatch_enabled: bool = True
    mismatch_overrides: dict = field(default_factory=dict)
    calibration: CalibrationTarget | None = None
    calibration_plan: tuple | None = None
    calibration_tol: float = 0.02
    experiment: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)


def _get(sections, section, key, kind, dims, default=None, required=False):
    sec = sections.get(section, {})
    if key not in sec:
        if required:
            raise ValidationError(f"[{section}] {key} is required")
        return default
    raw, line = sec[key]
    if kind == "quantity":
        return parse_quantity(raw, dims, line)
    if kind == "bool":
        return _parse_bool(raw, line)
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"expected an integer, got {raw!r}", line) from None
    if kind == "string":
        value = raw.strip()
        if dims is not None and value not in dims:
            raise ValidationError(
                f"[{section}] {key} must be one of {', '.join(dims)}; got {value!r}")
        return value
    if kind == "list":
        return _parse_list(raw, dims, line)
    if kind == "pairs":
        return _parse_pairs(raw, dims[0], dims[1], line)
    if kind == "names":
        return _parse_names(raw, line)
    raise AssertionError(kind)


def _check_unknown(sections):
    for section, keys in sections.items():
        if section not in SCHEMA:
            first_line = min(line for _, line in keys.values()) if keys else None
            raise ParseError(f"unknown section [{section}]", first_line)
        for key, (_, line) in keys.items():
            if key in SCHEMA[section]:
                continue
            if section == "mismatch" and key.startswith(_SIGMA_PREFIXES):
                continue
            raise ParseError(f"unknown key {key!r} in [{section}]", line)


def _build_neuron(sections) -> AdExParameters | None:
    if "neuron" not in sections:
        return None
    vals = {}
    for key, (kind, dim) in SCHEMA["neuron"].items():
        vals[key] = _get(sections, "neuron", key, kind, dim)
    defaults = dict(t_ref=0.0, exp_enabled=True, exp_gated_in_ref=False)
    for key, dv in defaults.items():
        if vals.get(key) is None:
            vals[key] = dv
    if vals.get("exp_enabled") is False:
        vals.setdefault("V_T", None)
        if vals["V_T"] is None:
            vals["V_T"] = vals.get("E_l")
        if vals.get("Delta_T") is None:
            vals["Delta_T"] = 1e-3
    if vals.get("a") is None:
        vals["a"] = 0.0
    if vals.get("b") is None:
        vals["b"] = 0.0
    if vals.get("tau_w") is None:
        vals["tau_w"] = 1.0
    missing = [k for k in ("C", "g_l", "E_l", "V_T", "Delta_T", "V_r", "V_det")
               if vals.get(k) is None]
    if missing:
        raise ValidationError(f"[neuron] missing required keys: {', '.join(missing)}")
    try:
        return AdExParameters(**vals)
    except ValueError as err:
        raise ValidationError(f"[neuron] {err}") from None


def _build_circuit(sections) -> CircuitNeuronConfig:
    get = lambda sec, key: _get(sections, sec, key, *SCHEMA[sec][key])
    tau_m = get("circuit", "tau_m") or 20e-6
    for name, value in (("circuit.tau_m", tau_m),
                        ("adaptation.tau_w", get("adaptation", "tau_w")),
                        ("syn_exc.tau_syn", get("syn_exc", "tau_syn")),
                        ("syn_inh.tau_syn", get("syn_inh", "tau_syn")),
                        ("exponential.delta_t", get("exponential", "delta_t"))):
        if value is not None and not value > 0:
            raise ValidationError(f"[{name.split('.')[0]}] violates "
                                  f"{name.split('.')[1]} > 0")
    e_l = get("circuit", "E_l")
    e_l = 0.5 if e_l is None else e_l
    v_det = get("circuit", "V_det")
    v_det = 0.75 if v_det is None else v_det
    v_r = get("circuit", "V_r")
    v_r = 0.35 if v_r is None else v_r
    t_ref = get("circuit", "t_ref")
    t_ref = 1e-6 if t_ref is None else t_ref
    adapt_on = bool(get("adaptation", "enabled"))
    exp_on = bool(get("exponential", "enabled"))
    coba = bool(get("syn_exc", "coba")) or bool(get("syn_inh", "coba"))
    c_mem = get("circuit", "C_mem")
    try:
        cfg = default_circuit_config(tau_m=tau_m, E_l=e_l, V_det=v_det, V_r=v_r,
                                     t_ref=t_ref, adaptation_enabled=adapt_on,
                                     exponential_enabled=exp_on, coba=coba)
        if c_mem is not None:
            cfg = replace(cfg, C_mem=c_mem,
                          leak_ota=replace(cfg.leak_ota,
                                           I_bias=c_mem / tau_m / cfg.leak_ota.g_per_bias))
        target = AdExParameters(
            C=cfg.C_mem, g_l=cfg.g_l, E_l=e_l,
            V_T=get("exponential", "v_t") or (v_det - 0.1),
            Delta_T=get("exponential", "delta_t") or 0.02,
            tau_w=get("adaptation", "tau_w") or 100e-6,
            a=get("adaptation", "a") or 0.0,
            b=get("adaptation", "b") or 0.0,
            V_r=v_r, V_det=v_det, t_ref=t_ref,
            exp_enabled=exp_on,
            exp_gated_in_ref=bool(get("exponential", "gate_in_refractory") or False))
        cfg = circuit_for_adex(target, cfg,
                               pulse_width=get("adaptation", "pulse_width"))
        if not adapt_on:
            cfg = replace(cfg, adaptation=replace(cfg.adaptation, enabled=False))
        for side in ("exc", "inh"):
            syn = getattr(cfg, f"syn_{side}")
            tau_syn = get(f"syn_{side}", "tau_syn")
            if tau_syn is not None:
                syn = replace(syn, g_leak_line=syn.C_line / tau_syn)
            bias = get(f"syn_{side}", "bias")
            if bias is not None:
                syn = replace(syn, I_b_cuba=bias)
            e_syn = get(f"syn_{side}", "e_syn")
            e_syn_hat = get(f"syn_{side}", "e_syn_hat")
            if e_syn is not None and e_syn_hat is not None:
                raise ValidationError(
                    f"[syn_{side}] give either e_syn or e_syn_hat, not both")
            if e_syn is not None and syn.coba_enabled:
                syn = replace(syn, E_syn_hat=e_syn - syn.I_b_cuba / syn.g2)
            if e_syn_hat is not None and syn.coba_enabled:
                syn = replace(syn, E_syn_hat=e_syn_hat)
            enabled = get(f"syn_{side}", "enabled")
            if enabled is not None:
                syn = replace(syn, enabled=enabled)
            cfg = replace(cfg, **{f"syn_{side}": syn})
        if get("exponential", "i_max") is not None:
            cfg = replace(cfg, exponential=replace(cfg.exponential,
                                                   I_max=get("exponential", "i_max")))
    except ValueError as err:
        raise ValidationError(str(err)) from None
    return cfg


def _build_stimulus(sections) -> StimulusProgram:
    if "stimulus" not in sections:
        return StimulusProgram.constant(0.0)
    segments = _get(sections, "stimulus", "segments", "pairs", ("time", "current"))
    current = _get(sections, "stimulus", "current", "quantity", "current")
    if segments is not None and current is not None:
        raise ValidationError("[stimulus] give either segments or current/onset, not both")
    try:
        if segments is not None:
            return StimulusProgram(segments)
        current = current or 0.0
        onset = _get(sections, "stimulus", "onset", "quantity", "time") or 0.0
        offset = _get(sections, "stimulus", "offset", "quantity", "time")
        if onset == 0.0 and offset is None:
            return StimulusProgram.constant(current)
        return StimulusProgram.step(onset, current, offset)
    except ValueError as err:
        raise ValidationError(f"[stimulus] {err}") from None


def _build_calibration(sections):
    if "calibration" not in sections:
        return None, None, 0.02
    get = lambda key: _get(sections, "calibration", key, *SCHEMA["calibration"][key])
    target = CalibrationTarget(
        tau_m=get("tau_m"), stim_gain=bool(get("stim_gain")),
        delta_t=get("delta_t"), v_t=get("v_t"), tau_w=get("tau_w"),
        a=get("a"), b=get("b"),
        tau_syn_exc=get("tau_syn_exc"), tau_syn_inh=get("tau_syn_inh"),
        psp_amplitude_exc=get("psp_amplitude_exc"),
        psp_amplitude_inh=get("psp_amplitude_inh"),
        offset_exc=bool(get("offset_exc")), offset_inh=bool(get("offset_inh")),
        allow_out_of_range=bool(get("allow_out_of_range")))
    plan = get("plan")
    if plan is not None:
        unknown = [p for p in plan if p not in DEFAULT_PLAN]
        if unknown:
            raise ValidationError(f"[calibration] unknown plan entries: {', '.join(unknown)}")
    tol = get("tol")
    return target, plan, (0.02 if tol is None else tol)


def _check_timing(dt, duration, where=""):
    if not dt > 0:
        raise ValidationError(f"{where}[run] dt must be > 0")
    if not duration > 0:
        raise ValidationError(f"{where}[run] duration must be > 0")
    if dt > duration:
        raise ValidationError(f"{where}[run] dt ({dt:.6g} s) must not exceed "
                              f"duration ({duration:.6g} s)")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document into a RunConfig."""
    sections = read_config_sections(text)
    _check_unknown(sections)
    get = lambda sec, key: _get(sections, sec, key, *SCHEMA[sec][key])

    run = RunConfig()
    run.mode = get("run", "mode") or "simulate"
    run.model = get("run", "model") or ("ideal" if "neuron" in sections else "circuit")
    seed = get("run", "seed")
    run.seed = DEFAULT_SEED if seed is None else seed
    dt = get("run", "dt")
    duration = get("run", "duration")
    run.dt = 0.05e-6 if dt is None else dt
    run.duration = 500e-6 if duration is None else duration
    _check_timing(run.dt, run.duration)
    run.fmt = get("run", "format") or "csv"
    run.out_dir = get("run", "out")
    get("run", "jobs")  # still accepted and type-checked; runs are sequential

    run.neuron = _build_neuron(sections)
    run.circuit = _build_circuit(sections)
    if run.model == "ideal" and run.neuron is None:
        raise ValidationError("model 'ideal' requires a [neuron] section")
    run.stimulus = _build_stimulus(sections)

    for side in ("exc", "inh"):
        sec = f"events_{side}"
        if sec in sections:
            pairs = _get(sections, sec, "events", "pairs", ("time", "none"))
            if pairs:
                try:
                    run.events[side] = WeightedSpikeTrain(pairs)
                except ValueError as err:
                    raise ValidationError(f"[{sec}] {err}") from None

    if "mismatch" in sections:
        size = get("mismatch", "size")
        run.mismatch_size = 128 if size is None else size
        if run.mismatch_size < 1:
            raise ValidationError("[mismatch] size must be >= 1")
        run.mismatch_seed = get("mismatch", "seed")
        enabled = get("mismatch", "enabled")
        run.mismatch_enabled = True if enabled is None else enabled
        for key, (raw, line) in sections["mismatch"].items():
            for prefix in _SIGMA_PREFIXES:
                if key.startswith(prefix):
                    run.mismatch_overrides[key] = parse_quantity(raw, "none", line)

    try:
        run.calibration, run.calibration_plan, run.calibration_tol = \
            _build_calibration(sections)
    except ValidationError:
        raise
    except ValueError as err:
        raise ValidationError(f"[calibration] {err}") from None

    if "experiment" in sections:
        spec = {}
        for key in sections["experiment"]:
            spec[key] = get("experiment", key)
        if "name" not in spec:
            raise ValidationError("[experiment] name is required")
        run.experiment = spec
    if run.mode == "experiment" and not run.experiment:
        raise ValidationError("mode 'experiment' requires an [experiment] section")

    if "sweep" in sections:
        key = get("sweep", "key")
        values = get("sweep", "values")
        if key is None or values is None:
            raise ValidationError("[sweep] needs both key and values")
        section, _, name = key.partition(".")
        if section not in SCHEMA or name not in SCHEMA[section]:
            raise ValidationError(f"[sweep] unknown key {key!r}")
        if section not in ("neuron", "run"):
            raise ValidationError(f"[sweep] sweep over [{section}] is not supported; "
                                  "use neuron.* or run.*")
        if section == "neuron" and run.model != "ideal":
            raise ValidationError(f"[sweep] key {key!r} is not read by model "
                                  f"{run.model!r}; neuron.* sweeps need model = ideal")
        kind, dim = SCHEMA[section][name]
        if kind != "quantity":
            raise ValidationError(f"[sweep] key {key!r} is not a scalar quantity")
        run.sweep = {"key": key,
                     "values": tuple(parse_quantity(v, dim) for v in values)}
        if section == "run":
            for value in run.sweep["values"]:
                dt, duration = (value, run.duration) if name == "dt" else (run.dt, value)
                _check_timing(dt, duration, where=f"[sweep] {key} = {value:.6g} s: ")
    if run.mode == "sweep" and not run.sweep:
        raise ValidationError("mode 'sweep' requires a [sweep] section")
    return run


def serialize_config(run: RunConfig) -> str:
    """Canonical text for a RunConfig; parse(serialize(parse(x))) == parse(x)."""
    q = format_quantity
    lines = ["[run]",
             f"mode = {run.mode}",
             f"model = {run.model}",
             f"seed = {run.seed}",
             f"dt = {q(run.dt, 'time')}",
             f"duration = {q(run.duration, 'time')}",
             f"format = {run.fmt}"]
    if run.out_dir:
        lines.append(f"out = {run.out_dir}")
    if run.neuron is not None:
        p = run.neuron
        lines += ["", "[neuron]"]
        for name, (kind, dim) in SCHEMA["neuron"].items():
            value = getattr(p, name)
            lines.append(f"{name} = {q(value, dim) if kind == 'quantity' else str(value).lower()}")
    if run.circuit is not None:
        cfg = run.circuit
        from .circuit import derive_effective_adex
        eff = derive_effective_adex(cfg)
        lines += ["", "[circuit]",
                  f"tau_m = {q(eff.tau_m, 'time')}",
                  f"C_mem = {q(cfg.C_mem, 'capacitance')}",
                  f"E_l = {q(cfg.E_l, 'voltage')}",
                  f"V_det = {q(cfg.V_det, 'voltage')}",
                  f"V_r = {q(cfg.V_r, 'voltage')}",
                  f"t_ref = {q(cfg.t_ref, 'time')}",
                  "", "[adaptation]",
                  f"enabled = {str(cfg.adaptation.enabled).lower()}"]
        if cfg.adaptation.enabled:
            lines += [f"tau_w = {q(cfg.adaptation.tau_w, 'time')}",
                      f"a = {q(cfg.adaptation.a_effective, 'conductance')}",
                      f"b = {q(cfg.adaptation.b_effective, 'current')}",
                      f"pulse_width = {q(cfg.adaptation.pulse_width, 'time')}"]
        lines += ["", "[exponential]",
                  f"enabled = {str(cfg.exponential.enabled).lower()}"]
        if cfg.exponential.enabled:
            lines += [f"delta_t = {q(eff.Delta_T, 'voltage')}",
                      f"v_t = {q(eff.V_T, 'voltage')}",
                      f"i_max = {q(cfg.exponential.I_max, 'current')}",
                      f"gate_in_refractory = "
                      f"{str(cfg.exponential.gate_in_refractory).lower()}"]
        for side in ("exc", "inh"):
            syn = getattr(cfg, f"syn_{side}")
            lines += ["", f"[syn_{side}]",
                      f"enabled = {str(syn.enabled).lower()}",
                      f"tau_syn = {q(syn.tau_syn, 'time')}",
                      f"coba = {str(syn.coba_enabled).lower()}",
                      f"bias = {q(syn.I_b_cuba, 'current')}"]
            if syn.coba_enabled:
                lines.append(f"e_syn_hat = {q(syn.E_syn_hat, 'voltage')}")
    lines += ["", "[stimulus]",
              "segments = " + ", ".join(
                  f"{q(t, 'time')} : {q(i, 'current')}"
                  for t, i in run.stimulus.segments)]
    for side, train in sorted(run.events.items()):
        lines += ["", f"[events_{side}]",
                  "events = " + ", ".join(
                      f"{q(t, 'time')} : {w!r}" for t, w in train.events)]
    if run.mismatch_seed is not None or run.mismatch_size != 128 \
            or not run.mismatch_enabled or run.mismatch_overrides:
        lines += ["", "[mismatch]",
                  f"size = {run.mismatch_size}",
                  f"enabled = {str(run.mismatch_enabled).lower()}"]
        if run.mismatch_seed is not None:
            lines.append(f"seed = {run.mismatch_seed}")
        for key, value in sorted(run.mismatch_overrides.items()):
            lines.append(f"{key} = {value!r}")
    if run.calibration is not None:
        t = run.calibration
        lines += ["", "[calibration]"]
        # the target's values, then its flags; tol and plan are run settings
        keys = [(name, kind, dim) for name, (kind, dim) in SCHEMA["calibration"].items()
                if name not in ("tol", "plan")]
        for name, kind, dim in keys:
            value = getattr(t, name)
            if kind == "quantity" and value is not None:
                lines.append(f"{name} = {q(value, dim)}")
        for name, kind, _ in keys:
            if kind == "bool" and getattr(t, name):
                lines.append(f"{name} = true")
        lines.append(f"tol = {run.calibration_tol!r}")
        if run.calibration_plan:
            lines.append("plan = " + ", ".join(run.calibration_plan))
    if run.experiment:
        lines += ["", "[experiment]"]
        for key, value in run.experiment.items():
            kind, dim = SCHEMA["experiment"][key]
            if value is None:
                continue
            if kind == "quantity":
                lines.append(f"{key} = {q(value, dim)}")
            elif kind == "list":
                lines.append(f"{key} = " + ", ".join(q(v, dim) for v in value))
            elif kind == "names":
                lines.append(f"{key} = " + ", ".join(value))
            else:
                lines.append(f"{key} = {value}")
    if run.sweep:
        section, _, name = run.sweep["key"].partition(".")
        _, dim = SCHEMA[section][name]
        lines += ["", "[sweep]",
                  f"key = {run.sweep['key']}",
                  "values = " + ", ".join(q(v, dim) for v in run.sweep["values"])]
    return "\n".join(lines) + "\n"
