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

import math
from dataclasses import dataclass, field, replace

from .calibrate import CalibrationTarget
from .circuit import (
    CircuitNeuronConfig, circuit_for_adex, default_circuit_config, default_leak_ota,
    derive_effective_adex, get_bias,
)
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


# the [experiment] keys each experiment reads, besides `name`; any other
# key is a config error, and the CLI forwards exactly these
_EXPERIMENT_KEYS = {
    "leak_over_threshold": ("tau_m_targets", "v_inf", "n_isis", "tolerance"),
    "psp": ("line", "weight", "n_events"),
    "exponential_sweep": ("onsets", "slopes"),
    "firing_patterns": ("patterns", "population", "agreement"),
}

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
    },
    "experiment": {
        "name": ("string", tuple(_EXPERIMENT_KEYS)),
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

# keys a circuit owner divides by: each must be > 0 when the file sets it
_POSITIVE = {"circuit": ("tau_m", "C_mem"), "adaptation": ("tau_w", "pulse_width"),
             "syn_exc": ("tau_syn",), "syn_inh": ("tau_syn",),
             "exponential": ("delta_t",)}

# (section, switch, the switch where the file does not set it, the keys
# the section reads only with the switch on); a line's enabled comes first
_SWITCHED = (("neuron", "exp_enabled", AdExParameters.exp_enabled,
              ("V_T", "Delta_T", "exp_gated_in_ref")),
             ("adaptation", "enabled", False, ("tau_w", "a", "b", "pulse_width")),
             ("exponential", "enabled", False,
              ("delta_t", "v_t", "i_max", "gate_in_refractory")),
             *((f"syn_{side}", "enabled", True, ("tau_syn", "coba", "bias"))
               for side in ("exc", "inh")),
             *((f"syn_{side}", "coba", False, ("e_syn", "e_syn_hat"))
               for side in ("exc", "inh")))


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
    calibration_tol: float = 0.02
    experiment: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)


def _get(sections, section, key, kind, dims):
    """The parsed value of one key, or None when the file does not set it."""
    sec = sections.get(section, {})
    if key not in sec:
        return None
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
        if not value:
            raise ValidationError(f"[{section}] {key} needs a value")
        if dims is not None and value not in dims:
            raise ValidationError(
                f"[{section}] {key} must be one of {', '.join(dims)}; got {value!r}")
        return value
    if kind == "pairs":
        return _parse_pairs(raw, dims[0], dims[1], line)
    value = _parse_list(raw, dims, line) if kind == "list" else _parse_names(raw, line)
    if not value:
        raise ValidationError(f"[{section}] {key} needs at least one value")
    return value


def _given(sections, section) -> dict:
    """{key: parsed value} for the schema keys of `section` the file sets."""
    return {key: _get(sections, section, key, *SCHEMA[section][key])
            for key in sections.get(section, {}) if key in SCHEMA[section]}


def _pick(values: dict, **names) -> dict:
    """{name: values[key]} for each name=key whose key is in `values`."""
    return {name: values[key] for name, key in names.items() if key in values}


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


def _unread(given: dict):
    """(section, key, switch) of each key of {section: {key: value}} that a
    switch of its section, as given or by default, leaves unread."""
    for section, switch, default, keys in _SWITCHED:
        values = given.get(section, {})
        if not values.get(switch, default):
            yield from ((section, key, switch) for key in keys if key in values)


def _check_switched(given: dict) -> None:
    for section, key, switch in _unread(given):
        raise ValidationError(f"[{section}] {key} is not read unless {switch} = true")


def _build_neuron(sections) -> AdExParameters | None:
    if "neuron" not in sections:
        return None
    given = _given(sections, "neuron")
    _check_switched({"neuron": given})
    # omitted adaptation keys give a neuron without adaptation; with the
    # exponential off, V_T and Delta_T are unused and take no value
    vals = {"tau_w": 1.0, "a": 0.0, "b": 0.0, **given}
    if not vals.get("exp_enabled", AdExParameters.exp_enabled):
        vals = {"V_T": vals.get("E_l"), "Delta_T": 1e-3, **vals}
    missing = [k for k in ("C", "g_l", "E_l", "V_T", "Delta_T", "V_r", "V_det")
               if vals.get(k) is None]
    if missing:
        raise ValidationError(f"[neuron] missing required keys: {', '.join(missing)}")
    try:
        return AdExParameters(**vals)
    except ValueError as err:
        raise ValidationError(f"[neuron] {err}") from None


def _build_circuit(given: dict) -> CircuitNeuronConfig:
    """The circuit of {section: {key: value}}, the keys a file sets."""
    for section, keys in _POSITIVE.items():
        for key in keys:
            if key in given[section] and not given[section][key] > 0:
                raise ValidationError(f"[{section}] violates {key} > 0")
    _check_switched(given)
    circuit, adaptation, exponential = (given[s] for s in ("circuit", "adaptation",
                                                           "exponential"))
    try:
        cfg = default_circuit_config(
            **_pick(circuit, tau_m="tau_m", E_l="E_l", V_det="V_det", V_r="V_r",
                    t_ref="t_ref"),
            **_pick(adaptation, adaptation_enabled="enabled"),
            **_pick(exponential, exponential_enabled="enabled"))
        adapt_on = cfg.adaptation.enabled
        if "C_mem" in circuit:
            cfg = replace(cfg, C_mem=circuit["C_mem"], leak_ota=default_leak_ota(
                C_mem=circuit["C_mem"], **_pick(circuit, tau_m="tau_m")))
        # the ideal parameters the circuit realizes; the circuit has no
        # owner for these defaults, so they are stated here
        target = AdExParameters(
            C=cfg.C_mem, g_l=cfg.g_l, E_l=cfg.E_l,
            V_T=exponential.get("v_t", cfg.V_det - 0.1),
            Delta_T=exponential.get("delta_t", 0.02),
            tau_w=adaptation.get("tau_w", 100e-6),
            a=adaptation.get("a", 0.0), b=adaptation.get("b", 0.0),
            V_r=cfg.V_r, V_det=cfg.V_det, t_ref=cfg.t_ref,
            exp_enabled=cfg.exponential.enabled,
            **_pick(exponential, exp_gated_in_ref="gate_in_refractory"))
        # the switch as written, also where a and b are 0
        cfg = circuit_for_adex(target, cfg, **_pick(adaptation, pulse_width="pulse_width"))
        cfg = replace(cfg, adaptation=replace(cfg.adaptation, enabled=adapt_on))
        ex = cfg.exponential
        if ex.enabled:
            # the onset placed with the slope the built OTA realizes, so
            # that V_exp depends on the written delta_t only through it
            slope = ex.delta_t_eff
            cfg = replace(cfg, exponential=replace(ex, V_exp=target.V_T - slope * math.log(
                target.g_l * slope / ex.I_0)))
        # each line switches to conductance-based input on its own, with
        # the g2 of a conductance-based line of the default circuit
        coba_lines = default_circuit_config(coba=True)
        for side in ("exc", "inh"):
            syn = getattr(cfg, f"syn_{side}")
            values = given[f"syn_{side}"]
            if values.get("coba"):
                syn = replace(syn, coba_enabled=True,
                              g2=getattr(coba_lines, f"syn_{side}").g2)
            if "tau_syn" in values:
                syn = replace(syn, g_leak_line=syn.C_line / values["tau_syn"])
            if "bias" in values:
                syn = replace(syn, I_b_cuba=values["bias"])
            if "e_syn" in values and "e_syn_hat" in values:
                raise ValidationError(
                    f"[syn_{side}] give either e_syn or e_syn_hat, not both")
            if "e_syn" in values:
                syn = replace(syn, E_syn_hat=values["e_syn"] - syn.I_b_cuba / syn.g2)
            if "e_syn_hat" in values:
                syn = replace(syn, E_syn_hat=values["e_syn_hat"])
            syn = replace(syn, **_pick(values, enabled="enabled"))
            cfg = replace(cfg, **{f"syn_{side}": syn})
        cfg = replace(cfg, exponential=replace(cfg.exponential,
                                               **_pick(exponential, I_max="i_max")))
    except ValueError as err:
        raise ValidationError(str(err)) from None
    return cfg


# resolved values several roundings from the bias they set, whose effective
# value can rebuild a neighbouring bias (every other value is one rounding away)
_REBUILT = {("adaptation", "b"): "adaptation.pulse_amplitude",
            ("exponential", "delta_t"): "exponential.ota.I_bias"}


def _resolved(cfg: CircuitNeuronConfig) -> dict:
    """{section: {key: value}} of a circuit as its resolved text writes it:
    the effective values, a `_REBUILT` one moved to the nearest float that
    builds the same bias, so that the text builds this circuit again."""
    eff = derive_effective_adex(cfg)
    ad, ex = cfg.adaptation, cfg.exponential
    out = {"circuit": {"tau_m": eff.tau_m, "C_mem": cfg.C_mem, "E_l": cfg.E_l,
                       "V_det": cfg.V_det, "V_r": cfg.V_r, "t_ref": cfg.t_ref},
           "adaptation": {"enabled": ad.enabled},
           "exponential": {"enabled": ex.enabled}}
    if ad.enabled:
        out["adaptation"].update(tau_w=ad.tau_w, a=ad.a_effective, b=ad.b_effective,
                                 pulse_width=ad.pulse_width)
    if ex.enabled:
        out["exponential"].update(delta_t=eff.Delta_T, v_t=eff.V_T, i_max=ex.I_max,
                                  gate_in_refractory=ex.gate_in_refractory)
    for side in ("exc", "inh"):
        syn = getattr(cfg, f"syn_{side}")
        line = out[f"syn_{side}"] = {"enabled": syn.enabled}
        if syn.enabled:
            line.update(tau_syn=syn.tau_syn, coba=syn.coba_enabled, bias=syn.I_b_cuba)
            if syn.coba_enabled:
                line["e_syn_hat"] = syn.E_syn_hat
    for (section, key), path in _REBUILT.items():
        if key not in out[section]:
            continue
        value = lo = hi = out[section][key]
        candidates = [value]
        for _ in range(4):  # the floats tried on each side
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            candidates += [hi, lo]
        out[section][key] = next(
            (x for x in candidates
             if get_bias(_build_circuit({**out, section: {**out[section], key: x}}), path)
             == get_bias(cfg, path)), value)
    return out


def _build_stimulus(sections) -> StimulusProgram:
    given = _given(sections, "stimulus")
    if "segments" in given and "current" in given:
        raise ValidationError("[stimulus] give either segments or current/onset, not both")
    try:
        if "segments" in given:
            return StimulusProgram(given["segments"])
        # a section without a current injects none
        current = given.get("current", 0.0)
        onset = given.get("onset", 0.0)
        if onset == 0.0 and "offset" not in given:
            return StimulusProgram.constant(current)
        return StimulusProgram.step(onset, current, given.get("offset"))
    except ValueError as err:
        raise ValidationError(f"[stimulus] {err}") from None


def _build_calibration(sections) -> dict:
    """The [calibration] fields of a RunConfig that the file sets."""
    given = _given(sections, "calibration")
    try:
        target = CalibrationTarget(**{k: v for k, v in given.items() if k != "tol"})
    except ValueError as err:
        raise ValidationError(f"[calibration] {err}") from None
    return {"calibration": target, **_pick(given, calibration_tol="tol")}


def _check_timing(dt, duration, where=""):
    if not dt > 0:
        raise ValidationError(f"{where}[run] dt must be > 0")
    if not duration > 0:
        raise ValidationError(f"{where}[run] duration must be > 0")
    if dt > duration:
        raise ValidationError(f"{where}[run] dt ({dt:.6g} s) must not exceed "
                              f"duration ({duration:.6g} s)")


def _build_sweep(sections, run: RunConfig) -> dict:
    key = _get(sections, "sweep", "key", *SCHEMA["sweep"]["key"])
    values = _get(sections, "sweep", "values", *SCHEMA["sweep"]["values"])
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
    if section == "neuron":
        for _, _, switch in _unread({"neuron": {"exp_enabled": run.neuron.exp_enabled,
                                                name: None}}):
            raise ValidationError(f"[sweep] key {key!r} is not read unless "
                                  f"[neuron] {switch} = true")
    kind, dim = SCHEMA[section][name]
    if kind != "quantity":
        raise ValidationError(f"[sweep] key {key!r} is not a scalar quantity")
    values = tuple(parse_quantity(v, dim, sections["sweep"]["values"][1]) for v in values)
    for value in values:
        if section == "run":
            dt, duration = (value, run.duration) if name == "dt" else (run.dt, value)
            _check_timing(dt, duration, where=f"[sweep] {key} = {value:.6g} s: ")
        else:
            try:
                replace(run.neuron, **{name: value})
            except ValueError as err:
                raise ValidationError(f"[sweep] {key} = {format_quantity(value, dim)}: "
                                      f"{err}") from None
    return {"key": key, "values": values}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document into a RunConfig.

    A key the file omits takes the default of the object that owns it; a
    key the file sets is used as written or rejected."""
    sections = read_config_sections(text)
    _check_unknown(sections)

    given = _given(sections, "run")
    given.pop("jobs", None)  # still accepted and type-checked; runs are sequential
    if "neuron" not in sections:
        given.setdefault("model", "circuit")
    run = RunConfig(**_pick(given, mode="mode", model="model", seed="seed", dt="dt",
                            duration="duration", fmt="format", out_dir="out"))
    _check_timing(run.dt, run.duration)

    run.neuron = _build_neuron(sections)
    run.circuit = _build_circuit({section: _given(sections, section) for section in
                                  ("circuit", "adaptation", "exponential", "syn_exc",
                                   "syn_inh")})
    if run.model == "ideal" and run.neuron is None:
        raise ValidationError("model 'ideal' requires a [neuron] section")
    if "stimulus" in sections:
        run.stimulus = _build_stimulus(sections)

    for side in ("exc", "inh"):
        pairs = _given(sections, f"events_{side}").get("events")
        if pairs:
            try:
                run.events[side] = WeightedSpikeTrain(pairs)
            except ValueError as err:
                raise ValidationError(f"[events_{side}] {err}") from None

    mismatch = _given(sections, "mismatch")
    if "size" in mismatch and mismatch["size"] < 1:
        raise ValidationError("[mismatch] size must be >= 1")
    for key, (raw, line) in sections.get("mismatch", {}).items():
        if key.startswith(_SIGMA_PREFIXES):
            run.mismatch_overrides[key] = parse_quantity(raw, "none", line)
    run = replace(run, **{f"mismatch_{key}": value for key, value in mismatch.items()})

    if "calibration" in sections:
        run = replace(run, **_build_calibration(sections))

    if "experiment" in sections:
        spec = _given(sections, "experiment")
        if "name" not in spec:
            raise ValidationError("[experiment] name is required")
        name, reads = spec["name"], _EXPERIMENT_KEYS[spec["name"]]
        for key, value in spec.items():
            if key not in reads + ("name",):
                raise ValidationError(f"[experiment] {key} is not read by {name}, "
                                      f"which reads {', '.join(reads)}")
            if SCHEMA["experiment"][key][0] == "int" and value < 1:
                raise ValidationError(f"[experiment] {key} must be >= 1, got {value}")
        if "v_inf" in spec and not spec["v_inf"] > run.circuit.V_det:
            raise ValidationError(
                f"[experiment] v_inf = {format_quantity(spec['v_inf'], 'voltage')} must "
                f"exceed the circuit's V_det = {format_quantity(run.circuit.V_det, 'voltage')}")
        run.experiment = spec
    if run.mode == "experiment" and not run.experiment:
        raise ValidationError("mode 'experiment' requires an [experiment] section")

    if "sweep" in sections:
        run.sweep = _build_sweep(sections, run)
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
    models = {} if run.neuron is None else {
        "neuron": {name: getattr(run.neuron, name) for name in SCHEMA["neuron"]}}
    if run.circuit is not None:
        models.update(_resolved(run.circuit))
    for section, key, _ in _unread(models):
        del models[section][key]
    for section, values in models.items():
        lines += ["", f"[{section}]"]
        for name, value in values.items():
            kind, dim = SCHEMA[section][name]
            lines.append(f"{name} = {q(value, dim) if kind == 'quantity' else str(value).lower()}")
    lines += ["", "[stimulus]",
              "segments = " + ", ".join(
                  f"{q(t, 'time')} : {q(i, 'current')}"
                  for t, i in run.stimulus.segments)]
    for side, train in sorted(run.events.items()):
        lines += ["", f"[events_{side}]",
                  "events = " + ", ".join(
                      f"{q(t, 'time')} : {w!r}" for t, w in train.events)]
    if run.mismatch_seed is not None or run.mismatch_size != RunConfig.mismatch_size \
            or run.mismatch_enabled != RunConfig.mismatch_enabled or run.mismatch_overrides:
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
        # the target's values, then its flags; tol is a run setting
        keys = [(name, kind, dim) for name, (kind, dim) in SCHEMA["calibration"].items()
                if name != "tol"]
        for name, kind, dim in keys:
            value = getattr(t, name)
            if kind == "quantity" and value is not None:
                lines.append(f"{name} = {q(value, dim)}")
        for name, kind, _ in keys:
            if kind == "bool" and getattr(t, name):
                lines.append(f"{name} = true")
        lines.append(f"tol = {run.calibration_tol!r}")
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
