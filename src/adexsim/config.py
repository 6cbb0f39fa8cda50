"""Config-file grammar, validation and serialization.

The format is line based:

    # comment (also ;)
    [section]
    key = value

Values carry mandatory unit suffixes for dimensioned quantities
("0.5 V", "20 us", "60 nA", "2.47 pF", "0.1 uS"); lists are
comma-separated; time-tagged pairs use "time : value".  Unknown sections
or keys are errors, as are missing units or wrong dimensions.  The exact
schema is in SCHEMA below and documented in the README; KINDS reads and
writes the value of each kind of key.
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


def _read_bool(raw, dims, line, where):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"expected a boolean, got {raw!r}", line)


def _read_int(raw, dims, line, where):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"expected an integer, got {raw!r}", line) from None


def _read_string(raw, dims, line, where):
    value = raw.strip()
    if not value:
        raise ValidationError(f"{where} needs a value")
    if dims is not None and value not in dims:
        raise ValidationError(f"{where} must be one of {', '.join(dims)}; got {value!r}")
    return value


def _nonempty(values: tuple, where) -> tuple:
    if not values:
        raise ValidationError(f"{where} needs at least one value")
    return values


def _read_pairs(raw, dims, line, where):
    """Comma-separated "left : right" pairs."""
    pairs = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"expected 'time : value' pair, got {part!r}", line)
        left, _, right = part.partition(":")
        pairs.append((parse_quantity(left, dims[0], line),
                      parse_quantity(right, dims[1], line)))
    return tuple(pairs)


# kind -> (read(raw text, dims, line, "[section] key"), write(value, dims));
# a list is comma-separated quantities, names are comma-separated words
KINDS = {
    "quantity": (lambda raw, dims, line, where: parse_quantity(raw, dims, line),
                 format_quantity),
    "bool": (_read_bool, lambda value, dims: str(value).lower()),
    "int": (_read_int, lambda value, dims: str(value)),
    "string": (_read_string, lambda value, dims: value),
    "list": (lambda raw, dims, line, where: _nonempty(tuple(
        parse_quantity(part, dims, line) for part in raw.split(",") if part.strip()), where),
             lambda value, dims: ", ".join(format_quantity(v, dims) for v in value)),
    "names": (lambda raw, dims, line, where: _nonempty(tuple(
        part.strip() for part in raw.split(",") if part.strip()), where),
              lambda value, dims: ", ".join(value)),
    "pairs": (_read_pairs, lambda value, dims: ", ".join(
        f"{format_quantity(left, dims[0])} : {format_quantity(right, dims[1])}"
        for left, right in value)),
}


# the experiments `adexsim experiment <name>` runs
EXPERIMENTS = ("leak_over_threshold", "psp", "exponential_sweep", "firing_patterns")

# schema: section -> key -> (kind, dimension), each kind read and written
# by KINDS; a key the file sets is read once, as its kind
SCHEMA = {
    "run": {
        "mode": ("string", ("simulate", "calibrate", "experiment", "sweep")),
        "model": ("string", ("ideal", "circuit")),
        "seed": ("int", None),
        "dt": ("quantity", "time"),
        "duration": ("quantity", "time"),
        "format": ("string", ("csv", "json")),
        "out": ("string", None),
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
    **{f"syn_{side}": {
        "enabled": ("bool", None),
        "tau_syn": ("quantity", "time"),
        "coba": ("bool", None),
        "e_syn": ("quantity", "voltage"),
        "e_syn_hat": ("quantity", "voltage"),
        "bias": ("quantity", "current"),
    } for side in ("exc", "inh")},
    "stimulus": {
        "segments": ("pairs", ("time", "current")),
        "current": ("quantity", "current"),
        "onset": ("quantity", "time"),
        "offset": ("quantity", "time"),
    },
    **{f"events_{side}": {"events": ("pairs", ("time", "none"))} for side in ("exc", "inh")},
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
        "name": ("string", EXPERIMENTS),
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
        # quantities of the swept key's dimension
        "values": ("list", None),
    },
}

# [mismatch] spread overrides: key prefix -> the MismatchModel spreads it
# sets; the rest of the key is the dotted path of a circuit constant
_SPREADS = {"sigma_rel_": "relative", "sigma_abs_": "additive"}

# keys a circuit owner divides by: each must be > 0 when the file sets it
_POSITIVE = {"circuit": ("tau_m", "C_mem"), "adaptation": ("tau_w", "pulse_width"),
             "syn_exc": ("tau_syn",), "syn_inh": ("tau_syn",),
             "exponential": ("delta_t",)}

# the neuron's default exponential switch (a slotted dataclass keeps its
# defaults on its fields, not as class attributes)
_EXP_ENABLED = AdExParameters.__dataclass_fields__["exp_enabled"].default

# (section, switch, the switch where the file does not set it, the keys
# the section reads only with the switch on, a key ending in "_" or "."
# standing for every key it begins); a switch of another section is a
# (section, key) pair, and a line's enabled comes first
_SWITCHED = (("neuron", "exp_enabled", _EXP_ENABLED,
              ("V_T", "Delta_T", "exp_gated_in_ref")),
             ("adaptation", "enabled", False, ("tau_w", "a", "b", "pulse_width")),
             ("exponential", "enabled", False,
              ("delta_t", "v_t", "i_max", "gate_in_refractory")),
             *((f"syn_{side}", "enabled", True, ("tau_syn", "coba", "bias"))
               for side in ("exc", "inh")),
             *((f"syn_{side}", "coba", False, ("e_syn", "e_syn_hat"))
               for side in ("exc", "inh")),
             ("mismatch", "enabled", True, ("seed", *_SPREADS)),
             # the spread of a switched-off sub-circuit's constant
             *(("mismatch", (sub, "enabled"), on, tuple(f"{p}{sub}." for p in _SPREADS))
               for sub, on in (("adaptation", False), ("exponential", False),
                               ("syn_exc", True), ("syn_inh", True))))

_CIRCUIT = dict.fromkeys(("circuit", "adaptation", "exponential", "syn_exc", "syn_inh"))
_LINES = dict.fromkeys(("stimulus", "events_exc", "events_inh"))
_RUN = ("mode", "model", "seed", "out")

# what a run reads: (command, experiment name, model) -> {section: the keys
# it reads, None for all; a key ending in "_" or "." stands for every key
# it begins, as a spread override's path prefix}.  A key is read if
# changing its value can change an output file other than
# config.resolved.cfg; parse_config rejects any other, serialize_config
# writes no other, and `_SWITCHED` gates keys within these.  Every run
# reads [run] mode, model, seed and out (`_RUN`), `seed` also where nothing
# is drawn, for command lines that set it on every command.
_READS = {
    ("simulate", None, "ideal"): {"run": (*_RUN, "dt", "duration", "format"), "neuron": None,
                                  "stimulus": None},
    ("simulate", None, "circuit"): {"run": (*_RUN, "dt", "duration", "format"), **_CIRCUIT,
                                    **_LINES},
    # a sweep writes CSV alone
    ("sweep", None, "ideal"): {"run": (*_RUN, "dt", "duration"), "neuron": None,
                               "stimulus": None, "sweep": None},
    ("sweep", None, "circuit"): {"run": (*_RUN, "dt", "duration"), **_CIRCUIT, **_LINES,
                                 "sweep": None},
    ("calibrate", None, "circuit"): {"run": _RUN, **_CIRCUIT, "mismatch": None,
                                     "calibration": None},
    # the run switches adaptation, the exponential and the synaptic lines
    # off; the first two switches add mismatch draws ahead of the leak's,
    # and the lines' constants, drawn after it, are read by no spread
    ("experiment", "leak_over_threshold", "circuit"): {
        "run": _RUN, "circuit": None, "adaptation": ("enabled",), "exponential": ("enabled",),
        "mismatch": ("size", "seed", "enabled", *(
            prefix + path for prefix in _SPREADS for path in (
                "C_mem", "leak_ota.", "E_l", "V_det", "V_r", "t_ref", "adaptation.",
                "exponential.", "stim_"))),
        "experiment": ("name", "tau_m_targets", "v_inf", "n_isis", "tolerance")},
    ("experiment", "psp", "circuit"): {
        "run": _RUN, **_CIRCUIT, "mismatch": None, "calibration": None,
        "experiment": ("name", "line", "weight", "n_events")},
    # clamped I(V) curves outside the refractory period, placed by the leak
    # conductance and, without v_t, by V_det
    ("experiment", "exponential_sweep", "circuit"): {
        "run": _RUN, "circuit": ("tau_m", "C_mem", "V_det"),
        "exponential": ("enabled", "delta_t", "v_t", "i_max"),
        "experiment": ("name", "onsets", "slopes")},
    # each pattern brings its own neuron and stimulus
    ("experiment", "firing_patterns", "circuit"): {
        "run": (*_RUN, "format"), "mismatch": ("size",),
        "experiment": ("name", "patterns", "population", "agreement")},
    ("experiment", "firing_patterns", "ideal"): {
        "run": (*_RUN, "format"), "experiment": ("name", "patterns", "agreement")},
}
# the sections a run cannot do without
_NEEDS = {("simulate", None, "ideal"): ("neuron",),
          ("sweep", None, "ideal"): ("neuron", "sweep"), ("sweep", None, "circuit"): ("sweep",),
          ("calibrate", None, "circuit"): ("calibration",)}


def _names(name: str, key: str) -> bool:
    """Whether `name` names `key`: the key itself or, ending in "_" or ".",
    every key it begins."""
    return key == name or name.endswith(("_", ".")) and key.startswith(name)


def _reads(row: dict, section: str, key: str) -> bool:
    """Whether a run whose `_READS` row is `row` reads `key` of `section`."""
    return section in row and (row[section] is None
                               or any(_names(name, key) for name in row[section]))


def _label(command: str, name: str | None, model: str) -> str:
    """A run as messages name it: the command, its experiment, and the
    model where the command runs both."""
    both = all((command, name, m) in _READS for m in ("ideal", "circuit"))
    return " ".join(filter(None, (command, name))) + (f" with model = {model}" if both else "")


def _check_read(sections, row: dict, label: str) -> None:
    """Reject each section and key of the file that the run does not read."""
    for section, keys in sections.items():
        unread = [key for key in keys if not _reads(row, section, key)]
        if unread or section not in row:
            reads = row.get(section) or ()
            which = f", which reads [{section}] {', '.join(reads)}" if reads else ""
            raise ValidationError(f"{' '.join((f'[{section}]', *unread[:1]))} is not read "
                                  f"by {label}{which}")


@dataclass
class RunConfig:
    """Validated run-level settings plus the parsed payload objects."""

    # the command that runs the file
    mode: str | None = None
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
    # {"relative" or "additive": {circuit path: sigma}}, the spreads the
    # file sets over those of `default_mismatch_model`
    mismatch_overrides: dict = field(default_factory=dict)
    calibration: CalibrationTarget | None = None
    calibration_tol: float = 0.02
    experiment: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)


# the RunConfig field each key of these sections sets, in the order the
# resolved text writes them
_FIELDS = {
    "run": {"mode": "mode", "model": "model", "seed": "seed", "dt": "dt",
            "duration": "duration", "format": "fmt", "out": "out_dir"},
    "mismatch": {"size": "mismatch_size", "enabled": "mismatch_enabled",
                 "seed": "mismatch_seed"},
    "calibration": {"tol": "calibration_tol"},
}


def _run_fields(section: str, given: dict) -> dict:
    """{RunConfig field: value} of the keys of `section` given that set one."""
    return {_FIELDS[section][key]: value for key, value in given.items()
            if key in _FIELDS[section]}


def _written(run: RunConfig, section: str) -> dict:
    """{key: value} of the RunConfig fields the keys of `section` set."""
    return {key: getattr(run, name) for key, name in _FIELDS[section].items()}


def _spread(key: str):
    """(MismatchModel spreads, circuit path) of a spread override key, or None."""
    for prefix, spreads in _SPREADS.items():
        if key.startswith(prefix):
            return spreads, key[len(prefix):]
    return None


def _kind(section: str, key: str) -> tuple:
    """(kind, dims) of a key; a spread override is a bare number."""
    if section == "mismatch" and _spread(key):
        return "quantity", "none"
    return SCHEMA[section][key]


def _read(sections, section: str, key: str, dims=None):
    """The value of a key the file sets, read as its kind; `dims` in place
    of the schema's (the sweep values take the swept key's)."""
    raw, line = sections[section][key]
    kind, schema_dims = _kind(section, key)
    return KINDS[kind][0](raw, schema_dims if dims is None else dims, line,
                          f"[{section}] {key}")


def _given(sections, section) -> dict:
    """{key: value} for each key of `section` the file sets."""
    return {key: _read(sections, section, key) for key in sections.get(section, {})}


def _pick(values: dict, **names) -> dict:
    """{name: values[key]} for each name=key whose key is in `values`."""
    return {name: values[key] for name, key in names.items() if key in values}


def _check_unknown(sections):
    for section, keys in sections.items():
        if section not in SCHEMA:
            first_line = min(line for _, line in keys.values()) if keys else None
            raise ParseError(f"unknown section [{section}]", first_line)
        for key, (_, line) in keys.items():
            if key not in SCHEMA[section] and not (section == "mismatch" and _spread(key)):
                raise ParseError(f"unknown key {key!r} in [{section}]", line)


def _unread(given: dict):
    """(section, key, switch) of each key of {section: {key: value}} that a
    switch, as given or by default, leaves unread."""
    for section, switch, default, names in _SWITCHED:
        owner, flag = switch if isinstance(switch, tuple) else (section, switch)
        if not given.get(owner, {}).get(flag, default):
            switch = flag if owner == section else f"[{owner}] {flag}"
            yield from ((section, key, switch) for name in names
                        for key in given.get(section, {}) if _names(name, key))


def _check_switched(given: dict) -> None:
    for section, key, switch in _unread(given):
        raise ValidationError(f"[{section}] {key} is not read unless {switch} = true")


def _is_constant(cfg, path: str) -> bool:
    """Whether `path` names a float field of `cfg` down its dataclass
    fields, a constant a spread can perturb."""
    for name in path.split("."):
        if name not in getattr(cfg, "__dataclass_fields__", ()):
            return False
        cfg = getattr(cfg, name)
    return isinstance(cfg, float)


def _build_neuron(given: dict) -> AdExParameters:
    # omitted adaptation keys give a neuron without adaptation; with the
    # exponential off, V_T and Delta_T are unused and take no value
    vals = {"tau_w": 1.0, "a": 0.0, "b": 0.0, **given}
    if not vals.get("exp_enabled", _EXP_ENABLED):
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
    circuit, adaptation, exponential = (given.get(s, {}) for s in ("circuit", "adaptation",
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
            values = given.get(f"syn_{side}", {})
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
           "adaptation": {"enabled": ad.enabled, "tau_w": ad.tau_w, "a": ad.a_effective,
                          "b": ad.b_effective, "pulse_width": ad.pulse_width},
           "exponential": {"enabled": ex.enabled, "delta_t": eff.Delta_T, "v_t": eff.V_T,
                           "i_max": ex.I_max, "gate_in_refractory": ex.gate_in_refractory},
           **{f"syn_{side}": {"enabled": syn.enabled, "tau_syn": syn.tau_syn,
                              "coba": syn.coba_enabled, "bias": syn.I_b_cuba,
                              "e_syn_hat": syn.E_syn_hat}
              for side, syn in (("exc", cfg.syn_exc), ("inh", cfg.syn_inh))}}
    for section, key, _ in list(_unread(out)):
        del out[section][key]
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


def _build_stimulus(given: dict) -> StimulusProgram:
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


def _build_calibration(given: dict) -> dict:
    """The [calibration] fields of a RunConfig that the file sets."""
    try:
        target = CalibrationTarget(**{k: v for k, v in given.items() if k != "tol"})
    except ValueError as err:
        raise ValidationError(f"[calibration] {err}") from None
    return {"calibration": target, **_run_fields("calibration", given)}


def _check_timing(dt, duration, where=""):
    if not dt > 0:
        raise ValidationError(f"{where}[run] dt must be > 0")
    if not duration > 0:
        raise ValidationError(f"{where}[run] duration must be > 0")
    if dt > duration:
        raise ValidationError(f"{where}[run] dt ({dt:.6g} s) must not exceed "
                              f"duration ({duration:.6g} s)")


def _build_sweep(sections, run: RunConfig, row: dict, label: str) -> dict:
    key = _read(sections, "sweep", "key") if "key" in sections["sweep"] else None
    if key is None or "values" not in sections["sweep"]:
        raise ValidationError("[sweep] needs both key and values")
    section, _, name = key.partition(".")
    if section not in SCHEMA or name not in SCHEMA[section]:
        raise ValidationError(f"[sweep] unknown key {key!r}")
    if section not in ("neuron", "run"):
        raise ValidationError(f"[sweep] key {key!r}: sweep over [{section}] is not "
                              "supported; use neuron.* or run.*")
    if not _reads(row, section, name):
        raise ValidationError(f"[sweep] key {key!r} is not read by {label}")
    if section == "neuron":
        for _, _, switch in _unread({"neuron": {"exp_enabled": run.neuron.exp_enabled,
                                                name: None}}):
            raise ValidationError(f"[sweep] key {key!r} is not read unless "
                                  f"[neuron] {switch} = true")
    kind, dim = SCHEMA[section][name]
    if kind != "quantity":
        raise ValidationError(f"[sweep] key {key!r} is not a scalar quantity")
    values = _read(sections, "sweep", "values", dim)
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


def _build_mismatch(run: RunConfig, mismatch: dict) -> None:
    """Check the [mismatch] spread overrides and set them."""
    for key, sigma in mismatch.items():
        if spread := _spread(key):
            spreads, path = spread
            if not _is_constant(run.circuit, path):
                raise ValidationError(f"[mismatch] {key}: {path!r} names no numeric "
                                      "constant of the circuit")
            if not sigma >= 0:
                raise ValidationError(f"[mismatch] {key} must be >= 0, got {sigma!r}")
            # a relative spread scales the nominal, which leaves 0 at 0
            if spreads == "relative" and get_bias(run.circuit, path) == 0:
                raise ValidationError(f"[mismatch] {key}: the nominal {path} is 0, which "
                                      "a relative spread leaves unchanged")
            # the coupling's g is g_per_bias * I_bias: nothing reads g_per_bias
            # while the bias is 0, unless a calibrated a sets the bias
            if (path == "adaptation.ota_a.g_per_bias"
                    and get_bias(run.circuit, "adaptation.ota_a.I_bias") == 0
                    and not (run.calibration is not None and run.calibration.a)):
                raise ValidationError(
                    f"[mismatch] {key}: the nominal adaptation.ota_a.I_bias is 0 and no "
                    "nonzero [calibration] a sets it, so nothing reads its g_per_bias")
            run.mismatch_overrides.setdefault(spreads, {})[path] = sigma


def parse_config(text: str, command: str | None = None,
                 experiment: str | None = None) -> RunConfig:
    """Parse and validate a config document into a RunConfig for the
    command that runs it (else the file's [run] mode) and, under
    `experiment`, the experiment named (else the file's [experiment] name).

    A key the file omits takes the default of the object that owns it; a
    key the file sets is used as written or rejected, and so is a key the
    run does not read (`_READS`)."""
    sections = read_config_sections(text)
    _check_unknown(sections)

    given = _given(sections, "run")
    command = command or given.get("mode")
    if command is None:
        raise ValidationError("[run] mode is required where no command runs the file")
    if given.get("mode", command) != command:
        raise ValidationError(
            f"[run] mode declares {given['mode']!r}, command line asks for {command!r}")
    name = None
    if command == "experiment":
        written = _read(sections, "experiment", "name") if "name" in sections.get(
            "experiment", {}) else None
        name = experiment or written
        if name is None or written is None and "experiment" in sections:
            raise ValidationError("[experiment] name is required")
        if written not in (None, name):
            raise ValidationError(
                f"[experiment] name declares {written!r}, command line asks for {name!r}")
    # the ideal model where the file has a [neuron] section the run reads
    model = given.get("model", "ideal" if "neuron" in sections
                      and (command, name, "ideal") in _READS else "circuit")
    label = _label(command, name, model)
    if (command, name, model) not in _READS:
        raise ValidationError(f"[run] model = {model} is not read by {label}, "
                              "which runs model = circuit")
    row = _READS[command, name, model]
    _check_read(sections, row, label)
    for section in _NEEDS.get((command, name, model), ()):
        if section not in sections:
            raise ValidationError(f"{label} requires a [{section}] section")

    values = {section: _given(sections, section) for section in sections if section != "sweep"}
    for section, keys in _POSITIVE.items():
        for key in keys:
            if not values.get(section, {}).get(key, 1) > 0:
                raise ValidationError(f"[{section}] violates {key} > 0")
    _check_switched(values)
    run = RunConfig(**_run_fields("run", {**given, "mode": command, "model": model}))
    _check_timing(run.dt, run.duration)

    if "neuron" in row:
        run.neuron = _build_neuron(values["neuron"])
    if "circuit" in row:
        run.circuit = _build_circuit(values)
    if "stimulus" in sections:
        run.stimulus = _build_stimulus(values["stimulus"])

    for side in ("exc", "inh"):
        pairs = values.get(f"events_{side}", {}).get("events")
        if f"events_{side}" in sections and not getattr(run.circuit, f"syn_{side}").enabled:
            raise ValidationError(f"[events_{side}] is not read unless "
                                  f"[syn_{side}] enabled = true")
        if pairs:
            try:
                run.events[side] = WeightedSpikeTrain(pairs)
            except ValueError as err:
                raise ValidationError(f"[events_{side}] {err}") from None

    mismatch = values.get("mismatch", {})
    if "size" in mismatch and mismatch["size"] < 1:
        raise ValidationError("[mismatch] size must be >= 1")
    run = replace(run, **_run_fields("mismatch", mismatch))

    if "calibration" in sections:
        run = replace(run, **_build_calibration(values["calibration"]))

    if name is not None:
        spec = values.get("experiment") or {"name": name}
        for key, value in spec.items():
            if SCHEMA["experiment"][key][0] == "int" and value < 1:
                raise ValidationError(f"[experiment] {key} must be >= 1, got {value}")
        if "v_inf" in spec and not spec["v_inf"] > run.circuit.V_det:
            raise ValidationError(
                f"[experiment] v_inf = {format_quantity(spec['v_inf'], 'voltage')} must "
                f"exceed the circuit's V_det = {format_quantity(run.circuit.V_det, 'voltage')}")
        if "population" in spec and "size" in mismatch:
            raise ValidationError(f"[mismatch] size is not read by {label}, which reads "
                                  "[experiment] population in its place")
        run.experiment = spec

    if "sweep" in sections:
        run.sweep = _build_sweep(sections, run, row, label)
    # last, once the circuit and the experiment that read them are built
    for section, seeds in (("run", given), ("mismatch", mismatch)):
        if seeds.get("seed", 0) < 0:
            raise ValidationError(f"[{section}] seed must be >= 0, got {seeds['seed']}")
    _build_mismatch(run, mismatch)
    return run


def _section(name: str, values: dict, /, **dims) -> str:
    """The text of a section, a `key = text` line for each value that is
    not None; `dims` in place of the schema's, as for `_read`."""
    lines = [f"[{name}]"]
    for key, value in values.items():
        if value is not None:
            kind, schema_dims = _kind(name, key)
            lines.append(f"{key} = {KINDS[kind][1](value, dims.get(key, schema_dims))}")
    return "\n".join(lines)


def serialize_config(run: RunConfig) -> str:
    """Canonical text for a RunConfig: the keys its run reads (`_READS`);
    parse(serialize(parse(x))) == parse(x)."""
    sections = {"run": _written(run, "run")}
    if run.neuron is not None:
        sections["neuron"] = {key: getattr(run.neuron, key) for key in SCHEMA["neuron"]}
    if run.circuit is not None:
        sections.update(_resolved(run.circuit))
    sections["stimulus"] = {"segments": run.stimulus.segments}
    for side, train in sorted(run.events.items()):
        sections[f"events_{side}"] = {"events": train.events}
    mismatch = _written(run, "mismatch")
    overrides = sorted((prefix + path, sigma) for prefix, spreads in _SPREADS.items()
                       for path, sigma in run.mismatch_overrides.get(spreads, {}).items())
    if overrides or mismatch != _written(RunConfig(), "mismatch"):
        sections["mismatch"] = {**mismatch, **dict(overrides)}
    if run.calibration is not None:
        target = {key: getattr(run.calibration, key) for key in SCHEMA["calibration"]
                  if key != "tol"}
        # the target's values, then the flags that are on; tol is a run setting
        sections["calibration"] = {
            **{key: value for key, value in target.items() if not isinstance(value, bool)},
            **{key: value for key, value in target.items() if value is True},
            **_written(run, "calibration")}
    if run.experiment:
        sections["experiment"] = run.experiment
    for section, key, _ in list(_unread(sections)):
        del sections[section][key]
    row = _READS[run.mode, run.experiment.get("name"), run.model]
    text = "\n\n".join(
        _section(name, {key: value for key, value in values.items() if _reads(row, name, key)})
        for name, values in sections.items() if name in row)
    if run.sweep:
        swept, _, name = run.sweep["key"].partition(".")
        text += "\n\n" + _section("sweep", run.sweep, values=SCHEMA[swept][name][1])
    return text + "\n"
