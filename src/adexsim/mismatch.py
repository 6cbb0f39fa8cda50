"""Fixed-pattern device variability sampled into neuron populations.

Mismatch lives on the device constants a calibration loop cannot touch
(transconductance coefficients, the conversion resistor, charge gains,
offsets, the stimulus DAC gain); the bias knobs themselves stay nominal
and are later adjusted per neuron by calibration.  Multiplicative spreads
are lognormal with unit mean so positive constants stay positive; offsets
with zero nominal value get additive normal spreads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq, is_

import numpy as np

from .circuit import CircuitNeuronConfig, _check_width, derive_effective_adex, get_bias, set_bias


@dataclass(frozen=True)
class ParameterRange:
    """Reachable range of an effective parameter with endpoint variability.

    `sigma_lo`/`sigma_hi` are the relative standard deviations observed at
    the measurement endpoints (`meas_lo`/`meas_hi`, defaulting to the range
    bounds); in between they are interpolated on a log axis.  For
    parameters whose quoted minimum is merely the smallest *measured*
    setting rather than a floor (the bias can be reduced further, or the
    circuit disabled), the validation range extends below it.
    """

    lo: float
    hi: float
    sigma_lo: float = 0.0
    sigma_hi: float = 0.0
    meas_lo: float | None = None
    meas_hi: float | None = None

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def sigma_at(self, value: float) -> float:
        if self.sigma_lo == self.sigma_hi:
            return self.sigma_hi
        lo = self.meas_lo if self.meas_lo is not None else self.lo
        hi = self.meas_hi if self.meas_hi is not None else self.hi
        v = min(max(value, lo), hi)
        if lo <= 0:
            return self.sigma_hi
        frac = math.log(v / lo) / math.log(hi / lo)
        return self.sigma_lo + frac * (self.sigma_hi - self.sigma_lo)


# Reachable effective-parameter envelope of the emulated neuron array with
# the neuron-to-neuron variability quoted at the measurement endpoints.
# The subthreshold adaptation strength was characterized down to 30 uS
# only; smaller values remain reachable by reducing the coupling bias, so
# its validation floor is zero.
PARAMETER_RANGES = {
    "tau_m": ParameterRange(0.6e-6, 915e-6, 0.2 / 0.6, 140 / 915),
    "E_l": ParameterRange(0.0, 1.0),
    "V_threshold": ParameterRange(0.2, 1.2),
    "I_stim": ParameterRange(0.0, 121e-9, 14 / 121, 14 / 121),
    "tau_syn": ParameterRange(0.29e-6, 538e-6, 0.03 / 0.29, 98 / 538),
    "I_syn_peak": ParameterRange(0.033e-6, 1.15e-6, 0.003 / 0.033, 0.03 / 1.15),
    "tau_w": ParameterRange(22e-6, 853e-6, 3 / 22, 117 / 853),
    "a": ParameterRange(0.0, 1065e-6, 4 / 30, 114 / 1065,
                        meas_lo=30e-6, meas_hi=1065e-6),
    "b": ParameterRange(0.0, math.inf),
    "delta_t": ParameterRange(13e-3, 91e-3, 2 / 13, 46 / 91),
}

# spreads with no quoted endpoint data; documented defaults
DEFAULT_ONSET_CURRENT_SIGMA = 0.10   # exponential I_0 (shifts the onset)
DEFAULT_FOLLOWER_OFFSET_SIGMA = 5e-3  # additive, volts


@dataclass(frozen=True)
class MismatchModel:
    """Per-constant spreads plus the sampling seed.

    `relative` maps a dotted circuit-constant path to a relative standard
    deviation (lognormal multiplier, unit mean); `additive` maps a path to
    an absolute standard deviation (normal, for zero-nominal offsets).
    """

    relative: dict = field(default_factory=dict)
    additive: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for name, sigma in {**self.relative, **self.additive}.items():
            if sigma < 0:
                raise ValueError(f"sigma for {name!r} must be >= 0")


# scalar configs that iterating `Population.neurons` builds at a time: the
# memory an iteration holds is bounded by the block, not by the population
NEURON_BLOCK = 512


def _stored(values: np.ndarray) -> np.ndarray:
    """`values` as a population leaf: a read-only stride-0 view of its
    first value (`np.broadcast_to`) where all values have the same bits,
    else `values` itself."""
    bits = values.view(np.uint64)
    if (bits == bits[0]).all():
        return np.broadcast_to(values[0], values.shape)
    return values


def _stack(cfgs) -> CircuitNeuronConfig:
    """Combine per-neuron configs into one config with array leaves.

    Numeric fields become leaves of shape (len(cfgs),).  A field whose
    values all have the same bits is stored once (`_stored`); any other
    field is an ordinary array.  Flags must be uniform across the
    population.  One object shared by every config (all of
    `[nominal] * n`) is read once.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("empty population")
    n = len(cfgs)

    def combine(objs):
        first = objs[0]
        # n references to one object: its bits are the same n times
        if len(objs) > 1 and all(map(is_, objs, repeat(first))):
            objs = objs[:1]
        if dataclasses.is_dataclass(first):
            kwargs = {}
            for f in dataclasses.fields(first):
                kwargs[f.name] = combine([getattr(o, f.name) for o in objs])
            return type(first)(**kwargs)
        if first is None or isinstance(first, bool):
            if any(o != first for o in objs):
                raise ValueError("flags must be uniform across a population")
            return first
        if len(objs) == 1:
            return np.broadcast_to(float(first), (n,))
        return _stored(np.array([float(o) for o in objs]))

    return combine(cfgs)


def _take(cfg: CircuitNeuronConfig, rows: slice, n: int) -> CircuitNeuronConfig:
    """The stacked config of the n columns `rows` (a unit-step slice) of a
    stacked config, cut leaf by leaf.

    A cut whose values all have the same bits is stored once (`_stored`),
    as `_stack` stores the columns' values, so a stride-0 leaf stays a
    stride-0 view at the new width.  Any other cut is a slice of its leaf.
    Every cut is read-only: the result writes none of `cfg`'s memory.
    Flags pass through.
    """
    if n < 1:
        raise ValueError("empty population")

    def take(obj):
        if dataclasses.is_dataclass(obj):
            return type(obj)(**{f.name: take(getattr(obj, f.name))
                                for f in dataclasses.fields(obj)})
        if obj is None or isinstance(obj, bool):
            return obj
        arr = np.asarray(obj, dtype=float)
        part = _stored(arr[rows] if arr.ndim else np.broadcast_to(arr, (n,)))
        part.flags.writeable = False
        return part

    return take(cfg)


def _columns(cfg: CircuitNeuronConfig, cols, n: int) -> list:
    """The scalar configs of the n columns `cols` (a slice or an index
    list) of a stacked config.

    The tree is walked once, children before parents as construction runs.
    Each dataclass node runs its own `__post_init__` once, on the selected
    values of its fields: every check is elementwise, so it holds for each
    column.  The columns are then built as a frozen dataclass's `__init__`
    builds them, one `object.__setattr__` per field, without running the
    checks again.  When a check fails, the node's columns are built with
    its constructor, so the error raised is the one the per-column
    constructors raise first.  A stride-0 leaf holds one value, and every
    column gets the same float object for it.
    """
    new, put = object.__new__, object.__setattr__

    def columns(obj) -> list:
        kind = type(obj)
        names = [f.name for f in dataclasses.fields(obj)]
        selected, per_field = [], []
        for name in names:
            value = getattr(obj, name)
            if dataclasses.is_dataclass(value):
                selected.append(value)
                per_field.append(columns(value))
            elif value is None or isinstance(value, bool):
                selected.append(value)
                per_field.append(repeat(value, n))
            else:
                arr = np.asarray(value, dtype=float)
                if arr.ndim:
                    arr = arr[cols]
                    if arr.shape != (n,):
                        raise ValueError(f"{kind.__name__}.{name} does not hold {n} values")
                selected.append(arr)
                per_field.append(repeat(float(arr.flat[0]), n) if arr.strides in ((), (0,))
                                 else arr.tolist())
        check = new(kind)
        for name, value in zip(names, selected):
            put(check, name, value)
        try:
            check.__post_init__()
        except ValueError:
            # the constructors would stop at the first bad column, on its
            # first failing check: build the columns with them to raise that
            for values in zip(*per_field):
                kind(**dict(zip(names, values)))
            raise
        objs = [new(kind) for _ in range(n)]
        for name, values in zip(names, per_field):
            for _ in map(put, objs, repeat(name), values):
                pass
        return objs

    return columns(cfg)


def _neuron(cfg: CircuitNeuronConfig, i: int) -> CircuitNeuronConfig:
    """Neuron i of a stacked config as a scalar config, without splitting
    the others."""
    return _columns(cfg, [i], 1)[0]


class _Neurons:
    """The scalar per-neuron configs of a run of columns of a stacked
    config, as a read-only sequence that builds each config when it is
    read and keeps none.

    An int index builds that neuron alone (`_neuron`), a unit-step slice
    is the view of its columns, and iteration builds the columns
    NEURON_BLOCK at a time (`_columns`), so the configs of one block share
    one float object per stride-0 leaf.  A view equals another view, or a
    list, that holds equal configs in the same order.
    """

    __slots__ = ("_cfg", "_rows")

    def __init__(self, cfg: CircuitNeuronConfig, rows: range):
        self._cfg, self._rows = cfg, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = self._rows[index]
            if rows.step != 1:
                raise ValueError("a neurons view takes unit-step slices only")
            return _Neurons(self._cfg, rows)
        return _neuron(self._cfg, self._rows[index])

    def __iter__(self):
        stop = self._rows.stop
        for start in range(self._rows.start, stop, NEURON_BLOCK):
            end = min(start + NEURON_BLOCK, stop)
            yield from _columns(self._cfg, slice(start, end), end - start)

    def __eq__(self, other):
        if not isinstance(other, (_Neurons, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class Population:
    """Mismatch-perturbed copies of one nominal neuron.

    A population is one stacked config whose numeric leaves hold `size`
    values each, the form every population routine reads.  A value that
    every neuron holds with the same bits is stored once, as a read-only
    stride-0 leaf (see `_stack`); perturbed and calibrated leaves are
    ordinary arrays.  `neurons` is a view of the scalar per-neuron
    configs (`_Neurons`), built from the stacked config as they are read.

    `Population(neurons)` stacks a list of scalar configs (`_stack`), or
    cuts the columns of a `neurons` view from its stacked config
    (`_take`) without building them.
    """

    def __init__(self, neurons):
        if isinstance(neurons, _Neurons):
            rows = neurons._rows
            self._cfg = _take(neurons._cfg, slice(rows.start, rows.stop), len(rows))
            self.size = len(rows)
        else:
            neurons = list(neurons)
            self._cfg, self.size = _stack(neurons), len(neurons)

    def stacked(self) -> CircuitNeuronConfig:
        return self._cfg

    @classmethod
    def from_stacked(cls, cfg: CircuitNeuronConfig, n: int) -> "Population":
        """Wrap a stacked config of n neurons, without splitting it; every
        array leaf must hold n values."""
        if np.shape(cfg.C_mem) != (n,):
            raise ValueError(f"stacked config does not hold {n} neurons")
        _check_width(cfg, n)
        pop = cls.__new__(cls)
        pop._cfg, pop.size = cfg, n
        return pop

    @property
    def neurons(self) -> _Neurons:
        return _Neurons(self._cfg, range(self.size))


def _lognormal_multiplier(rng, sigma_rel: float, n: int) -> np.ndarray:
    """Unit-mean lognormal samples whose std/mean equals sigma_rel exactly."""
    if sigma_rel == 0.0:
        return np.ones(n)
    s = math.sqrt(math.log1p(sigma_rel ** 2))
    return np.exp(rng.normal(0.0, s, n) - 0.5 * s * s)


class _OutOfDomain(ValueError):
    """A spread drew a constant outside its domain: the MismatchModel
    `spreads` ('relative' or 'additive') and the constant's `path`."""

    def __init__(self, spreads: str, path: str, err: ValueError):
        super().__init__(f"{spreads} spread of {path}: {err}")
        self.spreads, self.path = spreads, path


def sample_population(nominal: CircuitNeuronConfig, mm: MismatchModel, n: int) -> Population:
    """Draw n independent neurons around the nominal configuration.

    Deterministic for a given seed: paths are visited in sorted order, one
    block of n samples each.  A draw outside a constant's domain raises
    `_OutOfDomain`, a ValueError naming the spread.
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    rng = np.random.default_rng(mm.seed)
    cfg = _stack([nominal] * n)

    def perturb(spreads, path, draw):
        try:
            return set_bias(cfg, path, draw(np.asarray(get_bias(cfg, path))))
        except ValueError as err:
            raise _OutOfDomain(spreads, path, err) from err

    for path in sorted(mm.relative):
        mult = _lognormal_multiplier(rng, mm.relative[path], n)
        cfg = perturb("relative", path, lambda x: x * mult)
    for path in sorted(mm.additive):
        sigma = mm.additive[path]
        delta = rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)
        cfg = perturb("additive", path, lambda x: x + delta)
    return Population.from_stacked(cfg, n)


def default_mismatch_model(nominal: CircuitNeuronConfig, seed: int = 0) -> MismatchModel:
    """Spreads derived from the documented endpoint variability, evaluated
    at the nominal neuron's operating point.

    Capacitors are treated as matched (their spread is folded into the
    transconductance constants); the mirror ratio of the adaptation output
    stage is likewise treated as exact.
    """
    eff = derive_effective_adex(nominal)
    relative = {
        "leak_ota.g_per_bias": PARAMETER_RANGES["tau_m"].sigma_at(eff.tau_m),
        "stim_gain": PARAMETER_RANGES["I_stim"].sigma_hi,
    }
    if nominal.adaptation.enabled:
        relative["adaptation.ota_tau.g_per_bias"] = \
            PARAMETER_RANGES["tau_w"].sigma_at(eff.tau_w)
        relative["adaptation.ota_a.g_per_bias"] = \
            PARAMETER_RANGES["a"].sigma_at(abs(eff.a))
    if nominal.exponential.enabled:
        relative["exponential.r_conv"] = \
            PARAMETER_RANGES["delta_t"].sigma_at(eff.Delta_T)
        relative["exponential.I_0"] = DEFAULT_ONSET_CURRENT_SIGMA
    additive = {}
    for side in ("syn_exc", "syn_inh"):
        syn = getattr(nominal, side)
        if not syn.enabled:
            continue
        peak = syn.g1_per_bias * syn.I_b_cuba * syn.dv_unit
        relative[f"{side}.q_unit"] = PARAMETER_RANGES["I_syn_peak"].sigma_at(peak)
        relative[f"{side}.leak_gain"] = PARAMETER_RANGES["tau_syn"].sigma_at(syn.tau_syn)
        additive[f"{side}.follower_offset"] = DEFAULT_FOLLOWER_OFFSET_SIGMA
    return MismatchModel(relative=relative, additive=additive, seed=seed)
