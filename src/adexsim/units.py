"""Unit-suffix handling and the biological/hardware time-domain mapping.

All internal quantities are plain SI floats (volts, amperes, siemens,
farads, seconds, ohms).  Config files and CSV headers attach explicit
suffixes so that mixed conventions (mV vs V, us vs ms) cannot leak into
silent scale errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ParseError

# suffix -> (scale to SI, dimension name)
UNIT_SUFFIXES = {
    "V": (1.0, "voltage"),
    "mV": (1e-3, "voltage"),
    "uV": (1e-6, "voltage"),
    "A": (1.0, "current"),
    "mA": (1e-3, "current"),
    "uA": (1e-6, "current"),
    "nA": (1e-9, "current"),
    "pA": (1e-12, "current"),
    "S": (1.0, "conductance"),
    "mS": (1e-3, "conductance"),
    "uS": (1e-6, "conductance"),
    "nS": (1e-9, "conductance"),
    "F": (1.0, "capacitance"),
    "uF": (1e-6, "capacitance"),
    "nF": (1e-9, "capacitance"),
    "pF": (1e-12, "capacitance"),
    "s": (1.0, "time"),
    "ms": (1e-3, "time"),
    "us": (1e-6, "time"),
    "ns": (1e-9, "time"),
    "Ohm": (1.0, "resistance"),
    "kOhm": (1e3, "resistance"),
    "MOhm": (1e6, "resistance"),
    "GOhm": (1e9, "resistance"),
}

# canonical suffix used when serializing a dimension
CANONICAL_SUFFIX = {
    "voltage": "V",
    "current": "A",
    "conductance": "S",
    "capacitance": "F",
    "time": "s",
    "resistance": "Ohm",
    "none": "",
}


def parse_quantity(text: str, dimension: str, line: int | None = None, column: int | None = None) -> float:
    """Parse "<number> <suffix>" into an SI float, checking the dimension.

    Dimensionless values ("none") must carry no suffix.  NaN and infinite
    values, written or reached by the unit scale, are rejected.
    """
    parts = text.strip().split()
    if dimension == "none":
        if len(parts) != 1:
            raise ParseError(f"expected a bare number, got {text!r}", line, column)
        return _finite(parts[0], 1.0, line, column)
    if len(parts) != 2:
        raise ParseError(
            f"expected '<number> <unit>' with a {dimension} unit, got {text!r}", line, column)
    num, suffix = parts
    if suffix not in UNIT_SUFFIXES:
        raise ParseError(f"unknown unit suffix {suffix!r}", line, column)
    scale, dim = UNIT_SUFFIXES[suffix]
    if dim != dimension:
        raise ParseError(
            f"unit {suffix!r} is a {dim} unit, expected {dimension}", line, column)
    return _finite(num, scale, line, column)


def _finite(num: str, scale: float, line, column) -> float:
    try:
        value = float(num)
    except ValueError:
        raise ParseError(f"not a number: {num!r}", line, column) from None
    value *= scale
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {num!r}", line, column)
    return value


def format_quantity(value: float, dimension: str) -> str:
    """Serialize an SI float with its canonical suffix (round-trip safe)."""
    if dimension == "none":
        return repr(float(value))
    return f"{float(value)!r} {CANONICAL_SUFFIX[dimension]}"


@dataclass(frozen=True)
class DomainMap:
    """Affine map between the biological parameter domain and the accelerated
    hardware-like domain the circuit model lives in.

    time:     t_hw = t_bio / time_speedup
    voltage:  V_hw = voltage_scale * (V_bio - v_bio_ref) + v_hw_ref
    currents and conductances follow from the membrane equation once the
    hardware membrane capacitance is fixed (see map_adex_parameters).

    The default voltage scale of 10 places typical -80..0 mV biological
    swings at 0.3..1.1 V and a 2 mV slope at 20 mV, inside the reachable
    hardware ranges.
    """

    time_speedup: float = 1000.0
    voltage_scale: float = 10.0
    v_bio_ref: float = -70e-3
    v_hw_ref: float = 0.4
    c_hw: float = 2.47e-12

    def voltage(self, v_bio: float) -> float:
        return self.voltage_scale * (v_bio - self.v_bio_ref) + self.v_hw_ref

    def voltage_diff(self, dv_bio: float) -> float:
        return self.voltage_scale * dv_bio

    def time(self, t_bio: float) -> float:
        return t_bio / self.time_speedup

    def current(self, i_bio: float, c_bio: float) -> float:
        """Currents scale with alpha * k * C_hw / C_bio so the membrane ODE is preserved."""
        return i_bio * self.voltage_scale * self.time_speedup * self.c_hw / c_bio

    def conductance(self, g_bio: float, c_bio: float) -> float:
        return g_bio * self.time_speedup * self.c_hw / c_bio


def map_adex_parameters(p, dm: DomainMap):
    """Map ideal-model parameters from the biological to the hardware domain.

    The mapped model is dynamically equivalent: trajectories correspond via
    the affine voltage map and the time speedup.  `p` is an AdExParameters
    instance (imported lazily to avoid a module cycle).
    """
    c_bio = p.C
    return replace(
        p,
        C=dm.c_hw,
        g_l=dm.conductance(p.g_l, c_bio),
        E_l=dm.voltage(p.E_l),
        V_T=dm.voltage(p.V_T),
        Delta_T=dm.voltage_diff(p.Delta_T),
        tau_w=dm.time(p.tau_w),
        a=dm.conductance(p.a, c_bio),
        b=dm.current(p.b, c_bio),
        V_r=dm.voltage(p.V_r),
        V_det=dm.voltage(p.V_det),
        t_ref=dm.time(p.t_ref),
    )
