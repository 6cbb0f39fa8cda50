"""Unit-suffix handling and the biological/hardware time-domain mapping.

All internal quantities are plain SI floats (volts, amperes, siemens,
farads, seconds, ohms).  Config files and CSV headers attach explicit
suffixes so that mixed conventions (mV vs V, us vs ms) cannot leak into
silent scale errors.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .circuit import MAX_MEMBRANE_CAPACITANCE
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


def parse_quantity(text: str, dimension: str, line: int | None = None) -> float:
    """Parse "<number> <suffix>" into an SI float, checking the dimension.

    Dimensionless values ("none") must carry no suffix.  NaN and infinite
    values, written or reached by the unit scale, are rejected.
    """
    parts = text.strip().split()
    if dimension == "none":
        if len(parts) != 1:
            raise ParseError(f"expected a bare number, got {text!r}", line)
        return _finite(parts[0], 1.0, line)
    if len(parts) != 2:
        raise ParseError(
            f"expected '<number> <unit>' with a {dimension} unit, got {text!r}", line)
    num, suffix = parts
    if suffix not in UNIT_SUFFIXES:
        raise ParseError(f"unknown unit suffix {suffix!r}", line)
    scale, dim = UNIT_SUFFIXES[suffix]
    if dim != dimension:
        raise ParseError(
            f"unit {suffix!r} is a {dim} unit, expected {dimension}", line)
    return _finite(num, scale, line)


def _finite(num: str, scale: float, line) -> float:
    try:
        value = float(num)
    except ValueError:
        raise ParseError(f"not a number: {num!r}", line) from None
    value *= scale
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {num!r}", line)
    return value


def format_quantity(value: float, dimension: str) -> str:
    """Serialize an SI float with its canonical suffix (round-trip safe)."""
    if dimension == "none":
        return repr(float(value))
    return f"{float(value)!r} {CANONICAL_SUFFIX[dimension]}"


# the affine map between the biological parameter domain and the
# accelerated hardware domain the circuit model lives in:
#
#     time:     t_hw = t_bio / TIME_SPEEDUP
#     voltage:  V_hw = VOLTAGE_SCALE * (V_bio - V_BIO_REF) + V_HW_REF
#
# currents and conductances follow from the membrane equation once the
# hardware membrane capacitance is fixed, at the circuit's largest (see
# map_adex_parameters).  The voltage scale of 10 places typical -80..0 mV
# biological swings at 0.3..1.1 V and a 2 mV slope at 20 mV, inside the
# reachable hardware ranges.
TIME_SPEEDUP = 1000.0
VOLTAGE_SCALE = 10.0
V_BIO_REF = -70e-3
V_HW_REF = 0.4


def hw_voltage(v_bio):
    return VOLTAGE_SCALE * (v_bio - V_BIO_REF) + V_HW_REF


def hw_time(t_bio):
    return t_bio / TIME_SPEEDUP


def hw_current(i_bio, c_bio):
    """Currents scale with alpha * k * C_hw / C_bio so the membrane ODE is preserved."""
    return i_bio * VOLTAGE_SCALE * TIME_SPEEDUP * MAX_MEMBRANE_CAPACITANCE / c_bio


def hw_conductance(g_bio, c_bio):
    return g_bio * TIME_SPEEDUP * MAX_MEMBRANE_CAPACITANCE / c_bio


def map_adex_parameters(p):
    """Map ideal-model parameters from the biological to the hardware domain.

    The mapped model is dynamically equivalent: trajectories correspond via
    the affine voltage map and the time speedup.  `p` is an AdExParameters
    instance.
    """
    c_bio = p.C
    return replace(
        p,
        C=MAX_MEMBRANE_CAPACITANCE,
        g_l=hw_conductance(p.g_l, c_bio),
        E_l=hw_voltage(p.E_l),
        V_T=hw_voltage(p.V_T),
        Delta_T=VOLTAGE_SCALE * p.Delta_T,
        tau_w=hw_time(p.tau_w),
        a=hw_conductance(p.a, c_bio),
        b=hw_current(p.b, c_bio),
        V_r=hw_voltage(p.V_r),
        V_det=hw_voltage(p.V_det),
        t_ref=hw_time(p.t_ref),
    )
