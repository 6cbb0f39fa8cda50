"""Named firing-pattern parameter sets and their hardware-domain mapping.

The parameter sets ship as config files under data/patterns/; they are
external inputs taken unmodified from the published firing-pattern
taxonomy (Naud et al. 2008, Biol. Cybern. 99) and are expressed in the
biological domain.  `to_hardware` converts a set into the accelerated
domain of the circuit model via the affine voltage map and time speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .config import read_config_sections
from .model import AdExParameters
from .units import DomainMap, map_adex_parameters, parse_quantity

_FIELD_DIMS = {
    "C": "capacitance", "g_l": "conductance", "E_l": "voltage",
    "V_T": "voltage", "Delta_T": "voltage", "tau_w": "time",
    "a": "conductance", "b": "current", "V_r": "voltage",
    "V_det": "voltage", "t_ref": "time",
}


@dataclass(frozen=True)
class FiringPattern:
    """One published parameter set plus its step-current protocol."""

    name: str
    label: str
    params: AdExParameters
    current: float
    onset: float
    duration: float

    def to_hardware(self):
        """Map the set into the accelerated hardware domain of the default
        `DomainMap`.

        Returns (params, step current, onset, duration) with voltages,
        conductances and currents rescaled so the dynamics correspond
        trajectory for trajectory.
        """
        dm = DomainMap()
        hw = map_adex_parameters(self.params, dm)
        c_bio = self.params.C
        return (hw, dm.current(self.current, c_bio),
                dm.time(self.onset), dm.time(self.duration))


def _parse_pattern(text: str, source: str) -> FiringPattern:
    sections = read_config_sections(text)
    meta = sections.get("pattern", {})
    neuron = sections.get("neuron", {})
    stim = sections.get("stimulus", {})
    kwargs = {}
    for key, (raw, line) in neuron.items():
        if key not in _FIELD_DIMS:
            raise ValueError(f"{source}: unknown neuron key {key!r}")
        kwargs[key] = parse_quantity(raw, _FIELD_DIMS[key], line)
    params = AdExParameters(**kwargs)
    return FiringPattern(
        name=meta["name"][0].strip(),
        label=meta["label"][0].strip(),
        params=params,
        current=parse_quantity(stim["current"][0], "current"),
        onset=parse_quantity(stim["onset"][0], "time"),
        duration=parse_quantity(stim["duration"][0], "time"))


def load_patterns() -> dict:
    """All shipped parameter sets, keyed by name."""
    out = {}
    root = resources.files("adexsim").joinpath("data/patterns")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".cfg"):
            continue
        pattern = _parse_pattern(entry.read_text(), entry.name)
        out[pattern.name] = pattern
    return out
