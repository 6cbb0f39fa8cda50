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

from .config import SCHEMA, _given, read_config_sections
from .model import AdExParameters
from .units import hw_current, hw_time, map_adex_parameters, parse_quantity


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
        """Map the set into the accelerated hardware domain
        (`map_adex_parameters`).

        Returns (params, step current, onset, duration) with voltages,
        conductances and currents rescaled so the dynamics correspond
        trajectory for trajectory.
        """
        hw = map_adex_parameters(self.params)
        return (hw, hw_current(self.current, self.params.C),
                hw_time(self.onset), hw_time(self.duration))


def _parse_pattern(text: str, source: str) -> FiringPattern:
    sections = read_config_sections(text)
    meta = sections.get("pattern", {})
    stim = sections.get("stimulus", {})
    # a published set gives the neuron's quantities only
    quantities = [key for key, (kind, _) in SCHEMA["neuron"].items() if kind == "quantity"]
    for key in sections.get("neuron", {}):
        if key not in quantities:
            raise ValueError(f"{source}: unknown neuron key {key!r}")
    params = AdExParameters(**_given(sections, "neuron"))
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
