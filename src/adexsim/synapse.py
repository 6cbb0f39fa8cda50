"""Presynaptic event trains and their quantization onto integration steps.

A `WeightedSpikeTrain` is an ordered list of (time, weight) events that
drives one synaptic input line of the circuit (`SynInCircuitConfig`);
`weights_per_boundary` places its events on the sample boundaries at
which the engine applies them.  `psp_metrics` reads the baseline and
amplitude of a postsynaptic potential from a recorded trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowTooShort


@dataclass(frozen=True)
class WeightedSpikeTrain:
    """Ordered (time, weight) events; weights are dimensionless multipliers >= 0."""

    events: tuple

    def __post_init__(self):
        evs = tuple((float(t), float(w)) for t, w in self.events)
        times = [t for t, _ in evs]
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("event times must be non-decreasing")
        if any(w < 0 for _, w in evs):
            raise ValueError("event weights must be >= 0")
        object.__setattr__(self, "events", evs)


def weights_per_boundary(train: WeightedSpikeTrain, n_steps: int, dt: float):
    """Quantize events onto sample boundaries.

    Events in ((k)dt, (k+1)dt] are applied at boundary k+1 (spikes arriving
    between boundaries take effect at the next one); events at t <= 0 fold
    into the initial trace value.  Returns (s0, per-step arrival sums).
    """
    s0 = 0.0
    arrivals = np.zeros(n_steps)
    for t, wgt in train.events:
        if t <= 0.0:
            s0 += wgt
            continue
        k = int(math.ceil(t / dt - 1e-12)) - 1
        if 0 <= k < n_steps:
            arrivals[k] += wgt
    return s0, arrivals


# the pre-stimulus samples a baseline needs
MIN_BASELINE_SAMPLES = 10


def psp_metrics(trace, stim_time: float):
    """Baseline and signed amplitude of a postsynaptic potential.

    The baseline is the mean membrane potential over the pre-stimulus
    window; the amplitude is the largest post-stimulus excursion from that
    baseline, signed (positive for depolarizing deflections).
    """
    n_pre = int(math.floor(stim_time / trace.dt))
    n_pre = min(n_pre, len(trace.V))
    if n_pre < MIN_BASELINE_SAMPLES:
        raise WindowTooShort(
            f"only {n_pre} samples before the stimulus, need >= {MIN_BASELINE_SAMPLES}")
    baseline = float(np.mean(trace.V[:n_pre]))
    post = trace.V[n_pre:]
    if len(post) == 0:
        raise WindowTooShort("no samples after the stimulus")
    idx = int(np.argmax(np.abs(post - baseline)))
    return baseline, float(post[idx] - baseline)
