"""Output checks of the benchmark.

Each check compares a program output with a reference the program does
not produce itself (a closed form computed here, a published label, the
ideal reference model on derived parameters) or with a property the
method must have (batch invariance, byte-identical reruns, calibration
that reduces spread).  A check raises `CheckFailed`; it returns nothing.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# The circuit's leak is a saturating transconductor, so its ISI sits a
# little below the ideal closed form (0.5% at most here); a few percent
# marks a wrong result.
LIF_REL_TOL = 0.015
# Circuit AdEx spike times against the ideal model on derived parameters,
# as a fraction of the mean ISI (worst seen here: 4.9% over 4500 wide
# neurons firing 4 to 8 times, 0.44% on configs/adex_step.cfg).
ADEX_ISI_FRACTION = 0.10
CLI_ADEX_ISI_FRACTION = 0.01
PATTERN_AGREEMENT = 0.95


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def lif_isi(t_ref, tau, v_inf, v_r, v_det):
    """Closed-form leak-over-threshold interspike interval (elementwise)."""
    v_inf = np.asarray(v_inf, dtype=float)
    return t_ref + tau * np.log((v_inf - v_r) / (v_inf - v_det))


def median_isis(spike_trains) -> np.ndarray:
    """Median ISI per spike train; NaN for fewer than two spikes."""
    return np.array([float(np.median(np.diff(s))) if len(s) > 1 else math.nan
                     for s in spike_trains])


def check_pattern(published: str, ideal_labels, circuit_labels,
                  agreement: float = PATTERN_AGREEMENT):
    """Ideal labels equal the published one; the circuit population agrees
    with it on at least `agreement` of its neurons."""
    wrong = [lab for lab in ideal_labels if lab != published]
    if wrong or not ideal_labels:
        raise CheckFailed(f"ideal label {wrong} differs from published {published!r}")
    labels = list(circuit_labels)
    frac = sum(lab == published for lab in labels) / len(labels) if labels else 0.0
    if frac < agreement:
        raise CheckFailed(f"circuit agreement {frac:.3f} < {agreement} for {published!r}")


def check_lif_population(spike_trains, predicted, tol: float = LIF_REL_TOL):
    """Every neuron's median ISI within `tol` of its own closed form."""
    med = median_isis(spike_trains)
    dev = np.abs(med - predicted) / predicted
    if not np.all(dev <= tol):
        bad = int(np.count_nonzero(~(dev <= tol)))
        worst = float(np.nanmax(dev)) if np.any(np.isfinite(dev)) else math.nan
        raise CheckFailed(f"{bad} of {len(dev)} neurons off the closed form "
                          f"(worst {worst:.4f} > {tol})")


def check_spike_match(circuit_spikes, ideal_spikes, fraction: float,
                      t_end: float | None = None):
    """Equal spike counts and every spike within `fraction` of the ideal
    mean ISI.  With `t_end`, the end of the simulated window, a spike of
    one train within that tolerance of the end may lack its partner in the
    other: the partner can fall just past the end."""
    c = np.asarray(circuit_spikes, dtype=float)
    r = np.asarray(ideal_spikes, dtype=float)
    if len(r) < 2:
        raise CheckFailed("too few ideal spikes to compare")
    tol = fraction * float(np.mean(np.diff(r)))
    n = min(len(c), len(r))
    unmatched = np.concatenate([c[n:], r[n:]])
    if len(c) != len(r) and (t_end is None or len(unmatched) > 1
                             or not unmatched[0] >= t_end - tol):
        raise CheckFailed(f"{len(c)} circuit spikes, {len(r)} ideal spikes")
    dev = float(np.max(np.abs(c[:n] - r[:n]))) / float(np.mean(np.diff(r)))
    if not dev <= fraction:
        raise CheckFailed(f"spike times off by {dev:.4f} of the mean ISI > {fraction}")


def check_batch_invariance(alone_spikes, batch_spikes, alone_v, batch_v):
    """A neuron run alone reproduces its batch column bit for bit."""
    if not (np.array_equal(np.asarray(alone_spikes), np.asarray(batch_spikes))
            and np.array_equal(np.asarray(alone_v), np.asarray(batch_v))):
        raise CheckFailed("neuron run alone differs from its column of the batch")


def check_identical_spike_csv(csv_text: str, ideal_spikes):
    """spikes.csv equals the ideal spike times written the same way."""
    rows = [ln for ln in csv_text.splitlines() if ln.strip()]
    expected = ["spike_time_us"] + ["%.9g" % (t * 1e6) for t in ideal_spikes]
    if rows != expected:
        raise CheckFailed(f"spikes.csv ({len(rows) - 1} spikes) differs from the "
                          f"ideal model ({len(expected) - 1} spikes)")


def read_spike_csv(csv_text: str) -> np.ndarray:
    rows = [ln for ln in csv_text.splitlines() if ln.strip()]
    if not rows or rows[0] != "spike_time_us":
        raise CheckFailed("spikes.csv has no spike_time_us header")
    return np.array([float(x) for x in rows[1:]]) * 1e-6


def check_sweep(summary_csv: str, predicted, dt: float):
    """Each sweep row's median ISI within one dt of its closed form."""
    rows = [ln.split(",") for ln in summary_csv.splitlines()[1:] if ln.strip()]
    if len(rows) != len(predicted):
        raise CheckFailed(f"{len(rows)} sweep rows, expected {len(predicted)}")
    for row, isi in zip(rows, predicted):
        measured = float(row[3]) * 1e-6
        if not abs(measured - isi) <= dt * (1 + 1e-9):
            raise CheckFailed(f"sweep value {row[1]}: median ISI {measured:.6g} s "
                              f"vs closed form {isi:.6g} s (dt {dt:.3g} s)")


def check_calibration(payload: dict):
    """Every neuron converged and every entry reduced the spread."""
    if payload.get("failures"):
        raise CheckFailed(f"{len(payload['failures'])} calibration failures")
    if not payload.get("outcomes"):
        raise CheckFailed("calibration report has no outcomes")
    for name, oc in payload["outcomes"].items():
        if not all(oc["converged"]):
            raise CheckFailed(f"{name}: not every neuron converged")
        if not oc["post_spread"] < oc["pre_spread"]:
            raise CheckFailed(f"{name}: spread {oc['pre_spread']:.4g} -> "
                              f"{oc['post_spread']:.4g} did not shrink")


def check_identical_dirs(a: Path, b: Path):
    """Both directories hold the same file names with the same bytes."""
    names_a = sorted(p.relative_to(a) for p in Path(a).rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in Path(b).rglob("*") if p.is_file())
    if names_a != names_b or not names_a:
        raise CheckFailed(f"rerun files differ: {names_a} vs {names_b}")
    for name in names_a:
        if (Path(a) / name).read_bytes() != (Path(b) / name).read_bytes():
            raise CheckFailed(f"rerun file {name} is not byte-identical")
