"""Behavioral simulator of an analog AdEx neuron.

An ideal adaptive exponential integrate-and-fire reference model, a
circuit-level behavioral model (saturating transconductors, adaptation
filter, weak-inversion exponential, current- and conductance-based
synaptic input), a device-mismatch and calibration pipeline, and an
experiment harness with firing-pattern classification.
"""

__version__ = "0.1.0"

from .errors import (
    AdexSimError, InvalidConfig, NoIdealEquivalent, NonFiniteState,
    NotLeakOverThreshold, ParseError, ValidationError, WindowTooShort,
)
from .model import (
    AdExParameters, NeuronState, SimulationTrace, StimulusProgram,
    lif_parameters, predicted_lot_isi, simulate,
)
from .synapse import WeightedSpikeTrain, psp_metrics
from .circuit import (
    AdaptationCircuitConfig, CircuitNeuronConfig, CircuitState,
    ExponentialCircuitConfig, OtaModel, SynInCircuitConfig,
    circuit_for_adex, coba_effective_bias, default_circuit_config,
    derive_effective_adex, exponential_current, ota_output, simulate_circuit,
    simulate_population,
)
from .mismatch import (
    MismatchModel, Population, default_mismatch_model, sample_population,
)
from .measure import (
    measure_b, measure_delta_t, measure_psp_amplitude, measure_stim_gain,
    measure_subthreshold_a, measure_tau_m, measure_tau_syn, measure_tau_w,
)
from .calibrate import CalibrationResult, CalibrationTarget, calibrate_population
from .experiments import (
    FIRING_PATTERN_LABELS, ExperimentReport,
    classify_firing_pattern, phase_plane, run_exponential_sweep,
    run_firing_patterns, run_leak_over_threshold, run_psp_experiment,
)
from .patterns import FiringPattern, load_patterns
from .units import map_adex_parameters
