import numpy as np
import pytest

from adexsim import (
    StimulusProgram, WeightedSpikeTrain, WindowTooShort, lif_parameters,
    psp_metrics, simulate,
)
from adexsim.synapse import weights_per_boundary


class TestWeightsPerBoundary:
    def test_off_boundary_events_quantize_to_next_boundary(self):
        dt = 1e-6
        train = WeightedSpikeTrain(((2.4e-6, 1.0),))
        _, arrivals = weights_per_boundary(train, 5, dt)
        assert arrivals.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]  # applied at t = 3 us

    def test_superposition_property(self, rng):
        dt, n_steps = 0.2e-6, 500
        t1 = WeightedSpikeTrain(tuple((float(k) * dt, 1.0)
                                      for k in np.sort(rng.choice(400, 10, replace=False) + 1)))
        t2 = WeightedSpikeTrain(tuple((float(k) * dt, 0.7)
                                      for k in np.sort(rng.choice(400, 10, replace=False) + 1)))
        both = WeightedSpikeTrain(tuple(sorted(t1.events + t2.events)))

        def arrivals(train):
            return weights_per_boundary(train, n_steps, dt)[1]

        assert np.allclose(arrivals(both), arrivals(t1) + arrivals(t2), rtol=1e-9)


class TestPspMetrics:
    def test_flat_trace_zero_amplitude(self):
        p = lif_parameters(C=2.47e-12, g_l=0.1e-6, E_l=0.5, V_r=0.4, V_det=0.8)
        tr = simulate(p, StimulusProgram.constant(0.0), duration=50e-6, dt=0.5e-6)
        baseline, amplitude = psp_metrics(tr, 25e-6)
        assert baseline == pytest.approx(0.5, abs=1e-12)
        assert amplitude == 0.0

    def test_window_too_short(self):
        p = lif_parameters(C=2.47e-12, g_l=0.1e-6, E_l=0.5, V_r=0.4, V_det=0.8)
        tr = simulate(p, StimulusProgram.constant(0.0), duration=50e-6, dt=0.5e-6)
        with pytest.raises(WindowTooShort):
            psp_metrics(tr, 2e-6)
