import numpy as np
import pytest

from adexsim import ParseError, StimulusProgram, simulate
from adexsim.units import (
    TIME_SPEEDUP, VOLTAGE_SCALE, format_quantity, hw_current, hw_time, hw_voltage,
    map_adex_parameters, parse_quantity,
)


class TestQuantityParsing:
    def test_basic_suffixes(self):
        assert parse_quantity("0.5 V", "voltage") == 0.5
        assert parse_quantity("-52 mV", "voltage") == pytest.approx(-52e-3)
        assert parse_quantity("20 us", "time") == pytest.approx(20e-6)
        assert parse_quantity("2.47 pF", "capacitance") == pytest.approx(2.47e-12)
        assert parse_quantity("0.1 uS", "conductance") == pytest.approx(0.1e-6)
        assert parse_quantity("60 nA", "current") == pytest.approx(60e-9)
        assert parse_quantity("500 kOhm", "resistance") == pytest.approx(5e5)
        assert parse_quantity("0.95", "none") == 0.95

    def test_missing_unit_rejected(self):
        with pytest.raises(ParseError):
            parse_quantity("0.5", "voltage")

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ParseError):
            parse_quantity("0.5 nA", "voltage")

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ParseError):
            parse_quantity("0.5 volt", "voltage")

    def test_dimensionless_rejects_suffix(self):
        with pytest.raises(ParseError):
            parse_quantity("0.5 V", "none")

    def test_round_trip(self):
        for value, dim in ((1.2345e-6, "time"), (-0.0521, "voltage"),
                           (3.3e-9, "current"), (0.75, "none")):
            text = format_quantity(value, dim)
            assert parse_quantity(text, dim) == value


class TestDomainMap:
    def test_voltage_and_time(self):
        assert hw_voltage(-70e-3) == pytest.approx(0.4)
        assert hw_voltage(0.0) == pytest.approx(1.1)
        assert hw_time(20e-3) == pytest.approx(20e-6)

    def test_mapped_dynamics_correspond(self, tonic_params):
        # the mapped model's trajectory is the affine image of the original
        hw = map_adex_parameters(tonic_params)
        assert hw.tau_m == pytest.approx(tonic_params.tau_m / TIME_SPEEDUP)
        assert hw.Delta_T == pytest.approx(VOLTAGE_SCALE * tonic_params.Delta_T)

        i_bio = 500e-12
        i_hw = hw_current(i_bio, tonic_params.C)
        dt_bio = tonic_params.tau_m / 400
        tr_bio = simulate(tonic_params, StimulusProgram.constant(i_bio),
                          duration=0.25, dt=dt_bio)
        tr_hw = simulate(hw, StimulusProgram.constant(i_hw),
                         duration=0.25 / TIME_SPEEDUP,
                         dt=dt_bio / TIME_SPEEDUP)
        assert len(tr_bio.spikes) == len(tr_hw.spikes)
        assert np.allclose(tr_hw.spikes, tr_bio.spikes / TIME_SPEEDUP,
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(tr_hw.V, hw_voltage(tr_bio.V), atol=2e-9)

    def test_ranges_land_in_hardware_envelope(self, tonic_params):
        from adexsim.mismatch import PARAMETER_RANGES
        hw = map_adex_parameters(tonic_params)
        assert PARAMETER_RANGES["tau_m"].contains(hw.tau_m)
        assert PARAMETER_RANGES["delta_t"].contains(hw.Delta_T)
        assert PARAMETER_RANGES["E_l"].contains(hw.E_l)
        assert PARAMETER_RANGES["V_threshold"].contains(hw.V_det)
