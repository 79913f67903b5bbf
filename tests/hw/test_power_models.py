"""Unit tests for the analytic power models — the entanglement sources."""

import pytest

from repro.hw.gpu import default_gpu_opps
from repro.hw.power import AccelPowerModel, CpuPowerModel, NicPowerModel, OperatingPoint


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(0, 1, 1, 1)


class TestCpuPowerModel:
    def test_idle_rail_power(self):
        model = CpuPowerModel()
        assert model.rail_power(model.opps[-1], 0) == model.idle_w

    def test_active_power_grows_with_cores(self):
        model = CpuPowerModel()
        opp = model.opps[-1]
        assert model.rail_power(opp, 2) > model.rail_power(opp, 1)

    def test_spatial_entanglement_subadditive(self):
        """P(2 cores) < 2 * P(1 core): shared static + uncore power.

        This is the Figure 3(a) effect at the model level."""
        model = CpuPowerModel()
        for opp in model.opps:
            assert model.rail_power(opp, 2) < 2 * model.rail_power(opp, 1)

    def test_power_grows_with_frequency(self):
        model = CpuPowerModel()
        powers = [model.rail_power(opp, 1) for opp in model.opps]
        assert powers == sorted(powers)


class TestAccelPowerModel:
    def test_no_commands_is_idle_plus_static(self):
        model = AccelPowerModel(default_gpu_opps())
        opp = model.opps[0]
        assert model.rail_power(opp, opp.freq_hz, []) == pytest.approx(
            model.idle_w + opp.static_w
        )

    def test_overlap_factor_below_one_for_concurrency(self):
        model = AccelPowerModel(default_gpu_opps())
        assert model.overlap_factor(1) == 1.0
        assert model.overlap_factor(2) < 1.0
        assert model.overlap_factor(99) <= model.overlap_factor(2)

    def test_request_entanglement_subadditive(self):
        """P(two commands) < P(cmd1 alone) + P(cmd2 alone) - idle."""
        model = AccelPowerModel(default_gpu_opps())
        opp = model.opps[-1]
        nominal = opp.freq_hz
        both = model.rail_power(opp, nominal, [0.5, 0.7])
        one = model.rail_power(opp, nominal, [0.5])
        other = model.rail_power(opp, nominal, [0.7])
        base = model.rail_power(opp, nominal, [])
        assert both < one + other - base

    def test_frequency_scales_active_power_superlinearly(self):
        model = AccelPowerModel(default_gpu_opps())
        low, high = model.opps[0], model.opps[-1]
        p_low = model.rail_power(low, high.freq_hz, [1.0]) - low.static_w
        p_high = model.rail_power(high, high.freq_hz, [1.0]) - high.static_w
        ratio = (p_high - model.idle_w) / (p_low - model.idle_w)
        assert ratio > high.freq_hz / low.freq_hz

    def test_zero_inflight_overlap_factor(self):
        assert AccelPowerModel(default_gpu_opps()).overlap_factor(0) == 0.0


class TestNicPowerModel:
    def test_state_power_ordering(self):
        model = NicPowerModel()
        assert model.psm_w < model.cam_w < model.tx_w(0)

    def test_tx_levels_increase(self):
        model = NicPowerModel()
        levels = [model.tx_w(i) for i in range(len(model.tx_levels_w))]
        assert levels == sorted(levels)
