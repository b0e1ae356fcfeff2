"""Tests for the weight-scaling compensation (Sec. IV of the paper)."""

import pytest

from repro.core import WeightScaling


class TestFactorRules:
    def test_inverse_rule(self):
        scaling = WeightScaling(mode="inverse")
        assert scaling.factor(0.0) == 1.0
        assert abs(scaling.factor(0.5) - 2.0) < 1e-12
        assert abs(scaling.factor(0.8) - 5.0) < 1e-12

    def test_proportional_rule(self):
        scaling = WeightScaling(mode="proportional", alpha=1.0)
        assert abs(scaling.factor(0.5) - 1.5) < 1e-12
        assert abs(scaling.factor(0.9) - 1.9) < 1e-12

    def test_proportional_alpha(self):
        scaling = WeightScaling(mode="proportional", alpha=2.0)
        assert abs(scaling.factor(0.5) - 2.0) < 1e-12

    def test_disabled_policy(self):
        scaling = WeightScaling.disabled()
        assert scaling.factor(0.9) == 1.0

    def test_max_factor_caps_divergence(self):
        scaling = WeightScaling(mode="inverse", max_factor=4.0)
        assert scaling.factor(0.99) == 4.0
        assert scaling.factor(1.0) == 4.0

    def test_factor_monotone_in_p(self):
        scaling = WeightScaling()
        factors = [scaling.factor(p) for p in (0.0, 0.2, 0.5, 0.8, 0.9)]
        assert all(b >= a for a, b in zip(factors, factors[1:]))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            WeightScaling().factor(1.5)

    def test_invalid_mode(self):
        with pytest.raises(Exception):
            WeightScaling(mode="quadratic")


class TestScaleWeights:
    def test_inverse_exactly_compensates_expected_loss(self):
        # E[(1-p) * C * A] == A when C = 1/(1-p).
        scaling = WeightScaling(mode="inverse")
        for p in (0.1, 0.3, 0.5, 0.8):
            assert abs((1 - p) * scaling.factor(p) - 1.0) < 1e-12

    def test_proportional_undercompensates_at_high_p(self):
        scaling = WeightScaling(mode="proportional")
        assert (1 - 0.8) * scaling.factor(0.8) < 1.0
