"""Tests for the noise analysis helpers (Fig. 5B) and the metrics package."""

import numpy as np
import pytest

from oracles import roundtrip

from repro.coding import RateCoder, TTASCoder, TTFSCoder
from repro.core.analysis import activation_distribution, decoded_samples
from repro.metrics import area_under_accuracy_curve, energy_proxy
from repro.noise import DeletionNoise
from repro.utils.rng import default_rng, derive_rng


def expected_activation_ratio(coder, values, deletion_probability, trials, rng):
    """Empirical ``E[A'] / A`` of ``values`` under deletion noise."""
    generator = default_rng(rng)
    noise = DeletionNoise(deletion_probability)
    clean_sum = float(roundtrip(coder, values).sum())
    clean_train = coder.encode(values)
    totals = [
        float(coder.decode(noise.apply(clean_train, rng=derive_rng(generator, "trial", t))).sum())
        for t in range(trials)
    ]
    return float(np.mean(totals) / clean_sum)


def all_or_none_fraction(coder, value, deletion_probability, trials, rng, tolerance=0.1):
    """Fractions of noisy decodings of ``value`` that fall to ~0 or stay at ~A."""
    samples = decoded_samples(
        coder, value, DeletionNoise(deletion_probability), trials=trials, rng=rng
    )
    relative = samples / float(roundtrip(coder, np.array([value])).reshape(-1)[0])
    return float(np.mean(relative <= tolerance)), float(np.mean(relative >= 1.0 - tolerance))


class TestAnalysis:
    def test_expected_activation_ratio_is_one_minus_p(self):
        # Section III: E[A'] = (1 - p) A, for every coding scheme.
        values = np.random.default_rng(0).random(300)
        for coder in (RateCoder(32), TTFSCoder(32), TTASCoder(32, target_duration=3)):
            ratio = expected_activation_ratio(coder, values, 0.4, trials=30, rng=0)
            assert abs(ratio - 0.6) < 0.08

    def test_expected_ratio_zero_probability(self):
        coder = RateCoder(16)
        ratio = expected_activation_ratio(coder, np.full(10, 0.5), 0.0, trials=3, rng=0)
        assert abs(ratio - 1.0) < 1e-9

    def test_all_or_none_for_ttfs(self):
        zero, full = all_or_none_fraction(TTFSCoder(32), 0.8, 0.5, trials=400, rng=0)
        assert abs(zero - 0.5) < 0.1
        assert abs(full - 0.5) < 0.1
        assert abs(zero + full - 1.0) < 1e-9

    def test_rate_coding_is_not_all_or_none(self):
        zero, full = all_or_none_fraction(RateCoder(64), 0.8, 0.5, trials=300, rng=0)
        assert zero + full < 0.5

    def test_ttas_mass_spreads_between_extremes(self):
        zero, full = all_or_none_fraction(
            TTASCoder(32, target_duration=5), 0.8, 0.5, trials=300, rng=0
        )
        assert zero + full < 0.9

    def test_activation_distribution_histogram(self):
        dist = activation_distribution(
            RateCoder(64), 0.8, DeletionNoise(0.4), trials=200, bins=10, rng=0
        )
        assert dist.counts.sum() == 200
        assert abs(dist.probabilities.sum() - 1.0) < 1e-9
        assert abs(dist.mean - 0.48) < 0.05  # (1 - 0.4) * 0.8
        assert dist.clean_value == 0.8

    def test_decoded_samples_shape(self):
        samples = decoded_samples(TTFSCoder(16), 0.5, DeletionNoise(0.3), trials=50, rng=0)
        assert samples.shape == (50,)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            activation_distribution(RateCoder(16), 0.5, DeletionNoise(0.2), bins=0)


class TestSpikeMetrics:
    def test_energy_proxy_monotone(self):
        assert energy_proxy(1000) > energy_proxy(100)
        assert energy_proxy(0) == 0.0

    def test_energy_proxy_validation(self):
        with pytest.raises(ValueError):
            energy_proxy(-1)

    def test_energy_proxy_is_per_spike_energy_in_microjoules(self):
        # 0.9 pJ per synaptic event: a million spikes draw 0.9 uJ.
        assert energy_proxy(1_000_000) == pytest.approx(0.9)


class TestRobustnessMetrics:
    def test_area_under_curve(self):
        area = area_under_accuracy_curve([0.0, 1.0], [1.0, 0.0])
        assert area == pytest.approx(0.5)
        flat = area_under_accuracy_curve([0.0, 0.5, 1.0], [0.8, 0.8, 0.8])
        assert flat == pytest.approx(0.8)

    def test_area_under_curve_validation(self):
        with pytest.raises(ValueError):
            area_under_accuracy_curve([0.0], [1.0])

    def test_area_under_curve_zero_span_is_mean_accuracy(self):
        assert area_under_accuracy_curve([0.5, 0.5], [0.2, 0.4]) == pytest.approx(0.3)

    def test_area_under_curve_sorts_levels(self):
        ordered = area_under_accuracy_curve([0.0, 0.5, 1.0], [0.9, 0.6, 0.1])
        shuffled = area_under_accuracy_curve([1.0, 0.0, 0.5], [0.1, 0.9, 0.6])
        assert shuffled == ordered
