"""Tests for the five neural coding schemes and the coder registry."""

import numpy as np
import pytest

from oracles import roundtrip

from repro.coding import (
    CODER_NAMES,
    BurstCoder,
    PhaseCoder,
    RateCoder,
    TTASCoder,
    TTFSCoder,
    available_coders,
    create_coder,
)
from repro.snn.neurons import IFNeuron, IntegrateFireOrBurstNeuron, TTFSNeuron

ALL_CODERS = [
    RateCoder(num_steps=32),
    PhaseCoder(num_steps=32),
    BurstCoder(num_steps=32),
    TTFSCoder(num_steps=32),
    TTASCoder(num_steps=32, target_duration=3),
]


@pytest.mark.parametrize("coder", ALL_CODERS, ids=lambda c: c.name)
class TestCommonCoderBehaviour:
    def test_roundtrip_error_bounded(self, coder):
        values = np.linspace(0.05, 1.0, 40)
        decoded = roundtrip(coder, values)
        assert np.all(np.abs(decoded - values) < 0.12)

    def test_zero_maps_to_zero(self, coder):
        decoded = roundtrip(coder, np.zeros(5))
        assert np.allclose(decoded, 0.0, atol=1e-9)

    def test_out_of_range_values_saturate(self, coder):
        decoded = roundtrip(coder, np.array([1.5, -0.2]))
        assert decoded[0] <= 1.0 + 1e-6
        assert decoded[1] == 0.0

    def test_encode_shape(self, coder):
        values = np.zeros((2, 3, 4))
        train = coder.encode(values)
        assert train.to_dense().counts.shape == (coder.num_steps, 2, 3, 4)

    def test_decode_monotone_in_value(self, coder):
        values = np.array([0.1, 0.4, 0.8])
        decoded = roundtrip(coder, values)
        assert decoded[0] <= decoded[1] <= decoded[2]

    def test_expected_spike_count_matches_encode(self, coder):
        # The count the class encoding (rate/phase/burst) or the first-spike
        # times (TTFS/TTAS, bursts truncated at the window end) imply.
        values = np.random.default_rng(0).random(30)
        if coder.has_class_encoding:
            expected = coder.encode_classes(values).total_spikes()
        else:
            times = coder.spike_times(values)
            remaining = coder.num_steps - times[times < coder.num_steps]
            burst = getattr(coder, "target_duration", 1)
            expected = int(np.minimum(remaining, burst).sum())
        assert coder.encode(values).total_spikes() == expected

    def test_default_threshold_positive(self, coder):
        assert coder.default_threshold() > 0


class TestRateCoder:
    def test_spike_count_proportional_to_value(self):
        coder = RateCoder(num_steps=40)
        train = coder.encode(np.array([0.25, 0.5, 1.0]))
        assert np.array_equal(train.counts.sum(axis=0), [10, 20, 40])

    def test_spikes_evenly_spaced(self):
        coder = RateCoder(num_steps=16)
        train = coder.encode(np.array([0.5]))
        gaps = np.diff(np.flatnonzero(train.counts[:, 0]))
        assert np.all(gaps == 2)

    def test_jitter_invariance(self):
        coder = RateCoder(num_steps=32)
        values = np.random.default_rng(0).random(50)
        train = coder.encode(values)
        jittered = train.jitter_spikes(3.0, rng=1)
        assert np.allclose(coder.decode(jittered), coder.decode(train))

    def test_neuron_type(self):
        neuron = RateCoder(32).simulation_protocol(1, 1.0).layers[1].neuron
        assert isinstance(neuron, IFNeuron)


class TestPhaseCoder:
    def test_binary_fraction_exact(self):
        coder = PhaseCoder(num_steps=16, period=8)
        values = np.array([0.5, 0.25, 0.75])
        assert np.allclose(roundtrip(coder, values), values, atol=1e-6)

    def test_pattern_repeats_every_period(self):
        coder = PhaseCoder(num_steps=16, period=8)
        train = coder.encode(np.array([0.625]))
        assert np.array_equal(train.counts[:8, 0], train.counts[8:, 0])

    def test_period_must_fit(self):
        with pytest.raises(ValueError):
            PhaseCoder(num_steps=4, period=8)

    def test_jitter_changes_decoded_value(self):
        coder = PhaseCoder(num_steps=32, period=8)
        values = np.full(200, 0.6)
        train = coder.encode(values)
        jittered = coder.decode(train.jitter_spikes(2.0, rng=0))
        assert np.abs(jittered - 0.6).mean() > 0.02

    def test_spike_count_counts_bits(self):
        coder = PhaseCoder(num_steps=8, period=8)
        # 0.5 -> single bit, 0.75 -> two bits
        assert coder.encode(np.array([0.5])).total_spikes() == 1
        assert coder.encode(np.array([0.75])).total_spikes() == 2


class TestBurstCoder:
    def test_burst_is_consecutive_from_period_start(self):
        coder = BurstCoder(num_steps=16, period=16, burst_length=5)
        train = coder.encode(np.array([0.97]))
        active_steps = np.flatnonzero(train.counts[:, 0])
        assert np.array_equal(active_steps, np.arange(len(active_steps)))

    def test_max_value_property(self):
        coder = BurstCoder(num_steps=16, period=16, burst_length=4, ratio=0.5)
        assert abs(coder.max_value - (0.5 + 0.25 + 0.125 + 0.0625)) < 1e-12

    def test_fewer_spikes_than_rate(self):
        values = np.random.default_rng(0).random(100)
        rate_spikes = RateCoder(num_steps=32).encode(values).total_spikes()
        burst_spikes = BurstCoder(num_steps=32).encode(values).total_spikes()
        assert burst_spikes < rate_spikes

    def test_jitter_error_comparable_to_phase(self):
        # The paper finds burst and phase similarly affected by jitter
        # (Table II: 84.4 vs 82.9 on MNIST, 46.1 vs 40.6 on CIFAR-10); here we
        # check they are in the same ballpark, and both far worse than rate.
        values = np.full(400, 0.6)
        phase = PhaseCoder(num_steps=32, period=8)
        burst = BurstCoder(num_steps=32, period=16, burst_length=5)
        rate = RateCoder(num_steps=32)
        phase_err = np.abs(
            phase.decode(phase.encode(values).jitter_spikes(2.0, rng=0)) - 0.6
        ).mean()
        burst_err = np.abs(
            burst.decode(burst.encode(values).jitter_spikes(2.0, rng=0))
            - roundtrip(burst, values)
        ).mean()
        rate_err = np.abs(
            rate.decode(rate.encode(values).jitter_spikes(2.0, rng=0)) - 0.6
        ).mean()
        assert burst_err < 1.5 * phase_err
        assert rate_err < 0.2 * min(burst_err, phase_err)

    def test_period_validation(self):
        with pytest.raises(ValueError):
            BurstCoder(num_steps=8, period=16)


class TestTTFSCoder:
    def test_single_spike_per_activation(self):
        coder = TTFSCoder(num_steps=32)
        train = coder.encode(np.array([0.9, 0.5, 0.1]))
        assert np.all(train.to_dense().counts.sum(axis=0) == 1)

    def test_larger_value_fires_earlier(self):
        coder = TTFSCoder(num_steps=32)
        times = coder.spike_times(np.array([0.9, 0.5, 0.1]))
        assert times[0] < times[1] < times[2]

    def test_below_min_value_no_spike(self):
        coder = TTFSCoder(num_steps=32, min_value=0.05)
        train = coder.encode(np.array([0.01]))
        assert train.total_spikes() == 0

    def test_all_or_none_under_deletion(self):
        coder = TTFSCoder(num_steps=32)
        values = np.full(500, 0.7)
        decoded = coder.decode(coder.encode(values).delete_spikes(0.5, rng=0))
        clean = roundtrip(coder, np.array([0.7]))[0]
        near_zero = np.isclose(decoded, 0.0, atol=1e-9)
        near_full = np.isclose(decoded, clean, rtol=1e-6)
        assert np.all(near_zero | near_full)
        assert 0.3 < near_zero.mean() < 0.7

    def test_jitter_multiplies_by_exponential_factor(self):
        coder = TTFSCoder(num_steps=16)
        clean = roundtrip(coder, np.array([0.5]))[0]
        train = coder.encode(np.array([0.5])).to_dense()
        shifted = train.counts.copy()
        time = int(np.flatnonzero(train.counts[:, 0])[0])
        shifted[time, 0] = 0
        shifted[time + 2, 0] = 1
        from repro.snn.spikes import SpikeTrainArray

        decoded = coder.decode(SpikeTrainArray(shifted))[0]
        assert abs(decoded - clean * np.exp(-2 / coder.tau)) < 1e-9

    def test_min_value_validation(self):
        with pytest.raises(ValueError):
            TTFSCoder(num_steps=16, min_value=0.0)
        with pytest.raises(ValueError):
            TTFSCoder(num_steps=16, min_value=1.0)

    def test_neuron_type(self):
        neuron = TTFSCoder(16).simulation_protocol(1, 1.0).layers[1].neuron
        assert isinstance(neuron, TTFSNeuron)

    def test_one_step_window(self):
        # log(1 / min_value) / (T - 1) is undefined at T = 1; the kernel
        # falls back to tau = 1, so a value fires on step 0 or not at all.
        coder = TTFSCoder(num_steps=1)
        assert coder.tau == 1.0
        train = coder.encode(np.array([0.9, 0.5, 0.01]))
        assert train.to_dense().counts.tolist() == [[1, 0, 0]]
        assert coder.decode(train).tolist() == [1.0, 0.0, 0.0]


class TestTTASCoder:
    def test_burst_of_target_duration(self):
        coder = TTASCoder(num_steps=32, target_duration=4)
        train = coder.encode(np.array([0.8]))
        assert train.total_spikes() == 4
        active = np.flatnonzero(train.to_dense().counts[:, 0])
        assert np.array_equal(np.diff(active), [1, 1, 1])

    def test_duration_one_equals_ttfs(self):
        values = np.linspace(0.05, 1.0, 20)
        ttas = TTASCoder(num_steps=32, target_duration=1)
        ttfs = TTFSCoder(num_steps=32)
        assert np.allclose(roundtrip(ttas, values), roundtrip(ttfs, values))

    def test_scale_factor_is_inverse_burst_gain(self):
        coder = TTASCoder(num_steps=32, target_duration=5)
        gain = np.exp(-np.arange(5) / coder.tau).sum()
        assert abs(coder.scale_factor - 1.0 / gain) < 1e-12

    def test_clean_decode_matches_ttfs_value(self):
        # C_A exactly cancels the burst gain, so the clean decoded value
        # equals the single-spike TTFS value (Eq. 5 + scale factor).
        values = np.linspace(0.1, 0.9, 9)
        ttas = TTASCoder(num_steps=64, target_duration=5)
        ttfs = TTFSCoder(num_steps=64)
        assert np.allclose(roundtrip(ttas, values), roundtrip(ttfs, values), atol=1e-6)

    def test_deletion_is_graded_not_all_or_none(self):
        coder = TTASCoder(num_steps=32, target_duration=5)
        values = np.full(300, 0.7)
        decoded = coder.decode(coder.encode(values).delete_spikes(0.4, rng=0))
        clean = roundtrip(coder, np.array([0.7]))[0]
        intermediate = (decoded > 0.1 * clean) & (decoded < 0.9 * clean)
        assert intermediate.mean() > 0.3

    def test_more_jitter_robust_than_ttfs(self):
        values = np.full(400, 0.6)
        ttfs = TTFSCoder(num_steps=16)
        ttas = TTASCoder(num_steps=16, target_duration=5)
        ttfs_err = np.abs(
            ttfs.decode(ttfs.encode(values).jitter_spikes(2.0, rng=0))
            - roundtrip(ttfs, values)
        ).mean()
        ttas_err = np.abs(
            ttas.decode(ttas.encode(values).jitter_spikes(2.0, rng=0))
            - roundtrip(ttas, values)
        ).mean()
        assert ttas_err < ttfs_err

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            TTASCoder(num_steps=8, target_duration=9)

    def test_neuron_type_and_duration(self):
        neuron = TTASCoder(16, target_duration=4).simulation_protocol(1, 1.0).layers[1].neuron
        assert isinstance(neuron, IntegrateFireOrBurstNeuron)
        assert neuron.target_duration == 4


class TestRegistry:
    def test_create_by_name(self):
        for name in ("rate", "phase", "burst", "ttfs", "ttas"):
            coder = create_coder(name, num_steps=16)
            assert coder.name == name
            assert coder.num_steps == 16

    def test_ttas_shorthand(self):
        coder = create_coder("ttas(7)", num_steps=32)
        assert isinstance(coder, TTASCoder)
        assert coder.target_duration == 7

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            create_coder("morse")

    def test_available_coders_are_the_built_ins(self):
        assert available_coders() == sorted(CODER_NAMES)
