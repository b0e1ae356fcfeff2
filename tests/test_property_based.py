"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import roundtrip

from repro.coding import BurstCoder, PhaseCoder, RateCoder, TTASCoder, TTFSCoder
from repro.core.weight_scaling import WeightScaling
from repro.snn.spikes import MAX_SPIKE_COUNT, SpikeTrainArray

SETTINGS = settings(max_examples=30, deadline=None)

values_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

count_arrays = hnp.arrays(
    dtype=np.int16,
    shape=st.tuples(st.integers(2, 20), st.integers(1, 30)),
    elements=st.integers(min_value=0, max_value=3),
)


def coder_strategy():
    return st.sampled_from([
        RateCoder(num_steps=24),
        PhaseCoder(num_steps=24, period=8),
        BurstCoder(num_steps=24, period=8, burst_length=4),
        TTFSCoder(num_steps=24),
        TTASCoder(num_steps=24, target_duration=3),
    ])


class TestSpikeTrainProperties:
    @SETTINGS
    @given(counts=count_arrays, p=st.floats(min_value=0.0, max_value=1.0))
    def test_deletion_never_adds_spikes(self, counts, p):
        train = SpikeTrainArray(counts)
        noisy = train.delete_spikes(p, rng=0)
        assert noisy.total_spikes() <= train.total_spikes()
        assert np.all(noisy.counts <= train.counts)

    @SETTINGS
    @given(counts=count_arrays, sigma=st.floats(min_value=0.0, max_value=5.0))
    def test_jitter_with_clip_preserves_spike_count(self, counts, sigma):
        train = SpikeTrainArray(counts)
        noisy = train.jitter_spikes(sigma, rng=0)
        assert noisy.total_spikes() == train.total_spikes()

    @SETTINGS
    @given(
        data=st.data(),
        period=st.integers(min_value=1, max_value=12),
        sigma=st.floats(min_value=0.0, max_value=5.0, exclude_min=True),
    )
    def test_class_jitter_keeps_totals_in_period_rows(self, data, period, sigma):
        num_steps = data.draw(st.integers(min_value=period, max_value=4 * period + 7))
        coder = data.draw(st.sampled_from([
            PhaseCoder(num_steps=num_steps, period=period),
            BurstCoder(
                num_steps=num_steps,
                period=period,
                burst_length=data.draw(st.integers(min_value=1, max_value=period)),
            ),
        ]))
        clean = coder.encode_classes(data.draw(values_arrays))
        jittered = clean.jitter_spikes(sigma, rng=0)
        assert jittered.num_steps == coder.period
        assert np.array_equal(jittered.counts.sum(axis=0), clean.counts.sum(axis=0))
        assert jittered.counts.max(initial=0) <= MAX_SPIKE_COUNT

    @SETTINGS
    @given(counts=count_arrays)
    def test_per_neuron_counts_sum_to_total(self, counts):
        train = SpikeTrainArray(counts)
        assert train.counts.sum(axis=0).sum() == train.total_spikes()


class TestCoderProperties:
    @SETTINGS
    @given(values=values_arrays, coder=coder_strategy())
    def test_roundtrip_error_bounded(self, values, coder):
        decoded = roundtrip(coder, values)
        assert decoded.shape == values.shape
        assert np.all(np.abs(decoded - values) <= 0.15)

    @SETTINGS
    @given(values=values_arrays, coder=coder_strategy())
    def test_decoded_values_non_negative_and_bounded(self, values, coder):
        decoded = roundtrip(coder, values)
        assert np.all(decoded >= -1e-9)
        assert np.all(decoded <= 1.0 + 1e-6)

    @SETTINGS
    @given(values=values_arrays, coder=coder_strategy(),
           p=st.floats(min_value=0.0, max_value=1.0))
    def test_deletion_never_increases_decoded_activation(self, values, coder, p):
        train = coder.encode(values)
        noisy = train.delete_spikes(p, rng=0)
        assert coder.decode(noisy).sum() <= coder.decode(train).sum() + 1e-9

    @SETTINGS
    @given(values=values_arrays, coder=coder_strategy())
    def test_encode_is_deterministic(self, values, coder):
        assert coder.encode(values) == coder.encode(values)

    @SETTINGS
    @given(values=values_arrays)
    def test_rate_spike_count_formula(self, values):
        coder = RateCoder(num_steps=24)
        train = coder.encode(values)
        expected = np.rint(np.clip(values, 0, 1) * 24).sum()
        assert train.total_spikes() == int(expected)

    @SETTINGS
    @given(values=values_arrays, duration=st.integers(min_value=1, max_value=6))
    def test_ttas_spike_count_bounded_by_duration(self, values, duration):
        coder = TTASCoder(num_steps=24, target_duration=duration)
        train = coder.encode(values)
        active = (np.clip(values, 0, 1) >= coder.min_value).sum()
        assert train.total_spikes() <= active * duration


class TestWeightScalingProperties:
    @SETTINGS
    @given(p=st.floats(min_value=0.0, max_value=0.95))
    def test_inverse_factor_compensates_expectation(self, p):
        factor = WeightScaling(mode="inverse", max_factor=1000.0).factor(p)
        assert abs((1.0 - p) * factor - 1.0) < 1e-9

    @SETTINGS
    @given(p=st.floats(min_value=0.0, max_value=1.0))
    def test_factors_at_least_one(self, p):
        for mode in ("inverse", "proportional", "none"):
            assert WeightScaling(mode=mode).factor(p) >= 1.0 - 1e-12

    @SETTINGS
    @given(ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                       max_size=6, unique=True))
    def test_inverse_factor_monotone(self, ps):
        scaling = WeightScaling(mode="inverse")
        ordered = sorted(ps)
        factors = [scaling.factor(p) for p in ordered]
        assert all(b >= a - 1e-12 for a, b in zip(factors, factors[1:]))
