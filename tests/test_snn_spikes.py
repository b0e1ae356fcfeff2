"""Tests for the SpikeTrainArray container and its noise transforms."""

import numpy as np
import pytest

from repro.snn.spikes import SpikeEvents, SpikeTrainArray


def simple_train():
    counts = np.zeros((8, 4), dtype=np.int16)
    counts[0, 0] = 1
    counts[3, 1] = 1
    counts[7, 2] = 2
    return SpikeTrainArray(counts)


class TestConstruction:
    def test_zeros(self):
        train = SpikeTrainArray.zeros(10, (3, 4))
        assert train.num_steps == 10
        assert train.population_shape == (3, 4)
        assert train.total_spikes() == 0

    def test_from_spike_times(self):
        # Spike-time lists build an event list; its dense form has the
        # repeated (2, 0) spike as a count of 2.
        train = SpikeEvents([0, 2, 2], [1, 0, 0], None, 5, (3,)).to_dense()
        assert train.total_spikes() == 3
        assert train.counts[2, 0] == 2
        assert train.counts[0, 1] == 1

    def test_from_spike_times_validates(self):
        with pytest.raises(ValueError):
            SpikeEvents([5], [0], None, 5, (2,))
        with pytest.raises(ValueError):
            SpikeEvents([0], [2], None, 5, (2,))
        with pytest.raises(ValueError):
            SpikeEvents([0, 1], [0], None, 5, (2,))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            SpikeTrainArray(np.array([[-1, 0], [0, 0]]))

    def test_rejects_counts_beyond_int16(self):
        # The range check runs before the int16 cast: a count of 40000 used
        # to wrap to a negative total.
        for counts in (np.array([[40000, 3]]), np.array([[40000.0, 3.0]])):
            with pytest.raises(ValueError, match="32767"):
                SpikeTrainArray(counts)
        train = SpikeTrainArray(np.array([[32767, 3]], dtype=np.int64))
        assert train.total_spikes() == 32770

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            SpikeTrainArray(np.array([[0.5, 0.0], [0.0, 0.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            SpikeTrainArray(np.zeros(5, dtype=np.int16))

    def test_float_integers_accepted(self):
        train = SpikeTrainArray(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert train.total_spikes() == 3

    def test_defensive_copy(self):
        counts = np.zeros((3, 2), dtype=np.int16)
        train = SpikeTrainArray(counts)
        counts[0, 0] = 5
        assert train.total_spikes() == 0


class TestProperties:
    def test_counts_and_rates(self):
        train = simple_train()
        assert train.total_spikes() == 4
        assert np.count_nonzero(train.counts) == 3
        assert train.num_neurons == 4

    def test_equality_and_copy(self):
        train = simple_train()
        clone = SpikeTrainArray(train.counts)
        assert train == clone
        clone.counts[0, 0] = 0
        assert train != clone

    def test_weighted_sum(self):
        train = simple_train()
        weights = np.arange(8, dtype=np.float64)
        result = train.weighted_sum(weights)
        assert np.allclose(result, [0.0, 3.0, 14.0, 0.0])

    def test_weighted_sum_shape_validation(self):
        with pytest.raises(ValueError):
            simple_train().weighted_sum(np.ones(5))


class TestDeletion:
    def test_zero_probability_identity(self):
        train = simple_train()
        assert train.delete_spikes(0.0, rng=0) == train

    def test_full_deletion(self):
        train = simple_train()
        assert train.delete_spikes(1.0, rng=0).total_spikes() == 0

    def test_expected_survival(self):
        counts = np.ones((50, 200), dtype=np.int16)
        train = SpikeTrainArray(counts)
        survived = train.delete_spikes(0.3, rng=0).total_spikes()
        assert abs(survived / train.total_spikes() - 0.7) < 0.02

    def test_multicount_thinning(self):
        counts = np.full((10, 10), 5, dtype=np.int16)
        train = SpikeTrainArray(counts)
        survived = train.delete_spikes(0.5, rng=0).total_spikes()
        assert abs(survived / train.total_spikes() - 0.5) < 0.1

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            simple_train().delete_spikes(1.5)

    def test_deterministic_given_seed(self):
        train = simple_train()
        assert train.delete_spikes(0.5, rng=3) == train.delete_spikes(0.5, rng=3)

    def test_original_unchanged(self):
        train = simple_train()
        before = train.total_spikes()
        train.delete_spikes(0.9, rng=0)
        assert train.total_spikes() == before


class TestJitter:
    def test_zero_sigma_identity(self):
        train = simple_train()
        assert train.jitter_spikes(0.0, rng=0) == train

    def test_spike_count_preserved_with_clip(self):
        counts = (np.random.default_rng(0).random((20, 30)) < 0.3).astype(np.int16)
        train = SpikeTrainArray(counts)
        jittered = train.jitter_spikes(2.0, rng=1)
        assert jittered.total_spikes() == train.total_spikes()

    def test_spikes_actually_move(self):
        counts = np.zeros((20, 200), dtype=np.int16)
        counts[10] = 1
        train = SpikeTrainArray(counts)
        jittered = train.jitter_spikes(2.0, rng=0)
        assert jittered.counts[10].sum() < 200
        assert jittered.total_spikes() == 200

    def test_mean_shift_is_small(self):
        counts = np.zeros((41, 500), dtype=np.int16)
        counts[20] = 1
        train = SpikeTrainArray(counts)
        jittered = train.jitter_spikes(2.0, rng=0)
        times = np.repeat(np.arange(41), jittered.counts.sum(axis=1))
        assert abs(times.mean() - 20.0) < 0.3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simple_train().jitter_spikes(-1.0)

    def test_empty_train(self):
        train = SpikeTrainArray.zeros(5, (3,))
        assert train.jitter_spikes(2.0, rng=0).total_spikes() == 0

    @pytest.mark.parametrize("num_steps", [2, 5])
    def test_pile_up_beyond_int16_raises(self, num_steps):
        # Clipping piles every spike of a full neuron onto the window edges;
        # a slot past MAX_SPIKE_COUNT must raise, not wrap through int16 (to
        # a negative count at T=2, to a plausible positive one at T=5).
        train = SpikeTrainArray(np.full((num_steps, 1), 32767, np.int16))
        with pytest.raises(ValueError, match="do not fit the int16 count grid"):
            train.jitter_spikes(1000.0, rng=np.random.default_rng(0))
