"""Noise kernels against their full-grid oracles, bit for bit.

:meth:`SpikeTrainArray.delete_spikes`, :meth:`SpikeTrainArray.jitter_spikes`
and :meth:`SpikeTrainArray.to_events` visit only the occupied ``(step, neuron)``
slots; the oracles in :mod:`oracles` visit the whole grid.  Both must give
the same counts (dtype included) from the same seed, on every memory layout
a train's counts can have.  :meth:`SpikeEvents.jitter_spikes` walks the
canonical event list, which is the same C order, so it must land every
spike where the oracle does too.
"""

import numpy as np
import pytest

import oracles
from repro.snn.spikes import SpikeEvents, SpikeTrainArray


def _binary():
    return (np.random.default_rng(3).random((12, 5, 7)) < 0.3).astype(np.int16)


def _multi():
    # Mostly empty, with pile-ups: the shape of phase/burst class counts.
    rng = np.random.default_rng(4)
    return (rng.integers(0, 5, (12, 5, 7)) * (rng.random((12, 5, 7)) < 0.4)).astype(np.int16)


def _empty():
    return np.zeros((12, 5, 7), dtype=np.int16)


def _contiguous(counts):
    return counts


def _transposed(counts):
    # A (T, N) view of an (N, T) buffer: the layout of a class count built
    # from a feature-major pattern.
    flat = counts.reshape(counts.shape[0], -1)
    return np.ascontiguousarray(flat.T).T


def _broadcast(counts):
    # Every step repeats step 0, through a zero stride.
    return np.broadcast_to(counts[:1], counts.shape)


TRAINS = {"binary": _binary, "multi": _multi, "empty": _empty}
LAYOUTS = {"contiguous": _contiguous, "transposed": _transposed, "broadcast": _broadcast}


def _counts(kind, layout):
    counts = LAYOUTS[layout](TRAINS[kind]())
    if layout != "contiguous":
        assert not counts.flags.c_contiguous
    return counts


def assert_same_counts(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", sorted(TRAINS))
class TestDenseKernelsMatchOracles:
    @pytest.mark.parametrize("probability", [0.0, 0.5, 1.0])
    def test_delete_spikes(self, kind, layout, probability):
        counts = _counts(kind, layout)
        train = SpikeTrainArray(counts, copy=False)
        for seed in range(3):
            actual = train.delete_spikes(probability, rng=np.random.default_rng(seed))
            expected = oracles.delete_spikes(
                counts, probability, np.random.default_rng(seed)
            )
            assert_same_counts(actual.counts, expected)

    @pytest.mark.parametrize("sigma", [0.0, 0.7, 3.0])
    def test_jitter_spikes(self, kind, layout, sigma):
        counts = _counts(kind, layout)
        train = SpikeTrainArray(counts, copy=False)
        for seed in range(3):
            actual = train.jitter_spikes(sigma, rng=np.random.default_rng(seed))
            expected = oracles.jitter_spikes(
                counts, sigma, np.random.default_rng(seed)
            )
            assert_same_counts(actual.counts, expected)

    def test_from_dense(self, kind, layout):
        counts = _counts(kind, layout)
        actual = SpikeTrainArray(counts, copy=False).to_events()
        expected = oracles.events_from_dense(counts)
        for name in ("times", "neuron_indices", "event_counts"):
            assert_same_counts(getattr(actual, name), getattr(expected, name))
        assert actual.population_shape == expected.population_shape


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", sorted(TRAINS))
class TestEventKernelsMatchOracles:
    @pytest.mark.parametrize("sigma", [0.0, 0.7, 3.0])
    def test_jitter_spikes(self, kind, layout, sigma):
        counts = _counts(kind, layout)
        events = SpikeTrainArray(counts, copy=False).to_events()
        for seed in range(3):
            actual = events.jitter_spikes(sigma, rng=np.random.default_rng(seed))
            assert isinstance(actual, SpikeEvents)
            expected = oracles.jitter_spikes(
                counts, sigma, np.random.default_rng(seed)
            )
            assert_same_counts(actual.to_dense().counts, expected)


def test_binomial_of_zero_draws_nothing():
    # The property occupied-slot thinning rests on: zero-count slots consume
    # no random numbers, so skipping them leaves the stream unchanged.
    counts = np.array([0, 3, 0, 0, 7, 1, 0, 12])
    full = np.random.default_rng(9)
    occupied = np.random.default_rng(9)
    thinned = full.binomial(counts, 0.4)
    assert np.array_equal(thinned[counts > 0], occupied.binomial(counts[counts > 0], 0.4))
    assert full.random() == occupied.random()
