"""Dense <-> event spike-train equivalence suite.

Each coder encodes into one representation (dense :class:`SpikeTrainArray`
for rate/phase/burst, event-driven :class:`SpikeEvents` for TTFS/TTAS), and
the two must be indistinguishable through the shared spike-train protocol:
lossless round-trip conversion, exact agreement of the deterministic
operations, statistical agreement of the stochastic ones under fixed seeds,
and matching transport-level logits on the noise-free path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.coding import BurstCoder, PhaseCoder, RateCoder, TTASCoder, TTFSCoder
from repro.coding.base import NeuralCoder
from repro.core.transport import ActivationTransportSimulator
from repro.noise import DeletionNoise, IdentityNoise, NoiseInjector
from repro.snn.spikes import MAX_SPIKE_COUNT, SpikeEvents, SpikeTrainArray

SETTINGS = settings(max_examples=30, deadline=None)

count_arrays = hnp.arrays(
    dtype=np.int16,
    shape=st.tuples(st.integers(2, 16), st.integers(1, 24)),
    elements=st.integers(min_value=0, max_value=3),
)


def random_train(seed=0, shape=(20, 100), p=0.3):
    counts = (np.random.default_rng(seed).random(shape) < p).astype(np.int16)
    return SpikeTrainArray(counts)


class TestConversion:
    @SETTINGS
    @given(counts=count_arrays)
    def test_dense_events_roundtrip_lossless(self, counts):
        dense = SpikeTrainArray(counts)
        events = dense.to_events()
        assert np.array_equal(events.to_dense().counts, dense.counts)
        assert events.to_events() is events
        assert dense.to_dense() is dense

    @SETTINGS
    @given(counts=count_arrays)
    def test_events_roundtrip_canonical(self, counts):
        events = SpikeTrainArray(counts).to_events()
        again = events.to_dense().to_events()
        assert events == again

    def test_unsorted_duplicate_events_canonicalise(self):
        # Two events in the same slot coalesce; order of construction is
        # irrelevant.
        a = SpikeEvents([3, 1, 3], [0, 2, 0], None, 5, (4,))
        b = SpikeEvents([1, 3], [2, 0], [1, 2], 5, (4,))
        assert a == b
        assert a.total_spikes() == 3
        assert a.occupied_slots() == 2

    def test_dense_counts_property_matches(self):
        dense = random_train()
        events = dense.to_events()
        assert np.array_equal(events.to_dense().counts, dense.counts)
        assert np.array_equal(events.window_counts(0), dense.counts)
        assert np.array_equal(events.window_counts(4, 9), dense.window_counts(4, 9))

    def test_cross_backend_equality(self):
        dense = random_train()
        assert dense == dense.to_events()
        assert dense.to_events() == dense
        other = random_train(seed=5)
        assert dense.to_events() != other

    def test_from_spike_times(self):
        # One event per spike time; the repeated (2, 0) pair is a count of 2.
        events = SpikeEvents([0, 2, 2], [1, 0, 0], None, 5, (3,))
        counts = np.zeros((5, 3), dtype=np.int16)
        counts[0, 1] = 1
        counts[2, 0] = 2
        assert events == SpikeTrainArray(counts)

    def test_zero_count_events_dropped_at_construction(self):
        # A count-0 event must not fabricate spikes in the order-independent
        # fast paths (the jitter binary path).
        events = SpikeEvents([2, 1], [0, 1], [0, 1], 5, (3,))
        assert events.total_spikes() == 1
        assert events.occupied_slots() == 1
        assert events.jitter_spikes(1.0, rng=0).total_spikes() == 1
        expected = np.zeros((5, 3), dtype=np.int16)
        expected[1, 1] = 1
        assert np.array_equal(events.to_dense().counts, expected)

    def test_to_dense_rejects_counts_beyond_int16(self):
        events = SpikeEvents([0], [0], [70000], 2, (1,))
        with pytest.raises(ValueError, match=str(MAX_SPIKE_COUNT)):
            events.to_dense()

    def test_window_counts_rejects_counts_beyond_int16(self):
        events = SpikeEvents([0, 1], [0, 0], [40000, 3], 2, (1,))
        with pytest.raises(ValueError, match=str(MAX_SPIKE_COUNT)):
            events.window_counts(0, 2)
        # A window that leaves the overfull slot out still fits the grid.
        assert events.window_counts(1, 2).tolist() == [[3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikeEvents([5], [0], None, 5, (3,))
        with pytest.raises(ValueError):
            SpikeEvents([0], [3], None, 5, (3,))
        with pytest.raises(ValueError):
            SpikeEvents([0], [0], [-1], 5, (3,))
        with pytest.raises(ValueError):
            SpikeEvents([0, 1], [0], None, 5, (3,))


class TestDeterministicOps:
    @SETTINGS
    @given(counts=count_arrays)
    def test_summaries_agree(self, counts):
        dense = SpikeTrainArray(counts)
        events = dense.to_events()
        assert events.total_spikes() == dense.total_spikes()
        assert events.occupied_slots() == dense.occupied_slots()
        assert events.num_steps == dense.num_steps
        assert events.population_shape == dense.population_shape

    @SETTINGS
    @given(counts=count_arrays)
    def test_weighted_sum_agrees(self, counts):
        dense = SpikeTrainArray(counts)
        events = dense.to_events()
        weights = np.exp(-np.arange(dense.num_steps) / 7.0)
        assert np.allclose(
            events.weighted_sum(weights), dense.weighted_sum(weights),
            rtol=1e-5, atol=1e-6,
        )

    def test_weighted_sum_shape_validation(self):
        events = random_train().to_events()
        with pytest.raises(ValueError):
            events.weighted_sum(np.ones(3))

    @SETTINGS
    @given(a=count_arrays, b=count_arrays)
    def test_merge_agrees(self, a, b):
        # Superposing two trains: summed counts on the grid, concatenated
        # event lists (duplicate slots coalesce) on the events.
        if a.shape != b.shape:
            return
        dense = SpikeTrainArray(a.astype(np.int64) + b)
        ea, eb = SpikeTrainArray(a).to_events(), SpikeTrainArray(b).to_events()
        events = SpikeEvents(
            np.concatenate([ea.times, eb.times]),
            np.concatenate([ea.neuron_indices, eb.neuron_indices]),
            np.concatenate([ea.event_counts, eb.event_counts]),
            dense.num_steps, dense.population_shape,
        )
        assert events == dense

    def test_multidimensional_population(self):
        counts = (np.random.default_rng(3).random((6, 2, 3, 4)) < 0.4).astype(np.int16)
        dense = SpikeTrainArray(counts)
        events = dense.to_events()
        assert events.population_shape == (2, 3, 4)
        assert np.array_equal(events.window_counts(1, 4), dense.window_counts(1, 4))
        assert events.to_dense() == dense


class TestStochasticOps:
    def test_deletion_survival_rate_matches(self):
        dense = SpikeTrainArray(np.ones((50, 200), dtype=np.int16))
        events = dense.to_events()
        for train in (dense, events):
            survived = train.delete_spikes(0.3, rng=0).total_spikes()
            assert abs(survived / train.total_spikes() - 0.7) < 0.02

    def test_deletion_multicount_thinning(self):
        dense = SpikeTrainArray(np.full((10, 100), 5, dtype=np.int16))
        events = dense.to_events()
        for train in (dense, events):
            survived = train.delete_spikes(0.5, rng=0).total_spikes()
            assert abs(survived / train.total_spikes() - 0.5) < 0.05

    def test_deletion_edge_cases(self):
        events = random_train().to_events()
        assert events.delete_spikes(0.0, rng=0) == events
        assert events.delete_spikes(1.0, rng=0).total_spikes() == 0
        with pytest.raises(ValueError):
            events.delete_spikes(1.5)

    def test_deletion_deterministic_and_non_mutating(self):
        events = random_train().to_events()
        before = events.total_spikes()
        assert events.delete_spikes(0.5, rng=3) == events.delete_spikes(0.5, rng=3)
        assert events.total_spikes() == before

    def test_jitter_clip_preserves_spike_count(self):
        events = random_train(seed=1).to_events()
        jittered = events.jitter_spikes(2.0, rng=1)
        assert jittered.total_spikes() == events.total_spikes()

    def test_jitter_mean_shift_is_small(self):
        counts = np.zeros((41, 500), dtype=np.int16)
        counts[20] = 1
        events = SpikeTrainArray(counts).to_events()
        jittered = events.jitter_spikes(2.0, rng=0)
        times = np.repeat(np.arange(41), jittered.to_dense().counts.sum(axis=1))
        assert abs(times.mean() - 20.0) < 0.3

    def test_jitter_multicount_spreads_independently(self):
        counts = np.zeros((21, 50), dtype=np.int16)
        counts[10] = 4
        events = SpikeTrainArray(counts).to_events()
        jittered = events.jitter_spikes(2.0, rng=0)
        assert jittered.total_spikes() == events.total_spikes()
        # With sigma=2 the four spikes of one neuron almost surely split.
        assert jittered.occupied_slots() > events.occupied_slots()

    def test_jitter_edge_cases(self):
        events = random_train().to_events()
        assert events.jitter_spikes(0.0, rng=0) == events
        with pytest.raises(ValueError):
            events.jitter_spikes(-1.0)
        empty = SpikeEvents.zeros(5, (3,))
        assert empty.jitter_spikes(2.0, rng=0).total_spikes() == 0


class TestCoderBackends:
    @pytest.mark.parametrize("coder, representation", [
        (RateCoder(num_steps=16), SpikeTrainArray),
        (PhaseCoder(num_steps=16, period=8), SpikeTrainArray),
        (BurstCoder(num_steps=16, period=8, burst_length=4), SpikeTrainArray),
        (TTFSCoder(num_steps=16), SpikeEvents),
        (TTASCoder(num_steps=16, target_duration=3), SpikeEvents),
    ], ids=["rate", "phase", "burst", "ttfs", "ttas"])
    def test_encode_returns_the_coders_representation(
        self, coder, representation, monkeypatch
    ):
        # Each coder's encode is its own: the base method is never reached
        # (a call up would be counted twice by per-class encode tracing).
        def boom(self, values, rng=None):
            raise AssertionError("a coder's encode called NeuralCoder.encode")

        monkeypatch.setattr(NeuralCoder, "encode", boom)
        train = coder.encode(np.random.default_rng(0).random((3, 4)))
        assert type(train) is representation
        assert (train.num_steps, train.population_shape) == (16, (3, 4))

    @pytest.mark.parametrize("coder", [
        RateCoder(num_steps=24),
        PhaseCoder(num_steps=24, period=8),
        TTFSCoder(num_steps=24),
        TTASCoder(num_steps=24, target_duration=3),
    ], ids=lambda c: c.name)
    def test_backends_encode_identically(self, coder):
        values = np.random.default_rng(0).random((5, 7))
        train = coder.encode(values)
        dense, events = train.to_dense(), train.to_events()
        assert isinstance(dense, SpikeTrainArray)
        assert isinstance(events, SpikeEvents)
        assert events == dense
        assert np.allclose(
            coder.decode(events), coder.decode(dense), rtol=1e-5, atol=1e-6
        )

    def test_step_weights_cached_and_readonly(self):
        coder = TTASCoder(num_steps=16)
        weights = coder.step_weights()
        assert coder.step_weights() is weights
        assert coder.decode_weights() is coder.decode_weights()
        assert coder.decode_weights().dtype == np.float32
        with pytest.raises(ValueError):
            weights[0] = 5.0


class TestNoiseProtocol:
    def test_noise_preserves_events_backend(self):
        events = random_train().to_events()
        injector = NoiseInjector.from_levels(deletion_probability=0.3, jitter_sigma=1.0)
        noisy = injector.apply(events, rng=0)
        assert isinstance(noisy, SpikeEvents)
        assert noisy.total_spikes() < events.total_spikes()

    def test_identity_noise_returns_distinct_view(self):
        events = random_train().to_events()
        clean = IdentityNoise().apply(events, rng=0)
        assert clean == events
        assert clean is not events

    def test_deletion_noise_statistics_match_dense(self):
        dense = random_train(seed=2, shape=(30, 300), p=0.5)
        noise = DeletionNoise(0.4)
        dense_ratio = noise.apply(dense, rng=0).total_spikes() / dense.total_spikes()
        events_ratio = (
            noise.apply(dense.to_events(), rng=0).total_spikes()
            / dense.total_spikes()
        )
        assert abs(dense_ratio - 0.6) < 0.05
        assert abs(events_ratio - 0.6) < 0.05


class TestTransportParity:
    @pytest.fixture()
    def simulator(self, converted_mlp):
        return ActivationTransportSimulator(
            network=converted_mlp,
            coder=TTASCoder(num_steps=8, target_duration=3),
            noise=None,
        )

    def test_sparse_logits_match_dense_logits_at_noise_zero(
        self, simulator, mnist_split, monkeypatch
    ):
        x = mnist_split.test.x[:16]
        event_logits, event_spikes = simulator.forward(x, rng=0)
        encode = TTASCoder.encode
        monkeypatch.setattr(
            TTASCoder, "encode",
            lambda self, values, rng=None: encode(self, values, rng).to_dense(),
        )
        dense_logits, dense_spikes = simulator.forward(x, rng=0)
        assert dense_spikes == event_spikes
        assert np.allclose(event_logits, dense_logits, rtol=1e-4, atol=1e-5)

    def test_sparse_path_never_densifies(
        self, simulator, mnist_split, monkeypatch
    ):
        def boom(self, *window):
            raise AssertionError("sparse transport path densified a train")

        monkeypatch.setattr(SpikeEvents, "to_dense", boom)
        monkeypatch.setattr(SpikeEvents, "window_counts", boom)
        logits, _ = simulator.forward(mnist_split.test.x[:8], rng=0)
        assert logits.shape[0] == 8
