"""Tests for the spike-noise value (deletion, jitter, composition) and weight noise."""

import numpy as np
import pytest

from oracles import roundtrip

from repro.coding import RateCoder, TTFSCoder
from repro.noise import GaussianWeightNoise, NoiseInjector
from repro.noise import injector as injector_module
from repro.noise.injector import COMPOSITION_ORDER
from repro.snn.spikes import SpikeTrainArray
from repro.utils.rng import derive_rng


def dense_train(seed=0, shape=(20, 100), p=0.3):
    counts = (np.random.default_rng(seed).random(shape) < p).astype(np.int16)
    return SpikeTrainArray(counts)


class TestIdentityNoise:
    def test_returns_equal_copy(self):
        train = dense_train()
        clean = NoiseInjector().apply(train, rng=0)
        assert clean == train
        assert clean is not train


class TestDeletionNoise:
    def test_survival_rate(self):
        train = dense_train(p=0.5)
        noisy = NoiseInjector(deletion=0.4).apply(train, rng=0)
        ratio = noisy.total_spikes() / train.total_spikes()
        assert abs(ratio - 0.6) < 0.05

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="deletion"):
            NoiseInjector(deletion=1.2)

    def test_does_not_mutate_input(self):
        train = dense_train()
        before = train.total_spikes()
        NoiseInjector(deletion=0.9).apply(train, rng=0)
        assert train.total_spikes() == before

    def test_reduces_expected_activation_to_one_minus_p(self):
        # Section III: E[A'] = (1 - p) A for every coding scheme.
        coder = RateCoder(num_steps=64)
        values = np.random.default_rng(0).random(500)
        train = coder.encode(values)
        noisy = NoiseInjector(deletion=0.3).apply(train, rng=1)
        ratio = coder.decode(noisy).sum() / coder.decode(train).sum()
        assert abs(ratio - 0.7) < 0.03


class TestJitterNoise:
    def test_preserves_count_in_clip_mode(self):
        train = dense_train()
        noisy = NoiseInjector(jitter=2.0).apply(train, rng=0)
        assert noisy.total_spikes() == train.total_spikes()

    def test_zero_sigma_is_identity(self):
        train = dense_train()
        assert NoiseInjector(jitter=0.0).apply(train, rng=0) == train

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="jitter"):
            NoiseInjector(jitter=-1.0)

    def test_ttfs_value_perturbed(self):
        coder = TTFSCoder(num_steps=16)
        values = np.full(300, 0.5)
        train = coder.encode(values)
        noisy = NoiseInjector(jitter=2.0).apply(train, rng=0)
        errors = np.abs(coder.decode(noisy) - roundtrip(coder, values))
        assert errors.mean() > 0.02


class TestNoiseInjector:
    def test_from_levels_builds_expected_models(self):
        injector = NoiseInjector.from_levels(deletion_probability=0.3, jitter_sigma=1.0)
        assert injector == NoiseInjector(deletion=0.3, jitter=1.0)
        assert (injector.burst_error, injector.dead, injector.stuck) == (0.0, 0.0, 0.0)

    def test_from_levels_clean(self):
        injector = NoiseInjector.from_levels()
        assert injector == NoiseInjector() and injector.is_clean
        assert not NoiseInjector(stuck=0.1).is_clean
        train = dense_train()
        assert injector.apply(train, rng=0) == train

    def test_composite_applies_both(self):
        train = dense_train(p=0.5)
        injector = NoiseInjector.from_levels(deletion_probability=0.5, jitter_sigma=1.0)
        noisy = injector.apply(train, rng=0)
        assert noisy.total_spikes() < train.total_spikes()

    def test_deterministic_given_seed(self):
        train = dense_train()
        injector = NoiseInjector.from_levels(deletion_probability=0.4, jitter_sigma=1.5)
        assert injector.apply(train, rng=7) == injector.apply(train, rng=7)

    def test_adding_model_does_not_change_other_stream(self):
        # The deletion realisation must be identical whether or not a later
        # level is also set (independent derived streams): adding dead
        # neurons only silences whole neurons of the deletion-only train.
        train = dense_train(p=0.4)
        deletion_only = NoiseInjector(deletion=0.5).apply(train, rng=3).counts
        both = NoiseInjector(deletion=0.5, dead=0.3).apply(train, rng=3).counts
        alive = both.sum(axis=0) > 0
        assert 0 < alive.sum() < alive.size
        assert np.array_equal(both[:, alive], deletion_only[:, alive])
        assert not both[:, ~alive].any()


class TestCompositionOrder:
    """The injector's model order is a documented, frozen contract."""

    ALL_LEVELS = dict(
        deletion_probability=0.2,
        jitter_sigma=1.0,
        burst_error_fraction=0.1,
        dead_fraction=0.1,
        stuck_fraction=0.1,
    )

    @staticmethod
    def streams(monkeypatch, injector):
        """The ``(name, position)`` stream keys ``apply`` derives, in order."""
        keys = []

        def recording(rng, *tags):
            keys.append(tags)
            return derive_rng(rng, *tags)

        monkeypatch.setattr(injector_module, "derive_rng", recording)
        injector.apply(dense_train(), rng=0)
        return [name for name, _ in keys], [position for _, position in keys]

    def test_from_levels_follows_composition_order(self, monkeypatch):
        injector = NoiseInjector.from_levels(**self.ALL_LEVELS)
        names, positions = self.streams(monkeypatch, injector)
        assert tuple(names) == COMPOSITION_ORDER
        assert positions == list(range(len(COMPOSITION_ORDER)))

    def test_order_is_stable_under_partial_levels(self, monkeypatch):
        # Unset levels drop out without reordering the rest, and positions
        # count only the levels that are set.
        injector = NoiseInjector.from_levels(
            jitter_sigma=1.0, stuck_fraction=0.1, deletion_probability=0.2
        )
        names, positions = self.streams(monkeypatch, injector)
        assert names == ["deletion", "jitter", "stuck"]
        assert tuple(names) == tuple(n for n in COMPOSITION_ORDER if n in names)
        assert positions == [0, 1, 2]

    def test_full_stack_deterministic(self):
        train = dense_train(p=0.4)
        injector = NoiseInjector.from_levels(**self.ALL_LEVELS)
        assert injector.apply(train, rng=11) == injector.apply(train, rng=11)

    def test_timing_and_fault_stack_is_backend_invariant(self):
        # Jitter, burst, dead and stuck draw per-spike / per-neuron streams,
        # so the composed corruption is bit-identical whether the input train
        # is dense or event-driven: same order, same derived streams.
        dense = dense_train(seed=5, p=0.4)
        events = dense.to_events()
        injector = NoiseInjector.from_levels(
            jitter_sigma=1.0, burst_error_fraction=0.1,
            dead_fraction=0.1, stuck_fraction=0.1,
        )
        noisy_dense = injector.apply(dense, rng=23)
        noisy_events = injector.apply(events, rng=23)
        assert np.array_equal(
            noisy_dense.to_dense().counts, noisy_events.to_dense().counts
        )

    def test_deletion_backends_deterministic_and_distribution_matched(self):
        # Deletion is the documented exception to bit-level backend
        # invariance: the dense backend draws one variate per grid slot, the
        # event backend one per event (the O(events) optimisation).  Each
        # backend is individually deterministic and both thin at the same
        # rate.
        dense = dense_train(seed=5, p=0.4)
        events = dense.to_events()
        injector = NoiseInjector.from_levels(**self.ALL_LEVELS)
        assert injector.apply(dense, rng=23) == injector.apply(dense, rng=23)
        assert injector.apply(events, rng=23) == injector.apply(events, rng=23)
        survival = 1.0 - self.ALL_LEVELS["deletion_probability"]
        deletion = NoiseInjector.from_levels(
            deletion_probability=self.ALL_LEVELS["deletion_probability"]
        )
        for train in (dense, events):
            kept = deletion.apply(train, rng=23).total_spikes()
            assert abs(kept / train.total_spikes() - survival) < 0.1

    def test_order_matters(self):
        # Sanity check that the contract is not vacuous: swapping deletion
        # and stuck-at-fire changes the realisation (stuck spikes would be
        # re-deleted), so the frozen order is load-bearing.  The swapped
        # order is applied by hand, on the streams it would be keyed by.
        train = dense_train(seed=9, p=0.5)
        forward = NoiseInjector(deletion=0.5, stuck=0.3).apply(train, rng=4)
        stuck = derive_rng(4, "stuck", 0).random(size=train.population_shape) < 0.3
        swapped = train.force_firing(stuck).delete_spikes(
            0.5, rng=derive_rng(4, "deletion", 1)
        )
        assert forward != swapped


class TestWeightNoise:
    def test_static_noise_is_reused(self):
        model = GaussianWeightNoise(0.1, static=True)
        w = np.ones((4, 4))
        a = model.perturb(w, key=0, rng=0)
        b = model.perturb(w, key=0, rng=99)
        assert np.allclose(a, b)

    def test_dynamic_noise_redrawn(self):
        model = GaussianWeightNoise(0.1, static=False)
        w = np.ones((4, 4))
        a = model.perturb(w, key=0, rng=np.random.default_rng(0))
        b = model.perturb(w, key=0, rng=np.random.default_rng(1))
        assert not np.allclose(a, b)

    def test_zero_std_identity(self):
        w = np.random.default_rng(0).random((3, 3))
        assert np.allclose(GaussianWeightNoise(0.0).perturb(w), w)

    def test_relative_magnitude(self):
        model = GaussianWeightNoise(0.05, static=False)
        w = np.full((200, 200), 2.0)
        noisy = model.perturb(w, rng=0)
        assert abs((noisy / w - 1.0).std() - 0.05) < 0.005

    def test_reset_clears_cache(self):
        model = GaussianWeightNoise(0.1, static=True)
        w = np.ones((2, 2))
        a = model.perturb(w, key=0, rng=0)
        model.reset()
        b = model.perturb(w, key=0, rng=1)
        assert not np.allclose(a, b)

    def test_shape_mismatch_detected(self):
        model = GaussianWeightNoise(0.1, static=True)
        model.perturb(np.ones((2, 2)), key=0, rng=0)
        with pytest.raises(ValueError):
            model.perturb(np.ones((3, 3)), key=0, rng=0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            GaussianWeightNoise(-0.1)
