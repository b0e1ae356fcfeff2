"""Tests for the hardware-fault noise models and their evaluator routing.

Covers the fault models of :mod:`repro.noise.faults` (dead neurons,
stuck-at-firing, burst errors, weight quantization), the injector wiring,
the faithful simulator's per-layer fault masks, and the acceptance
requirement that fault curves run end-to-end on *both* evaluators with
matching degradation trends.
"""

import numpy as np
import pytest

from repro.noise import (
    BurstErrorNoise,
    DeadNeuronNoise,
    NoiseInjector,
    StuckAtFireNoise,
    WeightQuantizationNoise,
    quantize_weights,
)
from repro.snn.simulator import LayerFaultMask
from repro.snn.spikes import SpikeTrainArray


def dense_train(seed=0, shape=(20, 100), p=0.3):
    counts = (np.random.default_rng(seed).random(shape) < p).astype(np.int16)
    return SpikeTrainArray(counts)


def batched_train(seed=0, shape=(20, 4, 25), p=0.3):
    counts = (np.random.default_rng(seed).random(shape) < p).astype(np.int16)
    return SpikeTrainArray(counts)


# ---------------------------------------------------------------------------
# Dead neurons (stuck-at-silent)
# ---------------------------------------------------------------------------
class TestDeadNeuronNoise:
    def test_zero_fraction_is_identity(self):
        train = dense_train()
        assert DeadNeuronNoise(0.0).apply(train, rng=0) == train

    def test_dead_neurons_are_silent_at_every_step(self):
        train = dense_train(p=0.8)
        noisy = DeadNeuronNoise(0.5).apply(train, rng=1)
        silenced = (noisy.counts.sum(axis=0) == 0) & (train.counts.sum(axis=0) > 0)
        assert silenced.any()
        # A neuron is either untouched or silent at *all* steps -- the mask
        # persists across time, unlike i.i.d. deletion.
        changed = np.any(noisy.counts != train.counts, axis=0)
        assert np.array_equal(changed, silenced)

    def test_mask_is_persistent_and_deterministic(self):
        train = dense_train()
        a = DeadNeuronNoise(0.4).apply(train, rng=7)
        b = DeadNeuronNoise(0.4).apply(train, rng=7)
        assert a == b

    def test_batch_axis_shares_the_mask(self):
        # All samples of a batch run on the same physical chip, so the same
        # neurons must be dead for each of them.
        train = batched_train(p=1.0)  # every neuron spikes every step
        noisy = DeadNeuronNoise(0.5).apply(train, rng=2)
        per_sample_dead = noisy.counts.sum(axis=0) == 0  # (batch, features)
        for sample in range(1, per_sample_dead.shape[0]):
            assert np.array_equal(per_sample_dead[sample], per_sample_dead[0])

    def test_dense_events_bit_identical(self):
        train = dense_train()
        dense = DeadNeuronNoise(0.4).apply(train, rng=3)
        events = DeadNeuronNoise(0.4).apply(train.to_events(), rng=3)
        assert events.to_dense() == dense

    def test_input_not_mutated(self):
        train = dense_train()
        before = train.counts.copy()
        DeadNeuronNoise(0.9).apply(train, rng=0)
        assert np.array_equal(train.counts, before)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadNeuronNoise(1.5)
        with pytest.raises(ValueError):
            DeadNeuronNoise(-0.1)


# ---------------------------------------------------------------------------
# Stuck-at-firing
# ---------------------------------------------------------------------------
class TestStuckAtFireNoise:
    def test_zero_fraction_is_identity(self):
        train = dense_train()
        assert StuckAtFireNoise(0.0).apply(train, rng=0) == train

    def test_stuck_neurons_fire_once_per_step(self):
        train = dense_train(p=0.0)  # completely silent input
        noisy = StuckAtFireNoise(0.5).apply(train, rng=1)
        stuck = noisy.counts.sum(axis=0) > 0
        assert stuck.any()
        assert np.array_equal(
            noisy.counts[:, stuck], np.ones_like(noisy.counts[:, stuck])
        )
        # Non-stuck neurons keep their (here: empty) activity.
        assert not noisy.counts[:, ~stuck].any()

    def test_window_limits_forced_firing(self):
        train = dense_train(p=0.0)
        noisy = StuckAtFireNoise(1.0, window=(5, 10)).apply(train, rng=0)
        assert noisy.counts[:5].sum() == 0
        assert noisy.counts[10:].sum() == 0
        assert np.array_equal(
            noisy.counts[5:10], np.ones_like(noisy.counts[5:10])
        )

    def test_overrides_existing_activity(self):
        # A stuck neuron emits exactly one spike per step even where the
        # original train had bursts (counts > 1).
        counts = np.full((8, 6), 3, dtype=np.int16)
        noisy = StuckAtFireNoise(1.0).apply(SpikeTrainArray(counts), rng=0)
        assert np.array_equal(noisy.counts, np.ones_like(counts))

    def test_dense_events_bit_identical(self):
        train = dense_train()
        dense = StuckAtFireNoise(0.3).apply(train, rng=5)
        events = StuckAtFireNoise(0.3).apply(train.to_events(), rng=5)
        assert events.to_dense() == dense


# ---------------------------------------------------------------------------
# Burst errors (correlated window deletion)
# ---------------------------------------------------------------------------
class TestBurstErrorNoise:
    def test_zero_fraction_is_identity(self):
        train = dense_train()
        assert BurstErrorNoise(0.0).apply(train, rng=0) == train

    def test_contiguous_window_dropped(self):
        train = dense_train(p=1.0)
        noisy = BurstErrorNoise(0.25).apply(train, rng=4)
        dropped = np.flatnonzero(noisy.counts.sum(axis=1) == 0)
        assert dropped.size == round(0.25 * train.num_steps)
        assert np.array_equal(dropped, np.arange(dropped[0], dropped[-1] + 1))
        kept = np.setdiff1d(np.arange(train.num_steps), dropped)
        assert np.array_equal(noisy.counts[kept], train.counts[kept])

    def test_full_fraction_silences_everything(self):
        train = dense_train(p=0.9)
        assert BurstErrorNoise(1.0).apply(train, rng=0).total_spikes() == 0

    def test_dense_events_bit_identical(self):
        train = dense_train()
        dense = BurstErrorNoise(0.4).apply(train, rng=6)
        events = BurstErrorNoise(0.4).apply(train.to_events(), rng=6)
        assert events.to_dense() == dense


# ---------------------------------------------------------------------------
# Weight quantization
# ---------------------------------------------------------------------------
class TestWeightQuantization:
    def test_quantization_grid(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(32, 16)).astype(np.float32)
        bits = 4
        quantised = WeightQuantizationNoise(bits).perturb(weights)
        step = np.max(np.abs(weights)) / 2 ** (bits - 1)
        levels = np.unique(np.round(quantised / step))
        assert len(levels) <= 2 ** bits + 1
        assert np.max(np.abs(quantised - weights)) <= step / 2 + 1e-6
        assert quantised.dtype == weights.dtype

    def test_deterministic_and_pure(self):
        weights = np.linspace(-1.0, 1.0, 11)
        model = WeightQuantizationNoise(3)
        before = weights.copy()
        a = model.perturb(weights)
        b = model.perturb(weights)
        assert np.array_equal(a, b)
        assert np.array_equal(weights, before)

    def test_high_precision_is_near_identity(self):
        weights = np.random.default_rng(1).normal(size=64)
        quantised = WeightQuantizationNoise(16).perturb(weights)
        assert np.allclose(quantised, weights, atol=1e-3)

    def test_zero_tensor(self):
        zeros = np.zeros((4, 4))
        assert np.array_equal(WeightQuantizationNoise(4).perturb(zeros), zeros)

    def test_quantize_weights_list(self):
        tensors = [np.ones((2, 2)), np.zeros(3)]
        out = quantize_weights(tensors, bits=2)
        assert len(out) == 2
        assert np.array_equal(out[0], tensors[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightQuantizationNoise(0)


# ---------------------------------------------------------------------------
# Injector wiring
# ---------------------------------------------------------------------------
class TestInjectorFaults:
    def test_from_levels_builds_fault_models(self):
        injector = NoiseInjector.from_levels(
            deletion_probability=0.1, burst_error_fraction=0.2,
            dead_fraction=0.3, stuck_fraction=0.4,
        )
        assert [m.name for m in injector.models] == [
            "deletion", "burst_error", "dead", "stuck"
        ]

    def test_fault_only_injector(self):
        injector = NoiseInjector.from_levels(dead_fraction=0.5)
        train = dense_train(p=0.8)
        noisy = injector.apply(train, rng=0)
        assert noisy.total_spikes() < train.total_spikes()

    def test_injector_deterministic_per_seed(self):
        injector = NoiseInjector.from_levels(dead_fraction=0.3, stuck_fraction=0.1)
        train = dense_train()
        a = injector.apply(train, rng=9)
        b = injector.apply(train, rng=9)
        c = injector.apply(train, rng=10)
        assert a == b
        assert a != c  # a different stream draws different masks


# ---------------------------------------------------------------------------
# Per-layer fault masks inside the faithful simulator
# ---------------------------------------------------------------------------
class TestLayerFaultMask:
    def test_mask_drawn_once_and_reused(self):
        mask = LayerFaultMask(dead_fraction=0.5, stuck_fraction=0.0, rng=0)
        spikes = np.ones((1, 3, 7), dtype=np.float64)
        first = mask.apply_window(spikes)
        for _ in range(4):
            assert np.array_equal(mask.apply_window(spikes), first)

    def test_stepped_and_windowed_application_agree(self):
        # Masking step t alone -- a one-step window re-based to t, as the
        # stepped oracle does -- equals masking the whole window at once.
        rng = np.random.default_rng(0)
        spikes = (rng.random((12, 2, 9)) < 0.5).astype(np.float64)
        stepped_mask = LayerFaultMask(dead_fraction=0.3, stuck_fraction=0.2, rng=11)
        fused_mask = LayerFaultMask(dead_fraction=0.3, stuck_fraction=0.2, rng=11)
        stepped = np.concatenate([
            stepped_mask.apply_window(spikes[t:t + 1], 2 - t, 9 - t)
            for t in range(spikes.shape[0])
        ])
        fused = fused_mask.apply_window(spikes, fire_start=2, fire_stop=9)
        assert np.array_equal(stepped, fused)

    def test_stuck_respects_protocol_window(self):
        mask = LayerFaultMask(dead_fraction=0.0, stuck_fraction=1.0, rng=0)
        silent = np.zeros((10, 2, 4))
        masked = mask.apply_window(silent, fire_start=2, fire_stop=6)
        assert np.array_equal(masked[2:6], np.ones((4, 2, 4)))
        assert not masked[:2].any() and not masked[6:].any()

    def test_stuck_overrides_dead(self):
        # Fractions of 1.0 make every neuron both dead and stuck.  Stuck is
        # applied after dead -- the same composition order the transport
        # injector uses (from_levels appends dead before stuck) -- so both
        # evaluators agree that a dead-and-stuck circuit still fires.
        mask = LayerFaultMask(dead_fraction=1.0, stuck_fraction=1.0, rng=0)
        spikes = np.ones((1, 2, 3))
        assert np.array_equal(mask.apply_window(spikes), spikes)


# ---------------------------------------------------------------------------
# End-to-end: both evaluators degrade under faults (acceptance)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fault_workload():
    from repro.experiments import prepare_workload
    from repro.experiments.config import TEST_SCALE

    return prepare_workload("mnist", scale=TEST_SCALE, seed=0, use_cache=False)


class TestFaultCurvesBothEvaluators:
    @pytest.mark.parametrize("noise_kind,harsh_level", [
        ("dead", 0.5),
        ("burst_error", 0.75),
    ])
    def test_matching_degradation_trends(self, fault_workload, noise_kind, harsh_level):
        """Dead-neuron and burst-error curves run end-to-end on the
        transport evaluator *and* the faithful simulator, and both show the
        same qualitative trend: severe faults cost substantial accuracy."""
        from repro.experiments import run_sweep
        from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig

        curves = {}
        for simulator in ("transport", "timestep"):
            config = SweepConfig(
                dataset="mnist",
                methods=(MethodSpec(coding="ttfs"),),
                noise_kind=noise_kind,
                levels=(0.0, harsh_level),
                scale=TEST_SCALE,
                seed=0,
                simulator=simulator,
            )
            result = run_sweep(config, workload=fault_workload, eval_size=24)
            curves[simulator] = result.curves[0]
        for simulator, curve in curves.items():
            clean, faulty = curve.accuracies
            assert clean > 0.8, f"{simulator} clean accuracy collapsed"
            assert faulty < clean - 0.2, (
                f"{simulator} shows no degradation under {noise_kind}"
            )

    def test_stuck_at_firing_degrades_transport_and_timestep(self, fault_workload):
        from repro.experiments import run_sweep
        from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig

        for simulator in ("transport", "timestep"):
            config = SweepConfig(
                dataset="mnist",
                methods=(MethodSpec(coding="ttfs"),),
                noise_kind="stuck",
                levels=(0.0, 0.5),
                scale=TEST_SCALE,
                seed=0,
                simulator=simulator,
            )
            result = run_sweep(config, workload=fault_workload, eval_size=24)
            clean, faulty = result.curves[0].accuracies
            assert faulty < clean - 0.2
