"""Simulator-vs-oracle equivalence and integration tests.

The simulator's contract is exactness against the time-outer reference loop
(:func:`oracles.run_stepped`): identical spike trains, spike counts and
readout potentials.  The matrix below exercises all three neuron models, a
readout with no, full-window or stopped bias, spike recording on/off,
several batch shapes (including partial batches), plus the sweep-level
integration of ``simulator="timestep"`` cells through the executor engine
and result store.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st
from oracles import run_stepped

from repro.coding import PhaseCoder, RateCoder, TTASCoder, TTFSCoder
from repro.core import build_time_stepped_simulator
from repro.core.pipeline import NoiseRobustSNN, make_evaluator
from repro.core.timestep import TimestepEvaluator, _SegmentTransform
from repro.core.transport import ActivationTransportSimulator, evaluate_transport
from repro.core.weight_scaling import WeightScaling
from repro.execution import ProcessExecutor, ResultStore, ThreadExecutor, evaluate_plans
from repro.execution.plan import build_sweep_plans, network_fingerprint
from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig, filter_methods
from repro.experiments.runner import run_sweep
from repro.nn.layers import AvgPool2D
from repro.noise.faults import quantize_network
from repro.noise.injector import NoiseInjector
from repro.snn.neurons import IFNeuron, IntegrateFireOrBurstNeuron, TTFSNeuron
from repro.snn.simulator import (
    LayerFaultMask,
    SimulatorLayer,
    TimeSteppedSimulator,
    _SpikeRows,
)
from repro.snn.spikes import SpikeTrainArray
from repro.utils.config import ConfigError
from tests.conftest import stored_fingerprints


NEURON_FACTORIES = {
    "if-subtract": lambda: IFNeuron(0.3),
    "ttfs": lambda: TTFSNeuron(0.6, tau=9.0),
    "ttfs-static": lambda: TTFSNeuron(0.6),
    "ifb": lambda: IntegrateFireOrBurstNeuron(0.4, target_duration=3, tau=7.0),
    "ifb-single": lambda: IntegrateFireOrBurstNeuron(0.4, target_duration=1),
    "ifb-long": lambda: IntegrateFireOrBurstNeuron(0.4, target_duration=50),
    "if-windowed": lambda: IFNeuron(0.3, fire_start=5, fire_stop=12),
    "ttfs-windowed": lambda: TTFSNeuron(0.6, tau=9.0, fire_start=5, fire_stop=12),
    "ifb-windowed": lambda: IntegrateFireOrBurstNeuron(
        0.4, target_duration=4, tau=7.0, fire_start=5, fire_stop=12
    ),
    "ifb-single-windowed": lambda: IntegrateFireOrBurstNeuron(
        0.4, target_duration=1, fire_start=5, fire_stop=12
    ),
    "if-scheduled-windowed": lambda: IFNeuron(
        0.8, threshold_schedule=0.8 * 2.0 ** -(1.0 + np.arange(4)),
        fire_start=5, fire_stop=12,
    ),
}


# ---------------------------------------------------------------------------
# Neuron advance scans
# ---------------------------------------------------------------------------
def assert_states_equal(expected, actual):
    assert np.array_equal(expected.fired, actual.fired)
    assert np.array_equal(expected.refractory, actual.refractory)
    assert np.array_equal(expected.burst_remaining, actual.burst_remaining)
    assert expected.step_index == actual.step_index
    assert np.array_equal(expected.membrane, actual.membrane)


def advance_vs_step_loop(make, drive, start):
    """``advance`` against ``step`` from ``state.step_index == start``."""
    reference, scanned = make(), make()
    ref_state = reference.init_state(drive.shape[1:])
    scan_state = scanned.init_state(drive.shape[1:])
    ref_state.step_index = scan_state.step_index = start
    expected = np.stack(
        [reference.step(ref_state, drive[t]) for t in range(drive.shape[0])]
    )
    actual = scanned.advance(scan_state, drive)
    assert actual.dtype == np.int16
    assert np.array_equal(expected, actual)
    assert_states_equal(ref_state, scan_state)


def split_vs_whole_advance(make, drive, split, start):
    """Two chunked ``advance`` calls against one, from ``start``."""
    whole, chunked = make(), make()
    whole_state = whole.init_state(drive.shape[1:])
    chunk_state = chunked.init_state(drive.shape[1:])
    whole_state.step_index = chunk_state.step_index = start
    expected = whole.advance(whole_state, drive)
    actual = np.concatenate(
        [chunked.advance(chunk_state, drive[:split]),
         chunked.advance(chunk_state, drive[split:])]
    )
    assert np.array_equal(expected, actual)
    assert_states_equal(whole_state, chunk_state)


class TestNeuronAdvance:
    """``advance`` against the per-step oracle, bit for bit.

    The ``mid_simulation`` cases begin at ``state.step_index == 4``, as the
    simulator does for a layer whose drive starts late, so the windowed
    neurons' ``fire_start`` (5), ``fire_stop`` (12) and burst spill fall
    at different offsets into the window.
    """

    @pytest.mark.parametrize("name", sorted(NEURON_FACTORIES))
    def test_advance_matches_step_loop(self, name, rng):
        drive = rng.normal(0.08, 0.35, size=(21, 5, 6)).astype(np.float32)
        advance_vs_step_loop(NEURON_FACTORIES[name], drive, start=0)

    @pytest.mark.parametrize("name", sorted(NEURON_FACTORIES))
    def test_advance_matches_step_loop_mid_simulation(self, name, rng):
        drive = rng.normal(0.08, 0.35, size=(21, 5, 6)).astype(np.float32)
        advance_vs_step_loop(NEURON_FACTORIES[name], drive, start=4)

    @pytest.mark.parametrize("name", sorted(NEURON_FACTORIES))
    @pytest.mark.parametrize("split", [1, 7, 20])
    def test_advance_split_windows_consistent(self, name, split, rng):
        """Chunked advance == one-shot advance (bursts crossing the seam)."""
        drive = rng.normal(0.1, 0.3, size=(21, 4)).astype(np.float32)
        split_vs_whole_advance(NEURON_FACTORIES[name], drive, split, start=0)

    @pytest.mark.parametrize("name", sorted(NEURON_FACTORIES))
    @pytest.mark.parametrize("split", [1, 7, 8])
    def test_advance_split_windows_mid_simulation(self, name, split, rng):
        """From step 4 the seams fall on steps 5, 11 and 12: ``fire_start``,
        the last step a windowed burst may start, and ``fire_stop`` with a
        burst spilling past it."""
        drive = rng.normal(0.1, 0.3, size=(21, 4)).astype(np.float32)
        split_vs_whole_advance(NEURON_FACTORIES[name], drive, split, start=4)

    @pytest.mark.parametrize("name", ["if-subtract", "ttfs-windowed", "ifb-windowed"])
    def test_advance_allocates_little_beyond_the_spike_window(self, name, rng):
        """The scans keep no ``(T, ...)`` temporary: the int16 spike window
        alone is 2 bytes per drive element, and the peak stays under 4."""
        neuron = NEURON_FACTORIES[name]()
        drive = rng.normal(0.05, 0.3, size=(32, 16, 4096)).astype(np.float32)
        state = neuron.init_state(drive.shape[1:])
        tracemalloc.start()
        try:
            neuron.advance(state, drive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * drive.size

    @pytest.mark.parametrize("name", sorted(NEURON_FACTORIES))
    def test_advance_empty_window(self, name):
        neuron = NEURON_FACTORIES[name]()
        state = neuron.init_state((3,))
        before = neuron.init_state((3,))
        spikes = neuron.advance(state, np.empty((0, 3), dtype=np.float32))
        assert spikes.shape == (0, 3)
        assert spikes.dtype == np.int16
        assert_states_equal(before, state)


# ---------------------------------------------------------------------------
# Simulator vs the stepped oracle
# ---------------------------------------------------------------------------
#: Readout bias cases as ``(has_bias, bias_stop)``: none, injected on every
#: step, or only on the first ``bias_stop`` steps of the window.
READOUT_BIASES = {
    "no-bias": (False, None),
    "full-bias": (True, None),
    "stopped-bias": (True, 10),
}


def hand_built_simulator(neuron_factory, num_steps, rng, readout_bias="no-bias"):
    """Two spiking layers + readout with random dense transforms."""
    w1 = rng.normal(0.0, 0.6, size=(6, 5))
    w2 = rng.normal(0.0, 0.6, size=(5, 4))
    w3 = rng.normal(0.0, 0.6, size=(4, 3))
    has_bias, readout_stop = READOUT_BIASES[readout_bias]
    readout_bias_row = rng.normal(0.0, 0.05, size=(1, 3)) if has_bias else None
    layers = [
        SimulatorLayer(transform=lambda psc: psc @ w1,
                       neuron=neuron_factory(), name="hidden0"),
        SimulatorLayer(transform=lambda psc: psc @ w2,
                       neuron=neuron_factory(), name="hidden1",
                       step_bias=rng.normal(0.0, 0.01, size=(1, 4))),
        SimulatorLayer(transform=lambda psc: psc @ w3, neuron=None, name="readout",
                       step_bias=readout_bias_row,
                       bias_stop=readout_stop),
    ]
    return TimeSteppedSimulator(
        layers, num_steps,
        input_kernel=np.full(num_steps, 1.0 / num_steps),
        hidden_kernel=np.full(num_steps, 0.3),
    )


def assert_records_match(stepped, fused):
    assert stepped.spike_counts == fused.spike_counts
    assert stepped.num_steps == fused.num_steps
    np.testing.assert_array_equal(stepped.output_potential, fused.output_potential)
    assert set(stepped.spike_trains) == set(fused.spike_trains)
    for name in stepped.spike_trains:
        assert stepped.spike_trains[name] == fused.spike_trains[name]


class TestEngineEquivalence:
    @pytest.mark.parametrize("neuron", ["if-subtract", "ttfs", "ifb"])
    @pytest.mark.parametrize("readout_bias", sorted(READOUT_BIASES))
    @pytest.mark.parametrize("record_spikes", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matrix_hand_built(self, neuron, readout_bias, record_spikes, batch, rng):
        simulator = hand_built_simulator(
            NEURON_FACTORIES[neuron], num_steps=24, rng=rng,
            readout_bias=readout_bias,
        )
        coder = RateCoder(num_steps=24)
        values = rng.random((batch, 6))
        values[..., 0] = 0.0  # silent neurons -> whole-silent early steps
        train = coder.encode(values)
        stepped = run_stepped(simulator, train, record_spikes=record_spikes)
        fused = simulator.run(train, record_spikes=record_spikes)
        assert_records_match(stepped, fused)

    @pytest.mark.parametrize("batch", [16, 10, 1])
    def test_converted_mlp_partial_batches(self, converted_mlp, mnist_split, batch):
        coder = RateCoder(num_steps=32)
        simulator = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(16, 1, 28, 28), threshold=0.1
        )
        encoded = coder.encode(
            mnist_split.test.x[:batch] / converted_mlp.input_scale
        )
        stepped = run_stepped(simulator, encoded, record_spikes=True)
        fused = simulator.run(encoded, record_spikes=True)
        assert_records_match(stepped, fused)
        assert stepped.total_spikes() > 0

    @pytest.mark.parametrize("make_coder", [
        lambda: RateCoder(num_steps=16),
        lambda: PhaseCoder(num_steps=16),
        lambda: TTFSCoder(num_steps=16),
        lambda: TTASCoder(num_steps=16, target_duration=5),
    ], ids=["rate", "phase", "ttfs", "ttas5"])
    def test_converted_cnn_conv_stack(self, converted_cnn, cifar_split, make_coder):
        coder = make_coder()
        simulator = build_time_stepped_simulator(
            converted_cnn, coder, batch_input_shape=(4, 3, 16, 16), threshold=0.1
        )
        encoded = coder.encode(cifar_split.test.x[:4] / converted_cnn.input_scale)
        stepped = run_stepped(simulator, encoded, record_spikes=True)
        fused = simulator.run(encoded, record_spikes=True)
        assert_records_match(stepped, fused)
        # The pooled conv path must actually carry spikes under the protocol.
        pooled = [
            f"segment{segment.index}"
            for segment in converted_cnn.segments
            if segment.ends_with_spikes
            and any(isinstance(layer, AvgPool2D) for layer in segment.layers)
        ]
        assert pooled
        assert all(fused.spike_counts[name] > 0 for name in pooled)

    def test_all_zero_input_window(self):
        simulator = hand_built_simulator(
            NEURON_FACTORIES["if-subtract"], num_steps=8,
            rng=np.random.default_rng(0),
        )
        train = SpikeTrainArray.zeros(8, (2, 6))
        stepped = run_stepped(simulator, train)
        fused = simulator.run(train)
        assert_records_match(stepped, fused)

    def test_zero_row_skip_matches_full_fold(self, converted_mlp, mnist_split):
        """The sparsity skip is exercised by construction: near-zero inputs
        leave most time rows silent, and the result must not change."""
        coder = RateCoder(num_steps=32)
        simulator = build_time_stepped_simulator(
            converted_mlp, coder, batch_input_shape=(2, 1, 28, 28), threshold=0.1
        )
        x = np.zeros((2, 1, 28, 28), dtype=np.float32)
        x[0, 0, 14, 14] = 0.8  # a single bright pixel -> sparse input train
        train = coder.encode(x / converted_mlp.input_scale)
        occupied = train.to_dense().counts.reshape(32, -1).any(axis=1)
        assert not occupied.all(), "test needs at least one silent time row"
        stepped = run_stepped(simulator, train)
        fused = simulator.run(train)
        assert_records_match(stepped, fused)


# ---------------------------------------------------------------------------
# Integrate-then-fire: the steps before a firing window in one transform
# ---------------------------------------------------------------------------
TEMPORAL_CODERS = {
    "phase": lambda: PhaseCoder(num_steps=16),
    "ttfs": lambda: TTFSCoder(num_steps=16),
    "ttas5": lambda: TTASCoder(num_steps=16, target_duration=5),
}


class TestIntegrateThenFire:
    """Both the simulator and the oracle transform the summed pre-window PSC
    once instead of summing one transformed row per step.  That changes the
    float32 rounding of the membrane at ``fire_start``, not its value."""

    @pytest.mark.parametrize("coding", sorted(TEMPORAL_CODERS))
    def test_collapsed_membrane_matches_per_step_sum(
        self, converted_cnn, cifar_split, coding
    ):
        coder = TEMPORAL_CODERS[coding]()
        simulator = build_time_stepped_simulator(
            converted_cnn, coder, batch_input_shape=(4, 3, 16, 16), threshold=0.1
        )
        train = coder.encode(cifar_split.test.x[:4] / converted_cnn.input_scale)
        record = run_stepped(simulator, train, record_spikes=True)
        grid = np.zeros((simulator.num_steps, 4, 3, 16, 16), dtype=np.int16)
        grid[:coder.num_steps] = train.to_dense().counts
        checked = 0
        for index, layer in enumerate(simulator.layers[:-1]):
            if index > 0:
                grid = record.spike_trains[simulator.layers[index - 1].name]
                grid = grid.to_dense().counts
            start = layer.neuron.fire_start
            kernel = simulator.layer_kernels[index]
            stop = start if layer.bias_stop is None else min(start, layer.bias_stop)
            # The old order: transform every step's PSC row, sum the rows.
            per_step = 0.0
            for step in range(start):
                row = layer.transform(grid[step].astype(np.float64) * kernel[step])
                if step < stop:
                    row = row + layer.step_bias
                per_step = per_step + row.astype(np.float64)
            rows = _SpikeRows(4, grid.shape[2:])
            rows.append(grid, 0)
            collapsed = simulator._integrated_membrane(
                layer, rows, kernel, (0, start), bias_steps=stop
            )
            # Each of the `start` float32 rows is rounded once, relative to
            # the rows' magnitude; the collapsed call rounds once.
            magnitude = np.abs(per_step).max()
            assert magnitude > 0
            np.testing.assert_allclose(
                collapsed, per_step, rtol=0,
                atol=(start + 1) * np.finfo(np.float32).eps * magnitude,
            )
            checked += 1
        assert checked == len(simulator.layers) - 1

    def test_ttfs_layer_transforms_batch_rows_before_its_window(
        self, converted_cnn, cifar_split, monkeypatch
    ):
        """One row per sample per layer, not one per (step, sample): the
        integration collapses, and the layer's own window -- no kernel
        support, no bias -- gets no transform call at all."""
        coder = TTFSCoder(num_steps=16)
        simulator = build_time_stepped_simulator(
            converted_cnn, coder, batch_input_shape=(4, 3, 16, 16), threshold=0.1
        )
        train = coder.encode(cifar_split.test.x[:4] / converted_cnn.input_scale)
        rows = {}
        original = _SegmentTransform.__call__

        def counting_call(transform, psc):
            rows[id(transform)] = rows.get(id(transform), 0) + psc.shape[0]
            return original(transform, psc)

        monkeypatch.setattr(_SegmentTransform, "__call__", counting_call)
        record = simulator.run(train)
        assert record.total_spikes() > 0
        assert rows == {id(layer.transform): 4 for layer in simulator.layers}


# ---------------------------------------------------------------------------
# Segment-transform bias cache
# ---------------------------------------------------------------------------
class TestSegmentTransformBiasCache:
    def test_cache_keyed_on_population_not_batch(self, converted_mlp):
        segment = converted_mlp.segments[0]
        transform = _SegmentTransform(
            list(segment.inference_layers()), 1.0, 1.0
        )
        runs = []
        original = transform._run

        def counting_run(values):
            runs.append(values.shape)
            return original(values)

        transform._run = counting_run
        out_full = transform(np.zeros((16, 1, 28, 28), dtype=np.float32))
        out_partial = transform(np.zeros((3, 1, 28, 28), dtype=np.float32))
        # One zero-input forward total (batch 1), not one per batch size.
        zero_runs = [shape for shape in runs if shape[0] == 1]
        assert len(zero_runs) == 1
        assert out_full.shape[0] == 16
        assert out_partial.shape[0] == 3
        np.testing.assert_allclose(out_full, 0.0, atol=1e-6)

    def test_linear_contract(self, converted_mlp):
        segment = converted_mlp.segments[0]
        transform = _SegmentTransform(list(segment.inference_layers()), 1.0, 2.0)
        out = transform(np.zeros((4, 1, 28, 28), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    @pytest.mark.parametrize("network,input_shape", [
        ("converted_mlp", (1, 28, 28)), ("converted_cnn", (3, 16, 16)),
    ])
    def test_every_segment_maps_zero_to_exactly_zero(
        self, network, input_shape, request
    ):
        # The simulator skips silent rows and collapses pre-window steps on
        # this contract: each segment's drive, bias image aside, is linear.
        network = request.getfixturevalue(network)
        shape = (2,) + input_shape
        for segment in network.segments:
            transform = _SegmentTransform(list(segment.inference_layers()), 0.7, 1.3)
            out = transform(np.zeros(shape, dtype=np.float64))
            assert out.shape[0] == 2
            np.testing.assert_array_equal(out, np.zeros_like(out))
            shape = (2,) + segment.forward(np.zeros((1,) + shape[1:], np.float32)).shape[1:]


class TestSegmentTransformInPlace:
    @pytest.mark.parametrize("dtype,quant_bits", [
        (np.float32, None), (np.float64, None), (np.float64, 3),
    ])
    def test_matches_out_of_place_form(self, converted_cnn, dtype, quant_bits, rng):
        network = (
            converted_cnn if quant_bits is None
            else quantize_network(converted_cnn, quant_bits)
        )
        # AvgPool2D -> Conv2D: the pooled conv drive of the faithful simulator.
        first, pooled = network.segments[:2]
        shape = (5,) + first.forward(np.zeros((1, 3, 16, 16), np.float32)).shape[1:]
        transform = _SegmentTransform(list(pooled.inference_layers()), 0.7, 1.3)
        psc = (rng.integers(0, 3, shape) * rng.random(shape)).astype(dtype)
        psc_before = psc.copy()
        outputs = [transform(psc), transform(psc)]
        bias = transform.bias_image(shape)
        fresh_bias = transform._run(np.zeros((1,) + shape[1:], dtype=np.float32))
        expected = (transform._run(psc.astype(np.float32) * 0.7) - bias) / 1.3
        assert np.array_equal(psc, psc_before)
        assert bias.dtype == fresh_bias.dtype
        assert np.array_equal(bias, fresh_bias)
        for out in outputs:
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# Faithful evaluation path
# ---------------------------------------------------------------------------
class TestEvaluateTimestep:
    def test_agrees_with_transport_clean(self, converted_mlp, mnist_split):
        coder = RateCoder(num_steps=64)
        x, y = mnist_split.test.x[:32], mnist_split.test.y[:32]
        faithful = TimestepEvaluator(converted_mlp, coder, threshold=0.1).evaluate(
            x, y, rng=0
        )
        transport = evaluate_transport(converted_mlp, coder, x, y, rng=0)
        assert abs(faithful.accuracy - transport.accuracy) <= 0.15
        assert faithful.total_spikes > 0
        assert 0 in faithful.spikes_per_interface
        assert faithful.num_samples == 32

    @pytest.mark.parametrize("coding,num_steps,threshold", [
        ("rate", 32, 0.1),
        ("phase", 16, None),
        ("ttfs", 8, None),
        ("ttas", 8, None),
    ])
    def test_fused_and_stepped_engines_agree(
        self, converted_mlp, mnist_split, coding, num_steps, threshold,
        monkeypatch,
    ):
        from repro.coding import create_coder

        coder = create_coder(coding, num_steps=num_steps)
        x, y = mnist_split.test.x[:12], mnist_split.test.y[:12]
        fused = TimestepEvaluator(converted_mlp, coder, threshold=threshold).evaluate(
            x, y, batch_size=8, rng=0
        )
        monkeypatch.setattr(TimeSteppedSimulator, "run", run_stepped)
        stepped = TimestepEvaluator(converted_mlp, coder, threshold=threshold).evaluate(
            x, y, batch_size=8, rng=0
        )
        assert fused.accuracy == stepped.accuracy
        assert fused.total_spikes == stepped.total_spikes
        assert fused.spikes_per_interface == stepped.spikes_per_interface

    def test_deletion_removes_spikes(self, converted_mlp, mnist_split):
        coder = RateCoder(num_steps=32)
        x = mnist_split.test.x[:8]
        clean = TimestepEvaluator(converted_mlp, coder, threshold=0.1).evaluate(x, rng=0)
        noisy = TimestepEvaluator(
            converted_mlp, coder,
            noise=NoiseInjector.from_levels(deletion_probability=0.5),
            threshold=0.1,
        ).evaluate(x, rng=0)
        assert noisy.total_spikes < clean.total_spikes

    def test_weight_scaling_enters_as_kernel_scale(self, converted_mlp, mnist_split):
        coder = RateCoder(num_steps=32)
        x = mnist_split.test.x[:8]
        scaled = TimestepEvaluator(
            converted_mlp, coder,
            noise=NoiseInjector.from_levels(deletion_probability=0.5),
            weight_scaling=WeightScaling(mode="inverse"),
            expected_deletion=0.5, threshold=0.1,
        ).evaluate(x, rng=0)
        unscaled = TimestepEvaluator(
            converted_mlp, coder,
            noise=NoiseInjector.from_levels(deletion_probability=0.5),
            threshold=0.1,
        ).evaluate(x, rng=0)
        # C > 1 compensates the deleted charge: more hidden spikes survive.
        assert scaled.total_spikes > unscaled.total_spikes

    def test_rejects_unfaithful_coders(self, converted_mlp, mnist_split):
        from repro.coding import BurstCoder, UnsupportedCoderError

        with pytest.raises(UnsupportedCoderError):
            TimestepEvaluator(converted_mlp, BurstCoder(num_steps=16)).evaluate(
                mnist_split.test.x[:4]
            )
        # The refusal is a TypeError subclass: pre-protocol callers that
        # guarded the rate-only bridge keep working.
        assert issubclass(UnsupportedCoderError, TypeError)

    def test_pipeline_dispatch(self, converted_mlp, mnist_split):
        pipeline = NoiseRobustSNN(
            converted_mlp, coding="rate", num_steps=16,
            weight_scaling=False, simulator="timestep",
        )
        result = pipeline.evaluate(
            mnist_split.test.x[:8], mnist_split.test.y[:8], rng=0
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.total_spikes > 0
        with pytest.raises(ValueError):
            NoiseRobustSNN(converted_mlp, simulator="quantum")

    def test_builds_one_simulator_per_input_shape(
        self, converted_mlp, mnist_split, simulator_builds
    ):
        # Three batches (4, 4 and a partial 2) share one simulator.
        x, y = mnist_split.test.x[:10], mnist_split.test.y[:10]
        TimestepEvaluator(converted_mlp, RateCoder(num_steps=8), threshold=0.1).evaluate(
            x, y, batch_size=4, rng=0
        )
        assert simulator_builds == [x.shape[1:]]

    def test_make_evaluator_picks_by_name(self, converted_mlp):
        coder = RateCoder(num_steps=8)
        assert isinstance(
            make_evaluator("transport", converted_mlp, coder),
            ActivationTransportSimulator,
        )
        assert isinstance(
            make_evaluator("timestep", converted_mlp, coder), TimestepEvaluator
        )
        with pytest.raises(ValueError, match="quantum"):
            make_evaluator("quantum", converted_mlp, coder)

    def test_pipeline_quantises_for_the_faithful_simulator(
        self, converted_mlp, mnist_split
    ):
        x, y = mnist_split.test.x[:8], mnist_split.test.y[:8]
        pipeline = NoiseRobustSNN(
            converted_mlp, coding="phase", num_steps=16,
            weight_scaling=False, simulator="timestep",
        )
        result = pipeline.evaluate(x, y, deletion=0.2, rng=0, quant_bits=3)
        direct = TimestepEvaluator(
            quantize_network(converted_mlp, 3), PhaseCoder(num_steps=16),
            noise=NoiseInjector.from_levels(deletion_probability=0.2),
            expected_deletion=0.2,
        ).evaluate(x, y, rng=0)
        assert result.accuracy == direct.accuracy
        assert result.total_spikes == direct.total_spikes


# ---------------------------------------------------------------------------
# Sweep configuration / plan identity
# ---------------------------------------------------------------------------
class TestSweepIntegrationConfig:
    def test_timestep_config_validates_per_capability(self):
        # Burst has no faithful correspondence; the error names the gap.
        with pytest.raises(ConfigError, match="burst"):
            SweepConfig(
                dataset="mnist",
                methods=(MethodSpec(coding="burst"),),
                noise_kind="deletion",
                levels=(0.0,),
                scale=TEST_SCALE,
                simulator="timestep",
            )
        # Every coding with a per-layer protocol is accepted.
        config = SweepConfig(
            dataset="mnist",
            methods=(MethodSpec(coding="rate"),
                     MethodSpec(coding="rate", weight_scaling=True),
                     MethodSpec(coding="phase"),
                     MethodSpec(coding="ttfs"),
                     MethodSpec(coding="ttas", target_duration=3)),
            noise_kind="deletion",
            levels=(0.0,),
            scale=TEST_SCALE,
            simulator="timestep",
        )
        assert config.simulator == "timestep"
        with pytest.raises(ConfigError):
            SweepConfig(
                dataset="mnist", methods=(MethodSpec(coding="rate"),),
                noise_kind="deletion", levels=(0.0,), scale=TEST_SCALE,
                simulator="holodeck",
            )

    def test_filter_methods(self):
        methods = (MethodSpec(coding="rate"), MethodSpec(coding="ttfs"),
                   MethodSpec(coding="ttas", target_duration=5))
        assert filter_methods(methods, None) == methods
        picked = filter_methods(methods, ["rate", "TTAS(5)"])
        assert [m.display_label() for m in picked] == ["Rate", "TTAS(5)"]
        with pytest.raises(ConfigError):
            filter_methods(methods, ["Rate", "Morse"])
        # A selection matching zero curves is an error, never a silent
        # empty (or silently complete) sweep.
        with pytest.raises(ConfigError, match="zero curves"):
            filter_methods(methods, [])

    def test_simulator_changes_plan_fingerprint(self, tiny_rate_workload):
        def timestep_config():
            return SweepConfig(
                dataset="mnist", methods=(MethodSpec(coding="rate"),),
                noise_kind="deletion", levels=(0.0,), scale=TEST_SCALE,
                simulator="timestep",
            )

        config = SweepConfig(
            dataset="mnist", methods=(MethodSpec(coding="rate"),),
            noise_kind="deletion", levels=(0.0,), scale=TEST_SCALE,
        )
        transport_plan = build_sweep_plans(config)[0]
        timestep_plan = build_sweep_plans(timestep_config())[0]
        network_hash = network_fingerprint(tiny_rate_workload)
        assert transport_plan.simulator == "transport"
        assert timestep_plan.simulator == "timestep"
        assert (transport_plan.fingerprint(network_hash)
                != timestep_plan.fingerprint(network_hash))


@pytest.fixture(scope="module")
def tiny_rate_workload():
    from repro.experiments import prepare_workload

    return prepare_workload("mnist", scale=TEST_SCALE, seed=0, use_cache=False)


def rate_sweep_config(simulator):
    return SweepConfig(
        dataset="mnist",
        methods=(MethodSpec(coding="rate"),),
        noise_kind="deletion",
        levels=(0.0, 0.5),
        scale=TEST_SCALE,
        seed=0,
        batch_size=8,
        simulator=simulator,
    )


class TestSweepIntegration:
    def test_transport_vs_timestep_cells_through_process_executor(
        self, tiny_rate_workload, tmp_path
    ):
        """Faithful sweep cells run on the executor engine and land in the
        store under their own fingerprint dimension."""
        store = ResultStore(str(tmp_path))
        results = {}
        for simulator in ("transport", "timestep"):
            with ProcessExecutor(max_workers=2) as executor:
                sweep = run_sweep(
                    rate_sweep_config(simulator),
                    workload=tiny_rate_workload,
                    eval_size=8,
                    executor=executor,
                    store=store,
                )
            results[simulator] = sweep
            assert sweep.stats.evaluated_cells == 2
            assert sweep.stats.store_writes == 2
        # The two simulators measure different quantities: distinct store
        # documents, both resumable.
        assert len(stored_fingerprints(store)) == 4
        for result in results.values():
            curve = result.curves[0]
            assert all(0.0 <= acc <= 1.0 for acc in curve.accuracies)
            assert all(count > 0 for count in curve.spike_counts)

        # Re-run: every cell served from the store, nothing evaluated.
        rerun = run_sweep(
            rate_sweep_config("timestep"),
            workload=tiny_rate_workload,
            eval_size=8,
            executor="serial",
            store=store,
        )
        assert rerun.stats.evaluated_cells == 0
        assert rerun.stats.store_hits == 2
        assert rerun.curves[0].accuracies == results["timestep"].curves[0].accuracies

    def test_timestep_cells_bit_identical_across_executors(self, tiny_rate_workload):
        plans = build_sweep_plans(rate_sweep_config("timestep"), eval_size=8)
        serial = evaluate_plans(
            plans, executor="serial", workloads=None,
        )
        from repro.execution.plan import WorkloadRef

        ref = plans[0].workload
        assert isinstance(ref, WorkloadRef)
        with ThreadExecutor(max_workers=2) as executor:
            threaded = evaluate_plans(plans, executor=executor)
        for a, b in zip(serial.results, threaded.results):
            assert a.as_dict() == b.as_dict()

    def test_temporal_methods_through_every_executor_and_store(
        self, tiny_rate_workload, tmp_path
    ):
        """The acceptance path: a temporal figure sweep on the faithful
        simulator through serial, thread and process executors plus the
        result store, with identical results everywhere."""
        config = SweepConfig(
            dataset="mnist",
            methods=(MethodSpec(coding="ttfs"), MethodSpec(coding="phase")),
            noise_kind="deletion",
            levels=(0.0, 0.5),
            scale=TEST_SCALE,
            seed=0,
            batch_size=8,
            simulator="timestep",
        )
        store = ResultStore(str(tmp_path))
        baseline = run_sweep(
            config, workload=tiny_rate_workload, eval_size=8,
            executor="serial", store=store,
        )
        assert baseline.stats.evaluated_cells == 4
        assert [c.label for c in baseline.curves] == ["TTFS", "Phase"]
        for curve in baseline.curves:
            assert all(0.0 <= acc <= 1.0 for acc in curve.accuracies)
            assert all(count > 0 for count in curve.spike_counts)
        for executor_factory in (
            lambda: ThreadExecutor(max_workers=2),
            lambda: ProcessExecutor(max_workers=2),
        ):
            with executor_factory() as executor:
                rerun = run_sweep(
                    config, workload=tiny_rate_workload, eval_size=8,
                    executor=executor, store=store,
                )
            # Every cell served from the store (resume), values identical.
            assert rerun.stats.evaluated_cells == 0
            assert rerun.stats.store_hits == 4
            for base_curve, rerun_curve in zip(baseline.curves, rerun.curves):
                assert base_curve.accuracies == rerun_curve.accuracies
                assert base_curve.spike_counts == rerun_curve.spike_counts
        # Without the store the pooled backends recompute identically.
        with ProcessExecutor(max_workers=2) as executor:
            fresh = run_sweep(
                config, workload=tiny_rate_workload, eval_size=8,
                executor=executor, store=False,
            )
        for base_curve, fresh_curve in zip(baseline.curves, fresh.curves):
            assert base_curve.accuracies == fresh_curve.accuracies
            assert base_curve.spike_counts == fresh_curve.spike_counts


# ---------------------------------------------------------------------------
# Warm worker pools
# ---------------------------------------------------------------------------
def _square(value):
    return value * value


class TestWarmPools:
    def test_pool_kept_warm_across_dispatches(self):
        executor = ThreadExecutor(max_workers=2)
        try:
            assert executor._pool is None
            first = sorted(executor.map_unordered(_square, [1, 2, 3]))
            pool = executor._pool
            assert pool is not None
            second = sorted(executor.map_unordered(_square, [4, 5]))
            assert executor._pool is pool  # same pool, no restart
            assert [r for _, r in first] == [1, 4, 9]
            assert [r for _, r in second] == [16, 25]
        finally:
            executor.close()
        assert executor._pool is None
        # Usable again after close: a fresh pool is started on demand.
        assert list(executor.map_unordered(_square, [6])) == [(0, 36)]
        executor.close()

    def test_process_pool_warm_reuse(self):
        with ProcessExecutor(max_workers=2) as executor:
            assert sorted(executor.map_unordered(_square, [2, 3])) == [(0, 4), (1, 9)]
            pool = executor._pool
            assert list(executor.map_unordered(_square, [4])) == [(0, 16)]
            assert executor._pool is pool
        assert executor._pool is None

    def test_serial_close_is_noop(self):
        from repro.execution import SerialExecutor

        with SerialExecutor() as executor:
            assert list(executor.map(_square, [3])) == [9]
        executor.close()


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------
class TestCliPlumbing:
    def test_simulator_and_methods_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["figure", "--name", "fig2", "--simulator", "timestep",
             "--methods", "Rate"]
        )
        assert args.simulator == "timestep"
        assert args.methods == ["Rate"]
        args = parser.parse_args(["evaluate", "--coding", "rate",
                                  "--simulator", "timestep"])
        assert args.simulator == "timestep"
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "--name", "fig2",
                               "--simulator", "flux-capacitor"])


# ---------------------------------------------------------------------------
# Protocol-window scheduling: property-based equivalence
# ---------------------------------------------------------------------------
class _LinearTransform:
    """Dense matmul transform: ``psc @ W``."""

    def __init__(self, weight):
        self.weight = weight

    def __call__(self, psc):
        return psc @ self.weight


def _windowed_simulator(draw_seed, num_steps, num_hidden):
    """Random simulator whose layers carry explicit protocol windows.

    Windows are drawn adversarially: possibly empty (off-grid), a single
    step, clipped at either edge of the global grid, or wide enough that an
    IFB burst spills past the firing window end.
    """
    rng = np.random.default_rng(draw_seed)
    features = [5] + [int(rng.integers(3, 7)) for _ in range(num_hidden)] + [3]
    layers = []
    for index in range(num_hidden):
        start = int(rng.integers(0, num_steps + 4))
        stop_kind = rng.integers(0, 4)
        if stop_kind == 0:
            stop = None
        elif stop_kind == 1:
            stop = start + 1  # single-step window
        else:
            stop = start + int(rng.integers(1, num_steps))
        kind = ("if", "ttfs", "ifb")[int(rng.integers(0, 3))]
        if kind == "if":
            neuron = IFNeuron(0.3, fire_start=start, fire_stop=stop)
        elif kind == "ttfs":
            neuron = TTFSNeuron(0.6, tau=9.0, fire_start=start, fire_stop=stop)
        else:
            neuron = IntegrateFireOrBurstNeuron(
                0.4, target_duration=int(rng.integers(1, 5)),
                fire_start=start, fire_stop=stop,
            )
        kernel_kind = rng.integers(0, 4)
        kernel = np.zeros(num_steps)
        if kernel_kind == 0:
            pass  # all-zero kernel: upstream drive provably silent
        elif kernel_kind == 1:
            kernel[int(rng.integers(0, num_steps))] = rng.uniform(0.1, 1.0)
        else:
            k_lo = int(rng.integers(0, num_steps))
            k_hi = int(rng.integers(k_lo + 1, num_steps + 1))
            kernel[k_lo:k_hi] = rng.uniform(0.1, 1.0, size=k_hi - k_lo)
        bias = None
        bias_stop = None
        if rng.integers(0, 2):
            bias = rng.normal(0.0, 0.05, size=(1, features[index + 1]))
            if rng.integers(0, 2):
                bias_stop = int(rng.integers(0, num_steps + 1))
        weight = rng.normal(0.0, 0.6, size=(features[index], features[index + 1]))
        layers.append(SimulatorLayer(
            transform=_LinearTransform(weight),
            neuron=neuron, name=f"hidden{index}", in_kernel=kernel,
            step_bias=bias, bias_stop=bias_stop,
        ))
    readout_kernel = np.zeros(num_steps)
    r_lo = int(rng.integers(0, num_steps))
    readout_kernel[r_lo:] = rng.uniform(0.1, 1.0, size=num_steps - r_lo)
    layers.append(SimulatorLayer(
        transform=_LinearTransform(
            rng.normal(0.0, 0.6, size=(features[-2], features[-1]))
        ),
        neuron=None, name="readout", in_kernel=readout_kernel,
    ))
    simulator = TimeSteppedSimulator(
        layers, num_steps,
        input_kernel=np.full(num_steps, 1.0 / num_steps),
    )
    batch = int(rng.integers(1, 4))
    counts = rng.integers(0, 3, size=(num_steps, batch, 5)).astype(np.int16)
    support_kind = rng.integers(0, 4)
    if support_kind == 0:
        counts[:] = 0  # empty input train
    elif support_kind == 1:
        counts[1:] = 0  # single-step support
    elif support_kind == 2:
        lo = int(rng.integers(0, num_steps))
        counts[:lo] = 0  # late-opening support
    return simulator, SpikeTrainArray(counts)


class TestWindowedEquivalence:
    """Window-scheduled simulator == stepped oracle on spikes, bit for bit."""

    @given(
        seed=hyp_st.integers(min_value=0, max_value=2**32 - 1),
        num_steps=hyp_st.integers(min_value=4, max_value=28),
        num_hidden=hyp_st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_windows_bit_identical(self, seed, num_steps, num_hidden):
        simulator, train = _windowed_simulator(seed, num_steps, num_hidden)

        def faults():
            # Half the draws run with fresh, identically seeded fault masks.
            if seed % 2:
                return None
            return {
                layer.name: LayerFaultMask(0.2, 0.1, rng=seed % 997 + index)
                for index, layer in enumerate(simulator.layers[:-1])
            }

        stepped = run_stepped(simulator, train, record_spikes=True,
                              layer_faults=faults())
        windowed = simulator.run(train, record_spikes=True,
                                 layer_faults=faults())
        assert windowed.spike_counts == stepped.spike_counts
        for name in stepped.spike_trains:
            assert np.array_equal(
                windowed.spike_trains[name].to_dense().counts,
                stepped.spike_trains[name].to_dense().counts,
            ), name
        np.testing.assert_array_equal(
            windowed.output_potential, stepped.output_potential
        )

    @given(seed=hyp_st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_events_input_matches_dense_input(self, seed):
        simulator, train = _windowed_simulator(seed, 16, 2)
        from_dense = simulator.run(train, record_spikes=True)
        from_events = simulator.run(train.to_events(), record_spikes=True)
        assert from_dense.spike_counts == from_events.spike_counts
        assert np.array_equal(
            from_dense.output_potential, from_events.output_potential
        )

    def test_burst_spill_past_window_end(self):
        # An IFB neuron firing at the very end of its window bursts for
        # target_duration steps past fire_stop; the scheduler must keep
        # advancing through the spill.
        num_steps = 20
        kernel = np.zeros(num_steps)
        kernel[4:10] = 0.5
        layers = [
            SimulatorLayer(
                transform=_LinearTransform(np.full((2, 2), 2.5)),
                neuron=IntegrateFireOrBurstNeuron(
                    0.4, target_duration=6, fire_start=4, fire_stop=10
                ),
                name="hidden0", in_kernel=np.full(num_steps, 0.4),
            ),
            SimulatorLayer(
                transform=_LinearTransform(np.eye(2)),
                neuron=None, name="readout", in_kernel=kernel,
            ),
        ]
        simulator = TimeSteppedSimulator(
            layers, num_steps, input_kernel=np.full(num_steps, 1.0)
        )
        counts = np.zeros((num_steps, 1, 2), dtype=np.int16)
        counts[8] = 1  # drives a burst near the window end
        train = SpikeTrainArray(counts)
        stepped = run_stepped(simulator, train, record_spikes=True)
        windowed = simulator.run(train, record_spikes=True)
        spikes = windowed.spike_trains["hidden0"].to_dense().counts
        assert spikes[10:].any()  # the burst really spills past fire_stop
        assert np.array_equal(
            spikes, stepped.spike_trains["hidden0"].to_dense().counts
        )

    def test_off_grid_window_is_empty(self):
        # A layer whose firing window starts past the global grid never
        # advances at all; spikes must still be recorded as all-zero.
        num_steps = 8
        layers = [
            SimulatorLayer(
                transform=_LinearTransform(np.eye(3)),
                neuron=IFNeuron(0.3, fire_start=50),
                name="hidden0", in_kernel=np.full(num_steps, 0.4),
            ),
            SimulatorLayer(
                transform=_LinearTransform(np.eye(3)),
                neuron=None, name="readout", in_kernel=np.full(num_steps, 0.2),
            ),
        ]
        simulator = TimeSteppedSimulator(
            layers, num_steps, input_kernel=np.full(num_steps, 1.0)
        )
        train = SpikeTrainArray(np.ones((num_steps, 2, 3), dtype=np.int16))
        stepped = run_stepped(simulator, train, record_spikes=True)
        windowed = simulator.run(train, record_spikes=True)
        assert windowed.spike_counts["hidden0"] == 0
        assert windowed.spike_counts == stepped.spike_counts
        assert np.array_equal(
            windowed.output_potential, stepped.output_potential
        )
