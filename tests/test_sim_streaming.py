"""Time-chunked, row-compact layers of the faithful simulator.

:meth:`TimeSteppedSimulator.run` streams each layer's window in time chunks
sized by ``FUSED_CHUNK_BYTES`` and hands the next layer only its occupied
``(step, sample)`` rows.  These tests pin three properties of that design:

* chunk boundaries are invisible -- at any byte budget, logits, spike
  counts and recorded trains are bit-identical to the time-outer oracle
  :func:`oracles.run_stepped`;
* memory is bounded -- a long window peaks well below one layer's dense
  ``(T, batch, ...)`` drive;
* the serving request shape still runs as one chunk per layer, i.e. one
  transform call per layer window, while no transform call of a bench conv
  net builds an im2col pack beyond the budget.
"""

import tracemalloc

import numpy as np
import pytest
from oracles import run_stepped

import repro.core.timestep as timestep
from repro.coding import PhaseCoder, RateCoder, TTASCoder, TTFSCoder
from repro.conversion import convert_dnn_to_snn
from repro.core import build_time_stepped_simulator
from repro.data import load_dataset
from repro.experiments.config import BENCH_SCALE, TEST_SCALE, dataset_config
from repro.experiments.workloads import prepare_workload
from repro.nn import build_vgg
from repro.nn.layers import Conv2D
from repro.serving.inference import RequestSpec, serve_batch
from repro.snn.simulator import LayerFaultMask, TimeSteppedSimulator
from repro.snn.spikes import SpikeTrainArray

BATCH = 4
#: Folded float64 PSC bytes of one (step, sample) row of the conv net's input.
INPUT_ROW_BYTES = 3 * 16 * 16 * 8

#: Byte budgets that put chunk boundaries everywhere: one row per transform
#: call and one step per chunk; three rows per call -- not a multiple of the
#: batch, so a step's rows split across calls; three steps per drive chunk
#: of the first layer, so boundaries fall inside every firing window.
BUDGETS = {
    "one-byte": 1,
    "three-rows": 3 * INPUT_ROW_BYTES + 1,
    "three-steps": 3 * BATCH * INPUT_ROW_BYTES,
}

CODERS = {
    "rate": lambda: RateCoder(num_steps=16),
    "phase": lambda: PhaseCoder(num_steps=16),
    "ttfs": lambda: TTFSCoder(num_steps=16),
    # A burst started near the end of a firing window spills across the
    # next chunk boundaries.
    "ttas5": lambda: TTASCoder(num_steps=16, target_duration=5),
}


def assert_bit_identical(expected, actual):
    assert actual.spike_counts == expected.spike_counts
    assert all(type(count) is int for count in actual.spike_counts.values())
    np.testing.assert_array_equal(actual.output_potential, expected.output_potential)
    assert set(actual.spike_trains) == set(expected.spike_trains)
    for name, train in expected.spike_trains.items():
        assert np.array_equal(
            actual.spike_trains[name].to_dense().counts, train.to_dense().counts
        ), name


def conv_simulator(converted_cnn, coder):
    return build_time_stepped_simulator(
        converted_cnn, coder, batch_input_shape=(BATCH, 3, 16, 16), threshold=0.1
    )


def fault_masks(simulator, seed):
    """Fresh, identically seeded dead + stuck-at-fire masks per layer."""
    return {
        layer.name: LayerFaultMask(0.1, 0.05, rng=seed + index)
        for index, layer in enumerate(simulator.layers[:-1])
    }


@pytest.mark.parametrize("budget", sorted(BUDGETS))
class TestChunkBoundariesAreInvisible:
    @pytest.mark.parametrize("coding", sorted(CODERS))
    def test_codings(self, converted_cnn, cifar_split, monkeypatch, budget, coding):
        monkeypatch.setattr(TimeSteppedSimulator, "FUSED_CHUNK_BYTES", BUDGETS[budget])
        coder = CODERS[coding]()
        simulator = conv_simulator(converted_cnn, coder)
        train = coder.encode(cifar_split.test.x[:BATCH] / converted_cnn.input_scale)
        expected = run_stepped(simulator, train, record_spikes=True)
        assert expected.total_spikes() > 0
        assert_bit_identical(expected, simulator.run(train, record_spikes=True))

    @pytest.mark.parametrize("coding", ["phase", "ttas5"])
    def test_fault_masks_straddling_chunks(
        self, converted_cnn, cifar_split, monkeypatch, budget, coding
    ):
        monkeypatch.setattr(TimeSteppedSimulator, "FUSED_CHUNK_BYTES", BUDGETS[budget])
        coder = CODERS[coding]()
        simulator = conv_simulator(converted_cnn, coder)
        train = coder.encode(cifar_split.test.x[:BATCH] / converted_cnn.input_scale)
        expected = run_stepped(
            simulator, train, record_spikes=True,
            layer_faults=fault_masks(simulator, 11),
        )
        chunk_starts = {}
        for layer in simulator.layers[:-1]:
            advance = layer.neuron.advance
            starts = chunk_starts[layer.name] = []

            def recording(state, drive, advance=advance, starts=starts):
                starts.append(state.step_index)
                return advance(state, drive)

            monkeypatch.setattr(layer.neuron, "advance", recording)
        actual = simulator.run(
            train, record_spikes=True, layer_faults=fault_masks(simulator, 11)
        )
        assert_bit_identical(expected, actual)
        # Every stuck-at-fire window [fire_start, fire_stop) contains a chunk
        # boundary: the masks were applied in pieces.
        for layer in simulator.layers[:-1]:
            start, stop = layer.neuron.fire_start, layer.neuron.fire_stop
            assert any(start < step < stop for step in chunk_starts[layer.name])
        clean = simulator.run(train)
        assert actual.total_spikes() != clean.total_spikes()

    def test_all_silent_window(self, converted_cnn, monkeypatch, budget):
        monkeypatch.setattr(TimeSteppedSimulator, "FUSED_CHUNK_BYTES", BUDGETS[budget])
        coder = CODERS["phase"]()
        simulator = conv_simulator(converted_cnn, coder)
        train = SpikeTrainArray.zeros(coder.num_steps, (BATCH, 3, 16, 16))
        expected = run_stepped(simulator, train, record_spikes=True)
        assert_bit_identical(expected, simulator.run(train, record_spikes=True))


def test_long_window_peak_is_a_fraction_of_one_dense_drive():
    """Faithful Phase at T=512 on the test-scale cifar10 net, 8 images.

    Materialising any hidden layer's whole float32 ``(T, batch, ...)``
    drive window, as a whole-window fold does, costs at least the widest
    such window; streaming in chunks and passing only occupied rows keeps
    the peak under half of it.
    """
    workload = prepare_workload("cifar10", scale=TEST_SCALE, seed=0)
    x = workload.data.test.x[:8]
    coder = PhaseCoder(num_steps=512)
    simulator = build_time_stepped_simulator(
        workload.network, coder, batch_input_shape=(8,) + x.shape[1:]
    )
    train = coder.encode(x / workload.network.input_scale, rng=0)
    widest, shape = 0, x.shape[1:]
    for layer in simulator.layers[:-1]:
        shape = np.shape(layer.transform(np.zeros((1,) + shape)))[1:]
        widest = max(widest, int(np.prod(shape)))
    dense_drive = simulator.num_steps * x.shape[0] * widest * 4
    tracemalloc.start()
    try:
        record = simulator.run(train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.total_spikes() > 0
    assert peak < dense_drive / 2, (peak, dense_drive)


class _CountingTransform:
    """Wraps a layer transform and records the rows of every call."""

    def __init__(self, transform, calls):
        self.transform = transform
        self.calls = calls

    def __call__(self, psc):
        self.calls.append(psc.shape[0])
        return self.transform(psc)


def test_serving_timestep_request_is_one_chunk_per_layer(monkeypatch):
    """The faithful request of the mixed serving load -- bench-scale mnist,
    rate, T=32, one 8-lane batch -- makes one transform call per layer window
    per request: each layer's window is a single chunk, as before chunking."""
    calls = {}
    build = timestep.build_time_stepped_simulator

    def counting_build(*args, **kwargs):
        simulator = build(*args, **kwargs)
        for layer in simulator.layers:
            layer.transform = _CountingTransform(
                layer.transform, calls.setdefault(layer.name, [])
            )
        return simulator

    monkeypatch.setattr(timestep, "build_time_stepped_simulator", counting_build)
    workload = prepare_workload("mnist", scale=BENCH_SCALE, seed=0)
    spec = RequestSpec.create(evaluator="timestep", coding="rate", num_steps=32)
    lane = workload.data.test.x[:spec.lanes]
    for _ in range(2):
        serve_batch(workload.servable_model(), spec, lane)
    assert len(calls) == len(workload.network.segments)
    for name, rows in calls.items():
        assert len(rows) == 2, (name, rows)
        assert max(rows) <= spec.num_steps * spec.lanes


def test_bench_conv_transform_calls_keep_their_im2col_packs_in_budget(monkeypatch):
    """Faithful Rate on the bench cifar10 architecture, the `sweep-timestep`
    cell shape (16 images, T=32): no transform call's im2col pack -- rows x
    out_h*out_w*k*k*C float32 -- exceeds ``FUSED_CHUNK_BYTES``.  Calls sized
    by their float64 PSC rows alone took up to 336 rows at the first layer,
    a 9.3 MB pack."""
    data = load_dataset("cifar10", train_size=10, test_size=16, rng=0,
                        image_size=BENCH_SCALE.image_size)
    model = build_vgg(dataset_config("cifar10").vgg_config, data.image_shape,
                      data.num_classes, rng=0)
    network = convert_dnn_to_snn(model, data.test.x)
    coder = RateCoder(num_steps=BENCH_SCALE.rate_time_steps)
    simulator = build_time_stepped_simulator(
        network, coder, batch_input_shape=data.test.x.shape
    )
    train = coder.encode(data.test.x / network.input_scale, rng=0)

    packs = []
    forward = Conv2D.forward

    def recording(layer, x, training=False):
        n, channels, h, w = x.shape
        k, stride, padding = layer.kernel_size, layer.stride, layer.padding
        out_h = (h + 2 * padding - k) // stride + 1
        out_w = (w + 2 * padding - k) // stride + 1
        packs.append((n, n * out_h * out_w * k * k * channels * x.itemsize))
        return forward(layer, x, training)

    monkeypatch.setattr(Conv2D, "forward", recording)
    record = simulator.run(train)
    assert record.total_spikes() > 0
    assert max(rows for rows, _ in packs) > 1  # calls still fold many rows
    widest = max(size for _, size in packs)
    assert widest <= TimeSteppedSimulator.FUSED_CHUNK_BYTES, widest
