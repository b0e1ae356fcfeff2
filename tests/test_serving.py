"""Serving subsystem tests: registry concurrency, micro-batching, bit-identity.

The three contracts under test:

* the :class:`ModelRegistry` is safe under racing lookups -- N threads
  registering/getting M models perform exactly one load per model, never
  observe a torn artifact, and LRU eviction under a byte budget keeps every
  key servable,
* :func:`serve_batch` is bit-identical to :func:`serve_single`, row for
  row, on both evaluators (the fixed-compute-lanes guarantee), including
  when requests ride through the :class:`MicroBatchScheduler` under
  concurrent load,
* corrupt ``workloads/`` conversion documents degrade to misses with a
  warning naming the file, and ``store gc`` reclaims exactly those bytes.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading

import numpy as np
import pytest

from repro.coding import create_coder
from repro.core.servable import ServableModel
from repro.core.timestep import TimestepEvaluator
from repro.conversion.converter import CONVERSION_COUNTERS
from repro.execution.store import ResultStore
from repro.metrics import LatencySummary, latency_summary, pool_latencies
from repro.serving import (
    MicroBatchScheduler,
    ModelRegistry,
    RequestSpec,
    serve_batch,
    serve_single,
)


@pytest.fixture()
def servable(converted_mlp):
    """The session MLP wrapped as a servable artifact."""
    return ServableModel(
        network=converted_mlp, key="test-mlp", dataset="mnist",
        scale_name="test", seed=0, dnn_accuracy=0.9,
    )


@pytest.fixture()
def samples(mnist_split):
    """Thirteen test images -- deliberately not a multiple of the lane width."""
    return np.asarray(mnist_split.test.x[:13], dtype=np.float32)


TRANSPORT = RequestSpec.create(evaluator="transport", coding="rate", num_steps=16)
TIMESTEP = RequestSpec.create(
    evaluator="timestep", coding="rate", num_steps=16, threshold=0.1
)


class TestServableModel:
    def test_wrap_passthrough_and_reject(self, converted_mlp, servable):
        assert ServableModel.wrap(servable) is servable
        wrapped = ServableModel.wrap(converted_mlp)
        assert wrapped.network is converted_mlp
        with pytest.raises(TypeError):
            ServableModel.wrap(object())

    def test_cached_runs_factory_once(self, servable):
        calls = []

        def factory():
            calls.append(1)
            return object()

        first = servable.cached("memo-key", factory)
        second = servable.cached("memo-key", factory)
        assert first is second
        assert len(calls) == 1

    def test_resident_bytes_positive_and_stable(self, servable):
        size = servable.resident_bytes()
        assert size > 0
        assert servable.resident_bytes() == size

    def test_conversion_payload_fields(self, servable):
        payload = servable.conversion_payload()
        for field in ("scales", "percentile", "input_scale", "dnn_accuracy"):
            assert field in payload
        assert payload["dataset"] == "mnist"
        assert payload["seed"] == 0

    def test_coder_memoised_per_spec(self, servable):
        coder_a = servable.coder("rate", 16)
        coder_b = servable.coder("rate", 16)
        coder_c = servable.coder("rate", 32)
        assert coder_a is coder_b
        assert coder_c is not coder_a


class TestRequestSpec:
    def test_create_validates_evaluator_and_lanes(self):
        with pytest.raises(ValueError):
            RequestSpec.create(evaluator="nope")
        with pytest.raises(ValueError):
            RequestSpec.create(lanes=0)

    def test_specs_hash_and_compare(self):
        a = RequestSpec.create(evaluator="transport", num_steps=16)
        b = RequestSpec.create(evaluator="transport", num_steps=16)
        c = RequestSpec.create(evaluator="timestep", num_steps=16)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_coder_kwargs_canonicalised(self):
        a = RequestSpec.create(duration=4, gamma=2.0)
        b = RequestSpec.create(gamma=2.0, duration=4)
        assert a == b
        assert a.kwargs_dict() == {"duration": 4, "gamma": 2.0}


class TestBitIdentity:
    @pytest.mark.parametrize("spec", [TRANSPORT, TIMESTEP], ids=["transport", "timestep"])
    def test_batch_matches_singles(self, servable, samples, spec):
        batched = serve_batch(servable, spec, samples)
        assert len(batched) == len(samples)
        for row, sample in zip(batched, samples):
            solo = serve_single(servable, spec, sample)
            assert np.array_equal(row.logits, solo.logits)
            assert row.prediction == solo.prediction
            assert row.evaluator == spec.evaluator

    @pytest.mark.parametrize("size", [1, 7, 8, 9])
    def test_every_occupancy_matches(self, servable, samples, size):
        batch = samples[:size]
        batched = serve_batch(servable, TRANSPORT, batch)
        for row, sample in zip(batched, batch):
            solo = serve_single(servable, TRANSPORT, sample)
            assert np.array_equal(row.logits, solo.logits)

    def test_rejects_unbatched_input(self, servable, samples):
        with pytest.raises(ValueError):
            serve_batch(servable, TRANSPORT, samples[0].reshape(-1))

    def test_timestep_builds_one_simulator_across_requests(
        self, servable, samples, simulator_builds
    ):
        for _ in range(3):
            serve_batch(servable, TIMESTEP, samples)
        serve_single(servable, TIMESTEP, samples[0])
        assert simulator_builds == [samples.shape[1:]]

    def test_timestep_lane_is_the_evaluator_forward(self, servable, samples):
        lane = samples[:TIMESTEP.lanes]
        served = serve_batch(servable, TIMESTEP, lane)
        evaluator = TimestepEvaluator(
            servable.network, create_coder("rate", num_steps=16),
            threshold=TIMESTEP.threshold,
        )
        logits, _ = evaluator.forward(lane, rng=0)
        assert np.array_equal(np.stack([row.logits for row in served]), logits)

    def test_batch_size_recorded(self, servable, samples):
        results = serve_batch(servable, TRANSPORT, samples[:5])
        assert all(r.batch_size == 5 for r in results)
        assert serve_single(servable, TRANSPORT, samples[0]).batch_size == 1


def _fake_prepare(dataset, scale, seed, converted, loads, lock, delay=0.0):
    """A prepare_workload stand-in returning a cheap distinct artifact."""

    class _Workload:
        def servable_model(self):
            with lock:
                loads.append((dataset, scale.name, seed))
            if delay:
                threading.Event().wait(delay)
            from repro.experiments.workloads import conversion_key

            key = conversion_key(
                dataset, scale, int(seed), f"fake-{dataset}-{seed}",
                calibration_size=64,
            )
            return ServableModel(
                network=converted, key=key, dataset=dataset,
                scale_name=scale.name, seed=int(seed), dnn_accuracy=0.5,
            )

    return _Workload()


@pytest.fixture()
def fake_registry(monkeypatch, converted_mlp):
    """A registry whose loads are instant fakes (one artifact per seed)."""
    loads = []
    lock = threading.Lock()

    def fake(dataset, scale, seed, cache_dir, use_cache, store, **kwargs):
        return _fake_prepare(dataset, scale, seed, converted_mlp, loads, lock,
                             delay=0.005)

    monkeypatch.setattr("repro.serving.registry.prepare_workload", fake)
    registry = ModelRegistry(store=False)
    registry.test_loads = loads
    return registry


class TestRegistry:
    def test_register_then_get_hits(self, fake_registry):
        key = fake_registry.register("mnist", seed=0)
        assert key in fake_registry
        model = fake_registry.get(key)
        assert model.key == key
        assert fake_registry.stats.loads == 1
        assert fake_registry.stats.hits >= 1

    def test_register_idempotent(self, fake_registry):
        key_a = fake_registry.register("mnist", seed=0)
        key_b = fake_registry.register("mnist", seed=0)
        assert key_a == key_b
        assert len(fake_registry.test_loads) == 1

    def test_unknown_key_raises(self, fake_registry):
        with pytest.raises(KeyError):
            fake_registry.get("not-a-fingerprint")

    def test_concurrent_registration_loads_once_per_model(self, fake_registry):
        seeds = [0, 1, 2]
        keys: dict = {}
        errors: list = []
        barrier = threading.Barrier(4 * len(seeds))

        def worker(seed):
            try:
                barrier.wait(timeout=10)
                key = fake_registry.register("mnist", seed=seed)
                model = fake_registry.get(key)
                # No torn reads: the artifact is always fully constructed.
                assert model.key == key
                assert model.network is not None
                assert model.resident_bytes() > 0
                keys[seed] = key
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in seeds for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # Exactly one load per distinct model despite 4 racing threads each.
        assert len(fake_registry.test_loads) == len(seeds)
        assert len(set(keys.values())) == len(seeds)
        assert fake_registry.stats.loads == len(seeds)

    def test_lru_eviction_spares_most_recent(self, fake_registry):
        fake_registry.max_bytes = 1  # smaller than any model: keep 1 resident
        keys = [fake_registry.register("mnist", seed=seed) for seed in range(3)]
        assert len(fake_registry) == 1
        assert fake_registry.resident_keys() == [keys[-1]]
        assert fake_registry.stats.evictions == 2
        # Evicted keys stay servable through their recorded source.
        model = fake_registry.get(keys[0])
        assert model.key == keys[0]
        assert fake_registry.resident_keys() == [keys[0]]

    def test_lru_racing_lookups(self, fake_registry):
        fake_registry.max_bytes = 1
        keys = [fake_registry.register("mnist", seed=seed) for seed in range(3)]
        errors: list = []
        barrier = threading.Barrier(12)

        def worker(key):
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    model = fake_registry.get(key)
                    assert model.key == key
                    assert model.resident_bytes() > 0
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(key,))
            for key in keys for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # Thrashing a 1-model budget across 3 keys evicts, but never
        # corrupts: at most one model remains resident.
        assert len(fake_registry) == 1


class TestRegistryLoadThrough:
    def test_restart_reuses_stored_conversion(self, tmp_path):
        """A fresh registry over the same store re-serves without recalibrating."""
        from repro.experiments.config import TEST_SCALE

        store_dir = str(tmp_path / "store")
        cache_dir = str(tmp_path / "weights")
        first = ModelRegistry(store=ResultStore(store_dir))
        key = first.register(
            "mnist", scale=TEST_SCALE, seed=0, cache_dir=cache_dir
        )
        calibrations_before = CONVERSION_COUNTERS["calibrations"]
        second = ModelRegistry(store=ResultStore(store_dir))
        key_again = second.register(
            "mnist", scale=TEST_SCALE, seed=0, cache_dir=cache_dir
        )
        assert key_again == key
        assert CONVERSION_COUNTERS["calibrations"] == calibrations_before
        model = second.get(key)
        assert model.key == key
        # The reloaded artifact serves the same bits as the original.
        sample = np.zeros((1, 1, 28, 28), dtype=np.float32)
        original = serve_batch(first.get(key), TRANSPORT, sample)[0]
        reloaded = serve_batch(model, TRANSPORT, sample)[0]
        assert np.array_equal(original.logits, reloaded.logits)


class TestScheduler:
    def test_concurrent_submissions_bit_identical(self, fake_registry, samples):
        key = fake_registry.register("mnist", seed=0)
        servable = fake_registry.get(key)
        references = [serve_single(servable, TRANSPORT, x) for x in samples]
        with MicroBatchScheduler(fake_registry, max_batch=8) as scheduler:
            futures = [
                scheduler.submit(key, sample, spec=TRANSPORT)
                for sample in samples
            ]
            results = [future.result(timeout=30) for future in futures]
        for result, reference in zip(results, references):
            assert np.array_equal(result.logits, reference.logits)
            assert result.prediction == reference.prediction
        assert scheduler.stats.requests == len(samples)
        assert scheduler.stats.batches >= 1
        assert scheduler.stats.batched_samples == len(samples)

    def test_max_batch_one_is_sequential_singles(self, fake_registry, samples):
        key = fake_registry.register("mnist", seed=0)
        with MicroBatchScheduler(fake_registry, max_batch=1) as scheduler:
            futures = [
                scheduler.submit(key, sample, spec=TRANSPORT)
                for sample in samples[:4]
            ]
            results = [future.result(timeout=30) for future in futures]
        assert all(r.batch_size == 1 for r in results)
        assert scheduler.stats.batches == 4

    def test_mixed_evaluator_queues_stay_homogeneous(self, fake_registry, samples):
        key = fake_registry.register("mnist", seed=0)
        servable = fake_registry.get(key)
        with MicroBatchScheduler(fake_registry, max_batch=4) as scheduler:
            transport_futures = [
                scheduler.submit(key, x, spec=TRANSPORT) for x in samples[:4]
            ]
            timestep_futures = [
                scheduler.submit(key, x, spec=TIMESTEP) for x in samples[:4]
            ]
            transport_results = [f.result(timeout=60) for f in transport_futures]
            timestep_results = [f.result(timeout=60) for f in timestep_futures]
        for result, sample in zip(transport_results, samples):
            assert result.evaluator == "transport"
            assert np.array_equal(
                result.logits, serve_single(servable, TRANSPORT, sample).logits
            )
        for result, sample in zip(timestep_results, samples):
            assert result.evaluator == "timestep"
            assert np.array_equal(
                result.logits, serve_single(servable, TIMESTEP, sample).logits
            )

    def test_submit_after_close_raises(self, fake_registry, samples):
        key = fake_registry.register("mnist", seed=0)
        scheduler = MicroBatchScheduler(fake_registry)
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(key, samples[0], spec=TRANSPORT)

    def test_bad_key_delivered_as_future_exception(self, fake_registry, samples):
        fake_registry.register("mnist", seed=0)
        with MicroBatchScheduler(fake_registry, max_batch=1) as scheduler:
            future = scheduler.submit("bogus-key", samples[0], spec=TRANSPORT)
            with pytest.raises(KeyError):
                future.result(timeout=30)


class _Gate:
    """A model that blocks on a :class:`threading.Event` before serving.

    Stands in for the scheduler's ``serve_batch``: each call records its
    ``(spec, rows)``, signals ``entered``, waits until ``release`` is set,
    then serves through the real ``serve_batch`` -- or raises ``fail`` once
    when it is set.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches: list = []
        self.fail = None

    def __call__(self, servable, spec, batch):
        self.batches.append((spec, len(batch)))
        self.entered.set()
        assert self.release.wait(timeout=30), "gate never released"
        error, self.fail = self.fail, None
        if error is not None:
            raise error
        return serve_batch(servable, spec, batch)

    def hold(self, scheduler, key, sample):
        """Occupy the scheduler's one worker with a blocked request."""
        future = scheduler.submit(key, sample, spec=TRANSPORT)
        assert self.entered.wait(timeout=30)
        return future


@pytest.fixture()
def gate(monkeypatch):
    gate = _Gate()
    monkeypatch.setattr("repro.serving.scheduler.serve_batch", gate)
    return gate


def _assert_served_solo(fake_registry, key, requests, futures):
    """Every ``(sample, spec)`` request got the bits ``serve_single`` gives."""
    servable = fake_registry.get(key)
    for (sample, spec), future in zip(requests, futures):
        result = future.result(timeout=60)
        assert np.array_equal(
            result.logits, serve_single(servable, spec, sample).logits
        )


class TestIdleDispatch:
    """Pull batching on a one-worker scheduler, with no timer involved."""

    def test_lone_request_dispatches_on_submit(self, fake_registry, samples, gate):
        key = fake_registry.register("mnist", seed=0)
        with MicroBatchScheduler(fake_registry, max_workers=1) as scheduler:
            future = scheduler.submit(key, samples[0], spec=TRANSPORT)
            # Dispatched inside submit: the batch exists before any later
            # submit, and the worker reaches the model while nothing else
            # has arrived.
            assert scheduler.stats.batches == 1
            assert gate.entered.wait(timeout=30)
            assert gate.batches == [(TRANSPORT, 1)]
            gate.release.set()
            _assert_served_solo(fake_registry, key, [(samples[0], TRANSPORT)], [future])
        assert future.result().batch_size == 1

    def test_arrivals_behind_a_busy_worker_batch_up(self, fake_registry, samples, gate):
        key = fake_registry.register("mnist", seed=0)
        with MicroBatchScheduler(fake_registry, max_batch=8, max_workers=1) as scheduler:
            futures = [gate.hold(scheduler, key, samples[0])]
            futures += [scheduler.submit(key, x, spec=TRANSPORT) for x in samples[1:12]]
            assert scheduler.stats.batches == 1
            gate.release.set()
            _assert_served_solo(
                fake_registry, key, [(x, TRANSPORT) for x in samples[:12]], futures
            )
        assert [rows for _, rows in gate.batches] == [1, 8, 3]
        assert [f.result().batch_size for f in futures] == [1] + [8] * 8 + [3] * 3
        assert scheduler.stats.as_dict() == {
            "requests": 12, "batches": 3, "batched_samples": 12,
            "mean_batch_size": 4.0,
        }

    def test_oldest_queue_is_served_first(self, fake_registry, samples, gate):
        key = fake_registry.register("mnist", seed=0)
        order = [TIMESTEP, TRANSPORT, TIMESTEP, TIMESTEP, TRANSPORT]
        requests = list(zip(samples[1:], order))
        with MicroBatchScheduler(fake_registry, max_batch=2, max_workers=1) as scheduler:
            futures = [gate.hold(scheduler, key, samples[0])]
            futures += [scheduler.submit(key, x, spec=spec) for x, spec in requests]
            gate.release.set()
            _assert_served_solo(
                fake_registry, key, [(samples[0], TRANSPORT)] + requests, futures
            )
        # Timestep's head is oldest; its leftover then arrived after
        # transport's head, so transport goes before it.
        assert gate.batches == [
            (TRANSPORT, 1), (TIMESTEP, 2), (TRANSPORT, 2), (TIMESTEP, 1),
        ]

    def test_emptied_queues_are_dropped(self, fake_registry, samples, gate):
        key = fake_registry.register("mnist", seed=0)
        specs = [
            RequestSpec.create(evaluator="transport", coding="rate", num_steps=steps)
            for steps in range(4, 24)
        ]
        with MicroBatchScheduler(fake_registry, max_workers=1) as scheduler:
            futures = [gate.hold(scheduler, key, samples[0])]
            futures += [scheduler.submit(key, samples[1], spec=spec) for spec in specs]
            assert len(scheduler._queues) == len(specs)
            gate.release.set()
            for future in futures:
                future.result(timeout=60)
            assert not scheduler._queues
        assert scheduler.stats.batches == 1 + len(specs)

    def test_racing_clients_on_more_workers_than_cores(self, fake_registry, samples):
        """Idle counting and queue takes under forced thread switches: no
        request is lost or served twice, and every worker ends idle."""
        key = fake_registry.register("mnist", seed=0)
        servable = fake_registry.get(key)
        specs = [TRANSPORT, RequestSpec.create(evaluator="transport", num_steps=8)]
        references = {
            (i, s): serve_single(servable, spec, x).logits
            for i, x in enumerate(samples) for s, spec in enumerate(specs)
        }
        workers = (os.cpu_count() or 1) + 2
        results: dict = {}
        errors: list = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MicroBatchScheduler(
                fake_registry, max_batch=3, max_workers=workers
            ) as scheduler:
                def client(c):
                    try:
                        futures = [
                            ((i, (c + i) % 2), scheduler.submit(
                                key, samples[i], spec=specs[(c + i) % 2]))
                            for i in range(len(samples))
                        ]
                        for name, future in futures:
                            results[(c,) + name] = future.result(timeout=60).logits
                    except BaseException as error:  # pragma: no cover - surfaced below
                        errors.append(error)

                clients = [threading.Thread(target=client, args=(c,)) for c in range(8)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert len(results) == 8 * len(samples)
        for (_, i, s), logits in results.items():
            assert np.array_equal(logits, references[(i, s)])
        assert scheduler.stats.requests == scheduler.stats.batched_samples == len(results)
        assert scheduler._idle == workers and not scheduler._queues


class TestPullLoopFailures:
    """A failed batch or a close() never strands a worker or a future."""

    def test_bad_key_returns_its_worker(self, fake_registry, samples, gate):
        key = fake_registry.register("mnist", seed=0)
        with MicroBatchScheduler(fake_registry, max_workers=1) as scheduler:
            held = gate.hold(scheduler, key, samples[0])
            bogus = scheduler.submit("bogus-key", samples[1], spec=TRANSPORT)
            queued = [scheduler.submit(key, x, spec=TRANSPORT) for x in samples[2:5]]
            gate.release.set()
            with pytest.raises(KeyError):
                bogus.result(timeout=30)
            later = scheduler.submit(key, samples[5], spec=TRANSPORT)
            _assert_served_solo(
                fake_registry, key, [(x, TRANSPORT) for x in samples[[0, 2, 3, 4, 5]]],
                [held] + queued + [later],
            )

    def test_model_raising_mid_batch_returns_its_worker(
        self, fake_registry, samples, gate
    ):
        key = fake_registry.register("mnist", seed=0)
        gate.fail = RuntimeError("model crashed")
        with MicroBatchScheduler(fake_registry, max_workers=1) as scheduler:
            held = gate.hold(scheduler, key, samples[0])
            queued = [scheduler.submit(key, x, spec=TRANSPORT) for x in samples[1:4]]
            gate.release.set()
            with pytest.raises(RuntimeError, match="model crashed"):
                held.result(timeout=30)
            _assert_served_solo(
                fake_registry, key, [(x, TRANSPORT) for x in samples[1:4]], queued
            )
            later = scheduler.submit(key, samples[4], spec=TRANSPORT)
            _assert_served_solo(fake_registry, key, [(samples[4], TRANSPORT)], [later])
        assert [rows for _, rows in gate.batches] == [1, 3, 1]

    def test_close_resolves_requests_queued_behind_a_busy_worker(
        self, fake_registry, samples, gate
    ):
        key = fake_registry.register("mnist", seed=0)
        scheduler = MicroBatchScheduler(fake_registry, max_workers=1)
        futures = [gate.hold(scheduler, key, samples[0])]
        futures += [scheduler.submit(key, x, spec=TRANSPORT) for x in samples[1:6]]
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive(), "close() returned while its worker was busy"
        gate.release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert all(future.done() for future in futures)
        _assert_served_solo(
            fake_registry, key, [(x, TRANSPORT) for x in samples[:6]], futures
        )
        with pytest.raises(RuntimeError):
            scheduler.submit(key, samples[0], spec=TRANSPORT)

    def test_cancelled_request_leaves_its_batch_intact(
        self, fake_registry, samples, gate
    ):
        key = fake_registry.register("mnist", seed=0)
        with MicroBatchScheduler(fake_registry, max_workers=1) as scheduler:
            held = gate.hold(scheduler, key, samples[0])
            queued = [scheduler.submit(key, x, spec=TRANSPORT) for x in samples[1:4]]
            assert queued[1].cancel()
            gate.release.set()
            kept = [held, queued[0], queued[2]]
            _assert_served_solo(
                fake_registry, key, [(x, TRANSPORT) for x in samples[[0, 1, 3]]], kept
            )
        assert queued[1].cancelled()
        assert [rows for _, rows in gate.batches] == [1, 2]


class TestLatencySummary:
    def test_percentiles_of_known_pool(self):
        timings = [float(v) for v in range(1, 101)]
        summary = latency_summary(timings)
        assert isinstance(summary, LatencySummary)
        assert summary.count == 100
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.max == 100.0

    def test_nested_repeat_pools_flatten(self):
        pooled = pool_latencies([[1.0, 2.0], [3.0], 4.0])
        assert pooled.tolist() == [1.0, 2.0, 3.0, 4.0]
        summary = latency_summary([[1.0, 2.0], [3.0, 4.0]])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            latency_summary([])

    def test_as_dict_round_trip(self):
        summary = latency_summary([1.0, 2.0, 3.0])
        payload = summary.as_dict()
        assert payload["count"] == 3
        assert set(payload) >= {"count", "mean", "p50", "p90", "p99", "max"}


@pytest.fixture()
def store_warnings():
    """Capture WARNING records of the store logger (repro does not propagate)."""
    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    logger = logging.getLogger("repro.execution.store")
    handler = Capture(level=logging.WARNING)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


class TestWorkloadDocuments:
    def _store_with_doc(self, tmp_path, content):
        store = ResultStore(str(tmp_path / "store"))
        path = store.workload_path_for("ab" + "0" * 62)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        return store, path

    def test_truncated_document_degrades_to_miss(self, tmp_path, store_warnings):
        store, path = self._store_with_doc(tmp_path, '{"version": 1, "conv')
        assert store.get_workload_conversion("ab" + "0" * 62) is None
        assert any(path in record.getMessage() for record in store_warnings)

    def test_missing_field_degrades_to_miss(self, tmp_path, store_warnings):
        document = {"version": 1, "conversion": {"scales": [1.0]}}
        store, path = self._store_with_doc(tmp_path, json.dumps(document))
        assert store.get_workload_conversion("ab" + "0" * 62) is None
        assert any(path in record.getMessage() for record in store_warnings)

    def test_absent_document_is_silent_miss(self, tmp_path, store_warnings):
        store = ResultStore(str(tmp_path / "store"))
        assert store.get_workload_conversion("cd" + "0" * 62) is None
        assert not store_warnings

    def test_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        payload = {
            "scales": [1.0, 2.0], "percentile": 99.9,
            "input_scale": 1.5, "dnn_accuracy": 0.87,
        }
        key = "ef" + "0" * 62
        store.put_workload_conversion(key, payload)
        loaded = store.get_workload_conversion(key)
        assert loaded["scales"] == [1.0, 2.0]
        assert loaded["input_scale"] == 1.5

    def test_stats_and_gc_reclaim_orphans(self, tmp_path):
        store, path = self._store_with_doc(tmp_path, "not json at all")
        good = {
            "scales": [1.0], "percentile": 99.9,
            "input_scale": 1.0, "dnn_accuracy": 0.5,
        }
        store.put_workload_conversion("cd" + "0" * 62, good)
        stats = store.workload_stats()
        assert stats["workload_docs"] == 2
        assert stats["orphaned_workload_docs"] == 1
        assert stats["orphaned_workload_bytes"] == os.path.getsize(path)
        assert store.gc_orphaned_workloads() == 1
        assert not os.path.exists(path)
        # The healthy document survives.
        assert store.get_workload_conversion("cd" + "0" * 62) is not None
        assert store.workload_stats()["orphaned_workload_docs"] == 0
