"""Request-shaped serving over the figure-reproduction stack.

The subsystem turns the batch/sweep-shaped library into a long-lived
inference service in three layers:

* :mod:`repro.serving.inference` -- :class:`RequestSpec` (what must match
  for two requests to share a batch) and :func:`serve_batch`, the clean
  deterministic batch evaluation over a frozen
  :class:`~repro.core.servable.ServableModel`,
* :mod:`repro.serving.registry` -- :class:`ModelRegistry`, the thread-safe
  fingerprint -> artifact map with weight-cache load-through,
* :mod:`repro.serving.scheduler` -- :class:`MicroBatchScheduler`, which
  dispatches a single-sample submission at once when a worker of its warm
  thread tier is idle, and coalesces requests that arrive while every
  worker is busy into homogeneous batches.

Quick start::

    from repro.serving import ModelRegistry, MicroBatchScheduler, RequestSpec

    registry = ModelRegistry()
    key = registry.register("mnist", scale=TEST_SCALE, seed=0)
    with MicroBatchScheduler(registry) as scheduler:
        spec = RequestSpec.create(evaluator="transport", coding="rate",
                                  num_steps=16)
        future = scheduler.submit(key, image, spec=spec)
        print(future.result().prediction)
"""

from repro.core.servable import ServableModel
from repro.serving.inference import (
    RequestSpec,
    ServeResult,
    serve_batch,
    serve_single,
)
from repro.serving.registry import (
    ModelRegistry,
    RegistryStats,
)
from repro.serving.scheduler import (
    MicroBatchScheduler,
    SchedulerStats,
)

__all__ = [
    "ServableModel",
    "RequestSpec",
    "ServeResult",
    "serve_batch",
    "serve_single",
    "ModelRegistry",
    "RegistryStats",
    "MicroBatchScheduler",
    "SchedulerStats",
]
