"""Request specs and batch inference over servable artifacts.

A :class:`RequestSpec` pins everything that must match for two requests to
share one batch: the evaluator (``transport`` for latency, ``timestep`` for
fidelity), the coding scheme, the window length and the coder parameters.
Each spec gets one evaluator, memoised on the
:class:`~repro.core.servable.ServableModel` and built by
:func:`repro.core.pipeline.make_evaluator`, and :func:`serve_batch` runs
one homogeneous batch through its ``forward`` -- the same call for both
simulators -- and splits the logits back into per-request
:class:`ServeResult` rows.

Serving requests are *clean* inference -- no noise injection, no weight
scaling -- so with the deterministic default coders (e.g. the rate coder's
evenly-spaced placement) every sample's spike train, and hence its logits,
depends on that sample alone.

One more ingredient makes micro-batching *bit*-invisible: **fixed compute
lanes**.  BLAS picks its GEMM blocking (and hence each output row's
reduction order) from the matrix shapes, so the same sample evaluated at
batch size 1 and batch size 8 can differ in the last ulp.  ``serve_batch``
therefore always evaluates at a canonical lane width (``RequestSpec.lanes``,
default 8): batches are split into lane-sized chunks and underfilled chunks
are zero-padded -- zero rows encode zero spikes and ``0 + 0 == 0`` exactly,
so padding never perturbs real rows -- giving every request the exact same
kernel shapes regardless of how full its batch was.  The result:
``serve_batch`` over a stacked batch is bit-identical, row for row, to
``serve_batch`` over each sample individually, on both evaluators -- the
invariant the serving tests and the CI smoke assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import SIMULATORS, make_evaluator
from repro.core.servable import ServableModel, _freeze_kwargs
from repro.core.transport import BatchEvaluator


@dataclass(frozen=True)
class RequestSpec:
    """Everything that must match for two requests to share a batch.

    Hashable and immutable: the scheduler keys its queues by
    ``(model fingerprint, spec)`` so every batch it forms is homogeneous --
    one model, one evaluator, one temporal protocol.
    """

    #: "transport" (fast activation transport) or "timestep" (faithful
    #: membrane simulation).
    evaluator: str = "transport"
    #: Coding scheme name ("rate", "phase", "ttfs", "ttas", "ttas(k)", ...).
    coding: str = "rate"
    #: Encoding window length ``T``.
    num_steps: int = 16
    #: Extra coder kwargs as sorted ``(name, value)`` pairs (hashable form;
    #: use :meth:`create` to pass a plain dict).
    coder_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Firing-threshold override for the timestep evaluator (``None`` = the
    #: coder's empirical default).
    threshold: Optional[float] = None
    #: Canonical compute-lane width: every evaluation runs at exactly this
    #: padded batch size (see module docstring) so kernel shapes -- and
    #: hence per-row bit patterns -- never depend on batch occupancy.
    lanes: int = 8

    @classmethod
    def create(
        cls,
        evaluator: str = "transport",
        coding: str = "rate",
        num_steps: int = 16,
        threshold: Optional[float] = None,
        lanes: int = 8,
        **coder_kwargs,
    ) -> "RequestSpec":
        """Build a spec from plain arguments (dict kwargs canonicalised)."""
        if evaluator not in SIMULATORS:
            raise ValueError(
                f"evaluator must be one of {SIMULATORS}, got {evaluator!r}"
            )
        if int(lanes) < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        return cls(
            evaluator=evaluator,
            coding=str(coding),
            num_steps=int(num_steps),
            coder_kwargs=_freeze_kwargs(dict(coder_kwargs)),
            threshold=None if threshold is None else float(threshold),
            lanes=int(lanes),
        )

    def kwargs_dict(self) -> Dict[str, Any]:
        """The coder kwargs back as a plain dict."""
        return dict(self.coder_kwargs)


@dataclass(frozen=True)
class ServeResult:
    """Response of one serving request.

    ``logits`` is this sample's raw output-score row; ``batch_size`` is the
    size of the batch the request actually rode in (1 when evaluated solo),
    kept so tests and benchmarks can verify coalescing happened without
    touching scheduler internals.
    """

    logits: np.ndarray
    prediction: int
    model_key: Optional[str]
    evaluator: str
    batch_size: int = 1
    #: Client-observed latency in seconds; filled by measurement harnesses,
    #: not by the scheduler (it cannot see the enqueue-side clock).
    latency: Optional[float] = field(default=None, compare=False)


def _evaluator(servable: ServableModel, spec: RequestSpec) -> BatchEvaluator:
    """The memoised clean-inference evaluator of a spec (no noise, no scaling)."""
    def build() -> BatchEvaluator:
        coder = servable.coder(spec.coding, spec.num_steps, **spec.kwargs_dict())
        return make_evaluator(
            spec.evaluator, servable.network, coder, threshold=spec.threshold
        )

    return servable.cached(("serving", spec), build)


def _lane_chunks(batch: np.ndarray, lanes: int):
    """Split a batch into zero-padded lane-width chunks.

    Yields ``(chunk, occupancy)`` pairs where every chunk has exactly
    ``lanes`` rows; the tail rows of an underfilled chunk are zeros.
    """
    for start in range(0, batch.shape[0], lanes):
        chunk = batch[start:start + lanes]
        occupancy = int(chunk.shape[0])
        if occupancy < lanes:
            padded = np.zeros((lanes,) + batch.shape[1:], dtype=np.float32)
            padded[:occupancy] = chunk
            chunk = padded
        yield chunk, occupancy


def serve_batch(
    servable: ServableModel, spec: RequestSpec, batch: np.ndarray
) -> List[ServeResult]:
    """Run one homogeneous batch and demultiplex per-sample results.

    The batch is evaluated in fixed ``spec.lanes``-wide chunks (zero-padded;
    see module docstring) so every sample's bit pattern is independent of
    batch occupancy.  The per-(artifact, spec) lock serialises evaluations
    of one queue: the time-stepped simulator holds membrane state across a
    run and must never interleave two batches; the transport evaluator
    would tolerate it, but queues are serialised uniformly so the
    scheduler's concurrency story does not depend on evaluator internals.
    """
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim < 2:
        raise ValueError(
            f"serve_batch expects a (batch, ...) array, got shape {batch.shape}"
        )
    evaluator = _evaluator(servable, spec)
    rows: List[np.ndarray] = []
    with servable.spec_lock(("serving", spec)):
        for chunk, occupancy in _lane_chunks(batch, spec.lanes):
            # Clean inference: every coder is deterministic and ignores the
            # rng, so a fixed stream root only keeps the call self-contained.
            logits, _ = evaluator.forward(chunk, rng=0)
            rows.extend(logits[:occupancy])
    size = int(batch.shape[0])
    return [
        ServeResult(
            logits=row_logits,
            prediction=int(row_logits.argmax()),
            model_key=servable.key,
            evaluator=spec.evaluator,
            batch_size=size,
        )
        for row_logits in rows
    ]


def serve_single(
    servable: ServableModel, spec: RequestSpec, sample: np.ndarray
) -> ServeResult:
    """Evaluate one sample alone -- the bit-identity reference path."""
    sample = np.asarray(sample, dtype=np.float32)
    return serve_batch(servable, spec, sample[None])[0]
