"""Latency summaries for request-shaped workloads.

The serving benchmark and the serving smoke test both measure per-request
wall-clock latencies under load and need the same percentile arithmetic;
this module is the one implementation they share instead of ad-hoc
``np.percentile`` calls with subtly different interpolation choices.

The helpers are *repeats-aware*: a ``--repeats N`` benchmark produces one
timing list per repeat, and :func:`pool_latencies` flattens any mix of flat
samples and per-repeat lists into one sample pool before the percentiles
are taken -- percentiles of pooled raw timings, never means of per-repeat
percentiles (which would systematically understate the tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

#: The tail percentiles every latency report carries.
PERCENTILES = (50, 90, 99)

Samples = Union[Sequence[float], Iterable[Sequence[float]]]


def pool_latencies(samples: Samples) -> np.ndarray:
    """Flatten raw timings -- flat or grouped per repeat -- into one pool.

    Accepts a flat sequence of seconds, a sequence of per-repeat sequences,
    or any mix of scalars and nested sequences; returns a float64 vector of
    every individual timing.
    """
    flat = []
    for item in samples:
        if np.ndim(item) == 0:
            flat.append(float(item))
        else:
            flat.extend(float(value) for value in np.ravel(item))
    return np.asarray(flat, dtype=np.float64)


@dataclass(frozen=True)
class LatencySummary:
    """p50/p90/p99 tail summary of a pool of per-request timings (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float


def latency_summary(samples: Samples) -> LatencySummary:
    """Summarise raw per-request timings (flat or per-repeat grouped).

    Percentiles use linear interpolation over the pooled samples; an empty
    pool raises -- a latency report with no requests behind it is a
    harness bug, not a zero.
    """
    pool = pool_latencies(samples)
    if pool.size == 0:
        raise ValueError("latency_summary needs at least one timing sample")
    p50, p90, p99 = (float(v) for v in np.percentile(pool, PERCENTILES))
    return LatencySummary(
        count=int(pool.size),
        mean=float(pool.mean()),
        p50=p50,
        p90=p90,
        p99=p99,
        max=float(pool.max()),
    )
