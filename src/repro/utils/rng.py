"""Deterministic random-number management.

Every stochastic component in the library (dataset synthesis, weight
initialisation, dropout, spike-train noise) draws from a
:class:`numpy.random.Generator` that is either passed in explicitly or derived
from a named stream.  This keeps experiments reproducible: the same seed
always yields the same trained network, the same noise realisation and hence
the same table rows.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np


def stable_hash(value: Union[str, int]) -> int:
    """Process-independent 32-bit hash of a tag.

    Python's built-in ``hash`` is randomised per interpreter process, which
    would make derived random streams (and everything seeded from them)
    irreproducible across runs; CRC32 of the string representation is stable.
    """
    return zlib.crc32(str(value).encode("utf-8")) & 0x7FFFFFFF


#: Seed used when the caller does not specify one.
DEFAULT_SEED = 20210422  # arXiv submission date of the paper (2021-04-22).

RngLike = Union[int, np.random.Generator, None]


def default_rng(rng: RngLike = None) -> np.random.Generator:
    """Normalise ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (seeded from :data:`DEFAULT_SEED`), an integer seed, or
    an existing generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def stream_root(rng: RngLike) -> int:
    """Draw the derivation root of a stream family from ``rng``.

    One integer drawn from the (stateful) parent generator pins every
    generator later derived from it with :func:`derive_rng_at`.  Splitting
    derivation into ``stream_root`` + ``derive_rng_at`` is what makes a
    family of sibling streams *stateless*: each sibling is a pure function
    of ``(root, tags)``, independent of how many siblings were derived
    before it or in which order.
    """
    return int(default_rng(rng).integers(0, 2**31))


def derive_rng_at(root: int, *tags: Union[str, int]) -> np.random.Generator:
    """Derive a generator from a root and a tag sequence, statelessly.

    Unlike :func:`derive_rng` this consumes no parent-generator state: the
    same ``(root, tags)`` pair always yields the same generator.  This is
    the primitive behind sample sharding -- an evaluation shard derives each
    batch's noise stream from the cell's root and the batch's *absolute*
    sample offset, reproducing exactly the streams the unsharded run would
    use for those batches, at any shard count.
    """
    seed_seq = np.random.SeedSequence(
        entropy=int(root), spawn_key=tuple(stable_hash(t) for t in tags)
    )
    return np.random.default_rng(seed_seq)


def derive_rng(rng: RngLike, *tags: Union[str, int]) -> np.random.Generator:
    """Derive an independent generator from ``rng`` and a tag sequence.

    Deriving rather than sharing a generator keeps independent subsystems
    (e.g. dropout vs. spike deletion) decoupled: adding draws in one does not
    perturb the sequence seen by the other.  Equivalent to
    ``derive_rng_at(stream_root(rng), *tags)`` -- it advances the parent by
    exactly one draw.
    """
    return derive_rng_at(stream_root(rng), *tags)
