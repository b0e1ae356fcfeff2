"""Golden realisations of the noise injector.

Every noise stream of a stored sweep cell goes through
``NoiseInjector.from_levels(...).apply``, so its realisation is part of the
result store's reproducibility contract: a change to how the levels are
held, ordered or keyed must leave these digests unchanged.  Each case runs
on a seeded binary train and a seeded count train, each dense and as its
event twin.  Deletion thins a binary train with one uniform per grid slot
when dense and one per event as events, so only there do the two backends
realise differently; every other case is bit-identical across them.
"""

import hashlib

import numpy as np
import pytest

from repro.noise import NoiseInjector
from repro.snn.spikes import SpikeEvents, SpikeTrainArray

LEVELS = {
    "deletion": dict(deletion_probability=0.3),
    "jitter": dict(jitter_sigma=1.5),
    "burst_error": dict(burst_error_fraction=0.25),
    "dead": dict(dead_fraction=0.3),
    "stuck": dict(stuck_fraction=0.2),
    "deletion+jitter": dict(deletion_probability=0.3, jitter_sigma=1.5),
    "dead+stuck": dict(dead_fraction=0.3, stuck_fraction=0.2),
    "all": dict(
        deletion_probability=0.3, jitter_sigma=1.5, burst_error_fraction=0.25,
        dead_fraction=0.3, stuck_fraction=0.2,
    ),
}

#: sha256 of the corrupted train's dense ``(T, batch, features)`` int64
#: counts, per (case, train, backend).
GOLDEN = {
    ('deletion', 'binary', 'dense'):
        "969bc6c3a2e81967be8ab7b55ed4e60fb17c04dc8903ad5d30d77ef8987a441e",
    ('deletion', 'binary', 'events'):
        "22ad1072d70c13ad8ea0b8dab78f43b461a65b838e3a78c8508edf1b096e1613",
    ('deletion', 'counts', 'dense'):
        "266b7c120fd48b7a73b0049a35d42083c11b01749ce9e7736ae6b6b3336fc24e",
    ('deletion', 'counts', 'events'):
        "266b7c120fd48b7a73b0049a35d42083c11b01749ce9e7736ae6b6b3336fc24e",
    ('jitter', 'binary', 'dense'):
        "a6dd70b4311e865ef951d7ea01d4e39035f17957b1ec787e8856ce8162176609",
    ('jitter', 'binary', 'events'):
        "a6dd70b4311e865ef951d7ea01d4e39035f17957b1ec787e8856ce8162176609",
    ('jitter', 'counts', 'dense'):
        "7117f57ddfc9942447ac755c67af73f988c1506783a075926024b6088f7f6b40",
    ('jitter', 'counts', 'events'):
        "7117f57ddfc9942447ac755c67af73f988c1506783a075926024b6088f7f6b40",
    ('burst_error', 'binary', 'dense'):
        "9576cb5c088b8df34ab56cb315b50df1818c93662de0b9a0a2ee0774ca41c497",
    ('burst_error', 'binary', 'events'):
        "9576cb5c088b8df34ab56cb315b50df1818c93662de0b9a0a2ee0774ca41c497",
    ('burst_error', 'counts', 'dense'):
        "c446c99ab1933a2589d5b0b24ef74807de33e990b827f1172f56bc3fdc953da6",
    ('burst_error', 'counts', 'events'):
        "c446c99ab1933a2589d5b0b24ef74807de33e990b827f1172f56bc3fdc953da6",
    ('dead', 'binary', 'dense'):
        "d21a4c4f7687d623379e3c09ff3e5e42e055503914729c99659433051ab907da",
    ('dead', 'binary', 'events'):
        "d21a4c4f7687d623379e3c09ff3e5e42e055503914729c99659433051ab907da",
    ('dead', 'counts', 'dense'):
        "a5bb0f39c770f74675d750e5d3cde4a8cf2939cc81e79e779c0204e417baf876",
    ('dead', 'counts', 'events'):
        "a5bb0f39c770f74675d750e5d3cde4a8cf2939cc81e79e779c0204e417baf876",
    ('stuck', 'binary', 'dense'):
        "81eda262db67d4aad6b5d5c4d567e0499316669964cf9200d301324b0b12282e",
    ('stuck', 'binary', 'events'):
        "81eda262db67d4aad6b5d5c4d567e0499316669964cf9200d301324b0b12282e",
    ('stuck', 'counts', 'dense'):
        "e0ed41fc8135c35fd8f52ef57e13002dde25a5867b14e7faa2875bf712a87ac6",
    ('stuck', 'counts', 'events'):
        "e0ed41fc8135c35fd8f52ef57e13002dde25a5867b14e7faa2875bf712a87ac6",
    ('deletion+jitter', 'binary', 'dense'):
        "ad8946f6db69b0dff3e57117e69b572918364c96f718527b4bf1743ee8584aeb",
    ('deletion+jitter', 'binary', 'events'):
        "003e4102a59955ecb485dc5796ecc59f5bc802feb73570a4d82a2baf59e62cc4",
    ('deletion+jitter', 'counts', 'dense'):
        "a37270873bb64d0ab7e1a690d0273b1955c51cfbe35000a7486eca986ed184bb",
    ('deletion+jitter', 'counts', 'events'):
        "a37270873bb64d0ab7e1a690d0273b1955c51cfbe35000a7486eca986ed184bb",
    ('dead+stuck', 'binary', 'dense'):
        "d644f64ff7df0ab8b8d10285955b809cadc411cf58e45b5c8acb3547256b587d",
    ('dead+stuck', 'binary', 'events'):
        "d644f64ff7df0ab8b8d10285955b809cadc411cf58e45b5c8acb3547256b587d",
    ('dead+stuck', 'counts', 'dense'):
        "8d0a9cebf3b76072e8e0998c6e0cf3d2bd490d03933dbc6970b209949e9670fe",
    ('dead+stuck', 'counts', 'events'):
        "8d0a9cebf3b76072e8e0998c6e0cf3d2bd490d03933dbc6970b209949e9670fe",
    ('all', 'binary', 'dense'):
        "86915ca866a2d18941ebae5292693945b8bff8dca3eb7c15e88cbe149064d767",
    ('all', 'binary', 'events'):
        "3d34f8137758da3375cb956d312a25f17830471e225984e592325759167e03fd",
    ('all', 'counts', 'dense'):
        "32fce7f20fa139ddfeec0fe49b17a5444b7a48b3008ee73d57e2f176e3fec6c1",
    ('all', 'counts', 'events'):
        "32fce7f20fa139ddfeec0fe49b17a5444b7a48b3008ee73d57e2f176e3fec6c1",
}


def seeded_train(kind, backend):
    """A binary train (the fast deletion path) or a count train (binomial)."""
    rng = np.random.default_rng(36)
    shape = (24, 3, 20)
    counts = (rng.random(shape) < 0.35).astype(np.int16)
    if kind == "counts":
        counts += (rng.random(shape) < 0.05).astype(np.int16)
    dense = SpikeTrainArray(counts)
    return dense if backend == "dense" else dense.to_events()


def digest(train):
    counts = np.ascontiguousarray(train.to_dense().counts, dtype=np.int64)
    return hashlib.sha256(counts.tobytes()).hexdigest()


@pytest.mark.parametrize("backend", ["dense", "events"])
@pytest.mark.parametrize("kind", ["binary", "counts"])
@pytest.mark.parametrize("case", sorted(LEVELS))
def test_realisation_is_pinned(case, kind, backend):
    train = seeded_train(kind, backend)
    noisy = NoiseInjector.from_levels(**LEVELS[case]).apply(train, rng=2021)
    assert isinstance(noisy, SpikeEvents if backend == "events" else SpikeTrainArray)
    assert noisy.num_steps == train.num_steps
    assert noisy.population_shape == train.population_shape
    assert digest(noisy) == GOLDEN[case, kind, backend]
