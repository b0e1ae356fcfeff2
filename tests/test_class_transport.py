"""Class-domain transport: per-class spike counts instead of the time grid.

Rate, phase and burst coding decode ``sum_t w_t * c_t`` with few distinct
weights, and deletion and dead-neuron faults never look at a spike's step,
so the transport evaluator may carry ``(K, batch, ...)`` per-class counts
instead of the ``(T, batch, ...)`` grid.  This suite checks

* the coder contract: the dense encoding expands the class counts, and
  both decode to the same activation;
* equality in distribution under deletion + dead neurons against the
  dense time-resolved path (chi-square on survivor counts, KS on decoded
  activations), with the event list's deletion exception covered by the
  same test;
* clip jitter on class counts: phase and burst landing-class draws against
  the dense jitter kernel folded mod the period (chi-square and KS, with a
  power check against a sampler that wraps instead of clipping), rate's
  exact skip, and spike totals kept exactly;
* routing: which evaluations take the class path, bit-identity where it is
  exact, that the class path never builds the time grid, and that every
  case outside it still does.
"""

import numpy as np
import pytest

from repro.coding import BurstCoder, PhaseCoder, RateCoder
from repro.coding.base import ClassCounts, NeuralCoder, PeriodicCoder
from repro.core.timestep import evaluate_timestep
from repro.core.transport import ActivationTransportSimulator
from repro.noise import (
    BurstErrorNoise,
    DeadNeuronNoise,
    DeletionNoise,
    IdentityNoise,
    JitterNoise,
    NoiseInjector,
    StuckAtFireNoise,
)
from repro.snn.spikes import SpikeTrainArray

WINDOW_CODERS = [
    RateCoder(num_steps=32),
    PhaseCoder(num_steps=32),
    BurstCoder(num_steps=32),
]

#: Per-comparison false-alarm rate of every statistical test below.  The
#: equivalence test makes 3 coders x 2 paths x 2 statistics = 12
#: comparisons, so a correct implementation fails it on a fresh seed with
#: probability at most 12 * ALPHA = 1.2% (Bonferroni).  The seeds are fixed,
#: so the verdict is the same on every run.
ALPHA = 1e-3
#: Upper ALPHA-quantile of the standard normal.
Z_ALPHA = 3.0902323061678132


def per_neuron(train):
    """Spike count of every neuron over the whole window (or all classes)."""
    return train.to_dense().counts.sum(axis=0)


class TimedIdentity(IdentityNoise):
    """A no-op that declares itself time-resolved, forcing the time grid."""

    time_free = False


# -- two-sample tests (numpy only) -----------------------------------------------
def chi_square_rejects(a: np.ndarray, b: np.ndarray) -> bool:
    """Chi-square homogeneity test of two integer samples at level ALPHA.

    The table's bins are the sample values (see :func:`table_rejects`).
    The per-neuron activations are a fixed design, not a random draw from
    their mixture, which only makes the test conservative.
    """
    size = int(max(a.max(), b.max())) + 1
    return table_rejects(
        np.stack([np.bincount(a, minlength=size), np.bincount(b, minlength=size)])
    )


def table_rejects(counts: np.ndarray) -> bool:
    """Chi-square homogeneity test of a ``(2, bins)`` count table at level ALPHA.

    Adjacent bins are pooled until each holds at least 10 observations
    over both rows (expected count >= 5 per row at equal sizes).  The
    critical value is the Wilson-Hilferty approximation of the chi-square
    quantile.
    """
    table = [[], []]
    pending = np.zeros(2, dtype=np.int64)
    for pair in np.asarray(counts, dtype=np.int64).T:
        pending += pair
        if pending.sum() >= 10:
            table[0].append(pending[0])
            table[1].append(pending[1])
            pending[:] = 0
    table[0][-1] += pending[0]
    table[1][-1] += pending[1]
    observed = np.asarray(table, dtype=np.float64)
    expected = observed.sum(axis=0) * observed.sum(axis=1)[:, None] / observed.sum()
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = observed.shape[1] - 1
    critical = dof * (1 - 2 / (9 * dof) + Z_ALPHA * np.sqrt(2 / (9 * dof))) ** 3
    return statistic > critical


def ks_rejects(a: np.ndarray, b: np.ndarray) -> bool:
    """Two-sample Kolmogorov-Smirnov test at level ALPHA.

    Decoded activations live on a lattice; for discrete distributions the
    continuous-case critical value is conservative.
    """
    a, b = np.sort(a.ravel()), np.sort(b.ravel())
    grid = np.concatenate([a, b])
    distance = np.abs(
        np.searchsorted(a, grid, side="right") / a.size
        - np.searchsorted(b, grid, side="right") / b.size
    ).max()
    critical = np.sqrt(-np.log(ALPHA / 2) / 2) * np.sqrt((a.size + b.size) / (a.size * b.size))
    return distance > critical


# -- coder contract ----------------------------------------------------------------
@pytest.mark.parametrize("coder", WINDOW_CODERS, ids=lambda c: c.name)
class TestClassEncoding:
    def test_dense_encoding_expands_class_counts(self, coder):
        values = np.random.default_rng(0).random((4, 30))
        dense = coder.encode(values).counts
        classes = coder.encode_classes(values).counts
        weights = coder.decode_weights()
        # Every step's spikes land in the class of its kernel weight.
        for k, weight in enumerate(weights[: classes.shape[0]]):
            assert np.array_equal(dense[weights == weight].sum(axis=0), classes[k])
        assert dense.sum() == classes.sum()

    def test_class_decode_is_bit_identical_at_power_of_two_window(self, coder):
        values = np.random.default_rng(1).random((4, 30))
        assert np.array_equal(
            coder.decode_classes(coder.encode_classes(values)),
            coder.decode(coder.encode(values)),
        )


def test_rate_decode_at_paper_window_within_float32_sum_bound():
    # T = 1000 is not a power of two: the dense decode is a float32 sum of
    # 1000 terms, the class decode one product n * float32(1/T).  Fixed
    # before measuring: the two agree within the recursive-summation bound
    # T * 2^-24, and the class decode is within 2^-23 of the exact n / T.
    coder = RateCoder(num_steps=1000)
    values = np.random.default_rng(3).random((8, 200))
    dense = coder.decode(coder.encode(values))
    classes = coder.decode_classes(coder.encode_classes(values))
    exact = np.rint(values * 1000) / 1000
    assert np.abs(classes - dense).max() <= 1000 * 2.0**-24
    assert np.abs(classes - exact).max() <= 2.0**-23


def test_time_free_declarations():
    assert DeletionNoise(0.2).time_free and DeadNeuronNoise(0.2).time_free
    assert IdentityNoise().time_free
    for model in (JitterNoise(1.0), BurstErrorNoise(0.2), StuckAtFireNoise(0.2)):
        assert not model.time_free
    assert NoiseInjector.from_levels(deletion_probability=0.3, dead_fraction=0.1).time_free
    assert NoiseInjector.from_levels().time_free
    assert not NoiseInjector.from_levels(deletion_probability=0.3, jitter_sigma=1.0).time_free


def test_class_path_routing_rule():
    # Time-free, or jitter first and only time-free models after it.
    assert JitterNoise(1.0).acts_on_classes
    assert DeletionNoise(0.2).acts_on_classes and IdentityNoise().acts_on_classes
    assert not BurstErrorNoise(0.2).acts_on_classes
    assert not StuckAtFireNoise(0.2).acts_on_classes
    qualifies = [
        NoiseInjector.from_levels(),
        NoiseInjector.from_levels(deletion_probability=0.3, dead_fraction=0.1),
        NoiseInjector.from_levels(jitter_sigma=1.0),
        NoiseInjector.from_levels(jitter_sigma=1.0, dead_fraction=0.1),
    ]
    keeps_grid = [
        NoiseInjector.from_levels(deletion_probability=0.3, jitter_sigma=1.0),
        NoiseInjector.from_levels(jitter_sigma=1.0, burst_error_fraction=0.1),
        NoiseInjector.from_levels(jitter_sigma=1.0, stuck_fraction=0.1),
    ]
    assert all(noise.acts_on_classes for noise in qualifies)
    assert not any(noise.acts_on_classes for noise in keeps_grid)


# -- class jitter --------------------------------------------------------------------
PERIODIC_CODERS = [
    PhaseCoder(num_steps=32),
    BurstCoder(num_steps=32),
    PhaseCoder(num_steps=36),
    BurstCoder(num_steps=40),
]


def fold(counts: np.ndarray, period: int) -> np.ndarray:
    """Sum a ``(T, *population)`` grid's steps by ``step mod period``."""
    padded = -(-counts.shape[0] // period) * period
    grid = np.zeros((padded,) + counts.shape[1:], dtype=np.int64)
    grid[: counts.shape[0]] = counts
    return grid.reshape((padded // period, period) + counts.shape[1:]).sum(axis=0)


class TestClassJitter:
    """Clip jitter on class counts against the dense jitter kernel folded mod L."""

    population = 16384

    def values(self):
        return np.random.default_rng(0).random(self.population)

    def dense_folded(self, coder, sigma, seed=1):
        train = JitterNoise(sigma).apply(coder.encode(self.values()), rng=seed)
        return fold(train.counts, coder.period)

    def classes(self, coder, sigma, seed=2):
        return JitterNoise(sigma).apply(coder.encode_classes(self.values()), rng=seed).counts

    def landing_totals(self, coder, counts):
        """Spikes landing in each class, split by whether the neuron fired
        in that class before jitter: staying versus arriving spikes."""
        fired = np.zeros(counts.shape, dtype=bool)
        clean = coder.encode_classes(self.values()).counts
        fired[: clean.shape[0]] = clean > 0
        return np.concatenate([(counts * fired).sum(axis=1), (counts * ~fired).sum(axis=1)])

    def rejects(self, coder, dense, classes):
        """Chi-square on split landing-class totals, KS on decoded activations.

        Every spike lands independently given its step, and both samples
        share the steps, so each total of the two paths is a sum of the
        same independent categorical draws (the test's multinomial variance
        is an upper bound, which keeps it conservative).
        """
        totals = np.stack([
            self.landing_totals(coder, dense), self.landing_totals(coder, classes)
        ])
        decode = coder.decode_classes
        return (
            table_rejects(totals),
            ks_rejects(decode(SpikeTrainArray(dense)), decode(SpikeTrainArray(classes))),
        )

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    @pytest.mark.parametrize(
        "coder", PERIODIC_CODERS, ids=lambda c: f"{c.name}-T{c.num_steps}"
    )
    def test_landing_classes_match_folded_dense_jitter(self, coder, sigma):
        dense, classes = self.dense_folded(coder, sigma), self.classes(coder, sigma)
        assert classes.shape == dense.shape == (coder.period, self.population)
        assert self.rejects(coder, dense, classes) == (False, False)

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    @pytest.mark.parametrize(
        "coder", PERIODIC_CODERS, ids=lambda c: f"{c.name}-T{c.num_steps}"
    )
    def test_tests_reject_a_sampler_that_wraps_instead_of_clipping(self, coder, sigma):
        # Shift each spike of the dense encoding without clamping it to the
        # window, then take the landing step mod L: right away from the
        # edges, wrong wherever clipping binds.
        steps, neurons = np.nonzero(coder.encode(self.values()).counts)
        shifts = np.rint(np.random.default_rng(3).normal(0.0, sigma, steps.size))
        landing = (steps + shifts.astype(np.int64)) % coder.period
        wrapped = np.bincount(
            landing * self.population + neurons, minlength=coder.period * self.population
        ).reshape(coder.period, self.population)
        chi_square, _ = self.rejects(coder, self.dense_folded(coder, sigma), wrapped)
        assert chi_square

    def test_rate_jitter_returns_the_counts_and_draws_nothing(self):
        coder = RateCoder(num_steps=32)
        clean = coder.encode_classes(self.values()[:500])
        generator = np.random.default_rng(5)
        state = generator.bit_generator.state
        jittered = clean.jitter_spikes(3.0, rng=generator)
        assert np.array_equal(jittered.counts, clean.counts)
        assert generator.bit_generator.state == state


# -- equality in distribution -------------------------------------------------------
class TestDistributionalEquivalence:
    """Deletion 0.3 + dead 0.1: every path against the dense time grid.

    A 1-D population keeps every neuron's dead draw independent, and each
    path gets its own seed, so the two samples are independent.
    """

    population = 16384
    noise = NoiseInjector.from_levels(deletion_probability=0.3, dead_fraction=0.1)

    def values(self):
        return np.random.default_rng(0).random(self.population)

    def dense_reference(self, coder):
        train = self.noise.apply(coder.encode(self.values()), rng=1)
        return per_neuron(train), coder.decode(train)

    def corrupted(self, coder, path, noise=None, seed=2):
        noise = noise or self.noise
        if path == "events":
            train = noise.apply(coder.encode(self.values()).to_events(), rng=seed)
            return per_neuron(train), coder.decode(train)
        train = noise.apply(coder.encode_classes(self.values()), rng=seed)
        return per_neuron(train), coder.decode_classes(train)

    @pytest.mark.parametrize("path", ["events", "classes"])
    @pytest.mark.parametrize(
        "coder",
        [RateCoder(num_steps=64), PhaseCoder(num_steps=64), BurstCoder(num_steps=64)],
        ids=lambda c: c.name,
    )
    def test_survivors_and_decoded_activations_match_dense(self, coder, path):
        dense_survivors, dense_decoded = self.dense_reference(coder)
        survivors, decoded = self.corrupted(coder, path)
        assert not chi_square_rejects(dense_survivors, survivors)
        assert not ks_rejects(dense_decoded, decoded)
        # Sanity: the noise really acted (about 0.7 * 0.9 of the spikes).
        clean = coder.encode_classes(self.values()).total_spikes()
        assert abs(survivors.sum() / clean - 0.63) < 0.02

    @pytest.mark.parametrize(
        "coder", [RateCoder(num_steps=64), PhaseCoder(num_steps=64)], ids=lambda c: c.name
    )
    def test_tests_reject_wrong_thinning(self, coder):
        # The same statistics must catch a class path that deletes at a
        # slightly wrong rate, or drops whole class counts at once.
        dense_survivors, dense_decoded = self.dense_reference(coder)
        shifted = NoiseInjector.from_levels(deletion_probability=0.35, dead_fraction=0.1)
        survivors, decoded = self.corrupted(coder, "classes", noise=shifted)
        assert chi_square_rejects(dense_survivors, survivors)
        assert ks_rejects(dense_decoded, decoded)

        counts = coder.encode_classes(self.values()).counts
        generator = np.random.default_rng(4)
        whole = counts * (generator.random(counts.shape) >= 0.3)
        whole = whole * (generator.random(counts.shape[1:]) >= 0.1)
        train = SpikeTrainArray(whole)
        assert chi_square_rejects(dense_survivors, per_neuron(train))
        assert ks_rejects(dense_decoded, coder.decode_classes(train))


# -- routing and exactness through the evaluator --------------------------------------
def simulator(network, coder, noise=None):
    return ActivationTransportSimulator(
        network=network, coder=coder, noise=noise
    )


class TestRouting:
    @pytest.mark.parametrize("coder", WINDOW_CODERS, ids=lambda c: c.name)
    def test_clean_class_path_is_bit_identical(self, converted_mlp, mnist_split, coder):
        x = mnist_split.test.x[:16]
        logits, spikes = simulator(converted_mlp, coder).forward(x, rng=0)
        timed_logits, timed_spikes = simulator(
            converted_mlp, coder, TimedIdentity()
        ).forward(x, rng=0)
        assert spikes == timed_spikes
        assert np.array_equal(logits, timed_logits)

    @pytest.mark.parametrize("coder", WINDOW_CODERS, ids=lambda c: c.name)
    def test_dead_masks_realise_identically(self, coder):
        # The mask is drawn over the feature axes from the injector's
        # ("dead", index) stream, so one stream silences the same neurons of
        # the class train and of the time grid, shared across the batch.
        values = np.random.default_rng(6).random((8, 300))
        noise = NoiseInjector.from_levels(dead_fraction=0.3)
        classes = noise.apply(coder.encode_classes(values), rng=5)
        dense = noise.apply(coder.encode(values), rng=5)
        assert np.array_equal(per_neuron(classes), per_neuron(dense))
        assert np.array_equal(coder.decode_classes(classes), coder.decode(dense))
        silenced = per_neuron(classes).sum(axis=0) == 0
        assert 0.2 < silenced.mean() < 0.45

    @pytest.mark.parametrize(
        "coder",
        [RateCoder(num_steps=1000), PhaseCoder(num_steps=1000), BurstCoder(num_steps=1000)],
        ids=lambda c: c.name,
    )
    def test_paper_window_never_builds_the_time_grid(
        self, converted_mlp, mnist_split, coder, monkeypatch
    ):
        noise = NoiseInjector.from_levels(deletion_probability=0.5, dead_fraction=0.1)
        self._evaluate_without_grid(converted_mlp, mnist_split, coder, noise, monkeypatch)

    @pytest.mark.parametrize(
        "coder",
        [RateCoder(num_steps=1000), PhaseCoder(num_steps=1000), BurstCoder(num_steps=1000)],
        ids=lambda c: c.name,
    )
    def test_clip_jitter_at_paper_window_never_builds_the_time_grid(
        self, converted_mlp, mnist_split, coder, monkeypatch
    ):
        noise = NoiseInjector.from_levels(jitter_sigma=2.0, dead_fraction=0.1)
        self._evaluate_without_grid(converted_mlp, mnist_split, coder, noise, monkeypatch)

    @staticmethod
    def _evaluate_without_grid(converted_mlp, mnist_split, coder, noise, monkeypatch):
        def boom(self, values, rng=None):
            raise AssertionError("class path built the (T, batch, N) grid")

        monkeypatch.setattr(RateCoder, "encode", boom)
        monkeypatch.setattr(PeriodicCoder, "encode", boom)
        result = simulator(converted_mlp, coder, noise).evaluate(
            mnist_split.test.x[:16], mnist_split.test.y[:16], rng=0
        )
        assert result.total_spikes > 0

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseInjector.from_levels(deletion_probability=0.2, jitter_sigma=1.0),
            NoiseInjector.from_levels(burst_error_fraction=0.2),
            NoiseInjector.from_levels(dead_fraction=0.1, stuck_fraction=0.1),
            NoiseInjector.from_levels(jitter_sigma=1.0, stuck_fraction=0.1),
        ],
        # "jitter" is deletion before jitter: thinned class counts no longer
        # say which periods their survivors sit in.
        ids=["jitter", "burst_error", "stuck", "jitter_then_stuck"],
    )
    def test_time_dependent_noise_keeps_the_time_grid(
        self, converted_mlp, mnist_split, noise, monkeypatch
    ):
        encodes = self._forbid_classes(monkeypatch)
        logits, _ = simulator(converted_mlp, PhaseCoder(num_steps=32), noise).forward(
            mnist_split.test.x[:8], rng=0
        )
        assert logits.shape[0] == 8
        assert encodes

    def test_injected_input_train_keeps_the_time_grid(
        self, converted_mlp, mnist_split, monkeypatch
    ):
        coder = PhaseCoder(num_steps=32)
        x = mnist_split.test.x[:8]
        train = coder.encode(x / converted_mlp.input_scale)
        encodes = self._forbid_classes(monkeypatch)
        logits, spikes = simulator(converted_mlp, coder, DeletionNoise(0.2)).forward(
            None, rng=0, input_train=train
        )
        assert logits.shape[0] == 8
        assert spikes[0] == train.total_spikes()
        assert encodes

    def test_faithful_simulator_input_noise_keeps_the_time_grid(
        self, converted_mlp, mnist_split, monkeypatch
    ):
        encodes = self._forbid_classes(monkeypatch)
        result = evaluate_timestep(
            converted_mlp, PhaseCoder(num_steps=32), mnist_split.test.x[:8],
            noise=NoiseInjector.from_levels(jitter_sigma=1.0), rng=0,
        )
        assert result.num_samples == 8
        assert encodes

    @staticmethod
    def _forbid_classes(monkeypatch):
        """Make every class-path step fail; return the list of dense encodes."""

        def boom(self, *args, **kwargs):
            raise AssertionError("time-dependent evaluation took the class path")

        for cls in (NeuralCoder, PeriodicCoder, RateCoder):
            monkeypatch.setattr(cls, "jitter_classes", boom)
        monkeypatch.setattr(NeuralCoder, "decode_classes", boom)
        monkeypatch.setattr(PeriodicCoder, "decode_classes", boom)
        encodes = []
        for cls in (PeriodicCoder, RateCoder):
            def spy(self, values, rng=None, _encode=cls.encode):
                encodes.append(self.name)
                return _encode(self, values, rng=rng)

            monkeypatch.setattr(cls, "encode", spy)
        return encodes


class RecordingInjector(NoiseInjector):
    """A noise injector that logs every train it corrupts."""

    def __init__(self, models):
        super().__init__(models)
        self.log = []

    def apply(self, train, rng=None):
        noisy = super().apply(train, rng=rng)
        self.log.append((train, noisy))
        return noisy


class TestEvaluatorClassJitter:
    """Clip jitter through the evaluator: exact properties, no statistics."""

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_rate_is_flat_under_jitter(self, converted_mlp, mnist_split, sigma):
        # Fig. 3's claim as a bit-for-bit check: clip jitter keeps every
        # spike and rate decode ignores spike steps.
        x, y = mnist_split.test.x[:32], mnist_split.test.y[:32]
        coder = RateCoder(num_steps=32)

        def run(noise):
            return simulator(converted_mlp, coder, noise).evaluate(
                x, y, rng=0, keep_logits=True
            )

        clean = run(NoiseInjector.from_levels())
        jittered = run(NoiseInjector.from_levels(jitter_sigma=sigma))
        assert np.array_equal(jittered.logits, clean.logits)
        assert jittered.spikes_per_interface == clean.spikes_per_interface

    @pytest.mark.parametrize(
        "coder", [PhaseCoder(num_steps=32), BurstCoder(num_steps=32)], ids=lambda c: c.name
    )
    def test_phase_and_burst_keep_every_interface_total(
        self, converted_mlp, mnist_split, coder
    ):
        x = mnist_split.test.x[:16]
        noise = RecordingInjector([JitterNoise(2.0)])
        _, spikes = simulator(converted_mlp, coder, noise).forward(x, rng=0)
        assert len(noise.log) == len(spikes)
        for index, (clean, jittered) in enumerate(noise.log):
            assert isinstance(clean, ClassCounts)
            assert jittered.num_steps == coder.period
            assert jittered.total_spikes() == clean.total_spikes() == spikes[index]
        _, clean_spikes = simulator(converted_mlp, coder).forward(x, rng=0)
        assert spikes[0] == clean_spikes[0]
