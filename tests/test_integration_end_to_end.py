"""End-to-end integration tests covering the paper's qualitative claims.

These tests run the full pipeline (synthetic data -> trained DNN ->
conversion -> coding -> noise -> evaluation) at a reduced scale and assert
the *shape* of the paper's findings rather than absolute numbers:

1. conversion preserves clean accuracy for every coding scheme,
2. deletion degrades accuracy; expected activation shrinks to (1-p)A,
3. weight scaling restores deletion robustness, least for TTFS,
4. TTAS+WS is at least as deletion-robust as TTFS+WS,
5. rate coding ignores jitter, temporal codes do not, TTAS(t_a) recovers
   robustness over TTFS as t_a grows,
6. temporal codes use far fewer spikes than rate coding.
"""

import pytest

from repro.core import NoiseRobustSNN
from repro.experiments.config import TEST_SCALE, MethodSpec, SweepConfig
from repro.experiments.runner import run_sweep
from repro.experiments.workloads import prepare_workload


@pytest.fixture(scope="module")
def mlp_pipelines(converted_mlp):
    """One pipeline per coding scheme, all sharing the trained MLP conversion."""
    def build(coding, weight_scaling=False, **kwargs):
        num_steps = 16 if coding in ("ttfs", "ttas") else 32
        return NoiseRobustSNN(converted_mlp, coding=coding, num_steps=num_steps,
                              weight_scaling=weight_scaling, coder_kwargs=kwargs)

    return build


@pytest.fixture(scope="module")
def eval_slice(mnist_split):
    return mnist_split.test.x[:80], mnist_split.test.y[:80]


class TestCleanConversion:
    @pytest.mark.parametrize("coding", ["rate", "phase", "burst", "ttfs", "ttas"])
    def test_clean_snn_accuracy_close_to_dnn(self, mlp_pipelines, eval_slice, coding):
        x, y = eval_slice
        pipeline = mlp_pipelines(coding)
        result = pipeline.evaluate(x, y, rng=0)
        analog = pipeline.network.analog_accuracy(x, y)
        assert result.accuracy >= analog - 0.15


class TestDeletionClaims:
    def test_deletion_degrades_every_coding(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        for coding in ("rate", "ttfs"):
            pipeline = mlp_pipelines(coding)
            clean = pipeline.evaluate(x, y, rng=0).accuracy
            noisy = pipeline.evaluate(x, y, deletion=0.8, rng=0).accuracy
            assert noisy <= clean

    def test_weight_scaling_helps_rate_coding(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        plain = mlp_pipelines("rate").evaluate(x, y, deletion=0.7, rng=0).accuracy
        scaled = mlp_pipelines("rate", weight_scaling=True).evaluate(
            x, y, deletion=0.7, rng=0
        ).accuracy
        assert scaled >= plain

    def test_ttas_ws_at_least_as_robust_as_ttfs_ws(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        ttfs = mlp_pipelines("ttfs", weight_scaling=True).evaluate(
            x, y, deletion=0.6, rng=0
        ).accuracy
        ttas = mlp_pipelines("ttas", weight_scaling=True, target_duration=5).evaluate(
            x, y, deletion=0.6, rng=0
        ).accuracy
        assert ttas >= ttfs - 0.02

    def test_ws_improvement_smaller_for_ttfs_than_rate(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        gains = {}
        for coding in ("rate", "ttfs"):
            plain = mlp_pipelines(coding).evaluate(x, y, deletion=0.7, rng=0).accuracy
            scaled = mlp_pipelines(coding, weight_scaling=True).evaluate(
                x, y, deletion=0.7, rng=0
            ).accuracy
            gains[coding] = scaled - plain
        assert gains["ttfs"] <= gains["rate"] + 0.05


class TestJitterClaims:
    def test_rate_coding_ignores_jitter(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        pipeline = mlp_pipelines("rate")
        clean = pipeline.evaluate(x, y, rng=0).accuracy
        noisy = pipeline.evaluate(x, y, jitter=3.0, rng=0).accuracy
        assert abs(clean - noisy) <= 0.05

    def test_ttas_recovers_jitter_robustness_over_ttfs(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        ttfs = mlp_pipelines("ttfs").evaluate(x, y, jitter=3.0, rng=0).accuracy
        ttas = mlp_pipelines("ttas", target_duration=10).evaluate(
            x, y, jitter=3.0, rng=0
        ).accuracy
        assert ttas >= ttfs - 0.02


class TestEfficiencyClaims:
    def test_spike_count_ordering(self, mlp_pipelines, eval_slice):
        x, y = eval_slice
        spikes = {
            coding: mlp_pipelines(coding).evaluate(x[:32], y[:32], rng=0).spikes_per_sample
            for coding in ("rate", "phase", "burst", "ttfs", "ttas")
        }
        # TTFS uses the fewest spikes; TTAS a small multiple of TTFS;
        # all temporal-first codes use far fewer spikes than rate/phase.
        assert spikes["ttfs"] == min(spikes.values())
        assert spikes["ttas"] <= 12 * spikes["ttfs"]
        assert spikes["ttfs"] * 3 < spikes["rate"]
        assert spikes["burst"] < spikes["phase"]


class TestConvSweepEndToEnd:
    def test_full_sweep_on_tiny_cnn(self):
        """Exercise the whole harness (data, training, conversion, sweep) at test scale."""
        workload = prepare_workload("cifar10", scale=TEST_SCALE, seed=0)
        config = SweepConfig(
            dataset="cifar10",
            methods=(MethodSpec(coding="rate", weight_scaling=True),
                     MethodSpec(coding="ttas", weight_scaling=True, target_duration=3)),
            noise_kind="deletion",
            levels=(0.0, 0.5),
            scale=TEST_SCALE,
            seed=0,
        )
        result = run_sweep(config, workload=workload, eval_size=16)
        assert len(result.curves) == 2
        for curve in result.curves:
            assert all(0.0 <= acc <= 1.0 for acc in curve.accuracies)
            assert curve.spike_counts[0] > 0
