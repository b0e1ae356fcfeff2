"""Tests for PSC kernels, spiking neuron models and threshold selection."""

import numpy as np
import pytest

from repro.snn.kernels import BurstKernel, ConstantKernel, ExponentialKernel, PhaseKernel
from repro.snn.neurons import (
    IFNeuron,
    IntegrateFireOrBurstNeuron,
    TTFSNeuron,
)
from repro.snn.thresholds import EMPIRICAL_THRESHOLDS, empirical_threshold


class TestKernels:
    def test_constant_kernel(self):
        weights = ConstantKernel(amplitude=0.5).weights(4)
        assert np.allclose(weights, 0.5)

    def test_phase_kernel_periodicity(self):
        kernel = PhaseKernel(period=4)
        weights = kernel.weights(8)
        assert np.allclose(weights[:4], weights[4:])
        assert np.allclose(weights[:4], [0.5, 0.25, 0.125, 0.0625])

    def test_phase_kernel_sums_below_one_per_period(self):
        weights = PhaseKernel(period=8).weights(8)
        assert weights.sum() < 1.0

    def test_burst_kernel_truncates_at_burst_length(self):
        kernel = BurstKernel(period=8, burst_length=3, ratio=0.5)
        weights = kernel.weights(8)
        assert np.allclose(weights[:3], [0.5, 0.25, 0.125])
        # slots beyond the burst keep the smallest weight
        assert np.allclose(weights[3:8], 0.125)

    def test_burst_kernel_validation(self):
        with pytest.raises(ValueError):
            BurstKernel(period=4, burst_length=5)
        with pytest.raises(ValueError):
            BurstKernel(ratio=1.5)

    def test_exponential_kernel_decay(self):
        kernel = ExponentialKernel(tau=2.0)
        weights = kernel.weights(5)
        assert weights[0] == 1.0
        assert np.allclose(weights[1] / weights[0], np.exp(-0.5))
        assert np.all(np.diff(weights) < 0)

    def test_weight_at(self):
        kernel = ExponentialKernel(tau=3.0)
        assert abs(kernel.weights(10)[3] - np.exp(-1.0)) < 1e-12


class TestIFNeuron:
    def test_fires_when_threshold_crossed(self):
        neuron = IFNeuron(threshold=1.0)
        state = neuron.init_state((3,))
        spikes = neuron.step(state, np.array([0.5, 1.0, 1.5]))
        assert np.array_equal(spikes, [0, 1, 1])

    def test_subtract_reset_preserves_residual(self):
        neuron = IFNeuron(threshold=1.0, reset="subtract")
        state = neuron.init_state((1,))
        neuron.step(state, np.array([1.6]))
        assert np.allclose(state.membrane, [0.6])

    def test_zero_reset_clears_membrane(self):
        neuron = IFNeuron(threshold=1.0, reset="zero")
        state = neuron.init_state((1,))
        neuron.step(state, np.array([1.6]))
        assert np.allclose(state.membrane, [0.0])

    def test_rate_proportional_to_input(self):
        neuron = IFNeuron(threshold=1.0)
        state = neuron.init_state((2,))
        totals = np.zeros(2)
        for _ in range(100):
            totals += neuron.step(state, np.array([0.1, 0.3]))
        assert abs(totals[0] - 10) <= 1
        assert abs(totals[1] - 30) <= 1

    def test_invalid_reset(self):
        with pytest.raises(ValueError):
            IFNeuron(reset="decay")

    def test_negative_input_never_fires(self):
        neuron = IFNeuron(threshold=0.5)
        state = neuron.init_state((1,))
        for _ in range(10):
            spikes = neuron.step(state, np.array([-0.2]))
            assert spikes[0] == 0


class TestTTFSNeuron:
    def test_fires_exactly_once(self):
        neuron = TTFSNeuron(threshold=1.0)
        state = neuron.init_state((1,))
        total = sum(neuron.step(state, np.array([0.6]))[0] for _ in range(10))
        assert total == 1

    def test_stronger_input_fires_earlier(self):
        neuron = TTFSNeuron(threshold=1.0)
        state = neuron.init_state((2,))
        first_spike = [None, None]
        for t in range(20):
            spikes = neuron.step(state, np.array([0.15, 0.6]))
            for i in range(2):
                if spikes[i] and first_spike[i] is None:
                    first_spike[i] = t
        assert first_spike[1] < first_spike[0]

    def test_dynamic_threshold_lets_weak_inputs_fire(self):
        neuron = TTFSNeuron(threshold=1.0, tau=3.0)
        state = neuron.init_state((1,))
        fired = False
        for _ in range(30):
            fired = fired or bool(neuron.step(state, np.array([0.02]))[0])
        assert fired

    def test_threshold_at_decays(self):
        neuron = TTFSNeuron(threshold=1.0, tau=5.0)
        assert neuron.threshold_at(0) > neuron.threshold_at(5) > neuron.threshold_at(10)


class TestIFBNeuron:
    def _run(self, target_duration, drive, steps=30):
        neuron = IntegrateFireOrBurstNeuron(threshold=1.0, target_duration=target_duration)
        state = neuron.init_state((1,))
        spike_times = []
        for t in range(steps):
            if neuron.step(state, np.array([drive]))[0]:
                spike_times.append(t)
        return spike_times, state

    def test_burst_length_matches_target_duration(self):
        for duration in (1, 2, 3, 5):
            spike_times, _ = self._run(duration, drive=0.5)
            assert len(spike_times) == duration

    def test_burst_spikes_are_consecutive(self):
        spike_times, _ = self._run(4, drive=0.3)
        assert np.array_equal(np.diff(spike_times), [1, 1, 1])

    def test_first_spike_is_time_to_first_spike(self):
        fast, _ = self._run(3, drive=1.0)
        slow, _ = self._run(3, drive=0.2)
        assert fast[0] < slow[0]

    def test_silent_after_burst(self):
        spike_times, state = self._run(2, drive=2.0, steps=50)
        assert len(spike_times) == 2
        assert bool(state.refractory[0])

    def test_eq4_reset_phases(self):
        # Before the first spike the membrane only integrates (eta = 0);
        # during the burst the threshold is subtracted (eta = theta);
        # afterwards the neuron is silenced (eta = -inf branch).
        neuron = IntegrateFireOrBurstNeuron(threshold=1.0, target_duration=2)
        state = neuron.init_state((1,))
        neuron.step(state, np.array([0.6]))          # integrate, no spike
        assert np.allclose(state.membrane, [0.6])
        spikes = neuron.step(state, np.array([0.6])) # crosses threshold
        assert spikes[0] == 1
        assert np.allclose(state.membrane, [0.2])    # 1.2 - theta
        neuron.step(state, np.array([0.0]))          # second burst spike
        assert bool(state.refractory[0])

    def test_no_input_no_spikes(self):
        spike_times, _ = self._run(3, drive=0.0)
        assert spike_times == []


class TestThresholds:
    def test_empirical_values_match_paper(self):
        assert EMPIRICAL_THRESHOLDS["rate"] == 0.4
        assert EMPIRICAL_THRESHOLDS["burst"] == 0.4
        assert EMPIRICAL_THRESHOLDS["phase"] == 1.2
        assert EMPIRICAL_THRESHOLDS["ttfs"] == 0.8

    def test_lookup(self):
        assert empirical_threshold("RATE") == 0.4
        with pytest.raises(ValueError):
            empirical_threshold("morse")
