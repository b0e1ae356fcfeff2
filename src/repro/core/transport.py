"""Activation-transport evaluation of converted SNNs under spike noise.

The evaluator walks the converted network segment by segment.  At every
spiking interface the (non-negative) activations are

1. normalised by the interface's calibration scale,
2. encoded into spike trains by the chosen coder,
3. corrupted by the noise model -- transmission noise (deletion, jitter)
   and/or hardware faults (dead neurons, stuck-at-firing, burst errors;
   :mod:`repro.noise.faults`) -- every model drawing from its own RNG
   stream derived per interface,
4. decoded back into post-synaptic current,
5. multiplied by the weight-scaling factor ``C``,
6. pushed through the next analog segment.

This models precisely the quantity the paper reasons about -- the activation
``A`` carried by spike trains and its noisy counterpart ``A'`` -- while
staying fast enough to sweep whole figures on one CPU core.  Its fidelity
against the step-by-step membrane simulation is checked in
``tests/test_snn_simulator_timestep.py``.

Window-filling codes take a *class path*.  Decoding is ``sum_t w_t * c_t``,
and deletion and dead-neuron faults act on each spike or neuron without
looking at its step.  So when the coder has a class encoding (rate: one
class; phase: one per oscillator phase; burst: one per burst slot), no
input train is injected and the noise
:attr:`~repro.noise.base.SpikeNoise.acts_on_classes`, steps 2-4 run on a
``(K, batch, ...)`` train of per-class spike counts instead of the
``(T, batch, ...)`` grid: O(K*N) instead of O(T*N) work and memory.  The
train goes through the same ``noise.apply``: a dead-neuron mask is drawn
over the feature axes exactly as for the time grid, and deletion thins each
class count binomially.  Jitter qualifies when it comes first,
on the coder's clean encoding, whose spike steps are known
(:meth:`~repro.coding.base.NeuralCoder.jitter_classes`): rate returns the
counts unchanged and draws nothing, since clipping keeps every spike and
its decode ignores the step; phase and burst draw each spike's landing
class ``clip(step + rint(N(0, sigma)), 0, T - 1) mod period`` with one
uniform from a per-step CDF, into ``period`` class rows.  Every decoded
activation and spike count keeps its distribution, not its realisation:
the class path derives no encode stream, so its noise streams are not the
time-resolved path's.  Without noise the class path is bit-identical to
the time-resolved one for phase, for burst at its default ratio 0.5 and
for rate at power-of-two windows, where every decode term is exact;
otherwise the decode differs in the last float32 bits (e.g. rate's
``n * float32(1/T)`` against the float32 sum of ``T`` terms).

These cases keep the time-resolved path, on the representation the coder's
``encode`` returns (dense for rate/phase/burst, events for TTFS/TTAS):

* deletion before jitter -- ``NoiseRobustSNN.evaluate`` with both
  ``deletion`` and ``jitter`` set (``repro evaluate --deletion p
  --jitter s``), since a thinned class count no longer says which periods
  its survivors sit in;
* burst errors and stuck-at-fire -- the ``fault-burst``/``fault-stuck``
  figures and the ``table3-burst``/``table3-stuck`` tables;
* injected trains -- the attack engine (:mod:`repro.execution.attack`),
  whose scorer and transfer evaluation pass ``input_train``;
* the faithful simulator's input noise --
  :func:`repro.core.timestep.evaluate_timestep` (``--simulator timestep``),
  which runs neurons over real steps.

Both simulators sit behind one contract, :class:`BatchEvaluator`:
``forward(x, rng, input_train=None) -> (logits, spikes_per_interface)``
runs one batch on the generator it is handed, and the shared
:meth:`BatchEvaluator.evaluate` loop derives each batch's generator from
its absolute sample offset and sums accuracy and spike counts.
:class:`ActivationTransportSimulator` is this module's implementation and
:class:`repro.core.timestep.TimestepEvaluator` the faithful one;
:func:`repro.core.pipeline.make_evaluator` is the one place that picks
between them by name.  :func:`evaluate_transport` constructs and evaluates
in one pure call -- everything passed explicitly, nothing closure-captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.coding.base import NeuralCoder
from repro.conversion.converter import ConvertedSNN
from repro.core.weight_scaling import WeightScaling
from repro.noise.base import SpikeNoise
from repro.snn.spikes import SpikeTrain
from repro.utils.rng import RngLike, default_rng, derive_rng, derive_rng_at, stream_root
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class TransportResult:
    """Outcome of a transport evaluation.

    Attributes
    ----------
    accuracy:
        Top-1 accuracy over the evaluated samples (nan when no labels given).
    total_spikes:
        Number of spikes observed at all spiking interfaces, after noise --
        the quantity plotted on the right axes of Figs. 2 and 3.
    spikes_per_interface:
        Spike counts keyed by interface index (0 = input encoding).
    num_samples:
        Number of evaluated samples.
    logits:
        Raw output scores (kept only when ``keep_logits`` was requested).
    """

    accuracy: float
    total_spikes: int
    spikes_per_interface: Dict[int, int] = field(default_factory=dict)
    num_samples: int = 0
    logits: Optional[np.ndarray] = None

    @property
    def spikes_per_sample(self) -> float:
        """Average number of spikes used to classify one sample."""
        if self.num_samples == 0:
            return 0.0
        return self.total_spikes / self.num_samples


class BatchEvaluator:
    """The evaluator contract both simulators share, and its one batch loop.

    A subclass implements :meth:`forward` -- one batch in, ``(logits,
    spikes_per_interface)`` out -- drawing every random choice from the
    generator it is handed; :meth:`evaluate` derives that generator per
    batch and accumulates accuracy and spike counts.  The two subclasses are
    :class:`ActivationTransportSimulator` and the faithful
    :class:`~repro.core.timestep.TimestepEvaluator`;
    :func:`repro.core.pipeline.make_evaluator` picks one by simulator name.

    Parameters
    ----------
    network:
        The converted network (segments + activation scales).
    coder:
        Neural coder used at every spiking interface.
    noise:
        Optional spike-train noise model.
    weight_scaling:
        Optional weight-scaling policy; its factor is computed from
        ``expected_deletion`` (the deployment-time estimate of the deletion
        probability, normally set equal to the actual noise level as in the
        paper).
    expected_deletion:
        Deletion probability the weight scaling should compensate for.
    """

    def __init__(
        self,
        network: ConvertedSNN,
        coder: NeuralCoder,
        noise: Optional[SpikeNoise] = None,
        weight_scaling: Optional[WeightScaling] = None,
        expected_deletion: float = 0.0,
    ):
        self.network = network
        self.coder = coder
        self.noise = noise
        self.weight_scaling = weight_scaling or WeightScaling.disabled()
        self.expected_deletion = float(expected_deletion)

    @property
    def scale_factor(self) -> float:
        """Weight-scaling factor ``C`` in effect for this evaluator."""
        return self.weight_scaling.factor(self.expected_deletion)

    @staticmethod
    def _check_batch(
        x: Optional[np.ndarray], input_train: Optional[SpikeTrain]
    ) -> Optional[np.ndarray]:
        """``x`` as float32; refuses a batch with no input or negative values."""
        if x is None:
            if input_train is None:
                raise ValueError("forward needs either x or input_train")
            return None
        x = np.asarray(x, dtype=np.float32)
        if np.any(x < 0):
            raise ValueError(
                "spiking simulation requires non-negative inputs "
                "(images in [0, 1]); got negative values"
            )
        return x

    def forward(
        self,
        x: Optional[np.ndarray],
        rng: RngLike = None,
        input_train: Optional[SpikeTrain] = None,
    ) -> "tuple[np.ndarray, Dict[int, int]]":
        """Run one batch; returns ``(logits, spikes_per_interface)``.

        When ``input_train`` is given it is used verbatim as the interface-0
        spike train (no encode and no input noise) and ``x`` may be
        ``None``: the injection point of the adversarial attack engine,
        shared by both simulators so an attack found on one transfers
        unchanged to the other.
        """
        raise NotImplementedError

    # -- evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        x: np.ndarray,
        labels: Optional[np.ndarray] = None,
        batch_size: int = 16,
        rng: RngLike = None,
        keep_logits: bool = False,
        sample_offset: int = 0,
    ) -> TransportResult:
        """Evaluate accuracy and spike counts over a dataset slice.

        Every batch draws its noise from a stream derived statelessly from
        ``(rng's first draw, "batch", sample_offset + batch start)`` -- the
        batch's *absolute* position in the full evaluation, not its position
        in this call.  A shard covering samples ``[s0, s1)`` of a larger
        evaluation therefore reproduces bit-identical per-batch noise by
        passing ``sample_offset=s0``, provided ``s0`` is a multiple of
        ``batch_size`` so the batch boundaries line up with the unsharded
        run's.
        """
        check_positive("batch_size", batch_size)
        check_non_negative("sample_offset", sample_offset)
        x = np.asarray(x, dtype=np.float32)
        labels = None if labels is None else np.asarray(labels)
        root = stream_root(rng)
        batch_size = int(batch_size)
        sample_offset = int(sample_offset)

        correct = 0
        total_spikes: Dict[int, int] = {}
        all_logits: List[np.ndarray] = []
        num_samples = int(x.shape[0])
        for start in range(0, num_samples, batch_size):
            stop = start + batch_size
            batch = x[start:stop]
            logits, spikes = self.forward(
                batch, rng=derive_rng_at(root, "batch", sample_offset + start)
            )
            if labels is not None:
                correct += int((logits.argmax(axis=1) == labels[start:stop]).sum())
            for key, value in spikes.items():
                total_spikes[key] = total_spikes.get(key, 0) + value
            if keep_logits:
                all_logits.append(logits)

        accuracy = correct / num_samples if labels is not None and num_samples else float("nan")
        return TransportResult(
            accuracy=accuracy,
            total_spikes=int(sum(total_spikes.values())),
            spikes_per_interface=total_spikes,
            num_samples=num_samples,
            logits=np.concatenate(all_logits, axis=0) if all_logits else None,
        )



class ActivationTransportSimulator(BatchEvaluator):
    """Fast evaluator of a converted SNN under a coder + noise model.

    The noise model corrupts every interface train, input included (the
    paper's noise acts on every spike transmission).  Each interface of the
    time-resolved path carries the train the coder's ``encode`` returns;
    for TTFS/TTAS that is an event list, so the encode -> corrupt -> decode
    chain never materialises the dense ``(T, N)`` grid.  An injected
    ``input_train`` (see :meth:`BatchEvaluator.forward`) may use either
    representation.
    """

    def forward(
        self,
        x: Optional[np.ndarray],
        rng: RngLike = None,
        input_train: Optional[SpikeTrain] = None,
    ) -> "tuple[np.ndarray, Dict[int, int]]":
        """Run one batch through the noisy spiking network.

        An injected ``input_train`` replaces the normalise/encode/noise
        chain of the input interface only; deeper interfaces behave as
        usual.  Without it, a coder with a class encoding under noise that
        :attr:`~repro.noise.base.SpikeNoise.acts_on_classes` runs every
        interface on per-class spike counts (the class path of the module
        docstring).

        Returns ``(logits, spikes_per_interface)``.
        """
        x = self._check_batch(x, input_train)
        generator = default_rng(rng)
        factor = self.scale_factor
        spikes_per_interface: Dict[int, int] = {}
        class_path = (
            input_train is None
            and self.coder.has_class_encoding
            and (self.noise is None or self.noise.acts_on_classes)
        )

        activations = x
        scale = self.network.input_scale
        for interface_index, segment in enumerate(self.network.segments):
            if interface_index == 0 and input_train is not None:
                train = input_train
            else:
                normalised = activations / scale
                if class_path:
                    # Class encodings are deterministic: no encode stream.
                    train = self.coder.encode_classes(normalised)
                else:
                    train = self.coder.encode(
                        normalised,
                        rng=derive_rng(generator, "encode", interface_index),
                    )
                if self.noise is not None:
                    train = self.noise.apply(
                        train, rng=derive_rng(generator, "noise", interface_index)
                    )
            spikes_per_interface[interface_index] = train.total_spikes()
            # Decode is the batched per-step (or per-class) weighted sum;
            # the calibration scale and weight-scaling factor fold into
            # one multiply instead of two full-tensor passes.
            decoded = (
                self.coder.decode_classes(train) if class_path
                else self.coder.decode(train)
            )
            psc = decoded * (scale * factor)
            activations = segment.forward(np.asarray(psc, dtype=np.float32))
            if segment.ends_with_spikes:
                scale = segment.activation_scale
        return activations, spikes_per_interface


def evaluate_transport(
    network: ConvertedSNN,
    coder: NeuralCoder,
    x: np.ndarray,
    labels: Optional[np.ndarray] = None,
    noise: Optional[SpikeNoise] = None,
    weight_scaling: Optional[WeightScaling] = None,
    expected_deletion: float = 0.0,
    batch_size: int = 16,
    rng: RngLike = None,
    keep_logits: bool = False,
    sample_offset: int = 0,
) -> TransportResult:
    """Evaluate a converted network under a coder + noise model, purely.

    Constructs an :class:`ActivationTransportSimulator` and runs its batch
    loop: every input is an explicit argument and the return value depends
    on nothing else.
    """
    return ActivationTransportSimulator(
        network, coder, noise, weight_scaling, expected_deletion
    ).evaluate(
        x, labels, batch_size=batch_size, rng=rng, keep_logits=keep_logits,
        sample_offset=sample_offset,
    )
