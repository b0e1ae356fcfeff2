"""repro -- reproduction of "Noise-Robust Deep Spiking Neural Networks with
Temporal Information" (Park, Lee, Yoon -- DAC 2021).

The package is organised as a stack of substrates topped by the paper's
contribution:

* :mod:`repro.data`        -- synthetic stand-ins for MNIST / CIFAR,
* :mod:`repro.nn`          -- numpy DNN training framework (VGG-style nets),
* :mod:`repro.snn`         -- spiking neurons, kernels, spike trains, simulator,
* :mod:`repro.coding`      -- rate / phase / burst / TTFS / TTAS neural coding,
* :mod:`repro.noise`       -- spike deletion and jitter noise models,
* :mod:`repro.conversion`  -- DNN-to-SNN conversion,
* :mod:`repro.core`        -- weight scaling, TTAS pipeline, noise analysis,
* :mod:`repro.metrics`     -- energy proxy, robustness summary, latencies,
* :mod:`repro.experiments` -- figure and table reproduction harness.

Quick start::

    from repro.data import load_dataset
    from repro.nn import build_vgg, train_classifier
    from repro.core import NoiseRobustSNN

    data = load_dataset("cifar10", train_size=800, test_size=200, rng=0)
    model = build_vgg("vgg7", data.image_shape, data.num_classes, rng=0)
    train_classifier(model, data.train, data.test, epochs=5)

    snn = NoiseRobustSNN.from_dnn(model, data.train.x[:128],
                                  coding="ttas", target_duration=5,
                                  num_steps=32, weight_scaling=True)
    result = snn.evaluate(data.test.x, data.test.y, deletion=0.5)
    print(result.accuracy, result.spikes_per_sample)
"""

__version__ = "1.0.0"

from repro.core.pipeline import EvaluationResult, NoiseRobustSNN
from repro.core.weight_scaling import WeightScaling
from repro.coding.registry import create_coder

__all__ = [
    "__version__",
    "NoiseRobustSNN",
    "EvaluationResult",
    "WeightScaling",
    "create_coder",
]
