"""Naive reference implementations the production engines are tested against.

Each oracle is the plainest correct formulation of its computation, kept
small enough to check by eye:

* :func:`im2col` / :func:`col2im` / :func:`conv2d` / :func:`conv2d_backward`
  -- the channels-first unfold as one strided copy per kernel offset, the
  fold-back into a stride-slack buffer, and the convolution as one GEMM
  over those columns.  Production (:mod:`repro.nn.layers`) packs patches
  through a zero-copy window view and convolves channels-last; folds must
  agree bit for bit, conv outputs to float rounding.
* :func:`avg_pool2d` -- average pooling as ``mean`` over the unfolded
  window axis.  Production (:class:`repro.nn.layers.AvgPool2D`) sums
  strided views in NumPy's pairwise order without unfolding; outputs must
  agree bit for bit.
* :func:`run_stepped` -- the time-outer/layer-inner simulator loop: one
  synaptic transform call per hidden layer per time step from its firing
  window on, and one call on the summed PSC of the steps before it (a
  hidden layer integrates, then fires; the readout only integrates).
  Production (:meth:`repro.snn.simulator.TimeSteppedSimulator.run`) folds
  time into the batch and schedules each layer by its protocol window;
  with the same membrane formula and the same float64 step-order PSC sum,
  spikes, spike counts and readout potentials must agree bit for bit.
* :func:`delete_spikes` / :func:`jitter_spikes` / :func:`events_from_dense`
  -- the dense noise kernels and the dense-to-event conversion over the
  full ``(T, N)`` grid: one binomial per slot, one 2-D ``nonzero``.
  Production (:class:`repro.snn.spikes.SpikeTrainArray`) visits only the
  occupied slots; counts (dtype included) and events must agree bit for
  bit.
* :func:`roundtrip` -- encode then decode with no noise: the clean value a
  coder transmits, which the noise and coding tests measure errors against.
"""

import numpy as np

from repro.snn.simulator import SimulationRecord
from repro.snn.spikes import SpikeEvents, SpikeTrainArray


def im2col(x, kernel_h, kernel_w, stride, padding):
    """Unfold ``(N, C, H, W)`` into ``(N*out_h*out_w, C*kh*kw)`` columns."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel does not fit the input")
    img = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    col = np.zeros((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            col[:, :, ky, kx] = img[:, :, ky:ky + stride * out_h:stride,
                                    kx:kx + stride * out_w:stride]
    columns = col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return columns, out_h, out_w


def col2im(columns, input_shape, kernel_h, kernel_w, stride, padding):
    """Sum columns back into an image (the adjoint of :func:`im2col`)."""
    n, c, h, w = input_shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    if stride > kernel_h or stride > kernel_w:
        raise ValueError("col2im does not support stride larger than the kernel")
    col = columns.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    col = col.transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * padding + stride - 1, w + 2 * padding + stride - 1),
                   dtype=columns.dtype)
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            img[:, :, ky:ky + stride * out_h:stride,
                kx:kx + stride * out_w:stride] += col[:, :, ky, kx]
    return img[:, :, padding:h + padding, padding:w + padding]


def conv2d(layer, x):
    """Forward pass of a :class:`repro.nn.layers.Conv2D` layer's parameters."""
    k = layer.kernel_size
    columns, out_h, out_w = im2col(x, k, k, layer.stride, layer.padding)
    out = columns @ layer.params["weight"].reshape(layer.out_channels, -1).T
    out = out + layer.params["bias"]
    return out.reshape(x.shape[0], out_h, out_w, -1).transpose(0, 3, 1, 2)


def conv2d_backward(layer, x, grad_output):
    """``(grad_input, grad_weight, grad_bias)`` of :func:`conv2d` at ``x``."""
    k = layer.kernel_size
    columns, _, _ = im2col(x, k, k, layer.stride, layer.padding)
    grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
    weight_matrix = layer.params["weight"].reshape(layer.out_channels, -1)
    grad_weight = (grad_matrix.T @ columns).reshape(layer.params["weight"].shape)
    grad_input = col2im(grad_matrix @ weight_matrix, x.shape, k, k,
                        layer.stride, layer.padding)
    return grad_input, grad_weight, grad_matrix.sum(axis=0)


def avg_pool2d(x, pool_size, stride):
    """Average pooling as the mean over each unfolded ``pool_size**2`` window."""
    n, c, _, _ = x.shape
    columns, out_h, out_w = im2col(x, pool_size, pool_size, stride, 0)
    # Made contiguous: for one image the columns above are a strided view,
    # whose mean NumPy sums left to right instead of pairwise.
    columns = np.ascontiguousarray(columns).reshape(-1, c, pool_size * pool_size)
    out = columns.mean(axis=2)
    return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)


def _integrated(layer, psc_sum, steps):
    """The membrane of ``layer`` after ``steps`` steps without a spike:
    ``float64(transform(psc_sum)) + n_b * float64(step_bias)``, with
    ``n_b`` the biased steps among them."""
    membrane = np.asarray(layer.transform(psc_sum), dtype=np.float64)
    if layer.step_bias is not None:
        n_b = steps if layer.bias_stop is None else min(steps, layer.bias_stop)
        if n_b > 0:
            membrane = membrane + n_b * np.asarray(layer.step_bias, dtype=np.float64)
    return membrane


def run_stepped(simulator, input_spikes, record_spikes=False, layer_faults=None):
    """Simulate ``simulator``'s layers one time step at a time.

    A layer integrates, then fires.  The readout never fires, and a hidden
    layer cannot spike before its ``fire_start``.  Until then its PSC rows
    are summed in float64 in step order; at ``fire_start`` (the readout: at
    the end of the window) its membrane is :func:`_integrated` over that
    sum.  Every later step adds ``transform(psc) + step_bias``.
    """
    num_steps = simulator.num_steps
    counts = input_spikes.to_dense().counts
    grid = np.zeros((num_steps,) + counts.shape[1:], dtype=counts.dtype)
    grid[:counts.shape[0]] = counts
    kernels = simulator.layer_kernels
    # Every hidden layer's output shape, from one zero row per transform.
    shapes, shape = [], grid.shape[1:]
    for layer in simulator.layers[:-1]:
        shape = np.shape(layer.transform(np.zeros(shape)))
        shapes.append(shape)
    states, recorded, psc_sums = {}, {}, {}
    spike_counts = {layer.name: 0 for layer in simulator.layers}
    for step in range(num_steps):
        psc = grid[step].astype(np.float64) * kernels[0][step]
        for index, layer in enumerate(simulator.layers):
            start = (num_steps if layer.neuron is None
                     else getattr(layer.neuron, "fire_start", 0))
            if step < start:
                psc_sums[index] = psc_sums.get(index, 0.0) + psc
                if layer.neuron is None:
                    break
                spikes = np.zeros(shapes[index], dtype=np.int16)
            else:
                if index not in states:
                    states[index] = layer.neuron.init_state(shapes[index])
                    if start > 0:
                        states[index].membrane[...] = _integrated(
                            layer, psc_sums[index], start)
                        states[index].step_index = start
                drive = layer.transform(psc)
                if layer.step_bias is not None and (
                    layer.bias_stop is None or step < layer.bias_stop
                ):
                    drive = drive + layer.step_bias
                spikes = layer.neuron.step(states[index], drive)
            fault = (layer_faults or {}).get(layer.name)
            if fault is not None:
                # A one-step window, re-based so the stuck gate sees `step`.
                stop = getattr(layer.neuron, "fire_stop", None)
                spikes = fault.apply_window(
                    spikes[None],
                    getattr(layer.neuron, "fire_start", 0) - step,
                    None if stop is None else stop - step,
                )[0]
            spike_counts[layer.name] += int(spikes.sum())
            if record_spikes:
                recorded.setdefault(layer.name, []).append(spikes.copy())
            psc = spikes.astype(np.float64) * kernels[index + 1][step]
    readout = len(simulator.layers) - 1
    potential = _integrated(simulator.layers[readout], psc_sums[readout], num_steps)
    record = SimulationRecord(potential, spike_counts, num_steps=num_steps)
    record.spike_trains = {
        name: SpikeTrainArray(np.stack(rows), copy=False)
        for name, rows in recorded.items()
    }
    return record


def delete_spikes(counts, probability, rng):
    """Thin a dense count grid with one draw per ``(step, neuron)`` slot."""
    if counts.max(initial=0) <= 1:
        keep = rng.random(counts.shape, dtype=np.float32) >= probability
        return (counts * keep).astype(np.int16)
    return rng.binomial(counts, 1.0 - probability).astype(np.int16)


def jitter_spikes(counts, sigma, rng):
    """Shift every spike of a dense count grid, found by a 2-D ``nonzero``."""
    num_steps = counts.shape[0]
    flat = counts.reshape(num_steps, -1)
    times, neurons = np.nonzero(flat)
    multiplicity = flat[times, neurons].astype(np.int64)
    times = np.repeat(times, multiplicity)
    neurons = np.repeat(neurons, multiplicity)
    shifts = np.rint(rng.normal(0.0, sigma, size=times.shape)).astype(np.int64)
    shifted = np.clip(times + shifts, 0, num_steps - 1)
    num_neurons = flat.shape[1]
    linear = shifted * num_neurons + neurons
    new_flat = np.bincount(linear, minlength=num_steps * num_neurons)
    return new_flat.reshape(counts.shape).astype(np.int16)


def events_from_dense(counts):
    """The event list of a dense count grid, in 2-D ``nonzero`` order."""
    flat = counts.reshape(counts.shape[0], -1)
    times, neurons = np.nonzero(flat)
    return SpikeEvents(
        times, neurons, flat[times, neurons].astype(np.int64),
        counts.shape[0], counts.shape[1:], _canonical=True,
    )


def roundtrip(coder, values, rng=None):
    """Encode then decode with no noise: the coder's pure quantisation error."""
    return coder.decode(coder.encode(values, rng=rng))
