"""Core neural-network layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, training=False)`` caches whatever the backward pass needs and
  returns the layer output,
* ``backward(grad_output)`` returns the gradient with respect to the layer
  input and fills ``layer.grads`` for parameters,
* ``params`` / ``grads`` are dictionaries keyed by parameter name.

The convolution uses an im2col formulation: patches are unfolded into a
matrix so the convolution becomes a single matrix multiplication, which is
the only way to get acceptable throughput from pure numpy.

Patches are extracted zero-copy with
``numpy.lib.stride_tricks.sliding_window_view`` and packed in one vectorised
copy for a single GEMM.  :class:`Conv2D` uses a fused channels-last
formulation whose pack is several times cheaper than the channels-first
layout (measured ~5x faster end to end at VGG-ish shapes).  The naive
per-kernel-offset reference these paths are tested against lives in the
test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.initializers import he_normal, zeros_init
from repro.utils.rng import RngLike, default_rng
from repro.utils.validation import check_positive, check_probability


class Layer:
    """Base class for all layers."""

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    # -- interface ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------
    @property
    def has_params(self) -> bool:
        """True when the layer owns trainable parameters."""
        return bool(self.params)

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def num_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class Identity(Layer):
    """Pass-through layer, useful as a placeholder in model surgery."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features / out_features:
        Input and output dimensionality.
    use_bias:
        Include an additive bias term (default True).
    rng:
        Seed or generator for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        rng: RngLike = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.params["weight"] = he_normal((self.in_features, self.out_features), rng)
        if self.use_bias:
            self.params["bias"] = zeros_init((self.out_features,))
        self.zero_grads()
        self._cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected input of shape (N, {self.in_features}), "
                f"got {x.shape}"
            )
        self._cache_x = x if training else None
        out = x @ self.params["weight"]
        if self.use_bias:
            out = out + self.params["bias"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        x = self._cache_x
        self.grads["weight"] = x.T @ grad_output
        if self.use_bias:
            self.grads["bias"] = grad_output.sum(axis=0)
        return grad_output @ self.params["weight"].T


class ReLU(Layer):
    """Rectified linear unit.  The only activation used by the conversion path."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        return grad_output * self._mask


class Flatten(Layer):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return grad_output.reshape(self._input_shape)


class Dropout(Layer):
    """Inverted dropout.

    During training each unit is zeroed with probability ``p`` and survivors
    are scaled by ``1/(1-p)``; at inference the layer is the identity.  The
    paper points out that dropout during DNN training is what makes TTFS
    coding tolerate all-or-none activation loss, so this layer matters for
    reproducing Fig. 2.
    """

    def __init__(self, p: float = 0.5, rng: RngLike = None, name: Optional[str] = None):
        super().__init__(name=name)
        check_probability("p", p)
        if p >= 1.0:
            raise ValueError("dropout probability must be < 1")
        self.p = float(p)
        self._rng = default_rng(rng)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        self._mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


# ---------------------------------------------------------------------------
# Convolution / pooling (im2col formulation)
# ---------------------------------------------------------------------------

def _unfold_geometry(
    h: int, w: int, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[int, int]:
    """Validate an unfold configuration and return ``(out_h, out_w)``."""
    check_positive("kernel_h", kernel_h)
    check_positive("kernel_w", kernel_w)
    check_positive("stride", stride)
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel_h}x{kernel_w} with stride {stride} and padding "
            f"{padding} does not fit input of spatial size {h}x{w}"
        )
    return out_h, out_w


def _check_fold_geometry(kernel_h: int, kernel_w: int, stride: int) -> None:
    """Reject fold configurations outside the supported overlap structure."""
    if stride > kernel_h or stride > kernel_w:
        raise ValueError(
            f"col2im does not support stride ({stride}) larger than the kernel "
            f"({kernel_h}x{kernel_w}): patches would not tile the input and the "
            "fold-back would silently drop the uncovered pixels' gradients"
        )


def _pad_image(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(
        x, [(0, 0), (0, 0), (padding, padding), (padding, padding)], mode="constant"
    )


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold image patches into a 2-D matrix.

    Returns ``(columns, out_h, out_w)`` where ``columns`` has shape
    ``(N * out_h * out_w, C * kernel_h * kernel_w)``; columns are ordered
    ``(channel, ky, kx)``.  A zero-copy window view plus one vectorised
    pack: no intermediate 6-D buffer is materialised, and the final
    ``reshape`` is the single gather the GEMM needs.
    """
    n, c, h, w = x.shape
    out_h, out_w = _unfold_geometry(h, w, kernel_h, kernel_w, stride, padding)
    img = _pad_image(x, padding)
    windows = sliding_window_view(img, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    # (n, c, out_h, out_w, kh, kw) view -> one pack copy into GEMM layout.
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, -1)
    return columns, out_h, out_w


def col2im(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: fold columns back into an image tensor.

    Overlapping patch contributions are summed (the adjoint of the unfold,
    i.e. the gradient fold-back).  Raises ``ValueError`` when the stride
    exceeds the kernel size: such configurations leave input pixels uncovered
    and are not supported.  Only ``kernel_h * kernel_w`` strided scatter-adds
    are issued (each fully vectorised over ``(N, C, out_h, out_w)``), into
    an exact-size buffer.
    """
    n, c, h, w = input_shape
    out_h, out_w = _unfold_geometry(h, w, kernel_h, kernel_w, stride, padding)
    _check_fold_geometry(kernel_h, kernel_w, stride)
    col = columns.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    img = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=columns.dtype)
    for ky in range(kernel_h):
        ys = slice(ky, ky + stride * (out_h - 1) + 1, stride)
        for kx in range(kernel_w):
            xs = slice(kx, kx + stride * (out_w - 1) + 1, stride)
            img[:, :, ys, xs] += col[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
    if padding == 0:
        return img
    return img[:, :, padding:h + padding, padding:w + padding]


def _col2im_nhwc(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold ``(rows, kh*kw*C)`` channels-last columns back to an NCHW image.

    Companion of the fused channels-last :class:`Conv2D` forward, whose
    columns carry the ``(ky, kx, channel)`` ordering: every scatter-add
    moves contiguous ``C``-pixel runs, which is what makes the backward
    cheap.
    """
    n, c, h, w = input_shape
    out_h, out_w = _unfold_geometry(h, w, kernel_h, kernel_w, stride, padding)
    _check_fold_geometry(kernel_h, kernel_w, stride)
    col = columns.reshape(n, out_h, out_w, kernel_h, kernel_w, c)
    img = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=columns.dtype)
    for ky in range(kernel_h):
        ys = slice(ky, ky + stride * (out_h - 1) + 1, stride)
        for kx in range(kernel_w):
            xs = slice(kx, kx + stride * (out_w - 1) + 1, stride)
            img[:, ys, xs, :] += col[:, :, :, ky, kx, :]
    if padding:
        img = img[:, padding:h + padding, padding:w + padding, :]
    return np.ascontiguousarray(img.transpose(0, 3, 1, 2))


class Conv2D(Layer):
    """2-D convolution (cross-correlation) over ``(N, C, H, W)`` inputs.

    The forward pass uses a fused channels-last formulation: the padded
    input is transposed to NHWC once, patches are gathered through a
    zero-copy ``sliding_window_view`` (packing contiguous ``kernel*kernel*C``
    pixel runs instead of scattered 4-byte reads), and a single GEMM against
    the matching ``(k*k*C, out)`` weight matrix produces the output.

    Parameters
    ----------
    in_channels / out_channels:
        Channel counts.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Standard convolution hyper-parameters.
    use_bias:
        Include a per-output-channel bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        use_bias: bool = True,
        rng: RngLike = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        check_positive("kernel_size", kernel_size)
        check_positive("stride", stride)
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.use_bias = bool(use_bias)
        weight_shape = (
            self.out_channels, self.in_channels, self.kernel_size, self.kernel_size
        )
        self.params["weight"] = he_normal(weight_shape, rng)
        if self.use_bias:
            self.params["bias"] = zeros_init((self.out_channels,))
        self.zero_grads()
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Spatial output shape for a single-image input shape ``(C, H, W)``."""
        _, h, w = input_shape
        out_h = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        return (self.out_channels, out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k, stride, padding = self.kernel_size, self.stride, self.padding
        out_h, out_w = _unfold_geometry(h, w, k, k, stride, padding)
        # Pad and transpose to NHWC in a single copy.
        img = np.zeros(
            (n, h + 2 * padding, w + 2 * padding, self.in_channels), dtype=x.dtype
        )
        img[:, padding:h + padding, padding:w + padding, :] = x.transpose(0, 2, 3, 1)
        windows = sliding_window_view(img, (k, k), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]
        # (n, out_h, out_w, c, ky, kx) view -> (rows, ky*kx*c) pack whose inner
        # dimension is a contiguous run of C pixels per kernel offset.
        columns = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * out_h * out_w, -1)
        weight_matrix = self.params["weight"].transpose(2, 3, 1, 0).reshape(
            -1, self.out_channels
        )
        out = columns @ weight_matrix
        if self.use_bias:
            out += self.params["bias"]
        out = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (columns, x.shape) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        columns, input_shape = self._cache
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        if self.use_bias:
            self.grads["bias"] = grad_matrix.sum(axis=0)
        k = self.kernel_size
        # Columns (and therefore gradients) live in the fused channels-last
        # (ky, kx, c) layout.
        weight_matrix = self.params["weight"].transpose(2, 3, 1, 0).reshape(
            -1, self.out_channels
        )
        self.grads["weight"] = (
            (columns.T @ grad_matrix)
            .reshape(k, k, self.in_channels, self.out_channels)
            .transpose(3, 2, 0, 1)
            .copy()
        )
        grad_columns = grad_matrix @ weight_matrix.T
        return _col2im_nhwc(
            grad_columns, input_shape, k, k, self.stride, self.padding
        )


def _pairwise_sum(terms: List[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equally shaped ``terms`` in NumPy's pairwise order.

    ``np.add.reduce`` over a contiguous axis of ``n`` elements adds them left
    to right below 8 terms; from 8 terms it keeps 8 running sums, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, plus a left-to-right tail.
    Following that order reproduces the reduction bit for bit without
    stacking the terms (up to 128 terms, an 11x11 window: NumPy splits
    longer axes in halves first).  The terms are never written to; the
    result is a fresh array.
    """
    n = len(terms)
    if n < 8:
        total = np.add(terms[0], terms[1]) if n > 1 else terms[0].copy()
        tail = terms[2:]
    else:
        block = n - n % 8
        partial = list(terms[:8])
        for start in range(8, block, 8):
            partial = [np.add(p, t) for p, t in zip(partial, terms[start:start + 8])]
        r0, r1, r2, r3, r4, r5, r6, r7 = partial
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        tail = terms[block:]
    for term in tail:
        total += term
    return total


class _Pool2D(Layer):
    """Shared plumbing for max and average pooling."""

    def __init__(
        self,
        pool_size: int = 2,
        stride: Optional[int] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        check_positive("pool_size", pool_size)
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        check_positive("stride", self.stride)
        self._cache: Optional[Tuple] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Spatial output shape for a single-image input shape ``(C, H, W)``."""
        c, h, w = input_shape
        out_h = (h - self.pool_size) // self.stride + 1
        out_w = (w - self.pool_size) // self.stride + 1
        return (c, out_h, out_w)

    def _fit(self, h: int, w: int) -> Tuple[int, int]:
        """``(out_h, out_w)`` of an ``h x w`` map; refuses a pool that does not fit."""
        out_h = (h - self.pool_size) // self.stride + 1
        out_w = (w - self.pool_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"{self.name}: pool size {self.pool_size} does not fit input {h}x{w}"
            )
        return out_h, out_w


class MaxPool2D(_Pool2D):
    """Max pooling.  Used by standard VGG; note that DNN-to-SNN conversion
    pipelines usually prefer average pooling (see :func:`repro.nn.vgg.build_vgg`)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        out_h, out_w = self._fit(h, w)
        columns, _, _ = im2col(x, self.pool_size, self.pool_size, self.stride, 0)
        # columns: (N*out_h*out_w, C*k*k) -> (N*out_h*out_w, C, k*k)
        columns = columns.reshape(-1, c, self.pool_size * self.pool_size)
        max_idx = columns.argmax(axis=2)
        out = columns.max(axis=2)
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        self._cache = (max_idx, x.shape, out_h, out_w) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        max_idx, input_shape, out_h, out_w = self._cache
        n, c, _, _ = input_shape
        k2 = self.pool_size * self.pool_size
        grad = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        grad_cols = np.zeros((grad.shape[0], c, k2), dtype=grad_output.dtype)
        rows = np.arange(grad.shape[0])[:, None]
        cols = np.arange(c)[None, :]
        grad_cols[rows, cols, max_idx] = grad
        grad_cols = grad_cols.reshape(grad.shape[0], c * k2)
        return col2im(
            grad_cols, input_shape, self.pool_size, self.pool_size, self.stride, 0
        )


class AvgPool2D(_Pool2D):
    """Average pooling -- the pooling used by the conversion-friendly VGG variants.

    The forward pass sums the ``k*k`` strided views ``x[:, :, ky::s, kx::s]``
    (no patch matrix) in NumPy's pairwise order, then divides by ``k*k``:
    bit for bit the mean over an unfolded ``k*k`` axis.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        _, _, h, w = x.shape
        out_h, out_w = self._fit(h, w)
        k, s = self.pool_size, self.stride
        out = _pairwise_sum([
            x[:, :, ky:ky + s * (out_h - 1) + 1:s, kx:kx + s * (out_w - 1) + 1:s]
            for ky in range(k)
            for kx in range(k)
        ])
        out /= k * k
        self._cache = (x.shape, out_h, out_w) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward(training=True)")
        input_shape, out_h, out_w = self._cache
        n, c, _, _ = input_shape
        k2 = self.pool_size * self.pool_size
        grad = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        grad_cols = np.repeat(grad[:, :, None] / k2, k2, axis=2)
        grad_cols = grad_cols.reshape(grad.shape[0], c * k2)
        return col2im(
            grad_cols, input_shape, self.pool_size, self.pool_size, self.stride, 0
        )
