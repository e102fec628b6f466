"""Minimal trainable CNN in NumPy: im2col convolutions, ReLU and 2x2 max
pooling, trained with plain minibatch SGD on softmax cross-entropy.

`Conv2d` is the one trainable layer. It holds its unrolled (fan-in x
outputs) weight matrix, the one that masks, the WCT cutoff and the
crossbar mapping act on, with the channel-major row groups of
`ModelSpec.unrolled_layers`: rows in (channel, window row, window
column) order. A dense layer is the convolution whose window is its
whole input map (Long, Shelhamer and Darrell, "Fully Convolutional
Networks", CVPR 2015), so its rows are in (c, h, w) order; a dense layer
on a flat size f is the 1 x 1 convolution of the (n, 1, 1, f) map.

`Network.forward` takes NCHW images (n, c, h, w), as `Dataset` stores
them, and transposes them once; every layer in between is channels-last
(n, h, w, c). A convolution's output is then its GEMM result reshaped, and
its output gradient reshapes back to the GEMM operand with no copy.

Data movement around the GEMMs is kept to whole slabs. `im2col` writes
each of the kh*kw window offsets' slab of the input into one zeroed
window buffer; the padding is never materialized. The input gradient is
one GEMM by W^T with its columns in (window row, window column, channel)
order, so `col2im` adds kh*kw slabs that are contiguous in the channels.
A ReLU that feeds a max pool runs after the pool, on the 4x smaller map;
see `Network` for why that gives the same numbers.

Two precisions apply. Training runs in float32: a fit casts its live
sub-network's weights (see below) and the training images to float32
once, and every forward, backward, gradient sum and step of the fit is
float32, with WCT's cutoff rounded toward zero to a float32. Everything
else is float64: every `Network` a caller builds or gets back, its
`forward`, `he_normal`, `unrolled_weights`, the full-width projection
that ends a fit, and `evaluate`; `mapping` and `circuit` see only float64
weights. Each trained weight is a float32 value held in float64. The
layer code has one path for both: it computes in the dtype of its input,
and a network in the dtype of its weights.

Results are bit-deterministic given (init seed, data seed, training
seed), whatever the number of CPUs: initialization draws from
one seeded generator in layer order, and batch order comes from the
training seed. A minibatch's gradient is defined as that of its first
ceil(b/2) samples plus that of the rest, added in that order, each half's
softmax gradient divided by the whole batch size b. So the two halves can
run in two processes: where this process may use two CPUs and a fit is
large enough, a forked partner pinned to the second CPU computes every
second half in lockstep (see `_sgd_epochs`), and on one CPU the two halves
run here one after the other, with bitwise the same result. `evaluate`
runs whole batches, each in one process. Every GEMM sees its operands in
one fixed K order (the rows of the weight matrix for the forward and
weight-gradient GEMMs, the output channels for the input-gradient GEMM),
and every scattered sum adds its terms in one fixed order.

Training and evaluation both run the live sub-network: a channel whose
producing column or consuming row group is all zero adds exactly zero to
the logits (the layers have no biases), so it is dropped, and the
surviving rows and columns of every unrolled matrix are gathered into a
narrower `Network`. `train` and `wct_train` read the live channels off
the masks, whatever the pruning method: a channel/filter (C/F) mask
leaves a dense sub-network, an XCS/XRS mask one that still holds the
zeros of its segments, re-applied after every update, less the channels
its segments happen to prune whole. The trained weights are scattered
back to the same indices, and one projection of the full net (clamp,
then mask) gives every other weight what training at full width gives
it: a dropped weight gets no gradient there, so it keeps its value,
clamped under weight-constrained training (WCT), unless a mask zeroes
it. WCT projects weights into [-w_cut, w_cut] after every step, with
w_cut taken over the full-width weights, pruned zeros included.

`evaluate` reads the live channels off the weights instead, so a pruned
net, and the non-ideal copy of one that `inject_nonideal_weights` makes,
evaluates at its live widths with no pattern passed.

Only a training forward (`Network.forward`, and `forward` of a layer)
keeps what backward reads: a convolution its im2col matrix and input
shape, a ReLU its mask, a max pool its argmax index and input shape,
each held until the layer's next forward. `evaluate` runs the same layer
code with none of it kept, so its logits are bitwise the training
forward's while a batch holds one layer's working set at a time; a
backward after such a forward raises rather than read an earlier batch's
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import _parallel
from ._checks import check_int, check_real, is_int

# ---------------------------------------------------------------- specs


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = -1          # -1 means "same-ish": kernel // 2

    def __post_init__(self):
        for name in ("in_ch", "out_ch", "kernel", "stride", "padding"):
            check_int(f"conv {name}", getattr(self, name), -1 if name == "padding" else 1)

    def pad(self) -> int:
        return self.kernel // 2 if self.padding == -1 else self.padding


@dataclass(frozen=True)
class DenseSpec:
    in_features: int
    out_features: int

    def __post_init__(self):
        for name in ("in_features", "out_features"):
            check_int(f"dense {name}", getattr(self, name), 1)


@dataclass(frozen=True)
class ReluSpec:
    pass


@dataclass(frozen=True)
class PoolSpec:
    """2x2 max pooling, stride 2."""


@dataclass(frozen=True)
class UnrolledLayerInfo:
    """Shape facts about one trainable layer's unrolled weight matrix."""

    name: str
    kind: str                  # "conv" | "dense"
    rows: int                  # unrolled fan-in
    cols: int                  # output units
    rows_per_channel: int      # rows per input channel group
    in_channels: int


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple
    input_shape: tuple[int, int, int] = (1, 8, 8)
    init_seed: int = 0

    def __post_init__(self):
        check_int("init_seed", self.init_seed, 0)
        try:
            shape = tuple(self.input_shape)
        except TypeError:
            shape = None
        if (shape is None or len(shape) != 3
                or not all(is_int(size) and size >= 1 for size in shape)):
            raise ValueError(f"input_shape must be three integer sizes (C, H, W) "
                             f">= 1, got {self.input_shape!r}")
        # any sequence, stored as the tuple that shape_walk reads as a map
        object.__setattr__(self, "input_shape", tuple(int(size) for size in shape))
        if not self.unrolled_layers():
            raise ValueError("model needs at least one trainable layer")

    def shape_walk(self):
        """Return [(layer_spec, incoming (C, H, W) or flat size)], checking
        that consecutive shapes compose, that no output is empty and that
        the walk ends at a flat size: the logits of a dense head."""
        shape = self.input_shape
        out = []
        for spec in self.layers:
            out.append((spec, shape))
            if isinstance(spec, (ConvSpec, PoolSpec)) and not isinstance(shape, tuple):
                raise ValueError(f"{spec!r} needs a (C, H, W) input, incoming "
                                 f"is a flat size {shape}")
            if isinstance(spec, ConvSpec):
                if shape[0] != spec.in_ch:
                    raise ValueError(f"conv expects {spec.in_ch} channels, "
                                     f"incoming shape is {shape}")
                c, h, w = shape
                p, k, s = spec.pad(), spec.kernel, spec.stride
                shape = (spec.out_ch, (h + 2 * p - k) // s + 1,
                         (w + 2 * p - k) // s + 1)
            elif isinstance(spec, PoolSpec):
                c, h, w = shape
                shape = (c, h // 2, w // 2)
            elif isinstance(spec, DenseSpec):
                flat = int(np.prod(shape)) if isinstance(shape, tuple) else shape
                if flat != spec.in_features:
                    raise ValueError(f"dense expects {spec.in_features} inputs, "
                                     f"incoming size is {flat}")
                shape = spec.out_features
            elif isinstance(spec, ReluSpec):
                pass
            else:
                raise ValueError(f"unknown layer spec {spec!r}")
            if isinstance(shape, tuple) and min(shape) < 1:
                raise ValueError(f"{spec!r} leaves an empty output shape {shape}")
        if isinstance(shape, tuple):
            raise ValueError(f"model must end in a dense head with a flat output, "
                             f"not the (C, H, W) map {shape}")
        return out

    def unrolled_layers(self) -> list[UnrolledLayerInfo]:
        infos = []
        counts = {"conv": 0, "dense": 0}
        for spec, incoming in self.shape_walk():
            if isinstance(spec, ConvSpec):
                counts["conv"] += 1
                infos.append(UnrolledLayerInfo(
                    name=f"conv{counts['conv']}", kind="conv",
                    rows=spec.in_ch * spec.kernel ** 2, cols=spec.out_ch,
                    rows_per_channel=spec.kernel ** 2, in_channels=spec.in_ch))
            elif isinstance(spec, DenseSpec):
                counts["dense"] += 1
                if isinstance(incoming, tuple):
                    c, h, w = incoming
                    rpc, in_ch = h * w, c
                else:
                    rpc, in_ch = 1, spec.in_features
                infos.append(UnrolledLayerInfo(
                    name=f"dense{counts['dense']}", kind="dense",
                    rows=spec.in_features, cols=spec.out_features,
                    rows_per_channel=rpc, in_channels=in_ch))
        return infos


def reference_model_spec(init_seed: int = 0) -> ModelSpec:
    """Default desk-scale CNN for 8x8 single-channel inputs, 4 classes.

    Channel widths are chosen so the middle layers unroll to matrices much
    larger than a 32x32 crossbar in both dimensions (576x128, 1152x128);
    narrower nets make tile-count ratios degenerate.
    """
    return ModelSpec(
        layers=(
            ConvSpec(1, 64, 3), ReluSpec(), PoolSpec(),
            ConvSpec(64, 128, 3), ReluSpec(), PoolSpec(),
            ConvSpec(128, 128, 3), ReluSpec(),
            DenseSpec(512, 4),
        ),
        input_shape=(1, 8, 8),
        init_seed=init_seed,
    )


def tiny_model_spec(init_seed: int = 0) -> ModelSpec:
    """Two trainable layers; handy for fast tests."""
    return ModelSpec(
        layers=(ConvSpec(1, 8, 3), ReluSpec(), PoolSpec(), DenseSpec(128, 4)),
        input_shape=(1, 8, 8),
        init_seed=init_seed,
    )


# --------------------------------------------------------------- im2col


@lru_cache(maxsize=256)
def _taps(size: int, k: int, stride: int, padding: int):
    """For one axis of an input of length `size` with `padding` zeros on
    each side and a window of length k: the number `out` of window
    positions and, for each window offset r, the slice of the positions o
    whose tap o*stride + r - padding lands inside the input and the slice
    of the input elements those taps read. The taps of the other positions
    read padding. Returns (out, taps), taps a tuple of slice pairs: the
    result is cached, as every `im2col` and `col2im` of a layer asks for
    the same axes."""
    out = (size + 2 * padding - k) // stride + 1
    taps = []
    for r in range(k):
        lo = max(0, -((r - padding) // stride))
        hi = max(lo, min(out, (size - 1 + padding - r) // stride + 1))
        start = lo * stride + r - padding
        taps.append((slice(lo, hi), slice(start, start + stride * (hi - lo), stride)))
    return out, tuple(taps)


def im2col(x: np.ndarray, window, stride: int, padding: int):
    """Unroll the (kh, kw) windows of a channels-last x (n, h, w, c) into a
    (n*ho*wo, c*kh*kw) matrix: one row per output position in (n, ho, wo)
    order, columns in (channel, window row, window column) order, the row
    order of `Conv2d.w`. The matrix is a zeroed (n, ho, wo, c, kh, kw)
    buffer into which each of the kh*kw window offsets copies its slab of
    x, the input elements that offset reads; the taps that fall on the
    padding keep their zeros. Returns (cols, ho, wo)."""
    n, h, w, c = x.shape
    (ho, row_taps), (wo, col_taps) = (_taps(h, window[0], stride, padding),
                                      _taps(w, window[1], stride, padding))
    cols = np.zeros((n, ho, wo, c, *window), dtype=x.dtype)
    for kr, (ro, ri) in enumerate(row_taps):
        for kc, (co, ci) in enumerate(col_taps):
            cols[:, ro, co, :, kr, kc] = x[:, ri, ci]
    return cols.reshape(n * ho * wo, c * window[0] * window[1]), ho, wo


def col2im(dcols: np.ndarray, x_shape, window, stride: int, padding: int) -> np.ndarray:
    """Adjoint of `im2col` for column gradients in (window row, window
    column, channel) order, as `Conv2d.backward` forms them: sum the
    (n*ho*wo, kh*kw*c) gradients back onto the channels-last input shape
    (n, h, w, c). Each window offset adds one slab, contiguous in the
    channels, so each input element receives its window terms in
    (window row, window column) order; the terms that fall on the padding
    are dropped."""
    n, h, w, c = x_shape
    (ho, row_taps), (wo, col_taps) = (_taps(h, window[0], stride, padding),
                                      _taps(w, window[1], stride, padding))
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    d6 = dcols.reshape(n, ho, wo, *window, c)
    for kr, (ro, ri) in enumerate(row_taps):
        for kc, (co, ci) in enumerate(col_taps):
            dx[:, ri, ci] += d6[:, ro, co, kr, kc]
    return dx


# --------------------------------------------------------------- layers


class _Layer:
    """A layer's one forward pass, for training and inference alike:
    `forward` keeps the state that `backward` reads, `_forward(x, False)`
    computes the same output bit for bit and keeps none. Either first
    drops the state of the forward before it, so a `backward` after a
    state-free forward raises instead of reading a stale batch."""

    _state = None

    def forward(self, x):
        """The output for x, keeping the state that `backward` reads."""
        return self._forward(x, True)

    def _kept(self):
        if self._state is None:
            raise RuntimeError(f"{self.kind} backward needs the state of a training "
                               f"forward, and the last forward kept none")
        return self._state


class Conv2d(_Layer):
    """The one trainable layer: the convolution of a channels-last input
    (n, h, w, in_ch) by a (kh, kw) `window` to (n, ho, wo, out_ch) as one
    GEMM, `im2col(x) @ w`. `w` is the C-contiguous (in_ch*kh*kw, out_ch)
    unrolled matrix whose column j is filter j, its rows in (input
    channel, window row, window column) order, the column order of
    `im2col`; `grad_w` is its gradient, `im2col(x).T @ dout`. A dense
    layer is the convolution whose window is its whole input map, with
    stride 1 and no padding. The input gradient is one GEMM by W^T with
    W's rows permuted into (window row, window column, channel) order, so
    that `col2im` adds whole slabs; each of its elements sums the same
    out_ch terms in the same order. A training forward keeps the im2col
    matrix and the input shape."""

    kind = "conv"

    def __init__(self, window, stride: int, padding: int, w: np.ndarray):
        self.window, self.stride, self.padding, self.w = window, stride, padding, w
        self.grad_w = None

    def _forward(self, x, keep):
        self._state = None
        cols, ho, wo = im2col(x, self.window, self.stride, self.padding)
        if keep:
            self._state = cols, x.shape
        return (cols @ self.w).reshape(x.shape[0], ho, wo, self.w.shape[1])

    def grad_weights(self, dout):
        """Set grad_w from the output gradient (n, ho, wo, out_ch)."""
        self.grad_w = self._kept()[0].T @ dout.reshape(-1, self.w.shape[1])

    def backward(self, dout):
        """Set grad_w and return the input gradient (n, h, w, in_ch)."""
        self.grad_weights(dout)
        out_ch = self.w.shape[1]
        w_t = self.w.reshape(-1, *self.window, out_ch).transpose(1, 2, 0, 3)
        dcols = dout.reshape(-1, out_ch) @ w_t.reshape(-1, out_ch).T
        return col2im(dcols, self._kept()[1], self.window, self.stride, self.padding)


class ReLU(_Layer):
    """x * (x > 0); a training forward keeps the mask x > 0."""

    kind = "relu"

    def _forward(self, x, keep):
        self._state = None
        # x * (x > 0), with -inf raised to the lowest finite value first:
        # -inf * 0 is NaN, the lowest value times 0 is -0.0 like any other
        # negative
        mask = x > 0
        out = np.maximum(x, np.finfo(x.dtype).min)
        out *= mask
        if keep:
            self._state = mask
        return out

    def backward(self, dout):
        return dout * self._kept()


def _where_bits(cond, a, b):
    """`np.where(cond, a, b)` for two float arrays of one dtype, bit for
    bit, by integer masking. np.where branches on every element, which
    costs 2-3x more on the data-dependent masks of max pooling."""
    ints = np.dtype(f"i{a.itemsize}")
    ai, bi = a.view(ints), b.view(ints)
    return (bi ^ ((ai ^ bi) & -cond.astype(ints))).view(a.dtype)


class MaxPool2(_Layer):
    """2x2 max pooling, stride 2, over a channels-last (n, h, w, c); an odd
    last row or column is dropped. The window's four entries are strided
    views of x, compared in row-major window order: an entry replaces the
    running maximum only if it is larger or is the window's first NaN, so
    the entry kept is the one `argmax` would pick, and a tie goes to the
    first. A training forward keeps that entry's int8 index and the input
    shape, and backward routes the whole gradient to it and +0.0 to the
    other three."""

    kind = "pool"

    @staticmethod
    def _views(x):
        """The four entries of every window, in row-major window order."""
        h2, w2 = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
        return [x[:, r:h2:2, c:w2:2] for r in (0, 1) for c in (0, 1)]

    def _forward(self, x, keep):
        self._state = None
        best, *rest = self._views(x)
        idx = np.zeros(best.shape, dtype=np.int8) if keep else None
        for j, view in enumerate(rest, start=1):
            # argmax's rule: a larger value or the window's first NaN wins
            upd = ~(view <= best) & (best == best)
            best = _where_bits(upd, view, best)
            if keep:
                idx = np.maximum(idx, upd * np.int8(j))   # j exceeds every earlier index
        if keep:
            self._state = idx, x.shape
        return best

    def backward(self, dout):
        idx, x_shape = self._kept()
        dx = np.zeros(x_shape, dtype=dout.dtype)
        ints = np.dtype(f"i{dout.itemsize}")
        bits = dout.view(ints)
        for j, view in enumerate(self._views(dx)):
            routed = -(idx == j).astype(ints)
            np.bitwise_and(bits, routed, out=view.view(ints))
        return dx


def he_normal(spec: ModelSpec) -> dict[str, np.ndarray]:
    """The He-normal initial weights of `spec` by layer name, drawn in
    layer order from one generator seeded by `spec.init_seed` and scaled
    by sqrt(2 / fan-in). A conv is drawn as its (out_ch, in_ch*k*k) filter
    bank and stored transposed, a dense layer as its (fan-in, outputs)
    matrix."""
    rng = np.random.default_rng(spec.init_seed)
    out = {}
    for info in spec.unrolled_layers():
        conv = info.kind == "conv"
        w = rng.standard_normal((info.cols, info.rows) if conv else (info.rows, info.cols))
        w *= math.sqrt(2.0 / info.rows)
        out[info.name] = w.T if conv else w
    return out


class Network:
    """Layer stack built from a ModelSpec; trainable layers are named
    conv1.., dense1.. in order, and every one is a `Conv2d`: a `DenseSpec`
    on a (c, h, w) map is the (h, w) window over it, one on a flat size f
    the 1 x 1 window over the (n, 1, 1, f) map. Every spec ends in a dense
    head, so the stack ends in an (n, 1, 1, classes) map: `forward` returns
    it as the logits (n, classes), and `backward` takes their gradient.

    The stack follows the spec, except that a ReLU directly before a 2x2
    max pool runs after it, on the 4x smaller pooled map. ReLU
    (`x * (x > 0)`) is monotone and keeps NaN, so on any map without -inf
    the pool keeps the same value from a window with a positive or NaN
    entry, at the same position, and both orders give the same outputs
    and gradients bit for bit. A window whose entries are all <= 0 yields
    a zero and passes a zero gradient in either order; only the sign of
    those zeros, and which entry receives the signed one, can differ, so
    every value stays equal as a number. (-inf is outside the rule: ReLU
    turns it into NaN, which would win its window.) `Network(spec)` holds
    `he_normal(spec)`; copies and the narrowed nets of training and
    evaluation are built from weight matrices and draw nothing."""

    def __init__(self, spec: ModelSpec):
        self._build(spec, he_normal(spec))

    @classmethod
    def _of(cls, spec: ModelSpec, matrices: dict[str, np.ndarray]) -> "Network":
        """The network of `spec` with copies of the given weight matrices."""
        net = cls.__new__(cls)
        net._build(spec, matrices)
        return net

    def _build(self, spec: ModelSpec, matrices: dict[str, np.ndarray]):
        """Build the layer stack, each trainable layer holding its own copy
        of its matrix in `matrices`, checked as `set_unrolled_weights`
        checks it."""
        self.spec = spec
        self.layers = []
        self.trainable: list[tuple[str, Conv2d]] = []
        infos = iter(spec.unrolled_layers())
        for layer_spec, incoming in spec.shape_walk():
            if isinstance(layer_spec, (ReluSpec, PoolSpec)):
                self.layers.append(ReLU() if isinstance(layer_spec, ReluSpec) else MaxPool2())
                continue
            if isinstance(layer_spec, ConvSpec):
                k = layer_spec.kernel
                geometry = (k, k), layer_spec.stride, layer_spec.pad()
            else:
                geometry = (incoming[1:] if isinstance(incoming, tuple) else (1, 1)), 1, 0
            info = next(infos)
            self.trainable.append((info.name, Conv2d(*geometry, _own_copy(info, matrices))))
            self.layers.append(self.trainable[-1][1])
        for i in range(len(self.layers) - 1):
            if isinstance(self.layers[i], ReLU) and isinstance(self.layers[i + 1], MaxPool2):
                self.layers[i:i + 2] = self.layers[i + 1], self.layers[i]

    def forward(self, x):
        """Logits (n, classes) for NCHW images x (n, *spec.input_shape); an
        empty batch gives (0, classes). This is the training forward: every
        layer keeps the state that `backward` reads."""
        return self._forward(x, True)

    def _forward(self, x, keep):
        """`forward`, every layer keeping its backward state only if `keep`
        (see `_Layer`): the logits are bitwise the same either way. The
        images are cast to the weights' dtype, float64 in every network but
        the sub-network a fit trains (see `_fit`)."""
        x = np.asarray(x, dtype=self.trainable[0][1].w.dtype)
        shape = tuple(self.spec.input_shape)
        if x.ndim != 4 or x.shape[1:] != shape:
            raise ValueError(f"images must be (n, {str(shape)[1:-1]}), got {x.shape}")
        x = x.transpose(0, 2, 3, 1)
        for layer in self.layers:
            x = layer._forward(x, keep)
        return x.reshape(x.shape[0], x.shape[3])

    def backward(self, dout):
        """Set grad_w of every trainable layer from the gradient of the
        logits of the last `forward`. No input gradient is formed for the
        first trainable layer, since nothing before it learns. Raises
        RuntimeError after a forward that kept no state."""
        dout = dout.reshape(dout.shape[0], 1, 1, dout.shape[1])
        first = self.layers.index(self.trainable[0][1])
        for layer in reversed(self.layers[first + 1:]):
            dout = layer.backward(dout)
        self.layers[first].grad_weights(dout)

    def unrolled_weights(self) -> dict[str, np.ndarray]:
        """Every trainable layer's weight matrix by name, as a read-only
        view: it shows later in-place updates of the layer and cannot
        write to it. Copy it to change it."""
        out = {}
        for name, layer in self.trainable:
            out[name] = layer.w.view()
            out[name].flags.writeable = False
        return out

    def set_unrolled_weights(self, matrices: dict[str, np.ndarray]):
        """Give every trainable layer a copy of its matrix in `matrices`."""
        for info, (_, layer) in zip(self.spec.unrolled_layers(), self.trainable):
            layer.w = _own_copy(info, matrices)

    def copy(self) -> "Network":
        """A network with the same spec and a copy of the weights; no
        activation cache or gradient is carried over."""
        return Network._of(self.spec, self.unrolled_weights())


def _own_copy(info: UnrolledLayerInfo, matrices: dict[str, np.ndarray]):
    """A C-contiguous float64 copy of layer `info.name`'s matrix in
    `matrices`, which must have the layer's (rows, cols) shape."""
    if info.name not in matrices:
        raise ValueError(f"missing weights for layer {info.name}")
    mat = np.asarray(matrices[info.name], dtype=float)
    if mat.shape != (info.rows, info.cols):
        raise ValueError(f"{info.name}: shape {mat.shape} != {(info.rows, info.cols)}")
    return mat.copy()


# ------------------------------------------------------------- training


# percentile's interval, for WctConfig and wct_cutoff
_PERCENTILE_RANGE = (0.0, 100.0, "(]")


@dataclass(frozen=True)
class WctConfig:
    percentile: float = 90.0
    epochs: int = 2

    def __post_init__(self):
        check_real("percentile", self.percentile, *_PERCENTILE_RANGE)
        check_int("wct epochs", self.epochs, 1)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    batch_size: int = 32
    epochs: int = 15
    seed: int = 0
    # SparsityPattern (needs only .masks, unrolled, by layer name); a layer
    # without a mask is unpruned
    pattern: object | None = None
    wct: WctConfig | None = None

    def __post_init__(self):
        check_real("lr", self.lr, 0.0, np.inf)
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 0)
        check_int("seed", self.seed, 0)


@dataclass
class Dataset:
    images: np.ndarray         # (n, 1, 8, 8) in [0, 1]
    labels: np.ndarray         # (n,) ints

    def __len__(self):
        return self.images.shape[0]


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, divisor: int):
    """The summed softmax cross-entropy of the rows of `logits` and its
    gradient divided by `divisor`, both in the dtype of `logits`."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(labels.shape[0])
    loss = -logp[rows, labels].sum()
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / divisor


def _check_labels(spec: ModelSpec, dataset: Dataset):
    """Labels must be one integer class in [0, classes) per image."""
    labels, n = np.asarray(dataset.labels), len(dataset)
    classes = spec.unrolled_layers()[-1].cols
    if (labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer)
            or (n and not 0 <= labels.min() <= labels.max() < classes)):
        raise ValueError(f"labels must be {n} integers in [0, {classes}), got "
                         f"{labels.dtype} labels of shape {labels.shape}")


def _unrolled_masks(spec: ModelSpec, pattern) -> dict[str, np.ndarray]:
    """Every layer's unrolled mask under `pattern`, all ones where it has
    none or no pattern is given. A mask for a layer the model lacks, or of
    the wrong shape, raises ValueError."""
    given = {} if pattern is None else pattern.masks
    infos = spec.unrolled_layers()
    unknown = sorted(set(given) - {info.name for info in infos})
    if unknown:
        raise ValueError(f"masks for layers the model lacks: {unknown}")
    masks = {}
    for info in infos:
        shape = (info.rows, info.cols)
        mask = np.asarray(given[info.name], dtype=float) if info.name in given else np.ones(shape)
        if mask.shape != shape:
            raise ValueError(f"mask for {info.name} has shape {mask.shape}, "
                             f"weights are {shape}")
        masks[info.name] = mask
    return masks


def _pruned(masks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The zeros of each mask, for the layers whose mask holds any."""
    zeros = {name: mask == 0 for name, mask in masks.items()}
    return {name: zero for name, zero in zeros.items() if zero.any()}


def _row_groups(channels: np.ndarray, rows_per_channel: int) -> np.ndarray:
    """Unrolled rows of the given input channels, in channel-major order."""
    return (channels[:, None] * rows_per_channel + np.arange(rows_per_channel)).ravel()


def _narrowed(spec: ModelSpec, full: dict[str, np.ndarray], channels):
    """The dense sub-network of the net `spec` with unrolled weights `full`
    that keeps `channels[i]`, the input channels of its i-th trainable
    layer (the last entry: the outputs of the last layer). Returns a fresh
    `Network` whose weights are gathered from the kept rows and columns of
    every unrolled matrix, and the (kept rows, kept columns) of every
    layer."""
    infos = spec.unrolled_layers()
    index = {info.name: (_row_groups(ins, info.rows_per_channel), outs)
             for info, ins, outs in zip(infos, channels, channels[1:])}
    sizes = iter(index.values())
    layers = []
    for layer in spec.layers:
        if isinstance(layer, (ConvSpec, DenseSpec)):
            rows, cols = (kept.size for kept in next(sizes))
            layer = (replace(layer, in_ch=rows // layer.kernel ** 2, out_ch=cols)
                     if isinstance(layer, ConvSpec) else DenseSpec(rows, cols))
        layers.append(layer)
    sub = Network._of(replace(spec, layers=tuple(layers)),
                      {name: full[name][np.ix_(*kept)] for name, kept in index.items()})
    return sub, index


def _live_channels(spec: ModelSpec, mats: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Per `_narrowed`, the channels of the unrolled matrices `mats`
    (weights or masks) that reach the logits: every input of the first
    layer, every output of the last, and between two layers each channel
    whose producing column and consuming row group both hold a non-zero
    (or NaN) entry. Where no channel is live, the logits are all zero
    whichever one is kept, so the lowest-index one is."""
    infos = spec.unrolled_layers()
    mats = [mats[info.name] for info in infos]
    channels = [np.arange(infos[0].in_channels)]
    for w, nxt, info in zip(mats, mats[1:], infos[1:]):
        live = np.flatnonzero(w.any(axis=0)
                              & nxt.reshape(info.in_channels, -1).any(axis=1))
        channels.append(live if live.size else np.zeros(1, dtype=int))
    channels.append(np.arange(infos[-1].cols))
    return channels


def _project(model, pruned, w_cut):
    """Clamp every weight into [-w_cut, w_cut] by `wct_clamp`'s formula
    (unless w_cut is None), then set the pruned ones to +0.0. w_cut is
    checked by the caller, and a sub-network's may be 0.0 (`_float32_cut`)."""
    for name, layer in model.trainable:
        if w_cut is not None:
            layer.w = np.minimum(np.abs(layer.w), w_cut) * np.sign(layer.w)
        if name in pruned:
            layer.w[pruned[name]] = 0.0


def _halves(batch: np.ndarray):
    """The two halves of a minibatch: its first ceil(b/2) samples and the
    rest, which is empty for b = 1."""
    first = (batch.size + 1) // 2
    return batch[:first], batch[first:]


def _half_gradient(model, dataset, half, b: int):
    """Forward and backward over the samples `half` of a minibatch of b:
    returns their summed cross-entropy as a Python float and every layer's
    weight gradient, the softmax gradient divided by the whole minibatch's
    b."""
    loss, dlogits = _cross_entropy(model.forward(dataset.images[half]),
                                   dataset.labels[half], b)
    model.backward(dlogits)
    return float(loss), [layer.grad_w for _, layer in model.trainable]


def _step(model, grads, lr, pruned, w_cut):
    """w -= lr * grad for every layer, then the projection."""
    for (_, layer), grad in zip(model.trainable, grads):
        layer.w -= lr * grad
    _project(model, pruned, w_cut)


def _gradient_slots(model, shared):
    """Two gradient-shaped sets of views into the partner's shared buffer,
    in the weights' dtype (float32, as a fit trains its sub-network): the
    partner's second-half gradients and the summed ones."""
    shapes = [layer.w.shape for _, layer in model.trainable] * 2
    flat = np.frombuffer(shared, dtype=model.trainable[0][1].w.dtype)
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    views = [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
    return views[:len(model.trainable)], views[len(model.trainable):]


def _descend(model, dataset, epochs, lr, pruned, w_cut, partner=None):
    """SGD over `epochs`, each a list of minibatches of sample indices;
    returns the per-epoch mean losses. A minibatch's gradient is its first
    half's plus its second half's (`_halves`), added in that order, and
    its loss the two halves' summed losses added the same way; the second
    half is skipped where it is empty. The second halves run here after
    the first, or in `partner`, which writes their gradients into its
    shared buffer, receives this process's go once the sum is there, and
    steps its own copy of the weights by the same sum."""
    summed = [None] * len(model.trainable)      # fresh sums, unless shared
    if partner is not None:
        theirs, summed = _gradient_slots(model, partner.shared)
    losses = []
    for batches in epochs:
        total = 0.0
        for batch in batches:
            first, second = _halves(batch)
            loss, grads = _half_gradient(model, dataset, first, batch.size)
            if partner is not None:
                loss2, grads2 = partner.receive(), theirs
            elif second.size:
                loss2, grads2 = _half_gradient(model, dataset, second, batch.size)
            if second.size:
                loss += loss2
                grads = [np.add(g1, g2, out=out) for g1, g2, out in zip(grads, grads2, summed)]
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged: loss = {loss}")
            if partner is not None:
                if not second.size:             # the partner steps by `summed`
                    for g1, out in zip(grads, summed):
                        np.copyto(out, g1)
                partner.send(None)
            _step(model, grads, lr, pruned, w_cut)
            total += loss
        losses.append(total / len(dataset))
    return losses


def _second_halves(model, dataset, epochs, lr, pruned, w_cut, link, shared):
    """The partner's side of `_descend`: for every minibatch, send the
    second half's summed loss (None where the half is empty) with its
    gradients in the shared buffer, wait for the go, and step by the sum
    found there."""
    theirs, summed = _gradient_slots(model, shared)
    for batches in epochs:
        for batch in batches:
            _, second = _halves(batch)
            loss = None
            if second.size:
                loss, grads = _half_gradient(model, dataset, second, batch.size)
                for grad, out in zip(grads, theirs):
                    np.copyto(out, grad)
            link.send(loss)
            link.recv()
            _step(model, summed, lr, pruned, w_cut)


def _multiply_adds(spec: ModelSpec) -> int:
    """Multiply-adds of one image's forward pass: every trainable layer's
    rows x columns, times its output positions for a convolution."""
    walk = spec.shape_walk()
    infos = iter(spec.unrolled_layers())
    total = 0
    for (layer, _), (_, outgoing) in zip(walk, walk[1:] + [(None, None)]):
        if isinstance(layer, (ConvSpec, DenseSpec)):
            info = next(infos)
            positions = outgoing[1] * outgoing[2] if isinstance(layer, ConvSpec) else 1
            total += info.rows * info.cols * positions
    return total


# Fewest forward multiply-adds (`_multiply_adds` of the live net x images,
# x epochs for a fit) for which a fit runs its second halves in a partner
# process and `evaluate` splits its batches over processes; a smaller call
# runs in this process alone, as fork, join and the per-step messages cost
# more than the second CPU saves. Training rows: one epoch of `train` at
# batch 32 (float32, as every fit trains), on 1 and on 2 usable CPUs, from
# a 150 MB parent (numpy 2.4, Python 3.11, 2-vCPU Xeon, one OpenBLAS
# thread), three series of 21 interleaved rounds; the times are series 3's
# medians, the changes those of series 1, 2 and 3. ref is
# `reference_model_spec`, ref-cf its cf@0.5 live net (the benchmark's),
# tiny `tiny_model_spec`:
#
#   call       net      images   M mult-adds   1 CPU      2 CPUs   change
#   train      ref-cf     128        59         22.6 ms    28.1 ms   +74, +35, +24 %
#   train      ref-cf     256       118         29.0       36.2      +11,  +8, +25 %
#   train      ref-cf     384       177         47.0       45.9      -14, +23,  -2 %
#   train      ref-cf     512       236         56.1       54.6      -10,  +4,  -3 %
#   train      ref-cf    1024       473        110.3       79.8      -23, -26, -28 %
#   train      ref         64       116         33.5       41.2      +19, +32, +23 %
#   train      ref        128       231         45.7       45.9       +2, +29,  +1 %
#   train      ref        160       289         52.5       52.5      +21,  +8,   0 %
#   train      ref        192       347         60.2       56.4      +10,  -9,  -6 %
#   train      ref        256       463         82.7       70.3      -11, -13, -15 %
#   train      tiny      1024         5         30.9       34.0      +17,  +8, +10 %
#   train      tiny      4096        21        120.8       86.1      -22, -15, -29 %
#
# In float32 a one-CPU epoch takes about 0.6 of its float64 time, while
# the fork and the per-step exchange cost the same, so the reference nets'
# break-even rose from 120-230 M to between 347 M (mixed) and 463 M (a gain
# in every series); the constant sits between the two. The benchmark's fits
# (2.8 G multiply-adds to train, 0.9 G for WCT) split. The tiny net, whose
# time goes mostly to per-call overhead, gains from 21 M on but stays in
# one process. The split gains 1.3-1.4x at most on training, against 2x
# for the GEMM loop alone: a 256x288 by 288x64 GEMM loop, one per CPU, ran
# at 32-44 GFLOP/s per CPU with both CPUs busy against 38-45 alone
# (float64) and 84-104 against 101-112 (float32), so the two CPUs do not
# share their vector units on this host; the lockstep costs the rest.
#
# `evaluate` (float64) splits over warm pool workers, which it pays no fork
# for. An earlier series (25 rounds, batch 256) gained 9-45 % on every row
# of 4 to 16 batches, down to 5 M multiply-adds. Two and three batches,
# measured the same way (images / batch size):
#
#   evaluate   tiny       512 / 256   3          3.2 ms     2.7 ms    -17 %
#   evaluate   tiny       768 / 256   4          4.4        4.5        +3 %
#   evaluate   ref-cf     512 / 256 236         34.3       20.2       -41 %
#   evaluate   ref-cf     768 / 256 355         47.2       35.8       -24 %
#   evaluate   tiny        96 / 32    0.3        1.2        1.2        -1 %
#   evaluate   ref-cf      96 / 32   44          5.8        5.9        +1 %
#   evaluate   tiny         2 / 1     0          0.3        0.7       +87 %
#   evaluate   ref-cf       2 / 1     1          1.2        2.0       +65 %
#
# A batch too small to cover a worker's round trip loses, whatever the
# multiply-adds, so splitting from two batches on would slow small calls,
# and `evaluate` keeps this one constant; its calls from 400 M down to
# about 140 M, which would gain, run in one process.
PARALLEL_MIN_MULTIPLY_ADDS = 400 * 10 ** 6


def _sgd_epochs(model, dataset, config, epochs, pruned, w_cut, rng):
    """`epochs` of minibatch SGD on `model` (see `_descend`), projected
    before the first step and after every one, in the dtype of its
    weights (float32, as `_fit` calls it); returns the per-epoch losses,
    summed in float64. One permutation of the data per epoch, drawn up
    front, fixes the minibatches. The second halves run in a forked partner
    (`_parallel._partner`: this process and the partner pinned to one CPU
    each, the mask restored after) when this process may use two CPUs,
    the batch size is at least 2 and the fit makes at least
    `PARALLEL_MIN_MULTIPLY_ADDS` forward multiply-adds; otherwise they run
    here. Either way each half runs the same code on the same weights, so
    the result is bitwise the same. OpenBLAS runs on one thread in both
    paths, so it does not depend on the BLAS thread count either."""
    _project(model, pruned, w_cut)
    n, b = len(dataset), config.batch_size
    orders = [rng.permutation(n) for _ in range(epochs)]
    batches = [[order[start:start + b] for start in range(0, n, b)] for order in orders]
    # a Python float, which numpy rounds to the weights' dtype in each step
    args = (model, dataset, batches, float(config.lr), pruned, w_cut)
    if (b < 2 or _parallel._usable_cpus() < 2
            or epochs * n * _multiply_adds(model.spec) < PARALLEL_MIN_MULTIPLY_ADDS):
        with _parallel._one_blas_thread():
            return _descend(*args)
    # two copies of every weight, in its dtype: the partner's gradients, the sums
    size = 2 * sum(layer.w.nbytes for _, layer in model.trainable)
    with _parallel._partner(partial(_second_halves, *args), size) as partner:
        return _descend(*args, partner)


def _float32_cut(w_cut: float) -> float:
    """The largest float32 that is at most w_cut, as a Python float: 0.0
    below the smallest positive float32, the largest float32 above it.
    Rounded to nearest, float32(0.05) is 0.0500000007, and a clamped
    sub-network weight would sit above w_cut."""
    cut = np.float32(min(w_cut, float(np.finfo(np.float32).max)))
    if float(cut) > w_cut:          # compared in float64
        cut = np.nextafter(cut, np.float32(0))
    return float(cut)


def _fit(model, dataset, config, epochs, w_cut, rng):
    """`epochs` of SGD under `config.pattern`, weights clamped to
    [-w_cut, w_cut] unless w_cut is None; returns the per-epoch losses.
    The live sub-network of the masks trains in float32, with the images
    cast once, w_cut rounded toward zero (`_float32_cut`) and the zeros it
    still holds re-applied after every update; its weights are scattered
    back into a float64 copy of each layer's matrix, so no view taken
    before changes, and the full net is projected once in float64, so a
    weight outside the sub-network ends as full-width training leaves it:
    clamped if unmasked, zero if masked."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    _check_labels(model.spec, dataset)
    masks = _unrolled_masks(model.spec, config.pattern)
    sub, index = _narrowed(model.spec, model.unrolled_weights(),
                           _live_channels(model.spec, masks))
    for _, layer in sub.trainable:
        layer.w = layer.w.astype(np.float32)
    images = np.asarray(dataset.images, dtype=np.float32)
    sub_masks = {name: masks[name][np.ix_(*kept)] for name, kept in index.items()}
    losses = _sgd_epochs(sub, Dataset(images, dataset.labels), config, epochs,
                         _pruned(sub_masks), None if w_cut is None else _float32_cut(w_cut),
                         rng)
    for (name, layer), (_, part) in zip(model.trainable, sub.trainable):
        layer.w = layer.w.copy()
        layer.w[np.ix_(*index[name])] = part.w
    _project(model, _pruned(masks), w_cut)
    return losses


def train(model: Network, dataset: Dataset, config: TrainConfig):
    """Minibatch SGD with cross-entropy for `config.epochs` epochs; returns
    (model, per-epoch mean loss). Whatever the pruning method, the live
    sub-network of `config.pattern`'s masks trains in float32 and its
    weights are scattered back into the model's float64 matrices (see
    `_fit`); pruned weights end exactly zero. Each
    minibatch's gradient is its two halves' summed (see `_sgd_epochs`),
    which a large fit computes on two CPUs; the weights and losses are
    bitwise the same on any number of CPUs."""
    rng = np.random.default_rng(config.seed)
    return model, _fit(model, dataset, config, config.epochs, None, rng)


def wct_cutoff(model: Network, percentile: float) -> float:
    """Nearest-rank percentile of |w| pooled over all trainable weights."""
    check_real("percentile", percentile, *_PERCENTILE_RANGE)
    if not model.trainable:
        raise ValueError("model has no trainable layers")
    v = np.sort(np.abs(np.concatenate([layer.w.ravel() for _, layer in model.trainable])))
    rank = math.ceil(percentile / 100.0 * v.size)
    return float(v[rank - 1])


def wct_clamp(w: np.ndarray, w_cut: float) -> np.ndarray:
    """min(|W|, w_cut) * sign(W); the result lies in [-w_cut, w_cut]."""
    check_real("w_cut", w_cut, 0.0, np.inf)
    return np.minimum(np.abs(w), w_cut) * np.sign(w)


def wct_train(model: Network, dataset: Dataset, config: TrainConfig,
              w_cut: float | None = None):
    """Short retraining with weights projected into [-w_cut, w_cut] after
    every step, on the live sub-network in float32 as in `train`, whose
    clamp uses w_cut rounded toward zero to a float32 so that no weight
    exceeds w_cut; returns (model, w_cut). Unless given, w_cut is
    `wct_cutoff` of the full-width float64 weights, pruned zeros included."""
    wct = config.wct if config.wct is not None else WctConfig()
    if w_cut is None:
        w_cut = wct_cutoff(model, wct.percentile)
    check_real("w_cut", w_cut, 0.0, np.inf)
    rng = np.random.default_rng([config.seed, 1])
    _fit(model, dataset, config, wct.epochs, w_cut, rng)
    return model, w_cut


def evaluate(model: Network, dataset: Dataset, batch_size: int = 256) -> float:
    """Fraction of argmax-correct predictions.

    The forward pass runs a fresh network of the live channels only (see
    `_live_channels`), so a pruned net, or the non-ideal copy of one,
    evaluates at its live widths. The layers have no biases, so a
    dead channel adds exactly zero to the logits and dropping it changes
    them only by the rounding of a shorter GEMM. `model` is not run. The
    fresh network runs the state-free forward: no layer keeps an im2col
    matrix, mask or pool index, each activation is freed once the next
    layer has read it, and a batch's peak memory is the largest working
    set of one layer (its input, im2col matrix and output), not the sum
    of every layer's training state. The logits are bitwise those of the
    training forward. A call of at least `PARALLEL_MIN_MULTIPLY_ADDS`
    forward multiply-adds splits its batches over the usable CPUs
    (`_parallel._fork_map`): this process runs the first contiguous chunk
    and a persistent pool worker each other one, sent the live network
    and its chunk's images with `_correct`. Each batch runs whole in one
    process, so the accuracy does not depend on the split."""
    check_int("batch_size", batch_size, 1)
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_labels(model.spec, dataset)
    full = model.unrolled_weights()
    sub, _ = _narrowed(model.spec, full, _live_channels(model.spec, full))

    batches = [slice(start, start + batch_size) for start in range(0, n, batch_size)]
    split = n * _multiply_adds(sub.spec) >= PARALLEL_MIN_MULTIPLY_ADDS
    return sum(_parallel._fork_map(
        _correct, [(sub, dataset.images[b], dataset.labels[b]) for b in batches],
        split)) / n


def _correct(net: Network, images: np.ndarray, labels: np.ndarray) -> int:
    """How many of `images` the state-free forward of `net` labels right."""
    return int((net._forward(images, False).argmax(axis=1) == labels).sum())


def inject_nonideal_weights(model: Network, matrices: dict[str, np.ndarray]) -> Network:
    """New model whose forward pass uses the given unrolled weight matrices;
    the original model is untouched."""
    return Network._of(model.spec, matrices)


# -------------------------------------------------------------- dataset


PATTERN_VALUE = 0.9
BACKGROUND_VALUE = 0.1
NOISE_SIGMA = 0.15


def _draw_image(rng: np.random.Generator, label: int) -> np.ndarray:
    img = np.full((8, 8), BACKGROUND_VALUE)
    if label == 0:                            # horizontal bar
        img[int(rng.integers(1, 7)), :] = PATTERN_VALUE
    elif label == 1:                          # vertical bar
        img[:, int(rng.integers(1, 7))] = PATTERN_VALUE
    elif label == 2:                          # diagonal
        idx = np.arange(8)
        if rng.integers(2):
            img[idx, idx] = PATTERN_VALUE
        else:
            img[idx, 7 - idx] = PATTERN_VALUE
    else:                                     # blob
        cy, cx = rng.integers(2, 6, size=2)
        img[cy - 1:cy + 2, cx - 1:cx + 2] = PATTERN_VALUE
    img = img + rng.normal(0.0, NOISE_SIGMA, size=(8, 8))
    return np.clip(img, 0.0, 1.0)


def _gen_split(seed_list, n: int) -> Dataset:
    rng = np.random.default_rng(seed_list)
    labels = np.arange(n) % 4                 # balanced to within one image
    labels = rng.permutation(labels)
    images = np.stack([_draw_image(rng, int(lab)) for lab in labels])
    return Dataset(images[:, None, :, :], labels.astype(np.int64))


def gen_synthetic_dataset(seed: int, n_train: int, n_test: int):
    """Four-class 8x8 shape dataset (horizontal bar, vertical bar, diagonal,
    blob) with Gaussian pixel noise; deterministic given the seed."""
    check_int("seed", seed, 0)
    check_int("n_train", n_train, 1)
    check_int("n_test", n_test, 1)
    return _gen_split([seed, 0], n_train), _gen_split([seed, 1], n_test)
