"""Minimal trainable CNN in NumPy: im2col convolutions, ReLU and 2x2 max
pooling, trained with plain minibatch SGD on softmax cross-entropy.

`Conv2d` is the one trainable layer. It holds its unrolled (fan-in x
outputs) weight matrix, the one that masks, the WCT cutoff and the
crossbar mapping act on, with the channel-major row groups of
`ModelSpec.unrolled_layers`: rows in (channel, window row, window
column) order. Every convolution is stride 1. A `ConvSpec` pads by
kernel // 2; a dense layer is the unpadded convolution whose window is its
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
runs whole chunks of images, each in one process. Every GEMM sees its
operands in one fixed K order (the rows of the weight matrix for the
forward and weight-gradient GEMMs, the output channels for the
input-gradient GEMM), and every scattered sum adds its terms in one fixed
order.

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
w_cut a percentile of the full-width |w|, pruned zeros included.

`evaluate` reads the live channels off the weights instead, so a pruned
net, and the non-ideal copy of one that `inject_nonideal_weights` makes,
evaluates at its live widths with no pattern passed.

Only a training forward (`Network.forward`, and `forward` of a layer)
keeps what backward reads: a convolution its im2col matrix and input
shape, a ReLU its mask, a max pool its argmax index and input shape,
each held until the layer's next forward. `evaluate` runs the same layer
code with none of it kept, so its logits are bitwise the training
forward's while it holds one layer's working set at a time; a backward
after such a forward raises rather than read an earlier chunk's state.
`evaluate` sizes its chunks to that working set: the most images whose
largest layer (a trainable layer's float64 input, im2col matrix and
output, or a max pool's input, output and temporaries) fits in
`EVAL_WORKING_SET_BYTES`, which is below one core's L2 cache, so that its
memory does not grow with the test set and a layer's operands stay in
cache, and splits them over the usable CPUs where there are at least two
per CPU.
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
    """A stride-1 k x k convolution padded by k // 2, as in VGG (Simonyan
    and Zisserman, ICLR 2015): an even k grows the map by one."""

    in_ch: int
    out_ch: int
    kernel: int

    def __post_init__(self):
        for name in ("in_ch", "out_ch", "kernel"):
            check_int(f"conv {name}", getattr(self, name), 1)


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
    """Shape facts about one trainable layer: its unrolled weight matrix,
    and the geometry of the `Conv2d` that runs it for one image."""

    name: str
    kind: str                  # "conv" | "dense"
    rows: int                  # unrolled fan-in
    cols: int                  # output units
    rows_per_channel: int      # rows per input channel group
    in_channels: int
    window: tuple[int, int]    # the Conv2d's (kh, kw)
    padding: int               # the Conv2d's zeros on each side
    positions: int             # im2col rows per image
    in_size: int               # values one image feeds the layer


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
                grow = 1 - spec.kernel % 2      # padded by kernel // 2
                shape = (spec.out_ch, h + grow, w + grow)
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
        """The info of every trainable layer, in order, from one pass over
        `shape_walk`, a flat size f read as the (f, 1, 1) map: a conv is
        the k x k window padded by k // 2, a dense layer the unpadded
        window over its whole input map."""
        infos = []
        counts = {"conv": 0, "dense": 0}
        for spec, incoming in self.shape_walk():
            if not isinstance(spec, (ConvSpec, DenseSpec)):
                continue
            c, h, w = incoming if isinstance(incoming, tuple) else (incoming, 1, 1)
            if isinstance(spec, ConvSpec):
                kind, cols = "conv", spec.out_ch
                window, padding = (spec.kernel, spec.kernel), spec.kernel // 2
            else:
                kind, cols = "dense", spec.out_features
                window, padding = (h, w), 0
            counts[kind] += 1
            area = window[0] * window[1]
            infos.append(UnrolledLayerInfo(
                name=f"{kind}{counts[kind]}", kind=kind, rows=c * area, cols=cols,
                rows_per_channel=area, in_channels=c, window=window, padding=padding,
                positions=(h + 2 * padding - window[0] + 1) * (w + 2 * padding - window[1] + 1),
                in_size=c * h * w))
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
def _taps(size: int, k: int, padding: int):
    """For one axis of an input of length `size` with `padding` zeros on
    each side and a window of length k: the number `out` of window
    positions and, for each window offset r, the slice of the positions o
    whose tap o + r - padding lands inside the input and the slice of the
    input elements those taps read. The taps of the other positions read
    padding. Returns (out, taps), taps a tuple of slice pairs: the result
    is cached, as every `im2col` and `col2im` of a layer asks for the
    same axes."""
    out = size + 2 * padding - k + 1
    taps = []
    for r in range(k):
        lo = max(0, padding - r)
        hi = max(lo, min(out, size + padding - r))
        taps.append((slice(lo, hi), slice(lo + r - padding, hi + r - padding)))
    return out, tuple(taps)


def im2col(x: np.ndarray, window, padding: int):
    """Unroll the stride-1 (kh, kw) windows of a channels-last x (n, h, w,
    c) padded by `padding` into a (n*ho*wo, c*kh*kw) matrix: one row per
    output position in (n, ho, wo) order, columns in (channel, window row,
    window column) order, the row order of `Conv2d.w`. The matrix is a
    zeroed (n, ho, wo, c, kh, kw) buffer into which each window offset
    copies its slab of x, the input elements that offset reads; the taps
    that fall on the padding keep their zeros. Returns (cols, ho, wo)."""
    n, h, w, c = x.shape
    (ho, row_taps), (wo, col_taps) = _taps(h, window[0], padding), _taps(w, window[1], padding)
    cols = np.zeros((n, ho, wo, c, *window), dtype=x.dtype)
    for kr, (ro, ri) in enumerate(row_taps):
        for kc, (co, ci) in enumerate(col_taps):
            cols[:, ro, co, :, kr, kc] = x[:, ri, ci]
    return cols.reshape(n * ho * wo, c * window[0] * window[1]), ho, wo


def col2im(dcols: np.ndarray, x_shape, window, padding: int) -> np.ndarray:
    """Adjoint of `im2col` for column gradients in (window row, window
    column, channel) order, as `Conv2d.backward` forms them: sum the
    (n*ho*wo, kh*kw*c) gradients back onto the channels-last input shape
    (n, h, w, c). Each window offset adds one slab, contiguous in the
    channels, so each input element receives its window terms in
    (window row, window column) order; the terms that fall on the padding
    are dropped."""
    n, h, w, c = x_shape
    (ho, row_taps), (wo, col_taps) = _taps(h, window[0], padding), _taps(w, window[1], padding)
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
    """The one trainable layer: the stride-1 convolution of a channels-last
    input (n, h, w, in_ch), padded by `padding` zeros, by a (kh, kw)
    `window` to (n, ho, wo, out_ch) as one GEMM, `im2col(x) @ w`. `w` is
    the C-contiguous (in_ch*kh*kw, out_ch) unrolled matrix whose column j
    is filter j, its rows in (input channel, window row, window column)
    order, the column order of `im2col`; `grad_w` is its gradient,
    `im2col(x).T @ dout`. A `ConvSpec` pads by kernel // 2, and a dense
    layer is the unpadded convolution whose window is its whole input map.
    The input gradient is one GEMM by W^T with W's rows permuted into
    (window row, window column, channel) order, so that `col2im` adds
    whole slabs; each of its elements sums the same out_ch terms in the
    same order. A training forward keeps the im2col matrix and the input
    shape."""

    kind = "conv"

    def __init__(self, window, padding: int, w: np.ndarray):
        self.window, self.padding, self.w = window, padding, w
        self.grad_w = None

    def _forward(self, x, keep):
        self._state = None
        cols, ho, wo = im2col(x, self.window, self.padding)
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
        return col2im(dcols, self._kept()[1], self.window, self.padding)


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
        for layer_spec in spec.layers:
            if isinstance(layer_spec, (ReluSpec, PoolSpec)):
                self.layers.append(ReLU() if isinstance(layer_spec, ReluSpec) else MaxPool2())
                continue
            info = next(infos)
            self.trainable.append((info.name, Conv2d(info.window, info.padding,
                                                     _own_copy(info, matrices))))
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
    """Clamp every weight into [-w_cut, w_cut] as min(|w|, w_cut) * sign(w)
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
    """Views into the partner's shared buffer: a one-element float64 slot
    for the summed loss of the partner's second half, at its start, then
    two gradient-shaped sets in the weights' dtype (float32, as a fit
    trains its sub-network), the partner's second-half gradients and the
    summed ones."""
    shapes = [layer.w.shape for _, layer in model.trainable] * 2
    loss = np.frombuffer(shared, dtype=np.float64, count=1)
    flat = np.frombuffer(shared, dtype=model.trainable[0][1].w.dtype, offset=loss.nbytes)
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    views = [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], shapes)]
    return loss, views[:len(model.trainable)], views[len(model.trainable):]


def _descend(model, dataset, epochs, lr, pruned, w_cut, partner=None):
    """SGD over `epochs`, each a list of minibatches of sample indices;
    returns the per-epoch mean losses. A minibatch's gradient is its first
    half's plus its second half's (`_halves`), added in that order, and
    its loss the two halves' summed losses added the same way; the second
    half is skipped where it is empty. The second halves run here after
    the first, or in `partner`, which writes their losses and gradients
    into its shared buffer (`_gradient_slots`) and hands them over
    (`Partner.wait`), then waits for this process's go once the sum is
    there and steps its own copy of the weights by the same sum. Both
    sides see from the batch sizes where a second half is empty; the
    partner hands over every step all the same, as it must be done
    reading the previous sum before this process writes the next."""
    summed = [None] * len(model.trainable)      # fresh sums, unless shared
    if partner is not None:
        their_loss, theirs, summed = _gradient_slots(model, partner.shared)
    losses = []
    for batches in epochs:
        total = 0.0
        for batch in batches:
            first, second = _halves(batch)
            loss, grads = _half_gradient(model, dataset, first, batch.size)
            if partner is not None:
                partner.wait()
                loss2, grads2 = float(their_loss[0]), theirs
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
                partner.go()
            _step(model, grads, lr, pruned, w_cut)
            total += loss
        losses.append(total / len(dataset))
    return losses


def _second_halves(model, dataset, epochs, lr, pruned, w_cut, link, shared, done, go):
    """The partner's side of `_descend`: for every minibatch, write the
    second half's summed loss and its gradients into the shared buffer
    (nothing where the half is empty), release `done`, spin until `go`
    is released (`_parallel._spin`), and step by the sum found there.
    Returns early once the parent's end of `link` has closed."""
    their_loss, theirs, summed = _gradient_slots(model, shared)
    for batches in epochs:
        for batch in batches:
            _, second = _halves(batch)
            if second.size:
                their_loss[0], grads = _half_gradient(model, dataset, second, batch.size)
                for grad, out in zip(grads, theirs):
                    np.copyto(out, grad)
            done.release()
            if not _parallel._spin(go, link):
                return
            _step(model, summed, lr, pruned, w_cut)


def _multiply_adds(spec: ModelSpec) -> int:
    """Multiply-adds of one image's forward pass: every trainable layer's
    rows x columns x im2col rows."""
    return sum(info.rows * info.cols * info.positions for info in spec.unrolled_layers())


def _chunk_images(spec: ModelSpec) -> int:
    """The most images, at least one, for which the largest working set of
    one layer in `evaluate` fits in `EVAL_WORKING_SET_BYTES`: a trainable
    layer's float64 input, im2col matrix and output, or a max pool's input,
    output and the temporaries of its forward, about four outputs (the
    masks and comparisons of `MaxPool2._forward`)."""
    sizes = [info.in_size + info.positions * (info.rows + info.cols)
             for info in spec.unrolled_layers()]
    for layer, shape in spec.shape_walk():
        if isinstance(layer, PoolSpec):
            c, h, w = shape
            sizes.append(c * h * w + 5 * c * (h // 2) * (w // 2))
    return max(1, EVAL_WORKING_SET_BYTES // (8 * max(sizes)))


# Fewest forward multiply-adds (`_multiply_adds` of the live net x images
# x epochs) for which a fit runs its second halves in a partner process; a
# smaller fit runs in this process alone, as fork, join and the per-step
# handoff cost more than the second CPU saves. (`evaluate` splits by its
# own rule, measured next to `EVAL_WORKING_SET_BYTES`.) Rows: one epoch of
# `train` at batch 32 (float32, as every fit trains), on 1 and on 2 usable
# CPUs, from a 150 MB parent (numpy 2.4, Python 3.11, 2-vCPU Xeon, one
# OpenBLAS thread), three series of 21 interleaved rounds; the times are
# series 3's medians, the changes those of series 1, 2 and 3. ref is
# `reference_model_spec`, ref-cf its cf@0.5 live net (the benchmark's),
# tiny `tiny_model_spec`:
#
#   net      images   M mult-adds   1 CPU      2 CPUs   change
#   ref-cf     128        59         16.0 ms    25.9 ms   +38, +34, +62 %
#   ref-cf     256       118         27.6       36.1      +11,  +9, +31 %
#   ref-cf     384       177         45.3       43.4      -11, -14,  -4 %
#   ref-cf     512       236         48.8       49.2      -16, -20,  +1 %
#   ref-cf    1024       473        120.9       78.6      -29, -41, -35 %
#   ref         64       116         28.7       36.7      +31, +28, +28 %
#   ref        128       231         41.2       45.2      +12,  +4, +10 %
#   ref        160       289         51.4       51.8       +7,  -1,  +1 %
#   ref        192       347         56.6       55.4       -6,  -7,  -2 %
#   ref        256       463         74.6       63.6      -16, -15, -15 %
#   tiny      1024         5         26.4       29.3      +12,  -7, +11 %
#   tiny      4096        21         90.5       69.6      -28, -36, -23 %
#
# The reference nets break even between 289 M (mixed) and 347 M (a gain
# in every series); the constant sits between the two. The benchmark's
# fits (2.8 G multiply-adds to train, 0.9 G for WCT) split. The tiny net,
# whose time goes mostly to per-call overhead, gains from 21 M on but
# stays in one process. The split gains 1.2-1.7x at most on training,
# against 2x for the GEMM loop alone: a 256x288 by 288x64 GEMM loop, one
# per CPU, ran at 32-44 GFLOP/s per CPU with both CPUs busy against 38-45
# alone (float64) and 84-104 against 101-112 (float32), so the two CPUs
# do not share their vector units on this host. The rest goes to the
# fork, the serial sum and step, and the halves' imbalance: in the
# benchmark's training the two sides' waits add up to 0.3-0.5 ms of each
# 1.7-2.0 ms step.
PARALLEL_MIN_MULTIPLY_ADDS = 320 * 10 ** 6

# Most bytes of one layer's working set (see `_chunk_images`) that one
# `evaluate` chunk may take: `_chunk_images` is the most images that
# fit, at least one. One `evaluate` of 1000 images per chunk size c, cut
# as `evaluate` cuts them, on 1 and split over 2 usable CPUs (host as
# above), medians of 15 interleaved rounds under the benchmark's fixed
# 4 MiB glibc mmap threshold and under glibc's defaults; the peak is
# tracemalloc's on 1 CPU, with the live net that `evaluate` builds
# (ref's peak is that net at c <= 16). One image's working set is
# 9.0 KiB (tiny, conv1 and pool1 alike), 96 KiB (ref, conv2) and 48 KiB
# (ref-cf, conv2):
#
#   net      c     c images'     4 MiB threshold      glibc defaults     peak
#                  working set   1 CPU     2 CPUs     1 CPU     2 CPUs
#   tiny       8    0.07 MiB     17.0 ms   11.8 ms    16.3 ms   14.2 ms   0.13 MiB
#   tiny      16    0.14          9.7       7.2       13.6       9.1      0.16
#   tiny      32    0.28          6.9       5.1        9.4       6.7      0.29
#   tiny      64    0.56          7.1       4.9        7.3       5.4      0.54
#   tiny     128    1.13          5.7       4.3        6.8       5.1      1.05
#   tiny     256    2.25          6.0       4.6        7.5       5.7      2.09
#   tiny    1000    8.79         11.6      10.9       10.6      10.6      8.31
#   ref        8    0.75        165.2     112.2      196.7     121.1      3.44
#   ref       16    1.50        149.0      94.8      161.4     109.7      3.44
#   ref       32    3.00        191.5     119.5      172.3     115.1      4.74
#   ref       64    6.00        199.1     124.5      187.6     118.7      7.64
#   ref      128   12.0         224.7     141.8      201.9     124.8     13.45
#   ref      256   24.0         240.0     146.5      247.7     137.3     25.17
#   ref     1000   93.8         278.7     261.0      309.3     297.8     95.48
#   ref-cf     8    0.38         66.3      47.0       75.6      57.0      0.88
#   ref-cf    16    0.75         56.3      37.7       73.4      46.1      1.22
#   ref-cf    32    1.50         51.1      31.6       66.3      44.2      1.96
#   ref-cf    64    3.00         59.6      40.4       65.0      44.1      3.41
#   ref-cf   128    6.00         75.8      49.1       81.0      49.9      6.31
#   ref-cf   256   12.0          95.3      58.3       79.7      53.5     12.17
#   ref-cf  1000   46.9         121.7     123.6      121.1     121.7     47.32
#
# (c = 1000 is one chunk, which never splits.) Working sets well past one
# core's 2 MiB L2 cache run slower; below about 0.5 MiB the per-chunk
# Python cost shows. 1.5 MiB gives chunks of 32 images on ref-cf, the
# fastest in two columns and within 2 % of the fastest in the other two,
# 16 on ref, the fastest in all four, and 170 on tiny, between 128, the
# fastest, and 256. Chunks of 256, as `evaluate` ran before, are 1.2-1.9x
# slower on ref-cf and ref, and hold 6-7x the memory.
#
# `evaluate` splits its chunks over warm pool workers, which it pays no
# fork for, where there are at least two chunks per usable CPU. One
# `evaluate` (float64) on 1 and on 2 usable CPUs, with its multiply-adds,
# measured as the training rows above `PARALLEL_MIN_MULTIPLY_ADDS` but in
# a fresh process:
#
#   net      images / chunks   M mult-adds   1 CPU      2 CPUs   change
#   tiny       171 /  2            0.9         2.4 ms     2.9 ms   +30, +58, +20 %
#   tiny       512 /  4            2.6         5.4        4.2      -10,  -2, -23 %
#   tiny      1024 /  7            5.2        10.6        6.8      -17,  -8, -36 %
#   tiny      2048 / 13           10          20.9       12.1      -18, -23, -42 %
#   ref-cf      33 /  2           15           5.3        5.6      +26, +28,  +5 %
#   ref-cf      96 /  3           44          11.3        9.4       -2,  +5, -17 %
#   ref-cf     256 /  8          118          25.3       15.2      -36, -33, -40 %
#   ref-cf     512 / 16          237          48.8       27.8      -39, -34, -43 %
#   ref-cf     768 / 24          355          73.8       41.1      -42, -34, -44 %
#
# Two chunks lose in every series: a chunk too small to cover a worker's
# round trip loses, whatever the multiply-adds. Three are mixed, and from
# four chunks on the split gains in every series, down to 2.6 M
# multiply-adds on the tiny net. The benchmark's evaluations (1000 images
# of ref-cf, 32 chunks) split.
EVAL_WORKING_SET_BYTES = 3 * 2 ** 19


def _sgd_epochs(model, dataset, config, epochs, pruned, w_cut, rng):
    """`epochs` of minibatch SGD on `model` (see `_descend`), projected
    before the first step and after every one, in the dtype of its
    weights (float32, as `_fit` calls it); returns the per-epoch losses,
    summed in float64. One permutation of the data per epoch, drawn up
    front, fixes the minibatches. The second halves run in a forked partner
    (`_parallel._partner`: this process and the partner pinned to one CPU
    each, the mask restored after, every step handed over through the
    shared buffer and two semaphores, with no pipe message) when this
    process may use two CPUs, the batch size is at least 2 and the fit
    makes at least `PARALLEL_MIN_MULTIPLY_ADDS` forward multiply-adds;
    otherwise they run here. Either way each half runs the same code on the same weights, so
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
    # the partner's loss, then two copies of every weight, in its dtype:
    # the partner's gradients and the sums
    size = 8 + 2 * sum(layer.w.nbytes for _, layer in model.trainable)
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
    """Nearest-rank percentile of |w| pooled over all trainable weights:
    the element a sort would put at that rank, selected in place on the
    pooled copy without sorting the rest."""
    check_real("percentile", percentile, *_PERCENTILE_RANGE)
    if not model.trainable:
        raise ValueError("model has no trainable layers")
    v = np.concatenate([layer.w.ravel() for _, layer in model.trainable])
    np.abs(v, out=v)
    rank = math.ceil(percentile / 100.0 * v.size)
    v.partition(rank - 1)
    return float(v[rank - 1])


def wct_train(model: Network, dataset: Dataset, config: TrainConfig):
    """Short retraining with weights projected into [-w_cut, w_cut] after
    every step, on the live sub-network in float32 as in `train`, whose
    clamp uses w_cut rounded toward zero to a float32 so that no weight
    exceeds w_cut; returns (model, w_cut). w_cut is `wct_cutoff` of the
    full-width float64 weights, pruned zeros included: a cutoff of 0.0 (the
    zeros fill its percentile) or inf or NaN raises ValueError first."""
    wct = config.wct if config.wct is not None else WctConfig()
    w_cut = wct_cutoff(model, wct.percentile)
    if w_cut == 0.0:
        zeros = np.mean(np.concatenate([layer.w.ravel() for _, layer in model.trainable]) == 0)
        raise ValueError(f"WCT cutoff at percentile {wct.percentile:g} is 0.0: {zeros:.1%} of "
                         f"the weights are zero, and WCT needs fewer than {wct.percentile:g} %")
    check_real("WCT cutoff", w_cut, 0.0, np.inf)
    rng = np.random.default_rng([config.seed, 1])
    _fit(model, dataset, config, wct.epochs, w_cut, rng)
    return model, w_cut


def evaluate(model: Network, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions.

    The forward pass runs a fresh network of the live channels only (see
    `_live_channels`), so a pruned net, or the non-ideal copy of one,
    evaluates at its live widths. The layers have no biases, so a
    dead channel adds exactly zero to the logits and dropping it changes
    them only by the rounding of a shorter GEMM. `model` is not run. The
    fresh network runs the state-free forward: no layer keeps an im2col
    matrix, mask or pool index, and each activation is freed once the
    next layer has read it. The dataset is cut into the fewest contiguous
    chunks of at most `_chunk_images` images, their sizes differing by at
    most one, and each chunk runs whole: the peak memory is one layer's
    working set of one chunk, about `EVAL_WORKING_SET_BYTES`, whatever
    the size of the dataset. The logits are bitwise those of the training
    forward. A dataset cut into at least two chunks per usable CPU splits
    its chunks over the usable CPUs (`_parallel._fork_map`; the measured
    break-even sits above `EVAL_WORKING_SET_BYTES`): this process runs the
    first contiguous run of chunks and a persistent pool worker each other
    one, sent the live network and its chunks' images with `_correct`.
    Each chunk runs whole in one process, so the accuracy does not depend
    on the split."""
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_labels(model.spec, dataset)
    full = model.unrolled_weights()
    sub, _ = _narrowed(model.spec, full, _live_channels(model.spec, full))

    chunks = math.ceil(n / _chunk_images(sub.spec))
    bounds = [n * k // chunks for k in range(chunks + 1)]
    split = chunks >= 2 * _parallel._usable_cpus()
    return sum(_parallel._fork_map(
        _correct, [(sub, dataset.images[a:b], dataset.labels[a:b])
                   for a, b in zip(bounds, bounds[1:])],
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
