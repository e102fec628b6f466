"""Minimal trainable CNN in NumPy: im2col convolutions, ReLU, 2x2 max
pooling and dense layers, trained with plain minibatch SGD on softmax
cross-entropy.

`Network.forward` takes NCHW images (n, c, h, w), as `Dataset` stores
them, and transposes them once; every layer in between is channels-last
(n, h, w, c). A convolution's output is then its GEMM result reshaped, and
its output gradient reshapes back to the GEMM operand with no copy.
`Flatten` emits (c, h, w) order, so dense weights and masks keep the
channel-major row groups that `ModelSpec.unrolled_layers` reports.

Everything is float64 and bit-deterministic given (init seed, data seed,
training seed): initialization draws from one seeded generator in layer
order, batch order comes from the training seed, and no threading touches
the update order. Every GEMM sees its operands in one fixed K order (that
of `unroll_conv`), and every scattered sum adds its terms in one fixed
order.

A channel/filter (C/F) pruned net is a narrower dense net, and `train` and
`wct_train` run it as one: they gather the surviving rows and columns of
every unrolled matrix into a compacted `Network`, train that, and scatter
its weights back to the same indices, so pruned weights come back exactly
zero and everything downstream stays indexed by the original matrices.
XCS/XRS masks do not compact; those nets train at full width with the
masks re-applied after every update. Weight-constrained training projects
weights into [-w_cut, w_cut] after every step, with w_cut taken over the
full-width weights, pruned zeros included.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pruning

# ---------------------------------------------------------------- specs


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = -1          # -1 means "same-ish": kernel // 2

    def __post_init__(self):
        for name in ("in_ch", "out_ch", "kernel", "stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"conv {name} must be >= 1, got {getattr(self, name)}")

    def pad(self) -> int:
        return self.kernel // 2 if self.padding < 0 else self.padding


@dataclass(frozen=True)
class DenseSpec:
    in_features: int
    out_features: int

    def __post_init__(self):
        if self.in_features < 1 or self.out_features < 1:
            raise ValueError(f"dense sizes must be >= 1, got "
                             f"{self.in_features} -> {self.out_features}")


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
        infos = self.unrolled_layers()
        if not infos:
            raise ValueError("model needs at least one trainable layer")

    def shape_walk(self):
        """Return [(layer_spec, incoming (C, H, W) or flat size)], checking
        that consecutive shapes compose and that no output is empty."""
        shape = self.input_shape
        if len(shape) != 3 or min(shape) < 1:
            raise ValueError(f"input_shape must be three sizes (C, H, W) >= 1, "
                             f"got {shape}")
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

    def to_dict(self) -> dict:
        out = []
        for spec in self.layers:
            if isinstance(spec, ConvSpec):
                out.append({"kind": "conv", "in_ch": spec.in_ch, "out_ch": spec.out_ch,
                            "kernel": spec.kernel, "stride": spec.stride,
                            "padding": spec.padding})
            elif isinstance(spec, DenseSpec):
                out.append({"kind": "dense", "in_features": spec.in_features,
                            "out_features": spec.out_features})
            elif isinstance(spec, ReluSpec):
                out.append({"kind": "relu"})
            else:
                out.append({"kind": "pool"})
        return {"layers": out, "input_shape": list(self.input_shape),
                "init_seed": self.init_seed}

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        layers = []
        for item in d["layers"]:
            kind = item["kind"]
            if kind == "conv":
                layers.append(ConvSpec(item["in_ch"], item["out_ch"], item["kernel"],
                                       item.get("stride", 1), item.get("padding", -1)))
            elif kind == "dense":
                layers.append(DenseSpec(item["in_features"], item["out_features"]))
            elif kind == "relu":
                layers.append(ReluSpec())
            elif kind == "pool":
                layers.append(PoolSpec())
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return ModelSpec(tuple(layers), tuple(d.get("input_shape", (1, 8, 8))),
                         d.get("init_seed", 0))


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


# ------------------------------------------------------------ unrolling


def unroll_conv(w: np.ndarray) -> np.ndarray:
    """(out_ch, in_ch, k, k) -> (in_ch*k*k, out_ch) matrix, rows ordered
    in_channel-major then kernel row then kernel column."""
    out_ch, in_ch, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"kernels must be square, got {w.shape}")
    return w.transpose(1, 2, 3, 0).reshape(in_ch * k * k, out_ch)


def reroll_conv(mat: np.ndarray, conv_shape: tuple[int, int, int, int]) -> np.ndarray:
    """Inverse of unroll_conv for a conv weight of shape (out_ch, in_ch, k, k)."""
    out_ch, in_ch, k, _ = conv_shape
    if mat.shape != (in_ch * k * k, out_ch):
        raise ValueError(f"matrix shape {mat.shape} does not re-roll to "
                         f"{conv_shape}")
    return mat.reshape(in_ch, k, k, out_ch).transpose(3, 0, 1, 2).copy()


def im2col(x: np.ndarray, k: int, stride: int, padding: int):
    """Unroll the k x k windows of a channels-last x (n, h, w, c) into a
    (n*ho*wo, c*k*k) matrix: one row per output position in (n, ho, wo)
    order, columns in (channel, kernel row, kernel column) order, the row
    order of `unroll_conv`. The (n, ho, wo, c, k, k) window view is copied
    once, in the order it is written. Returns (cols, ho, wo)."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    ho, wo = win.shape[1], win.shape[2]
    return np.ascontiguousarray(win).reshape(n * ho * wo, c * k * k), ho, wo


def col2im(dcols: np.ndarray, x_shape, k: int, stride: int, padding: int,
           ho: int, wo: int) -> np.ndarray:
    """Adjoint of `im2col`: sum the (n*ho*wo, c*k*k) column gradients back
    onto the channels-last input shape (n, h, w, c). Each input element
    receives its window terms in (kernel row, kernel column) order."""
    n, h, w, c = x_shape
    dxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    d6 = dcols.reshape(n, ho, wo, c, k, k)
    for kr in range(k):
        for kc in range(k):
            dxp[:, kr:kr + stride * ho:stride,
                kc:kc + stride * wo:stride] += d6[..., kr, kc]
    return dxp[:, padding:padding + h, padding:padding + w]


# --------------------------------------------------------------- layers


class Conv2d:
    """Convolution of a channels-last input (n, h, w, in_ch) to
    (n, ho, wo, out_ch) as one GEMM, `im2col(x) @ unroll_conv(w)`."""

    kind = "conv"

    def __init__(self, spec: ConvSpec, rng: np.random.Generator):
        fan_in = spec.in_ch * spec.kernel ** 2
        self.spec = spec
        self.w = rng.standard_normal((spec.out_ch, spec.in_ch, spec.kernel,
                                      spec.kernel)) * math.sqrt(2.0 / fan_in)
        self.grad_w = None
        self._cache = None

    def forward(self, x):
        k, s, p = self.spec.kernel, self.spec.stride, self.spec.pad()
        cols, ho, wo = im2col(x, k, s, p)
        out = cols @ unroll_conv(self.w)
        self._cache = (cols, x.shape, ho, wo)
        return out.reshape(x.shape[0], ho, wo, self.spec.out_ch)

    def grad_weights(self, dout):
        """Set grad_w from the output gradient (n, ho, wo, out_ch)."""
        cols = self._cache[0]
        grad_mat = cols.T @ dout.reshape(-1, self.spec.out_ch)
        self.grad_w = reroll_conv(grad_mat, self.w.shape)

    def backward(self, dout):
        """Set grad_w and return the input gradient (n, h, w, in_ch)."""
        self.grad_weights(dout)
        _, x_shape, ho, wo = self._cache
        k, s, p = self.spec.kernel, self.spec.stride, self.spec.pad()
        dcols = dout.reshape(-1, self.spec.out_ch) @ unroll_conv(self.w).T
        return col2im(dcols, x_shape, k, s, p, ho, wo)


class Dense:
    kind = "dense"

    def __init__(self, spec: DenseSpec, rng: np.random.Generator):
        self.spec = spec
        self.w = rng.standard_normal((spec.in_features, spec.out_features)) \
            * math.sqrt(2.0 / spec.in_features)
        self.grad_w = None
        self._cache = None

    def forward(self, x):
        self._cache = x
        return x @ self.w

    def grad_weights(self, dout):
        """Set grad_w from the output gradient (n, out_features)."""
        self.grad_w = self._cache.T @ dout

    def backward(self, dout):
        """Set grad_w and return the input gradient (n, in_features)."""
        self.grad_weights(dout)
        return dout @ self.w.T


class ReLU:
    kind = "relu"

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


def _where_bits(cond, a, b):
    """`np.where(cond, a, b)` for float64 arrays, bit for bit, by integer
    masking. np.where branches on every element, which costs 2-3x more on
    the data-dependent masks of max pooling."""
    ai, bi = a.view(np.int64), b.view(np.int64)
    return (bi ^ ((ai ^ bi) & -cond.astype(np.int64))).view(np.float64)


class MaxPool2:
    """2x2 max pooling, stride 2, over a channels-last (n, h, w, c); an odd
    last row or column is dropped. The window's four entries are strided
    views of x, compared in row-major window order: an entry replaces the
    running maximum only if it is larger or is the window's first NaN, so
    the entry kept is the one `argmax` would pick, and a tie goes to the
    first. An int8 index keeps that entry, and backward routes the whole
    gradient to it and +0.0 to the other three."""

    kind = "pool"

    @staticmethod
    def _views(x):
        """The four entries of every window, in row-major window order."""
        h2, w2 = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
        return [x[:, r:h2:2, c:w2:2] for r in (0, 1) for c in (0, 1)]

    def forward(self, x):
        best, *rest = self._views(x)
        idx = np.zeros(best.shape, dtype=np.int8)
        for j, view in enumerate(rest, start=1):
            # argmax's rule: a larger value or the window's first NaN wins
            upd = ~(view <= best) & (best == best)
            best = _where_bits(upd, view, best)
            idx = np.maximum(idx, upd * np.int8(j))   # j exceeds every earlier index
        self._idx = idx
        self._x_shape = x.shape
        return best

    def backward(self, dout):
        dx = np.zeros(self._x_shape)
        bits = dout.view(np.int64)
        for j, view in enumerate(self._views(dx)):
            keep = -(self._idx == j).astype(np.int64)
            np.bitwise_and(bits, keep, out=view.view(np.int64))
        return dx


class Flatten:
    """Channels-last (n, h, w, c) to (n, c*h*w) in (c, h, w) order, the row
    order of the next dense layer's weights and of its masks' channel
    groups (`rows_per_channel = h*w`)."""

    kind = "flatten"

    def forward(self, x):
        self._shape = x.shape
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)

    def backward(self, dout):
        n, h, w, c = self._shape
        return dout.reshape(n, c, h, w).transpose(0, 2, 3, 1)


class Network:
    """Layer stack built from a ModelSpec; trainable layers are named
    conv1.., dense1.. in order."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.init_seed)
        self.layers = []
        self.trainable: list[tuple[str, object]] = []
        counts = {"conv": 0, "dense": 0}
        flat = False
        for layer_spec, incoming in spec.shape_walk():
            if isinstance(layer_spec, ConvSpec):
                counts["conv"] += 1
                layer = Conv2d(layer_spec, rng)
                self.layers.append(layer)
                self.trainable.append((f"conv{counts['conv']}", layer))
            elif isinstance(layer_spec, DenseSpec):
                if not flat and isinstance(incoming, tuple):
                    self.layers.append(Flatten())
                    flat = True
                counts["dense"] += 1
                layer = Dense(layer_spec, rng)
                self.layers.append(layer)
                self.trainable.append((f"dense{counts['dense']}", layer))
            elif isinstance(layer_spec, ReluSpec):
                self.layers.append(ReLU())
            elif isinstance(layer_spec, PoolSpec):
                self.layers.append(MaxPool2())

    def forward(self, x):
        """Logits (n, classes) for NCHW images x (n, c, h, w)."""
        x = np.asarray(x, dtype=np.float64).transpose(0, 2, 3, 1)
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dout):
        """Set grad_w of every trainable layer from the gradient of the
        logits. No input gradient is formed for the first trainable layer,
        since nothing before it learns."""
        first = self.layers.index(self.trainable[0][1])
        for layer in reversed(self.layers[first + 1:]):
            dout = layer.backward(dout)
        self.layers[first].grad_weights(dout)

    def weights(self) -> dict[str, np.ndarray]:
        return {name: layer.w for name, layer in self.trainable}

    def unrolled_weights(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self.trainable:
            out[name] = unroll_conv(layer.w) if layer.kind == "conv" else layer.w.copy()
        return out

    def set_unrolled_weights(self, matrices: dict[str, np.ndarray]):
        for name, layer in self.trainable:
            if name not in matrices:
                raise ValueError(f"missing weights for layer {name}")
            mat = np.asarray(matrices[name], dtype=float)
            if layer.kind == "conv":
                layer.w = reroll_conv(mat, layer.w.shape)
            else:
                if mat.shape != layer.w.shape:
                    raise ValueError(f"{name}: shape {mat.shape} != {layer.w.shape}")
                layer.w = mat.copy()

    def copy(self) -> "Network":
        """A network with the same spec and a copy of the weights; no
        activation cache or gradient is carried over."""
        out = Network(self.spec)
        for (_, mine), (_, theirs) in zip(self.trainable, out.trainable):
            theirs.w = mine.w.copy()
        return out

    def _drop_activations(self):
        """Forget what the last forward pass kept in every layer for
        backward (the underscored attributes)."""
        for layer in self.layers:
            for name in vars(layer):
                if name.startswith("_"):
                    setattr(layer, name, None)


# ------------------------------------------------------------- training


@dataclass
class WctConfig:
    percentile: float = 90.0
    epochs: int = 2

    def __post_init__(self):
        if not 0 < self.percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")
        if self.epochs < 1:
            raise ValueError("wct epochs must be >= 1")


@dataclass
class TrainConfig:
    lr: float = 0.05
    batch_size: int = 32
    epochs: int = 15
    seed: int = 0
    # SparsityPattern (needs .method and .masks): a "cf" net trains
    # compacted, an "xcs"/"xrs" net at full width with its masks re-applied
    pattern: object | None = None
    wct: WctConfig | None = None

    def __post_init__(self):
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("hyperparameters must be positive")


@dataclass
class Dataset:
    images: np.ndarray         # (n, 1, 8, 8) in [0, 1]
    labels: np.ndarray         # (n,) ints
    split: str = "train"

    def __len__(self):
        return self.images.shape[0]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = labels.shape[0]
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _masks_4d(model: Network, pattern) -> dict[str, np.ndarray]:
    """Unrolled masks converted to each layer's native weight shape."""
    out = {}
    for name, layer in model.trainable:
        if name not in pattern.masks:
            continue
        mask = np.asarray(pattern.masks[name], dtype=float)
        if layer.kind == "conv":
            out[name] = reroll_conv(mask, layer.w.shape)
        else:
            if mask.shape != layer.w.shape:
                raise ValueError(f"mask for {name} has shape {mask.shape}, "
                                 f"weights are {layer.w.shape}")
            out[name] = mask
    return out


@contextmanager
def _cf_compacted(model: Network, pattern):
    """Yield the dense sub-network that a C/F pattern leaves of `model`, its
    weights gathered from the kept rows and columns of every unrolled
    matrix; on exit, scatter them back into `model` at the same indices and
    zero everywhere else.

    The pattern must compact: every mask (a missing one keeps everything)
    must be the outer product of its kept rows and columns, its kept rows
    must be exactly the row groups of the channels the layer before keeps,
    the first layer must keep every input and the last every output.
    Anything else raises ValueError before `model` is touched."""
    infos = model.spec.unrolled_layers()
    comps = {}
    channels = np.arange(infos[0].in_channels)
    for info in infos:
        shape = (info.rows, info.cols)
        mask = np.asarray(pattern.masks.get(info.name, np.ones(shape)), dtype=float)
        if mask.shape != shape:
            raise ValueError(f"mask for {info.name} has shape {mask.shape}, "
                             f"weights are {shape}")
        comp = pruning.cf_compaction(mask)
        block = np.zeros(shape)
        block[np.ix_(comp.kept_rows, comp.kept_cols)] = 1.0
        if not np.array_equal(mask, block):
            raise ValueError(f"C/F mask for {info.name} is not whole rows "
                             f"and columns of ones")
        rpc = info.rows_per_channel
        if not np.array_equal(comp.kept_rows,
                              (channels[:, None] * rpc + np.arange(rpc)).ravel()):
            raise ValueError(f"C/F mask for {info.name} keeps other row groups "
                             f"than the channels the layer before keeps")
        channels = comp.kept_cols
        comps[info.name] = comp
    if channels.size != infos[-1].cols:
        raise ValueError(f"C/F mask for {infos[-1].name} prunes outputs of "
                         f"the last layer")

    sizes = iter(comps.values())
    layers = []
    for spec in model.spec.layers:
        if isinstance(spec, (ConvSpec, DenseSpec)):
            comp = next(sizes)
            rows, cols = comp.kept_rows.size, comp.kept_cols.size
            spec = (replace(spec, in_ch=rows // spec.kernel ** 2, out_ch=cols)
                    if isinstance(spec, ConvSpec) else DenseSpec(rows, cols))
        layers.append(spec)
    sub = Network(replace(model.spec, layers=tuple(layers)))
    full = model.unrolled_weights()
    sub.set_unrolled_weights({name: comp.apply(full[name])
                              for name, comp in comps.items()})
    yield sub
    for name, w in sub.unrolled_weights().items():
        comp = comps[name]
        full[name] = np.zeros(comp.orig_shape)
        full[name][np.ix_(comp.kept_rows, comp.kept_cols)] = w
    model.set_unrolled_weights(full)


def _project(model, masks, w_cut):
    """Clamp every weight into [-w_cut, w_cut] (unless w_cut is None), then
    zero the masked ones."""
    for name, layer in model.trainable:
        if w_cut is not None:
            layer.w = wct_clamp(layer.w, w_cut)
        if name in masks:
            layer.w *= masks[name]


def _sgd_epochs(model, dataset, config, epochs, masks, w_cut, rng):
    _project(model, masks, w_cut)
    losses = []
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            logits = model.forward(dataset.images[idx])
            loss, dlogits = softmax_cross_entropy(logits, dataset.labels[idx])
            if not np.isfinite(loss):
                raise FloatingPointError(f"training diverged: loss = {loss}")
            model.backward(dlogits)
            for _, layer in model.trainable:
                layer.w -= config.lr * layer.grad_w
            _project(model, masks, w_cut)
            total += loss * idx.size
            seen += idx.size
        losses.append(total / seen)
    return losses


def _fit(model, dataset, config, epochs, w_cut, rng):
    """`epochs` of SGD on `model` under `config.pattern`, weights clamped to
    [-w_cut, w_cut] unless w_cut is None; returns the per-epoch losses. A
    C/F pattern trains the compacted sub-network; any other pattern trains
    the full net with its masks re-applied after every update."""
    pattern = config.pattern
    if pattern is not None:
        unknown = sorted(set(pattern.masks) - {name for name, _ in model.trainable})
        if unknown:
            raise ValueError(f"masks for layers the model lacks: {unknown}")
    if pattern is not None and pattern.method == "cf":
        with _cf_compacted(model, pattern) as sub:
            return _sgd_epochs(sub, dataset, config, epochs, {}, w_cut, rng)
    masks = _masks_4d(model, pattern) if pattern is not None else {}
    return _sgd_epochs(model, dataset, config, epochs, masks, w_cut, rng)


def train(model: Network, dataset: Dataset, config: TrainConfig):
    """Minibatch SGD with cross-entropy for `config.epochs` epochs; returns
    (model, per-epoch mean loss). Under a C/F pattern the compacted
    sub-network trains and its weights are scattered back; under an XCS/XRS
    pattern the full net trains with the masks re-applied after every
    update. Either way pruned weights end exactly zero."""
    rng = np.random.default_rng(config.seed)
    return model, _fit(model, dataset, config, config.epochs, None, rng)


def wct_cutoff(model: Network, percentile: float) -> float:
    """Nearest-rank percentile of |w| pooled over all trainable weights."""
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    if not model.trainable:
        raise ValueError("model has no trainable layers")
    v = np.sort(np.abs(np.concatenate([layer.w.ravel() for _, layer in model.trainable])))
    rank = math.ceil(percentile / 100.0 * v.size)
    return float(v[rank - 1])


def wct_clamp(w: np.ndarray, w_cut: float) -> np.ndarray:
    """min(|W|, w_cut) * sign(W); the result lies in [-w_cut, w_cut]."""
    if w_cut <= 0:
        raise ValueError(f"w_cut must be positive, got {w_cut}")
    return np.minimum(np.abs(w), w_cut) * np.sign(w)


def wct_train(model: Network, dataset: Dataset, config: TrainConfig,
              w_cut: float | None = None):
    """Short retraining with weights projected into [-w_cut, w_cut] after
    every step, compacted or masked as in `train`; returns (model, w_cut).
    Unless given, w_cut is `wct_cutoff` of the full-width weights, pruned
    zeros included, even when a C/F net retrains compacted."""
    wct = config.wct if config.wct is not None else WctConfig()
    if w_cut is None:
        w_cut = wct_cutoff(model, wct.percentile)
    rng = np.random.default_rng([config.seed, 1])
    _fit(model, dataset, config, wct.epochs, w_cut, rng)
    return model, w_cut


def evaluate(model: Network, dataset: Dataset, batch_size: int = 256) -> float:
    """Fraction of argmax-correct predictions."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    for start in range(0, n, batch_size):
        logits = model.forward(dataset.images[start:start + batch_size])
        correct += int((logits.argmax(axis=1)
                        == dataset.labels[start:start + batch_size]).sum())
    model._drop_activations()
    return correct / n


def inject_nonideal_weights(model: Network, matrices: dict[str, np.ndarray]) -> Network:
    """New model whose forward pass uses the given unrolled weight matrices;
    the original model is untouched."""
    out = model.copy()
    out.set_unrolled_weights(matrices)
    return out


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


def _gen_split(seed_list, n: int, split: str) -> Dataset:
    rng = np.random.default_rng(seed_list)
    labels = np.arange(n) % 4                 # balanced to within one image
    labels = rng.permutation(labels)
    images = np.stack([_draw_image(rng, int(lab)) for lab in labels])
    return Dataset(images[:, None, :, :], labels.astype(np.int64), split)


def gen_synthetic_dataset(seed: int, n_train: int, n_test: int):
    """Four-class 8x8 shape dataset (horizontal bar, vertical bar, diagonal,
    blob) with Gaussian pixel noise; deterministic given the seed."""
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one sample per split")
    return (_gen_split([seed, 0], n_train, "train"),
            _gen_split([seed, 1], n_test, "test"))
