import dataclasses
import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from oracles import (
    col2im_padded,
    conv_block,
    conv_matrix,
    direct_conv2d,
    filter_bank,
    he_normal_init,
    im2col_padded,
    masked_sgd,
    native_weights,
    nearest_rank_cutoff,
    network_forward,
    numeric_gradient,
    relu_then_pool,
)
from xbarprune.nn import (
    Conv2d,
    ConvSpec,
    Dataset,
    DenseSpec,
    MaxPool2,
    ModelSpec,
    Network,
    PoolSpec,
    ReLU,
    ReluSpec,
    TrainConfig,
    WctConfig,
    col2im,
    evaluate,
    gen_synthetic_dataset,
    im2col,
    inject_nonideal_weights,
    reference_model_spec,
    tiny_model_spec,
    train,
    wct_train,
)
from xbarprune import _parallel, nn
from xbarprune.nn import _cross_entropy, _live_channels, _narrowed
from xbarprune.pruning import METHODS, SparsityPattern, gen_mask_cf, gen_mask_xcs, gen_mask_xrs

# every conv is padded by kernel // 2: an odd kernel keeps the map's size,
# an even one grows it by one
CONV_SPECS = [
    ConvSpec(2, 3, 3),
    ConvSpec(2, 3, 5),
    ConvSpec(1, 4, 2),
    ConvSpec(3, 2, 1),
]


def small_data(seed=0):
    return gen_synthetic_dataset(seed, 64, 16)


# odd, non-square maps: the pool drops a row and a column, a 2 x 2 conv
# grows the (3, 2) pooled map to (4, 3), and that map is flattened into a
# dense -> dense tail
ODD_SPEC = ModelSpec((ConvSpec(2, 3, 3), ReluSpec(), PoolSpec(),
                      ConvSpec(3, 4, 2), ReluSpec(),
                      DenseSpec(48, 5), ReluSpec(), DenseSpec(5, 3)),
                     input_shape=(2, 7, 5), init_seed=7)


def nhwc(x):
    return x.transpose(0, 2, 3, 1)


def nchw(x):
    return x.transpose(0, 3, 1, 2)


# ------------------------------------------------------------ forward pass


def conv_layer(spec, rng):
    """A Conv2d of `spec` with a normal filter bank drawn from `rng`."""
    bank = rng.normal(size=(spec.out_ch, spec.in_ch, spec.kernel, spec.kernel))
    w = np.ascontiguousarray(conv_matrix(bank))
    return Conv2d((spec.kernel, spec.kernel), spec.kernel // 2, w)


@pytest.mark.parametrize("spec", CONV_SPECS)
def test_conv_forward_matches_direct_conv(spec):
    rng = np.random.default_rng(spec.in_ch * 10 + spec.kernel)
    layer = conv_layer(spec, rng)
    x = rng.normal(size=(2, spec.in_ch, 7, 6))
    out = nchw(layer.forward(nhwc(x)))
    ref = direct_conv2d(x, filter_bank(layer.w, spec.kernel), spec.kernel // 2)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("spec", [
    reference_model_spec(init_seed=5),
    tiny_model_spec(init_seed=6),
    ODD_SPEC,
], ids=["reference", "tiny", "odd"])
def test_network_forward_matches_looped_oracle(spec):
    net = Network(spec)
    x = np.random.default_rng(8).normal(size=(3, *spec.input_shape))
    ref = network_forward(spec.layers,
                          native_weights(spec.layers, net.unrolled_weights().values()), x)
    np.testing.assert_allclose(net.forward(x), ref, rtol=1e-12, atol=1e-13)


def test_network_forward_runs_float32_images_in_float64():
    # a pool first sees the images themselves
    net = Network(ModelSpec((PoolSpec(), ConvSpec(1, 2, 3), DenseSpec(32, 2))))
    x = np.random.default_rng(3).random((3, 1, 8, 8)).astype(np.float32)
    logits = net.forward(x)
    assert logits.dtype == np.float64
    assert logits.tobytes() == net.forward(x.astype(np.float64)).tobytes()



@pytest.mark.parametrize("spec", [reference_model_spec(init_seed=5), ODD_SPEC],
                         ids=["reference", "odd"])
def test_full_window_layer_is_flatten_then_gemm_bit_for_bit(spec):
    # the first dense layer's window is its whole (c, h, w) input map: its
    # forward and weight gradient are the GEMMs of the flattened map
    (c, h, w), = [shape for layer, shape in spec.shape_walk() if isinstance(layer, DenseSpec)][:1]
    dense = dict(Network(spec).trainable)["dense1"]
    assert (dense.window, dense.padding) == ((h, w), 0)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, h, w, c))
    flat = x.transpose(0, 3, 1, 2).reshape(len(x), -1)
    out = dense.forward(x)
    assert out.shape == (6, 1, 1, dense.w.shape[1])
    assert same_bits(out.reshape(6, -1), flat @ dense.w)
    dout = rng.normal(size=out.shape)
    dx = dense.backward(dout)
    assert same_bits(dense.grad_w, flat.T @ dout.reshape(6, -1))
    np.testing.assert_allclose(nchw(dx).reshape(6, -1), dout.reshape(6, -1) @ dense.w.T,
                               rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("shape", [(3, 1, 9, 9), (3, 1, 10, 10), (3, 1, 12, 12), (3, 1, 8, 7),
                                   (3, 2, 8, 8), (3, 8, 8), (1, 3, 1, 8, 8), (3, 8, 8, 1)])
@pytest.mark.parametrize("spec_fn", [reference_model_spec, tiny_model_spec])
def test_forward_rejects_images_of_another_shape(spec_fn, shape):
    # 10x10 and 12x12 images once ran to (n, 16) and (n, 36) "logits"
    net = Network(spec_fn())
    with pytest.raises(ValueError, match=r"images must be \(n, 1, 8, 8\)"):
        net.forward(np.zeros(shape))
    with pytest.raises(ValueError, match="images must be"):
        net.forward(np.zeros(shape, dtype=np.float32))
    assert net.forward(np.zeros((3, 1, 8, 8), dtype=np.float32)).shape == (3, 4)


@pytest.mark.parametrize("spec", [reference_model_spec(), tiny_model_spec(), ODD_SPEC],
                         ids=["reference", "tiny", "odd"])
def test_forward_on_an_empty_batch_returns_no_logits(spec):
    classes = spec.unrolled_layers()[-1].cols
    logits = Network(spec).forward(np.zeros((0, *spec.input_shape)))
    assert logits.shape == (0, classes)


@pytest.mark.parametrize("window, first", [
    ([[2.0, 2.0], [2.0, 2.0]], (0, 0)),
    ([[1.0, 3.0], [3.0, 3.0]], (0, 1)),
    ([[1.0, 0.0], [4.0, 4.0]], (1, 0)),
    ([[-0.0, 0.0], [0.0, -1.0]], (0, 0)),
    ([[1.0, 2.0], [0.0, 5.0]], (1, 1)),
    ([[1.0, 7.0], [np.nan, np.nan]], (1, 0)),
    ([[np.nan, 7.0], [np.nan, 9.0]], (0, 0)),
])
def test_max_pool_tie_sends_gradient_to_first_entry(window, first):
    # the entry argmax picks (the first maximum, or the first NaN) of the one
    # 2x2 window of a 3x3 map, whose last row and column are dropped
    x = np.full((1, 3, 3, 1), 9.0)
    x[0, :2, :2, 0] = window
    pool = MaxPool2()
    out = pool.forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out.tobytes() == np.float64(window[first[0]][first[1]]).tobytes()
    dx = pool.backward(np.full((1, 1, 1, 1), 5.0))
    expected = np.zeros((1, 3, 3, 1))
    expected[0, first[0], first[1], 0] = 5.0
    assert dx.tobytes() == expected.tobytes()


# ------------------------------------------------- conv block data path


def same(a, b):
    """Equal shapes and values, NaN equal to NaN; +0.0 equals -0.0."""
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# (in_ch, out_ch, kernel, map h, map w)
BLOCKS = [
    (1, 4, 3, 8, 8),
    (3, 5, 3, 7, 5),        # odd map: the pool drops a row and a column
    (2, 4, 3, 9, 7),
    (4, 3, 2, 8, 9),        # even kernel: the map grows to (9, 10)
    (2, 3, 5, 6, 7),
    (3, 2, 1, 5, 5),
]


def block_spec(block, *tail):
    """The block's conv, then the `tail` layers, then a dense head on the
    flattened output map."""
    in_ch, out_ch, k, h, w = block
    ho, wo = h + 1 - k % 2, w + 1 - k % 2
    if PoolSpec() in tail:
        ho, wo = ho // 2, wo // 2
    return ModelSpec((ConvSpec(in_ch, out_ch, k), *tail,
                      DenseSpec(out_ch * ho * wo, 2)), input_shape=(in_ch, h, w))


def block_map(rng, shape, kind):
    """A channels-last map: "normal" values, "small" integers in -2..2
    (conv outputs full of ties, zeros and all-negative pool windows) or
    "nan" (normal with a few NaN)."""
    if kind == "small":
        return rng.integers(-2, 3, size=shape).astype(float)
    x = rng.normal(size=shape)
    if kind == "nan":
        x[rng.random(shape) < 0.03] = np.nan
    return x


# (in_ch, window, padding, map h, map w): every block's square window,
# then rectangular ones: the whole map of the reference model's and
# ODD_SPEC's dense layers, a 1 x 1 window on a flat size, and padded
# windows taller or wider than they are long, one padded past its reach
WINDOWS = [(in_ch, (k, k), k // 2, h, w) for in_ch, _, k, h, w in BLOCKS] + [
    (6, (2, 2), 0, 2, 2),
    (4, (4, 3), 0, 4, 3),
    (5, (1, 1), 0, 1, 1),
    (2, (3, 2), 0, 5, 4),
    (3, (1, 4), 1, 6, 7),
    (2, (4, 3), 2, 7, 5),
    (2, (2, 3), 4, 3, 2),
]


def slab_order(d, in_ch, window):
    """(channel, window row, window column) columns in the (window row,
    window column, channel) order that col2im takes."""
    return d.reshape(-1, in_ch, *window).transpose(0, 2, 3, 1).reshape(d.shape)


@pytest.mark.parametrize("block", WINDOWS)
def test_im2col_and_col2im_match_the_padded_oracles_bit_for_bit(block):
    in_ch, window, padding, h, w = block
    rng = np.random.default_rng(in_ch + sum(window) + padding + h + w)
    x = rng.normal(size=(3, h, w, in_ch))
    cols, ho, wo = im2col(x, window, padding)
    ref, ref_ho, ref_wo = im2col_padded(x, window, padding)
    assert (ho, wo) == (ref_ho, ref_wo)
    assert same_bits(cols, ref)
    d = rng.normal(size=ref.shape)
    dx = col2im(slab_order(d, in_ch, window), x.shape, window, padding)
    assert same_bits(dx, col2im_padded(d, x.shape, window, padding, ho, wo))


@pytest.mark.parametrize("block", WINDOWS)
def test_col2im_is_the_adjoint_of_im2col(block):
    in_ch, window, padding, h, w = block
    rng = np.random.default_rng(100 + in_ch + sum(window) + padding + h + w)
    x = rng.normal(size=(2, h, w, in_ch))
    cols, _, _ = im2col(x, window, padding)
    d = rng.normal(size=cols.shape)
    lhs = np.sum(cols * d)
    rhs = np.sum(x * col2im(slab_order(d, in_ch, window), x.shape, window, padding))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("kind", ["normal", "small", "nan"])
@pytest.mark.parametrize("block", BLOCKS)
def test_conv_relu_pool_block_matches_the_spec_order_oracle(block, kind):
    # the block as Network builds it (conv, pool, then ReLU on the pooled
    # map) against conv -> ReLU -> pool through the padded im2col/col2im
    in_ch, out_ch, k, h, w = block
    spec = block_spec(block, ReluSpec(), PoolSpec())
    net = Network(spec)
    layers, conv = net.layers[:3], net.layers[0]
    assert [layer.kind for layer in layers] == ["conv", "pool", "relu"]
    rng = np.random.default_rng(200 + sum(block))
    bank = block_map(rng, (out_ch, in_ch, k, k), "small" if kind == "small" else "normal")
    net.set_unrolled_weights({**net.unrolled_weights(), "conv1": conv_matrix(bank)})
    x = block_map(rng, (8, h, w, in_ch), kind)
    maps = [x]
    for layer in layers:
        maps.append(layer.forward(maps[-1]))
    out = maps[-1]
    dout = rng.normal(size=out.shape)
    dx = dout
    for layer in reversed(layers):
        dx = layer.backward(dx)
    # the oracle's GEMMs see the layer's weight matrix: the BLAS may round a
    # product by a transposed operand differently
    ref_out, ref_dx, ref_grad_w = conv_block(x, filter_bank(conv.w, k), dout)
    assert same(out, ref_out)
    assert same(dx, ref_dx)
    assert same(conv.grad_w, conv_matrix(ref_grad_w))
    if kind == "small":
        # the integer maps do reach the pool with the windows the reordering
        # must get right: ties, zeros and all-negative windows
        assert np.any(maps[1] == 0) and np.any(maps[2] <= 0)


@pytest.mark.parametrize("kind", ["normal", "nan"])
@pytest.mark.parametrize("block", BLOCKS)
def test_conv_relu_block_matches_the_oracle_bit_for_bit(block, kind):
    # no pool: the GEMMs see the oracle's operands in the oracle's K order
    in_ch, out_ch, k, h, w = block
    spec = block_spec(block, ReluSpec())
    conv, relu, _ = Network(spec).layers
    rng = np.random.default_rng(300 + sum(block))
    x = block_map(rng, (2, h, w, in_ch), kind)
    out = relu.forward(conv.forward(x))
    dout = rng.normal(size=out.shape)
    dx = conv.backward(relu.backward(dout))
    ref_out, ref_dx, ref_grad_w = conv_block(x, filter_bank(conv.w, k), dout, pool=False)
    assert same_bits(out, ref_out)
    assert same_bits(dx, ref_dx)
    assert same_bits(conv.grad_w, conv_matrix(ref_grad_w))


@pytest.mark.parametrize("window", [
    [[2.0, 2.0], [2.0, 2.0]],
    [[1.0, 3.0], [3.0, 3.0]],
    [[-0.0, 0.0], [0.0, -1.0]],
    [[0.0, -0.0], [-0.0, 0.0]],
    [[-3.0, 0.0], [-1.0, -0.0]],
    [[-3.0, -1.0], [-1.0, -2.0]],
    [[-1.0, 7.0], [np.nan, np.nan]],
    [[np.nan, 7.0], [-np.nan, 9.0]],
    [[-2.0, -1.0], [np.nan, -5.0]],
    [[-np.inf, -1.0], [-np.inf, -2.0]],
    [[-np.inf, -np.inf], [-np.inf, -np.inf]],
    [[-np.inf, 3.0], [np.inf, -np.inf]],
    [[-np.inf, -0.0], [np.nan, -np.inf]],
])
@pytest.mark.parametrize("grad", [5.0, -5.0])
def test_relu_after_the_pool_matches_relu_before_it(window, grad):
    # the one 2x2 window of a 3x3 map (last row and column dropped) in
    # every channel, ahead of a negative channel and a positive one
    x = np.full((1, 3, 3, 3), 9.0)
    x[0, :2, :2, :] = np.asarray(window)[..., None]
    x[0, :2, :2, 1] = -4.0
    layers = [MaxPool2(), ReLU()]
    out = x
    for layer in layers:
        out = layer.forward(out)
    dout = np.full(out.shape, grad)
    dx = dout
    for layer in reversed(layers):
        dx = layer.backward(dx)
    ref_out, ref_dx = relu_then_pool(x, dout)
    assert same(out, ref_out)
    assert same(dx, ref_dx)
    positive = np.nanmax(window) > 0 or np.isnan(window).any()
    if positive:
        assert same_bits(out[..., 0], ref_out[..., 0])
        assert same_bits(dx[..., 0], ref_dx[..., 0])


def test_relu_maps_minus_inf_to_minus_zero():
    # x * (x > 0) everywhere it is a number; it is NaN at -inf, where ReLU
    # now gives -0.0, and at NaN, which stays NaN
    rng = np.random.default_rng(31)
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    x = np.concatenate([
        [-np.inf, np.inf, np.nan, -np.nan, 0.0, -0.0, tiny, -tiny, huge, -huge],
        rng.normal(size=250) * 10.0 ** rng.integers(-300, 300, 250),
        rng.normal(size=250)]).reshape(2, 5, 51)
    layer = ReLU()
    out = layer.forward(x)
    with np.errstate(invalid="ignore"):
        old = x * (x > 0)
    number = ~np.isnan(old)
    assert same_bits(out[number], old[number])
    assert np.array_equal(np.isnan(out), np.isnan(x))
    assert same_bits(out[x == -np.inf], np.array([-0.0]))
    dout = rng.normal(size=x.shape)
    assert same_bits(layer.backward(dout), dout * (x > 0))


# --------------------------------------------------------------- gradients


@pytest.mark.parametrize("spec", CONV_SPECS)
def test_conv_grad_w_matches_numeric_gradient(spec):
    rng = np.random.default_rng(7)
    layer = conv_layer(spec, rng)
    x = nhwc(rng.normal(size=(2, spec.in_ch, 6, 6)))
    probe = rng.normal(size=layer.forward(x).shape)
    layer.backward(probe)
    idx = rng.choice(layer.w.size, size=min(12, layer.w.size), replace=False)
    numeric = numeric_gradient(lambda: float(np.sum(layer.forward(x) * probe)),
                               layer.w, idx)
    np.testing.assert_allclose(layer.grad_w.reshape(-1)[idx], numeric,
                               rtol=1e-6, atol=1e-9)


def test_rectangular_window_gradients_match_numeric_gradients():
    # a padded (3, 2) window: every weight, and the input gradient that
    # col2im forms from the permuted W^T
    rng = np.random.default_rng(8)
    layer = Conv2d((3, 2), 1, rng.normal(size=(3 * 3 * 2, 4)))
    x = rng.normal(size=(2, 3, 3, 3))
    probe = rng.normal(size=layer.forward(x).shape)
    dx = layer.backward(probe)

    def loss():
        return float(np.sum(layer.forward(x) * probe))

    np.testing.assert_allclose(
        layer.grad_w.reshape(-1), numeric_gradient(loss, layer.w, np.arange(layer.w.size)),
        rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(dx.reshape(-1), numeric_gradient(loss, x, np.arange(x.size)),
                               rtol=1e-6, atol=1e-9)


def assert_backprop_matches_numeric_gradient(net, x, labels):
    n = labels.shape[0]

    def loss():
        return _cross_entropy(net.forward(x), labels, n)[0] / n

    _, dlogits = _cross_entropy(net.forward(x), labels, n)
    net.backward(dlogits)
    rng = np.random.default_rng(4)
    for _, layer in net.trainable:
        idx = rng.choice(layer.w.size, size=10, replace=False)
        analytic = layer.grad_w.reshape(-1)[idx].copy()
        np.testing.assert_allclose(analytic, numeric_gradient(loss, layer.w, idx),
                                   rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("spec", [reference_model_spec(init_seed=2), ODD_SPEC],
                         ids=["reference", "odd"])
def test_weight_gradients_have_the_shape_of_the_weight_matrices(spec):
    net = Network(spec)
    rng = np.random.default_rng(2)
    logits = net.forward(rng.random((3, *spec.input_shape)))
    net.backward(_cross_entropy(logits, rng.integers(0, logits.shape[1], size=3), 3)[1])
    for (name, layer), info in zip(net.trainable, spec.unrolled_layers(), strict=True):
        assert layer.grad_w.shape == layer.w.shape == (info.rows, info.cols), name


def test_network_backprop_matches_numeric_gradient():
    # cross-entropy through conv, ReLU, max pooling and dense
    data, _ = small_data(seed=3)
    assert_backprop_matches_numeric_gradient(
        Network(tiny_model_spec(init_seed=3)), data.images[:8], data.labels[:8])


def test_two_conv_network_backprop_matches_numeric_gradient():
    # the second conv's input gradient (col2im), pooling over an odd map and
    # the flatten feed every gradient of the first conv
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, *ODD_SPEC.input_shape))
    assert_backprop_matches_numeric_gradient(Network(ODD_SPEC), x,
                                             rng.integers(0, 3, size=4))


def test_the_layers_compute_in_the_dtype_of_their_input():
    # one code path for both precisions: a float32 input gives float32
    # outputs and gradients, and ReLU and the pool, which only select and
    # route, give bitwise the float64 results of the same values
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 5, 7, 3))
    x.flat[:4] = -np.inf, np.nan, 0.0, -0.0
    x32 = x.astype(np.float32)
    for layer in (ReLU(), MaxPool2()):
        out = layer.forward(x32)
        dout = rng.normal(size=out.shape).astype(np.float32)
        dx = layer.backward(dout)
        assert out.dtype == dx.dtype == np.float32
        assert same_bits(out, layer.forward(x32.astype(np.float64)).astype(np.float32))
        assert same_bits(dx, layer.backward(dout.astype(np.float64)).astype(np.float32))
    cols, ho, wo = im2col(x32, (3, 2), 1)
    assert cols.dtype == np.float32
    assert same_bits(cols, im2col(x32.astype(np.float64), (3, 2), 1)[0].astype(np.float32))
    assert col2im(cols[:, ::-1], x32.shape, (3, 2), 1).dtype == np.float32
    loss, dlogits = _cross_entropy(x32[:, 1, 1], np.array([0, 2]), 4)
    assert loss.dtype == dlogits.dtype == np.float32


# ------------------------------------------------------ masks and WCT


@pytest.mark.parametrize("make_pattern", [
    lambda spec: gen_mask_cf(spec, 0.5, seed=1),
    lambda spec: gen_mask_xcs(spec, 0.5, 8, seed=1),
])
def test_mask_zeros_survive_train_and_wct(make_pattern):
    spec = tiny_model_spec(init_seed=1)
    pattern = make_pattern(spec)
    net = Network(spec)
    train_set, _ = small_data()
    config = TrainConfig(epochs=2, seed=2, pattern=pattern, wct=WctConfig(epochs=1))
    train(net, train_set, config)
    for name, w in net.unrolled_weights().items():
        assert np.all(w[pattern.masks[name] == 0] == 0.0)
        assert np.any(w != 0.0)
    wct_train(net, train_set, config)
    for name, w in net.unrolled_weights().items():
        assert np.all(w[pattern.masks[name] == 0] == 0.0)


# ------------------------------------------- live sub-network training


def make_pattern(method, spec, seed):
    if method == "cf":
        return gen_mask_cf(spec, 0.5, seed)
    return (gen_mask_xcs if method == "xcs" else gen_mask_xrs)(spec, 0.5, 8, seed)


def oracle_train(net, data, config):
    """`train` by the full-width masked_sgd oracle."""
    return masked_sgd(net, data, config.pattern.masks, config.lr, config.batch_size,
                      config.epochs, np.random.default_rng(config.seed))


def pin_cutoff(monkeypatch, w_cut):
    """Make `wct_train` clamp at `w_cut` whatever the weights."""
    monkeypatch.setattr(nn, "wct_cutoff", lambda model, percentile: w_cut)


def oracle_wct(net, data, config, w_cut=None):
    """`wct_train` by the full-width masked_sgd oracle, at `w_cut` or else
    at the nearest-rank cutoff of the weights; returns w_cut."""
    if w_cut is None:
        w_cut = nearest_rank_cutoff(net, config.wct.percentile)
    masked_sgd(net, data, config.pattern.masks, config.lr, config.batch_size,
               config.wct.epochs, np.random.default_rng([config.seed, 1]), w_cut)
    return w_cut


def odd_data(n=24, seed=5):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, *ODD_SPEC.input_shape)), rng.integers(0, 3, size=n))


# A fit trains its live sub-network in float32 and the masked_sgd oracle
# runs in float64, so the two agree to float32 rounding, not to 1e-12.
# With u = 2**-24, float32's unit roundoff: a K-term dot product carries a
# worst-case rounding error of about K*u of the sum of its terms'
# magnitudes (Higham, "Accuracy and Stability of Numerical Algorithms",
# 2002, section 3.1), and the longest inner dimension of any GEMM in these
# fits is K = 2048 (conv1's weight gradient over a 32-image half of the
# reference net, 32 images x 64 positions). Hence 2048 * u = 2**-13, about
# 1.2e-4, for weights relative to each layer's largest one, losses and
# w_cut. Measured on the 51 oracle cases: rounding alone moves a weight by
# at most 2.9 u. Two cases break a tie. In [wct-reference-cf], two entries
# of a max-pool window that are equal in real arithmetic (clipped pixels
# times conv1 weights clamped to +-w_cut) round apart in opposite ways in
# the two precisions, the window's gradient goes to another input, and a
# conv1 weight moves by 535 u. In [wct-odd-cf], three dense1 outputs that
# cancel to within rounding of zero take opposite signs, the ReLU after
# dense1 passes their gradients in one precision only, and conv2 and dense1
# weights move by 91 u. A flipped mask entry or a skipped projection moves
# the weights by far more (test_the_float32_tolerance_rejects_a_wrong_fit).
FLOAT32_RTOL = 2048 * 2.0 ** -24


def assert_weights_match(a: Network, b: Network, rtol=FLOAT32_RTOL):
    for (name, wa), wb in zip(a.unrolled_weights().items(), b.unrolled_weights().values()):
        assert np.array_equal(wa == 0, wb == 0), name
        assert np.abs(wa - wb).max() <= rtol * np.abs(wb).max(), name


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("spec", [reference_model_spec(init_seed=3), ODD_SPEC],
                         ids=["reference", "odd"])
@pytest.mark.parametrize("wct", [False, True], ids=["sgd", "wct"])
def test_sgd_step_matches_the_masked_sgd_oracle(monkeypatch, spec, wct, method):
    # one batch, one epoch: a single step from the same weights, whose
    # pruned entries are not zero yet
    data = odd_data() if spec is ODD_SPEC else small_data(seed=4)[0]
    config = TrainConfig(epochs=1, batch_size=len(data), seed=1,
                         pattern=make_pattern(method, spec, seed=3), wct=WctConfig(epochs=1))
    net, ref = Network(spec), Network(spec)
    if wct:
        pin_cutoff(monkeypatch, 0.05)
        wct_train(net, data, config)
        oracle_wct(ref, data, config, w_cut=0.05)
    else:
        train(net, data, config)
        oracle_train(ref, data, config)
    assert_weights_match(net, ref)


@pytest.mark.parametrize("method", METHODS)
def test_train_and_wct_match_the_masked_sgd_oracle(method):
    spec = tiny_model_spec(init_seed=4)
    train_set, _ = small_data(seed=2)
    config = TrainConfig(epochs=3, seed=4, pattern=make_pattern(method, spec, seed=4),
                         wct=WctConfig(epochs=2))
    net, ref = Network(spec), Network(spec)
    _, losses = train(net, train_set, config)
    np.testing.assert_allclose(losses, oracle_train(ref, train_set, config),
                               rtol=FLOAT32_RTOL, atol=0)
    assert_weights_match(net, ref)
    _, w_cut = wct_train(net, train_set, config)
    assert w_cut == pytest.approx(oracle_wct(ref, train_set, config), rel=FLOAT32_RTOL, abs=0)
    assert_weights_match(net, ref)


@pytest.mark.parametrize("fault", ["flipped-mask-entry", "no-projection"])
@pytest.mark.parametrize("wct", [False, True], ids=["train", "wct"])
def test_the_float32_tolerance_rejects_a_wrong_fit(monkeypatch, fault, wct):
    # the oracle fits of test_train_and_wct_match_the_masked_sgd_oracle,
    # the package's run with one fault: the weights alone, zeros aside,
    # then lie more than the tolerance from the oracle's
    spec = tiny_model_spec(init_seed=4)
    train_set, _ = small_data(seed=2)
    config = TrainConfig(epochs=3, seed=4, pattern=make_pattern("xcs", spec, seed=4),
                         wct=WctConfig(epochs=2))
    wrong = config
    if fault == "flipped-mask-entry":           # conv1's first pruned entry kept
        masks = {name: mask.copy() for name, mask in config.pattern.masks.items()}
        masks["conv1"].flat[np.flatnonzero(masks["conv1"] == 0)[0]] = 1.0
        wrong = dataclasses.replace(config, pattern=dataclasses.replace(config.pattern,
                                                                        masks=masks))
    else:
        monkeypatch.setattr(nn, "_project", lambda model, pruned, w_cut: None)
    net, ref = Network(spec), Network(spec)
    if wct:
        pin_cutoff(monkeypatch, 0.05)
        wct_train(net, train_set, wrong)
        oracle_wct(ref, train_set, config, w_cut=0.05)
    else:
        train(net, train_set, wrong)
        oracle_train(ref, train_set, config)
    deviation = max(np.abs(wa - wb).max() / np.abs(wb).max()
                    for wa, wb in zip(net.unrolled_weights().values(),
                                      ref.unrolled_weights().values()))
    assert deviation > 100 * FLOAT32_RTOL
    with pytest.raises(AssertionError):
        assert_weights_match(net, ref)


def test_public_nets_and_evaluate_stay_float64(monkeypatch):
    # the sub-network a fit trains is float32, and every live weight it
    # scatters back is a float32 value; every net a caller holds, and every
    # forward of evaluate, stays float64
    spec = reference_model_spec(init_seed=2)
    pattern = gen_mask_cf(spec, 0.5, seed=2)
    seen = set()
    forward = Conv2d._forward

    def spy(self, x, keep):
        seen.add((keep, self.w.dtype.name, x.dtype.name))
        return forward(self, x, keep)

    monkeypatch.setattr(Conv2d, "_forward", spy)
    assert all(w.dtype == np.float64 for w in nn.he_normal(spec).values())
    net = Network(spec)
    train_set, test_set = small_data()
    config = TrainConfig(epochs=1, seed=2, pattern=pattern, wct=WctConfig(epochs=1))
    train(net, train_set, config)
    wct_train(net, train_set, config)
    assert seen == {(True, "float32", "float32")}
    live = _live_channels(spec, pattern.masks)
    for info, ins, outs in zip(spec.unrolled_layers(), live, live[1:]):
        w = net.unrolled_weights()[info.name]
        assert w.dtype == np.float64
        kept = w[np.ix_(nn._row_groups(ins, info.rows_per_channel), outs)]
        assert kept.tobytes() == kept.astype(np.float32).astype(np.float64).tobytes()
    seen.clear()
    evaluate(net, test_set)
    assert seen == {(False, "float64", "float64")}
    float32_weights = {k: w.astype(np.float32) for k, w in net.unrolled_weights().items()}
    for other in (net.copy(), inject_nonideal_weights(net, float32_weights)):
        assert all(w.dtype == np.float64 for w in other.unrolled_weights().values())
        assert other.forward(test_set.images.astype(np.float32)).dtype == np.float64


def test_wct_keeps_every_sub_network_weight_within_the_cutoff(monkeypatch):
    # float32(0.05) rounds up to 0.0500000007: the sub-network's clamp
    # rounds w_cut toward zero instead, so no step leaves a weight above it
    w_cut = 0.05
    assert float(np.float32(w_cut)) > w_cut
    step, largest = nn._step, []

    def spy(model, grads, lr, pruned, cut):
        step(model, grads, lr, pruned, cut)
        largest.append(max(float(np.abs(layer.w).max()) for _, layer in model.trainable))

    monkeypatch.setattr(nn, "_step", spy)
    spec = reference_model_spec(init_seed=3)
    net = Network(spec)
    config = TrainConfig(epochs=1, seed=1, pattern=gen_mask_cf(spec, 0.5, seed=3),
                         wct=WctConfig(epochs=2))
    pin_cutoff(monkeypatch, w_cut)
    wct_train(net, small_data()[0], config)
    assert len(largest) == 4
    assert max(largest) <= w_cut
    assert max(float(np.abs(w).max()) for w in net.unrolled_weights().values()) <= w_cut


@pytest.mark.parametrize("w_cut, expected", [
    (0.05, 0.049999997), (0.5, 0.5), (1e300, float(np.finfo(np.float32).max)),
    (1e-50, 0.0),
])
def test_the_float32_cutoff_is_the_largest_float32_not_above_it(w_cut, expected):
    cut = nn._float32_cut(w_cut)
    assert type(cut) is float
    assert cut == float(np.float32(expected)) and cut <= w_cut
    with np.errstate(over="ignore"):        # float32's largest steps to inf
        assert float(np.nextafter(np.float32(cut), np.float32(np.inf))) > w_cut


def test_a_cutoff_below_every_float32_zeroes_the_trained_weights(monkeypatch):
    pin_cutoff(monkeypatch, 1e-50)
    net = Network(tiny_model_spec(init_seed=2))
    wct_train(net, small_data()[0], TrainConfig(epochs=1, wct=WctConfig(epochs=1)))
    assert all(np.all(w == 0.0) for w in net.unrolled_weights().values())


def spy_widths(monkeypatch):
    """The weight shapes of every trainable layer's forward from now on,
    with or without backward state: both run `Conv2d._forward`."""
    seen = set()
    forward = Conv2d._forward

    def spy(self, x, keep):
        seen.add(self.w.shape)
        return forward(self, x, keep)

    monkeypatch.setattr(Conv2d, "_forward", spy)
    return seen


@pytest.mark.parametrize("method", ["cf", "xcs"])
def test_train_runs_the_live_widths(monkeypatch, method):
    spec = reference_model_spec(init_seed=2)
    if method == "cf":
        pattern = gen_mask_cf(spec, 0.5, seed=2)
        widths = {(9, 32), (288, 64), (576, 64), (256, 4)}
    else:
        # conv1's 9-row columns are single 32-row segments, so xcs@0.5 prunes
        # filters whole; at this seed every later channel stays live
        pattern = gen_mask_xcs(spec, 0.5, 32, seed=0)
        live = int(pattern.masks["conv1"].any(axis=0).sum())
        assert live < 64
        widths = {(9, live), (9 * live, 128), (1152, 128), (512, 4)}
    seen = spy_widths(monkeypatch)
    train_set, _ = small_data()
    config = TrainConfig(epochs=1, seed=2, pattern=pattern, wct=WctConfig(epochs=1))
    train(Network(spec), train_set, config)
    wct_train(Network(spec), train_set, config)
    assert seen == widths


def tiny_cf_masks(drop_filters=(1, 5), drop_groups=(1, 5)):
    """Hand-built C/F masks for tiny_model_spec: conv1 (9 x 8) drops
    `drop_filters`, dense1 (128 x 4, 16 rows per channel) the row groups of
    `drop_groups`."""
    cols = np.ones(8)
    cols[list(drop_filters)] = 0
    rows = np.ones((8, 16))
    rows[list(drop_groups)] = 0
    return {"conv1": np.outer(np.ones(9), cols),
            "dense1": np.outer(rows.ravel(), np.ones(4))}


def _break_extra_zero(masks):
    masks["conv1"][4, 0] = 0.0


def _break_other_groups(masks):
    masks["dense1"] = tiny_cf_masks(drop_groups=(1, 6))["dense1"]


def _break_missing_mask(masks):
    del masks["dense1"]


def _break_input(masks):
    masks["conv1"][:, :] = 0.0


def _break_head(masks):
    masks["dense1"][:, 2] = 0.0


@pytest.mark.parametrize("breaks", [
    None, _break_extra_zero, _break_other_groups, _break_missing_mask, _break_input,
    _break_head,
], ids=["compacts", "extra-zero", "other-row-groups", "missing-next-mask", "pruned-input",
        "pruned-head-output"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("wct", [False, True], ids=["train", "wct"])
def test_hand_built_masks_train_like_the_masked_sgd_oracle(breaks, method, wct):
    # training reads only the masks, not the method that names them; masks
    # that are not whole C/F blocks leave weights outside the sub-network
    # that no mask zeroes
    masks = tiny_cf_masks()
    if breaks is not None:
        breaks(masks)
    spec, data = tiny_model_spec(init_seed=8), small_data()[0]
    config = TrainConfig(epochs=1, pattern=SparsityPattern(method, 0.25, 0, 8, masks),
                         wct=WctConfig(epochs=1))
    net, ref = Network(spec), Network(spec)
    if wct:
        _, w_cut = wct_train(net, data, config)
        assert w_cut == oracle_wct(ref, data, config)
    else:
        train(net, data, config)
        oracle_train(ref, data, config)
    assert_weights_match(net, ref)


@pytest.mark.parametrize("method", [*METHODS, None])
def test_train_and_wct_write_into_no_array_taken_before(method):
    # unrolled_weights hands out views of the net's weight matrices
    spec = tiny_model_spec(init_seed=3)
    net = Network(spec)
    held = net.unrolled_weights()
    before = {k: w.copy() for k, w in held.items()}
    pattern = None if method is None else make_pattern(method, spec, seed=3)
    config = TrainConfig(epochs=1, pattern=pattern, wct=WctConfig(epochs=1))
    train(net, small_data()[0], config)
    wct_train(net, small_data()[0], config)
    for name, w in held.items():
        assert w.tobytes() == before[name].tobytes()


@pytest.mark.parametrize("masks, reason", [
    ({"conv_1": np.zeros((9, 8))}, "conv_1"),
    ({"conv1": np.ones((8, 9))}, "conv1 has shape"),
    ({"dense1": np.ones((128, 3))}, "dense1 has shape"),
], ids=["unknown-layer", "wrong-shape-conv", "wrong-shape-dense"])
@pytest.mark.parametrize("run", [train, wct_train], ids=["train", "wct"])
def test_masks_the_model_cannot_take_are_rejected(masks, reason, run):
    net = Network(tiny_model_spec(init_seed=8))
    before = {k: w.copy() for k, w in net.unrolled_weights().items()}
    pattern = SparsityPattern("xcs", 0.5, 0, 8, masks)
    with pytest.raises(ValueError, match=reason):
        run(net, small_data()[0], TrainConfig(epochs=1, pattern=pattern))
    for name, w in net.unrolled_weights().items():
        assert w.tobytes() == before[name].tobytes()


def test_wct_keeps_every_weight_within_cutoff():
    net = Network(tiny_model_spec(init_seed=2))
    train_set, _ = small_data()
    config = TrainConfig(epochs=1, seed=5, wct=WctConfig(percentile=80.0, epochs=2))
    train(net, train_set, config)
    _, w_cut = wct_train(net, train_set, config)
    assert w_cut > 0
    for w in net.unrolled_weights().values():
        assert np.all(np.abs(w) <= w_cut)


@pytest.mark.parametrize("w_cut", [np.nan, np.inf, 0.0])
@pytest.mark.parametrize("make_pattern", [
    lambda spec: gen_mask_cf(spec, 0.5, seed=3),
    lambda spec: gen_mask_xcs(spec, 0.5, 8, seed=3),
    lambda spec: None,
], ids=["cf", "xcs", "dense"])
def test_wct_train_rejects_a_cutoff_that_is_not_finite_and_positive(monkeypatch, w_cut,
                                                                    make_pattern):
    pin_cutoff(monkeypatch, w_cut)
    spec = tiny_model_spec(init_seed=3)
    pattern = make_pattern(spec)
    net = Network(spec)
    before = {k: w.copy() for k, w in net.unrolled_weights().items()}
    with pytest.raises(ValueError, match="WCT cutoff"):
        wct_train(net, small_data()[0], TrainConfig(epochs=1, pattern=pattern))
    for name, w in net.unrolled_weights().items():
        assert w.tobytes() == before[name].tobytes()


def test_wct_train_names_the_zeros_that_make_its_cutoff_zero():
    # cf@0.75 leaves 93.5 % of the reference net's He weights zero, more
    # than the 90 % below the default percentile: the cutoff is 0.0
    spec = reference_model_spec(init_seed=0)
    pattern = gen_mask_cf(spec, 0.75, seed=0)
    net = masked_net(spec, pattern)
    before = {k: w.copy() for k, w in net.unrolled_weights().items()}
    assert nn.wct_cutoff(net, 90.0) == 0.0
    with pytest.raises(ValueError, match=r"percentile 90 is 0\.0: 93\.5% of the weights "
                                         r"are zero, and WCT needs fewer than 90 %"):
        wct_train(net, small_data()[0], TrainConfig(epochs=1, pattern=pattern))
    for name, w in net.unrolled_weights().items():
        assert w.tobytes() == before[name].tobytes()


@pytest.mark.parametrize("percentile", [1e-9, 10.0, 74.0, 75.0, 80.0, 90.0, 99.99, 100.0])
def test_wct_cutoff_is_the_sorted_nearest_rank(percentile):
    # cf@0.5 leaves about 75 % pruned zeros, and rounding to multiples of
    # 0.01 ties most of the rest, across signs too
    spec = reference_model_spec(init_seed=5)
    net = masked_net(spec, gen_mask_cf(spec, 0.5, seed=5))
    net.set_unrolled_weights({name: np.round(w, 2) for name, w in net.unrolled_weights().items()})
    w = np.concatenate([w.ravel() for w in net.unrolled_weights().values()])
    assert 0.7 < np.mean(w == 0) < 0.8 and len(np.unique(np.abs(w))) < 100
    assert nn.wct_cutoff(net, percentile) == nearest_rank_cutoff(net, percentile)


@pytest.mark.parametrize("kwargs, reason", [
    (dict(lr=np.nan), "lr"),
    (dict(lr=np.inf), "lr"),
    (dict(lr=0.0), "lr"),
    (dict(batch_size=2.5), "batch_size"),
    (dict(batch_size=32.0), "batch_size"),
    (dict(batch_size=0), "batch_size"),
    (dict(epochs=1.5), "epochs"),
    (dict(epochs=-1), "epochs"),
])
def test_train_config_rejects_bad_hyperparameters(kwargs, reason):
    with pytest.raises(ValueError, match=reason):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("seed", [2.5, 1.0, np.float64(1.0), True, False, -1, "0", None])
def test_seeds_that_are_not_integers_above_minus_one_are_rejected(seed):
    # at construction, not later inside numpy; True once ran as seed 1
    with pytest.raises(ValueError, match="init_seed must be an integer >= 0"):
        ModelSpec((DenseSpec(4, 2),), input_shape=(1, 2, 2), init_seed=seed)
    with pytest.raises(ValueError, match="init_seed"):
        tiny_model_spec(init_seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        TrainConfig(seed=seed)


def test_numpy_integer_seeds_draw_as_python_integers():
    spec = tiny_model_spec(init_seed=np.int64(3))
    ref = Network(tiny_model_spec(init_seed=3)).unrolled_weights()
    for name, w in Network(spec).unrolled_weights().items():
        assert same_bits(w, ref[name])
    assert TrainConfig(seed=np.uint8(0)).seed == 0


@pytest.mark.parametrize("config, field, value", [
    (TrainConfig(), "lr", -1.0),
    (TrainConfig(), "epochs", 2.5),
    (WctConfig(), "percentile", 0.0),
])
def test_configs_cannot_change_after_their_checks(config, field, value):
    # an lr set to -1.0 after construction once made train ascend the loss
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)


def test_train_config_takes_numpy_integers():
    config = TrainConfig(batch_size=np.int64(16), epochs=np.int32(0))
    assert (config.batch_size, config.epochs) == (16, 0)
    assert WctConfig(epochs=np.int64(2)).epochs == 2
    with pytest.raises(ValueError, match="epochs"):
        WctConfig(epochs=1.5)


# ---------------------------------------------------------------- copy


def _arrays(layer):
    """(attribute, array) for every ndarray a layer holds, also in tuples."""
    for name, value in vars(layer).items():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield name, item


def test_copy_after_forward_holds_only_the_weights():
    net = Network(reference_model_spec(init_seed=1))
    data, _ = small_data(seed=1)
    logits = net.forward(data.images[:16])
    dup = net.copy()
    held = [(i, name) for i, layer in enumerate(dup.layers) for name, _ in _arrays(layer)]
    assert held == [(net.layers.index(layer), "w") for _, layer in net.trainable]
    originals = [a for layer in net.layers for _, a in _arrays(layer)]
    for layer in dup.layers:
        for _, a in _arrays(layer):
            assert not any(np.shares_memory(a, b) for b in originals)
    for name, w in dup.unrolled_weights().items():
        assert w.tobytes() == net.unrolled_weights()[name].tobytes()
    assert dup.forward(data.images[:16]).tobytes() == logits.tobytes()


def test_evaluate_leaves_only_the_weights():
    net = Network(reference_model_spec(init_seed=1))
    _, test_set = gen_synthetic_dataset(1, 8, 300)
    evaluate(net, test_set)
    held = [(i, name) for i, layer in enumerate(net.layers) for name, _ in _arrays(layer)]
    assert held == [(net.layers.index(layer), "w") for _, layer in net.trainable]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("spec_fn", [reference_model_spec, tiny_model_spec])
def test_network_init_draws_he_normal_weights_in_layer_order(spec_fn, seed):
    spec = spec_fn(init_seed=seed)
    weights = list(Network(spec).unrolled_weights().values())
    ref = he_normal_init(spec)
    assert len(weights) == len(ref)
    for w, r in zip(weights, ref):
        assert same_bits(w, conv_matrix(r) if r.ndim == 4 else r)


@pytest.mark.parametrize("spec", [reference_model_spec(init_seed=5), ODD_SPEC],
                         ids=["reference", "odd"])
def test_unrolled_weights_are_read_only_views_of_every_layer(spec):
    net = Network(spec)
    views = net.unrolled_weights()
    assert [name for name, _ in net.trainable] == [info.name for info in spec.unrolled_layers()]
    assert all(type(layer) is Conv2d for _, layer in net.trainable)
    for name, layer in net.trainable:
        w = views[name]
        assert layer.w.flags.c_contiguous and layer.w.flags.writeable
        assert w.shape == layer.w.shape and np.shares_memory(w, layer.w)
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0
    for name, w in views.items():
        assert same_bits(w, net.unrolled_weights()[name])


def test_copy_inject_and_set_hold_no_array_passed_or_got():
    # every net built from matrices holds fresh C-contiguous float64 copies,
    # also of a Fortran-ordered or float32 matrix
    net = Network(ODD_SPEC)
    got = net.unrolled_weights()
    passed = {name: np.asfortranarray(w) for name, w in got.items()}
    passed["dense2"] = passed["dense2"].astype(np.float32)
    other = Network(ODD_SPEC)
    other.set_unrolled_weights(passed)
    taken = [*got.values(), *passed.values()]
    for built, source in ((net.copy(), got), (inject_nonideal_weights(net, passed), passed),
                          (other, passed)):
        for name, layer in built.trainable:
            assert layer.w.dtype == np.float64 and layer.w.flags.c_contiguous
            assert layer.w.flags.writeable
            assert np.array_equal(layer.w, source[name])
            assert not any(np.shares_memory(layer.w, a) for a in taken), name


def test_copies_and_narrowed_nets_draw_no_initialization(monkeypatch):
    spec = reference_model_spec(init_seed=4)
    net = masked_net(spec, gen_mask_cf(spec, 0.5, seed=4))
    _, test_set = gen_synthetic_dataset(4, 8, 20)
    seeds = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        seeds.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    full = net.unrolled_weights()
    built = [net.copy(), inject_nonideal_weights(net, full),
             _narrowed(spec, full, _live_channels(spec, full))[0]]
    evaluate(net, test_set)
    assert seeds == []
    for other in built[:2]:
        for name, w in net.unrolled_weights().items():
            assert same_bits(other.unrolled_weights()[name], w)
    assert built[2].unrolled_weights()["conv1"].shape == (9, 32)
    Network(spec)
    assert seeds == [(4,)]


def test_inject_nonideal_weights_checks_every_matrix():
    net = Network(tiny_model_spec(init_seed=2))
    full = net.unrolled_weights()
    with pytest.raises(ValueError, match="missing weights for layer dense1"):
        inject_nonideal_weights(net, {"conv1": full["conv1"]})
    with pytest.raises(ValueError, match="dense1"):
        inject_nonideal_weights(net, {**full, "dense1": full["dense1"][:-1]})
    with pytest.raises(ValueError, match="conv1"):
        inject_nonideal_weights(net, {**full, "conv1": full["conv1"].T})


def test_relu_feeding_a_pool_runs_after_it():
    kinds = [layer.kind for layer in Network(reference_model_spec()).layers]
    assert kinds == ["conv", "pool", "relu", "conv", "pool", "relu", "conv", "relu", "conv"]
    # a ReLU moves past every pool it feeds
    spec = ModelSpec((ConvSpec(1, 2, 3), ReluSpec(), PoolSpec(), PoolSpec(), DenseSpec(8, 2)))
    assert [layer.kind for layer in Network(spec).layers] == [
        "conv", "pool", "pool", "relu", "conv"]


# ------------------------------------------------- state-free forward


def special_images(spec, n, seed):
    """n random images of `spec` with NaN and -0.0 pixels, and an all-zero
    and an all -0.0 image, which leave every window of the maps without a
    positive entry."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, *spec.input_shape))
    x[rng.random(x.shape) < 0.01] = np.nan
    x[rng.random(x.shape) < 0.2] = -0.0
    x[1] = 0.0
    x[2] = -0.0
    return x


@pytest.mark.parametrize("spec_fn", [reference_model_spec, tiny_model_spec])
def test_state_free_forward_gives_the_training_logits_bit_for_bit(spec_fn):
    spec = spec_fn(init_seed=3)
    net = Network(spec)
    x = special_images(spec, 24, seed=3)
    logits = net.forward(x)
    assert np.isnan(logits).any() and not np.isnan(logits).all()
    assert same_bits(net._forward(x, False), logits)
    # it drops the training forward's state and keeps none of its own
    held = [(i, name) for i, layer in enumerate(net.layers) for name, _ in _arrays(layer)]
    assert held == [(net.layers.index(layer), "w") for _, layer in net.trainable]
    assert same_bits(net.forward(x), logits)


def test_backward_after_a_state_free_forward_raises():
    spec = tiny_model_spec(init_seed=3)
    net = Network(spec)
    x = special_images(spec, 4, seed=4)
    dlogits = np.ones((4, 4))
    with pytest.raises(RuntimeError, match="training forward"):
        net.backward(dlogits)                   # no forward yet
    net.forward(x)
    net.backward(dlogits)
    net._forward(x, False)
    with pytest.raises(RuntimeError, match="training forward"):
        net.backward(dlogits)
    for layer in net.layers:
        with pytest.raises(RuntimeError, match=f"{layer.kind} backward"):
            layer.backward(np.ones((4, 1, 1, 4)))


def _evaluate_peak(net, test_set):
    """tracemalloc's peak over one `evaluate` of `test_set` in this process."""
    tracemalloc.start()
    try:
        evaluate(net, test_set)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec_fn", [reference_model_spec, tiny_model_spec])
def test_evaluate_peak_memory_does_not_grow_with_the_test_set(monkeypatch, spec_fn):
    # every chunk holds at most c images, and one layer's working set of
    # them at a time: 8c images peak no higher than c images do
    net = Network(spec_fn(init_seed=1))
    c = nn._chunk_images(net.spec)
    weights = sum(w.nbytes for w in net.unrolled_weights().values())
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)   # no child to miss
    one, eight = (_evaluate_peak(net, gen_synthetic_dataset(1, 8, k * c)[1]) for k in (1, 8))
    assert eight <= nn.EVAL_WORKING_SET_BYTES + weights + 2 ** 20
    assert abs(eight - one) <= 2 ** 20


def spy_chunk_logits(monkeypatch, tmp_path, images):
    """From now on, in this process and in any forked after, save the
    logits of every state-free forward as `<first>-<pid>.npy`, `first`
    being the index in `images` of the forward's first image."""
    first = {image.tobytes(): i for i, image in enumerate(images)}
    forward = Network._forward

    def spy(self, x, keep):
        out = forward(self, x, keep)
        if not keep:
            np.save(tmp_path / f"{first[x[0].tobytes()]}-{os.getpid()}.npy", out)
        return out

    monkeypatch.setattr(Network, "_forward", spy)


def cf_net(spec):
    return masked_net(spec, gen_mask_cf(spec, 0.5, seed=1))


@pytest.mark.parametrize("count", [1, 2], ids=["one-cpu", "split"])
@pytest.mark.parametrize("chunks", [1, 2, "many"],
                         ids=["one-chunk", "two-chunks", "many-chunks-plus-one-image"])
@pytest.mark.parametrize("spec_fn, make_net", [
    (tiny_model_spec, Network), (reference_model_spec, Network),
    (reference_model_spec, cf_net),
], ids=["tiny", "ref", "ref-cf"])
def test_chunked_evaluation_matches_one_whole_set_forward(
        cpus, monkeypatch, tmp_path, spec_fn, make_net, chunks, count):
    # c, c + 1 and 8c + 1 images: cut into c-image chunks and the rest,
    # the last two would end in a one-image chunk, whose GEMMs OpenBLAS
    # rounds differently; near-equal chunks keep every one large
    net = make_net(spec_fn(init_seed=1))
    full = net.unrolled_weights()
    sub, _ = _narrowed(net.spec, full, _live_channels(net.spec, full))
    c = nn._chunk_images(sub.spec)
    n = {1: c, 2: c + 1, "many": 8 * c + 1}[chunks]
    _, test_set = gen_synthetic_dataset(1, 8, n)
    whole = sub._forward(test_set.images, False)
    cpus(count)
    spy_chunk_logits(monkeypatch, tmp_path, test_set.images)
    accuracy = evaluate(net, test_set)
    assert accuracy == np.mean(whole.argmax(axis=1) == test_set.labels)
    saved = sorted((tuple(map(int, path.stem.split("-"))), np.load(path))
                   for path in tmp_path.iterdir())
    starts = [first for (first, _), _ in saved]
    sizes = [len(logits) for _, logits in saved]
    assert starts == list(np.cumsum([0] + sizes[:-1]))
    assert sum(sizes) == n and max(sizes) <= c and max(sizes) - min(sizes) <= 1
    assert len(sizes) == {1: 1, 2: 2, "many": 9}[chunks]
    # the chunks split only where there are at least two per CPU
    assert len({pid for (_, pid), _ in saved}) == (count if len(sizes) >= 2 * count else 1)
    assert same_bits(np.concatenate([logits for _, logits in saved]), whole)


def test_taps_are_cached_as_immutable_tuples():
    out, taps = nn._taps(7, 3, 1)
    assert nn._taps(7, 3, 1)[1] is taps
    assert out == 7 and isinstance(taps, tuple)
    assert all(isinstance(pair, tuple) for pair in taps)


# ----------------------------------------------- live-channel evaluation


def masked_net(spec, pattern):
    net = Network(spec)
    net.set_unrolled_weights({name: w * pattern.masks[name]
                              for name, w in net.unrolled_weights().items()})
    return net


@pytest.mark.parametrize("make_net, widths", [
    # cf@0.5 keeps half the filters of every layer but the head
    (lambda spec: masked_net(spec, gen_mask_cf(spec, 0.5, seed=2)),
     {(9, 32), (288, 64), (576, 64), (256, 4)}),
    # conv1's 9-row columns are single 32-row segments, so xcs@0.5 prunes
    # half its filters whole; at this seed every later channel stays live
    (lambda spec: masked_net(spec, gen_mask_xcs(spec, 0.5, 32, seed=0)),
     {(9, 32), (288, 128), (1152, 128), (512, 4)}),
    (Network, {(9, 64), (576, 128), (1152, 128), (512, 4)}),
], ids=["cf", "xcs", "dense"])
def test_evaluate_runs_the_live_widths(monkeypatch, make_net, widths):
    net = make_net(reference_model_spec(init_seed=2))
    seen = spy_widths(monkeypatch)
    evaluate(net, gen_synthetic_dataset(2, 8, 40)[1])
    assert seen == widths


def _writable_weights(net):
    return {name: w.copy() for name, w in net.unrolled_weights().items()}


def _zero_column(net, layer, index):
    mats = _writable_weights(net)
    mats[layer][:, index] = 0.0
    net.set_unrolled_weights(mats)


def _zero_row_group(net, layer, index):
    mats = _writable_weights(net)
    rpc = {info.name: info.rows_per_channel for info in net.spec.unrolled_layers()}[layer]
    mats[layer][index * rpc:(index + 1) * rpc] = 0.0
    net.set_unrolled_weights(mats)


@pytest.mark.parametrize("spec, zero, layer, index", [
    (reference_model_spec(init_seed=4), _zero_column, "conv2", 5),
    (reference_model_spec(init_seed=4), _zero_row_group, "conv3", 7),
    (reference_model_spec(init_seed=4), _zero_row_group, "dense1", 3),
    (ODD_SPEC, _zero_column, "conv1", 1),
    (ODD_SPEC, _zero_row_group, "dense2", 2),
], ids=["ref-producing-column", "ref-consuming-rows", "ref-flatten-rows",
        "odd-producing-column", "odd-dense-rows"])
def test_live_subnet_matches_the_full_width_oracle(spec, zero, layer, index):
    # one channel dead from one side only; the other side stays non-zero
    net = Network(spec)
    zero(net, layer, index)
    full = net.unrolled_weights()
    channels = _live_channels(spec, full)
    infos = spec.unrolled_layers()
    expected = [np.arange(info.in_channels) for info in infos] + [np.arange(infos[-1].cols)]
    # a zeroed column kills the channel after `layer`, a zeroed row group the one before
    at = [info.name for info in infos].index(layer) + (zero is _zero_column)
    expected[at] = np.delete(expected[at], index)
    assert all(np.array_equal(c, e) for c, e in zip(channels, expected, strict=True))
    sub, _ = _narrowed(spec, full, channels)
    rng = np.random.default_rng(6)
    x = rng.random((5, *spec.input_shape))
    ref = network_forward(spec.layers, native_weights(spec.layers, full.values()), x)
    logits = sub.forward(x)
    assert np.abs(logits - ref).max() <= 1e-12 * np.abs(ref).max()
    labels = ref.argmax(axis=1)
    assert np.array_equal(logits.argmax(axis=1), labels)
    assert evaluate(net, Dataset(x, labels)) == 1.0


@pytest.mark.parametrize("dead", [("conv1", "conv2", "conv3", "dense1"), ("conv2",)],
                         ids=["all-zero", "one-dead-layer"])
def test_evaluate_with_no_live_channel_predicts_class_zero(monkeypatch, dead):
    # every logit is +-0, and argmax picks the first of equal entries; a
    # one-byte budget leaves chunks of one image, the smallest there are
    monkeypatch.setattr(nn, "EVAL_WORKING_SET_BYTES", 1)
    net = Network(reference_model_spec(init_seed=3))
    net.set_unrolled_weights({name: np.zeros_like(w) if name in dead else w
                              for name, w in net.unrolled_weights().items()})
    _, test_set = gen_synthetic_dataset(3, 8, 50)
    assert evaluate(net, test_set) == np.mean(test_set.labels == 0)


def run_all(net, data):
    """The errors `train`, `wct_train` and `evaluate` raise on `data`;
    none of them may change the net's weights."""
    before = {k: w.copy() for k, w in net.unrolled_weights().items()}
    config = TrainConfig(epochs=1, pattern=gen_mask_cf(net.spec, 0.5, seed=1),
                         wct=WctConfig(epochs=1))
    errors = []
    for run in (lambda: train(net, data, config), lambda: wct_train(net, data, config),
                lambda: evaluate(net, data)):
        with pytest.raises(ValueError) as err:
            run()
        errors.append(str(err.value))
    for name, w in net.unrolled_weights().items():
        assert w.tobytes() == before[name].tobytes()
    return errors


@pytest.mark.parametrize("size", [9, 10])
def test_train_and_evaluate_reject_images_of_another_shape(size):
    rng = np.random.default_rng(size)
    data = Dataset(rng.random((8, 1, size, size)), np.arange(8) % 4)
    errors = run_all(Network(tiny_model_spec(init_seed=1)), data)
    assert all(e.startswith("images must be (n, 1, 8, 8)") for e in errors)


@pytest.mark.parametrize("labels", [
    [0, 1, 2, -1], [0, 1, 2, 4], [0.5, 1.5, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0],
    [True, False, True, False], ["0", "1", "2", "3"], [0, 1, 2], [0, 1, 2, 3, 0], [[0, 1, 2, 3]],
], ids=["minus-one", "past-last-class", "fractions", "whole-floats", "bools", "strings",
        "too-few", "too-many", "2-d"])
def test_train_and_evaluate_reject_labels_that_are_not_classes(labels):
    # a label of -1 once trained silently as the last class, and evaluate
    # compared the argmax with 0.5 and 1.5
    images = small_data()[0].images[:4]
    errors = run_all(Network(tiny_model_spec(init_seed=1)), Dataset(images, np.asarray(labels)))
    assert all(e.startswith("labels must be 4 integers in [0, 4)") for e in errors)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
def test_labels_of_any_integer_type_train_and_evaluate(dtype):
    data = small_data()[0]
    labelled = Dataset(data.images, data.labels.astype(dtype))
    a, b = Network(tiny_model_spec(init_seed=1)), Network(tiny_model_spec(init_seed=1))
    config = TrainConfig(epochs=1, seed=3)
    assert train(a, labelled, config)[1] == train(b, data, config)[1]
    assert evaluate(a, labelled) == evaluate(b, data)


def test_train_rejects_an_empty_dataset():
    # it once failed with a ZeroDivisionError after the epoch
    empty = Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
    net = Network(tiny_model_spec(init_seed=1))
    for run in (train, wct_train):
        with pytest.raises(ValueError, match="empty dataset"):
            run(net, empty, TrainConfig(epochs=1, wct=WctConfig(epochs=1)))
    with pytest.raises(ValueError, match="empty dataset"):
        evaluate(net, empty)


# ------------------------------------------------------------ model spec


@pytest.mark.parametrize("build, reason", [
    (lambda: ModelSpec((DenseSpec(64, 16), PoolSpec())), "needs a \\(C, H, W\\) input"),
    (lambda: ModelSpec((DenseSpec(64, 16), ConvSpec(1, 2, 3))), "needs a \\(C, H, W\\) input"),
    (lambda: ModelSpec((ConvSpec(1, 0, 3), DenseSpec(1, 2))), "out_ch must be an integer >= 1"),
    (lambda: ModelSpec((ConvSpec(0, 2, 3),), input_shape=(0, 8, 8)),
     "in_ch must be an integer >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, 0),)), "kernel must be an integer >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, -3),)), "kernel must be an integer >= 1"),
    (lambda: ModelSpec((DenseSpec(64, 0),)), "dense out_features must be an integer >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3),), input_shape=(1, 0, 8)), "input_shape"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3), PoolSpec(), PoolSpec(), PoolSpec(),
                        DenseSpec(2, 4)), input_shape=(1, 4, 4)), "empty output shape"),
    # an (n, 8.0, 8) spec once built a net whose forward raised TypeError,
    # an (n, 8.5, 8) one a net no image fits
    (lambda: ModelSpec((ConvSpec(1, 2, 3), DenseSpec(128, 4)), input_shape=(1, 8.0, 8)),
     "input_shape must be three integer sizes"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3), DenseSpec(128, 4)), input_shape=(1, 8.5, 8)),
     "input_shape must be three integer sizes"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3), DenseSpec(128, 4)), input_shape=(True, 8, 8)),
     "input_shape must be three integer sizes"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3), DenseSpec(128, 4)), input_shape=(1, 8)),
     "input_shape must be three integer sizes"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3), DenseSpec(128, 4)), input_shape=[1, 8, 8, 1]),
     "input_shape must be three integer sizes"),
    (lambda: ModelSpec((DenseSpec(64, 4),), input_shape=64),
     "input_shape must be three integer sizes"),
    # the output must be logits: training once read a conv map's height
    # axis as the classes
    (lambda: ModelSpec((ConvSpec(2, 3, 3), ReluSpec()), input_shape=(2, 7, 5)),
     "must end in a dense head"),
    (lambda: ModelSpec((ConvSpec(1, 4, 1),), input_shape=(1, 1, 1)),
     "must end in a dense head"),
], ids=["pool-after-dense", "conv-after-dense", "zero-out-channels", "zero-in-channels",
        "zero-kernel", "negative-kernel", "zero-dense-outputs",
        "empty-input", "pools-to-0x0", "float-input-size",
        "fractional-input-size", "bool-input-channels", "two-input-sizes",
        "four-input-sizes", "flat-input-size", "conv-only", "conv-to-1x1"])
def test_model_spec_rejects_shapes_it_cannot_run(build, reason):
    with pytest.raises(ValueError, match=reason):
        build()


@pytest.mark.parametrize("build", [
    lambda: ConvSpec(1, 4, 3.0),
    lambda: ConvSpec(2.0, 4, 3),
    lambda: ConvSpec(1, np.float64(4), 3),
    lambda: DenseSpec(2.5, 4),
    lambda: DenseSpec(2, True),
    lambda: DenseSpec(2, "4"),
], ids=["float-kernel", "float-in-ch", "numpy-float-out-ch", "float-dense-in",
        "bool-dense-out", "str-dense-out"])
def test_layer_specs_reject_sizes_that_are_not_integers_in_range(build):
    with pytest.raises(ValueError, match="conv|dense"):
        build()


@pytest.mark.parametrize("input_shape", [[1, 8, 8], np.array([1, 8, 8]),
                                         (np.int64(1), np.int32(8), 8)],
                         ids=["list", "numpy-array", "numpy-integers"])
def test_model_spec_stores_any_sequence_of_three_sizes_as_a_tuple(input_shape):
    layers = (ConvSpec(1, 2, 3), PoolSpec(), DenseSpec(32, 4))
    spec = ModelSpec(layers, input_shape=input_shape)
    assert spec == ModelSpec(layers) and hash(spec) == hash(ModelSpec(layers))
    assert type(spec.input_shape) is tuple
    assert all(type(size) is int for size in spec.input_shape)
    assert [shape for _, shape in spec.shape_walk()] == [(1, 8, 8), (2, 8, 8), (2, 4, 4)]


def test_layer_specs_take_numpy_integers_and_same_padding():
    # a conv holds its channels and kernel only: stride 1, padded by
    # kernel // 2, so an odd kernel keeps the map and an even one grows it
    conv = ConvSpec(np.int64(1), np.int32(4), np.int64(5))
    assert [field.name for field in dataclasses.fields(conv)] == ["in_ch", "out_ch", "kernel"]
    spec = ModelSpec((conv, ConvSpec(4, 2, 2), DenseSpec(2 * 9 * 9, 2)))
    assert [shape for _, shape in spec.shape_walk()] == [(1, 8, 8), (4, 8, 8), (2, 9, 9)]
    assert DenseSpec(np.int64(3), np.int16(2)) == DenseSpec(3, 2)


def vgg11_shaped_spec(width):
    """VGG11's layout (Simonyan and Zisserman, ICLR 2015) on 3 x 32 x 32
    inputs: 8 3 x 3 convs of width x (1, 2, 4, 4, 8, 8, 8, 8) channels,
    pools after convs 1, 2, 4, 6 and 8; then one 2 x 2 conv, which grows
    the 1 x 1 map to 2 x 2, and a two-layer dense head."""
    channels = [3] + [width * k for k in (1, 2, 4, 4, 8, 8, 8, 8)]
    layers = []
    for i, (cin, cout) in enumerate(zip(channels, channels[1:]), start=1):
        layers += [ConvSpec(cin, cout, 3), ReluSpec()]
        if i in (1, 2, 4, 6, 8):
            layers.append(PoolSpec())
    layers += [ConvSpec(8 * width, 4 * width, 2), ReluSpec(),
               DenseSpec(4 * width * 4, 8 * width), ReluSpec(), DenseSpec(8 * width, 10)]
    return ModelSpec(tuple(layers), input_shape=(3, 32, 32))


# the hand-worked geometry of vgg11_shaped_spec(2): incoming map (c, h, w),
# then every UnrolledLayerInfo field after name and kind
VGG_GEOMETRY = [
    # name     incoming      rows cols rpc in_ch window padding positions in_size
    ("conv1", (3, 32, 32), 27, 2, 9, 3, (3, 3), 1, 1024, 3072),
    ("conv2", (2, 16, 16), 18, 4, 9, 2, (3, 3), 1, 256, 512),
    ("conv3", (4, 8, 8), 36, 8, 9, 4, (3, 3), 1, 64, 256),
    ("conv4", (8, 8, 8), 72, 8, 9, 8, (3, 3), 1, 64, 512),
    ("conv5", (8, 4, 4), 72, 16, 9, 8, (3, 3), 1, 16, 128),
    ("conv6", (16, 4, 4), 144, 16, 9, 16, (3, 3), 1, 16, 256),
    ("conv7", (16, 2, 2), 144, 16, 9, 16, (3, 3), 1, 4, 64),
    ("conv8", (16, 2, 2), 144, 16, 9, 16, (3, 3), 1, 4, 64),
    ("conv9", (16, 1, 1), 64, 8, 4, 16, (2, 2), 1, 4, 16),
    ("dense1", (8, 2, 2), 32, 16, 4, 8, (2, 2), 0, 1, 32),
    ("dense2", 16, 16, 10, 1, 16, (1, 1), 0, 1, 16),
]


def test_a_vgg_shaped_spec_has_the_hand_worked_geometry():
    spec = vgg11_shaped_spec(2)
    trainable = [shape for layer, shape in spec.shape_walk()
                 if isinstance(layer, (ConvSpec, DenseSpec))]
    assert trainable == [incoming for _, incoming, *_ in VGG_GEOMETRY]
    fields = [(info.name, info.rows, info.cols, info.rows_per_channel, info.in_channels,
               info.window, info.padding, info.positions, info.in_size)
              for info in spec.unrolled_layers()]
    assert fields == [(name, *rest) for name, _, *rest in VGG_GEOMETRY]
    assert [info.kind for info in spec.unrolled_layers()] == ["conv"] * 9 + ["dense"] * 2
    # rows x cols x positions: 55296 + 18432 + 18432 + 36864 + 18432 +
    # 36864 + 9216 + 9216 + 2048 + 512 + 160
    assert nn._multiply_adds(spec) == 205_472
    # the largest working set is conv1's float64 input, im2col matrix and
    # output: 8 x (3072 + 1024 x (27 + 2)) bytes per image
    assert nn._chunk_images(spec) == nn.EVAL_WORKING_SET_BYTES // (8 * (3072 + 1024 * 29))
    net = Network(spec)
    assert [(name, layer.window, layer.padding) for name, layer in net.trainable] == [
        (name, window, padding) for name, *_, window, padding, _, _ in VGG_GEOMETRY]
    assert net.forward(np.zeros((2, 3, 32, 32))).shape == (2, 10)


def per_image_values(info):
    """Values of one image in a trainable layer's working set: its input,
    im2col matrix and output."""
    return info.in_size + info.positions * (info.rows + info.cols)


@pytest.mark.parametrize("make_net, images", [(cf_net, 32), (Network, 16)],
                         ids=["ref-cf", "ref"])
def test_the_benchmark_nets_keep_their_evaluation_chunks(make_net, images):
    # conv2's working set still dominates: its input, im2col matrix and
    # output outweigh pool1's input, output and four outputs of temporaries
    net = make_net(reference_model_spec(init_seed=1))
    full = net.unrolled_weights()
    sub, _ = _narrowed(net.spec, full, _live_channels(net.spec, full))
    conv2 = sub.spec.unrolled_layers()[1]
    assert nn._chunk_images(sub.spec) == images
    assert images == nn.EVAL_WORKING_SET_BYTES // (8 * per_image_values(conv2))


def test_a_pool_that_dominates_the_working_set_gets_fewer_images():
    # a 1x1 conv widens the 16x16 input to 16 channels, and the pool on
    # that map holds 4096 + 5 x 1024 values per image against the conv's
    # 256 + 256 x 17 and the head's 1024 + 1028
    spec = ModelSpec(layers=(ConvSpec(1, 16, 1), PoolSpec(), DenseSpec(1024, 4)),
                     input_shape=(1, 16, 16))
    trainable = max(per_image_values(info) for info in spec.unrolled_layers())
    assert trainable == 256 + 256 * 17
    assert nn._chunk_images(spec) == nn.EVAL_WORKING_SET_BYTES // (8 * (4096 + 5 * 1024))
    assert nn._chunk_images(spec) < nn.EVAL_WORKING_SET_BYTES // (8 * trainable)


# ------------------------------------------------------------ determinism


def test_dataset_bit_identical_for_seed():
    a_train, a_test = gen_synthetic_dataset(11, 40, 12)
    b_train, b_test = gen_synthetic_dataset(11, 40, 12)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
    c_train, _ = gen_synthetic_dataset(12, 40, 12)
    assert not np.array_equal(a_train.images, c_train.images)


@pytest.mark.parametrize("n_train, n_test", [(2.5, 3), (True, 3), (3, 2.0), (0, 3), (3, -1)])
def test_dataset_rejects_split_sizes_that_are_not_integers_above_zero(n_train, n_test):
    bad = "n_test" if n_train == 3 else "n_train"       # the other size is a valid 3
    with pytest.raises(ValueError, match=f"{bad} must be an integer >= 1"):
        gen_synthetic_dataset(0, n_train, n_test)


def test_dataset_takes_numpy_integer_sizes():
    train_set, test_set = gen_synthetic_dataset(0, np.int64(3), np.int32(2))
    assert (len(train_set), len(test_set)) == (3, 2)



@pytest.mark.parametrize("seed", [2.5, 1.0, True, -1, "0", None])
def test_dataset_rejects_a_seed_that_is_not_an_integer_from_zero(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        gen_synthetic_dataset(seed, 4, 4)
    a, _ = gen_synthetic_dataset(np.int64(3), 4, 4)
    assert a.images.tobytes() == gen_synthetic_dataset(3, 4, 4)[0].images.tobytes()


def test_training_and_wct_bit_identical_for_seed():
    train_set, _ = small_data()
    spec = tiny_model_spec(init_seed=6)
    pattern = gen_mask_cf(spec, 0.5, seed=6)
    runs = []
    for _ in range(2):
        net = Network(spec)
        config = TrainConfig(epochs=2, seed=6, pattern=pattern, wct=WctConfig(epochs=1))
        _, losses = train(net, train_set, config)
        trained = {k: w.copy() for k, w in net.unrolled_weights().items()}
        _, w_cut = wct_train(net, train_set, config)
        runs.append((losses, trained, w_cut, net.unrolled_weights()))
    (loss_a, trained_a, cut_a, wct_a), (loss_b, trained_b, cut_b, wct_b) = runs
    assert loss_a == loss_b
    assert cut_a == cut_b
    for name in trained_a:
        assert np.array_equal(trained_a[name], trained_b[name])
        assert np.array_equal(wct_a[name], wct_b[name])


# ------------------------------------------------------------- CPU count


@pytest.fixture
def cpus(monkeypatch):
    """Pin the CPU helper to a count and split every fit; an evaluation
    splits by its chunk count alone (see `evaluate`). Each pin shuts the
    worker pool down, and so does the end of the test, so that no later
    test meets a worker forked under this one's patches."""
    def pin(count):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: count)
        monkeypatch.setattr(nn, "PARALLEL_MIN_MULTIPLY_ADDS", 0)
        _parallel._shutdown()
    yield pin
    _parallel._shutdown()


def assert_only_idle_workers_left(mask):
    """This process has its affinity `mask` back, every child alive is a
    pool worker with no answer waiting, and none is left once the pool is
    shut down."""
    assert os.sched_getaffinity(0) == mask
    assert set(multiprocessing.active_children()) == {p for p, _ in _parallel._pool}
    assert not any(link.poll() for _, link in _parallel._pool)
    _parallel._shutdown()
    assert multiprocessing.active_children() == []


def cpu_count_run(spec, pattern, data, test_set, batch_size):
    """train (two epochs, so that a short last batch is not the last step)
    and wct_train, then evaluate, from a fresh net: every trained weight,
    the losses, w_cut and the accuracy. Evaluation runs in chunks of one
    image (see the caller), so that every CPU gets some."""
    net = Network(spec)
    config = TrainConfig(epochs=2, batch_size=batch_size, seed=3, pattern=pattern,
                         wct=WctConfig(epochs=1))
    _, losses = train(net, data, config)
    trained = {k: w.tobytes() for k, w in net.unrolled_weights().items()}
    _, w_cut = wct_train(net, data, config)
    return (trained, losses, w_cut, {k: w.tobytes() for k, w in net.unrolled_weights().items()},
            evaluate(net, test_set))


# On 5 samples, a batch size of 1 leaves every second half empty, 3 makes
# an odd batch and a short last one of 2, and 2 a short last batch of 1,
# whose second half is empty.
@pytest.mark.parametrize("method, batch_size", [
    (None, 1), (None, 3), ("cf", 2), ("xcs", 3), ("xrs", 2),
], ids=["dense-one", "dense-odd", "cf-short-last", "xcs-odd", "xrs-short-last"])
def test_results_do_not_depend_on_the_cpu_count(cpus, monkeypatch, method, batch_size):
    monkeypatch.setattr(nn, "EVAL_WORKING_SET_BYTES", 1)
    spec = reference_model_spec(init_seed=6)
    pattern = None if method is None else make_pattern(method, spec, seed=6)
    data, test_set = gen_synthetic_dataset(6, 5, 11)
    mask = os.sched_getaffinity(0)
    runs = []
    for count in (1, 2, 3):
        cpus(count)
        runs.append(cpu_count_run(spec, pattern, data, test_set, batch_size))
        assert_only_idle_workers_left(mask)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def log_halves(monkeypatch, log):
    """Record the process, its affinity mask, its OpenBLAS thread counts
    and the half's size for every half-minibatch gradient from now on."""
    half_gradient = nn._half_gradient

    def logged(model, dataset, half, b):
        counts = [get() for get, _ in _parallel._openblas_threads()]
        (log / f"{os.getpid()}-{len(list(log.iterdir()))}").write_text(
            json.dumps([sorted(os.sched_getaffinity(0)), counts, int(half.size), b]))
        return half_gradient(model, dataset, half, b)

    monkeypatch.setattr(nn, "_half_gradient", logged)


def logged_halves(log):
    """{pid: [(mask, BLAS thread counts, half size, b), ...]} in order."""
    out = {}
    for path in sorted(log.iterdir(), key=lambda p: int(p.name.split("-")[1])):
        out.setdefault(int(path.name.split("-")[0]), []).append(json.loads(path.read_text()))
    return out


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_second_halves_run_in_a_partner_pinned_to_another_cpu(cpus, monkeypatch, tmp_path):
    cpus(2)
    log_halves(monkeypatch, tmp_path)
    mask = os.sched_getaffinity(0)
    first, second = sorted(mask)[:2]
    data, _ = gen_synthetic_dataset(1, 7, 1)
    train(Network(tiny_model_spec(init_seed=1)), data, TrainConfig(epochs=1, batch_size=3))
    assert_only_idle_workers_left(mask)
    halves = logged_halves(tmp_path)
    assert len(halves) == 2
    ones = [1] * len(_parallel._openblas_threads())
    # minibatches of 3, 3 and 1: the partner has nothing to add to the last
    assert halves.pop(os.getpid()) == [[[first], ones, 2, 3], [[first], ones, 2, 3],
                                       [[first], ones, 1, 1]]
    assert list(halves.values()) == [[[[second], ones, 1, 3], [[second], ones, 1, 3]]]


def test_a_fit_and_an_evaluation_below_the_break_even_stay_in_this_process(
        monkeypatch, tmp_path):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    forward = Network._forward

    def logged(self, x, keep):
        (tmp_path / str(os.getpid())).touch()
        return forward(self, x, keep)

    # the training and the state-free forward both run Network._forward
    monkeypatch.setattr(Network, "_forward", logged)
    # chunks of one image: three chunks are fewer than two per CPU
    monkeypatch.setattr(nn, "EVAL_WORKING_SET_BYTES", 1)
    spec = tiny_model_spec(init_seed=1)
    data, test_set = gen_synthetic_dataset(1, 64, 3)
    assert 64 * nn._multiply_adds(spec) < nn.PARALLEL_MIN_MULTIPLY_ADDS
    net = Network(spec)
    train(net, data, TrainConfig(epochs=1))
    evaluate(net, test_set)
    assert [path.name for path in tmp_path.iterdir()] == [str(os.getpid())]


@pytest.mark.parametrize("chunks, processes", [(3, 1), (4, 2)])
def test_an_evaluation_splits_from_two_chunks_per_cpu(cpus, monkeypatch, tmp_path,
                                                       chunks, processes):
    # on two CPUs, three chunks lose to the split and four gain (the table
    # above nn.EVAL_WORKING_SET_BYTES)
    net = cf_net(reference_model_spec(init_seed=1))
    full = net.unrolled_weights()
    sub, _ = _narrowed(net.spec, full, _live_channels(net.spec, full))
    _, test_set = gen_synthetic_dataset(1, 8, chunks * nn._chunk_images(sub.spec))
    cpus(1)
    alone = evaluate(net, test_set)
    cpus(2)
    spy_chunk_logits(monkeypatch, tmp_path, test_set.images)
    mask = os.sched_getaffinity(0)
    assert evaluate(net, test_set) == alone
    assert_only_idle_workers_left(mask)
    saved = [path.stem.split("-") for path in tmp_path.iterdir()]
    assert len(saved) == chunks
    assert len({pid for _, pid in saved}) == processes


def nan_in_a_second_half(data, batch_size, seed):
    """`data` with a NaN pixel in the last sample of the first minibatch
    that a fit seeded with `seed` draws, which falls in its second half."""
    order = np.random.default_rng(seed).permutation(len(data))
    images = data.images.copy()
    images[order[batch_size - 1], 0, 3, 3] = np.nan
    return Dataset(images, data.labels)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("run, seed", [(train, 2), (wct_train, [2, 1])], ids=["train", "wct"])
def test_a_nan_in_a_second_half_raises_and_cleans_up(cpus, count, run, seed):
    cpus(count)
    net = Network(tiny_model_spec(init_seed=1))
    config = TrainConfig(epochs=1, batch_size=4, seed=2, wct=WctConfig(epochs=1))
    data = nan_in_a_second_half(small_data()[0], config.batch_size, seed)
    before = {k: w.tobytes() for k, w in net.unrolled_weights().items()}
    mask = os.sched_getaffinity(0)
    with pytest.raises(FloatingPointError, match="training diverged: loss = nan"):
        run(net, data, config)
    assert_only_idle_workers_left(mask)
    assert {k: w.tobytes() for k, w in net.unrolled_weights().items()} == before


def test_an_error_in_the_partner_reaches_the_caller(cpus, monkeypatch):
    cpus(2)
    parent, half_gradient = os.getpid(), nn._half_gradient

    def faulty(model, dataset, half, b):
        if os.getpid() != parent:
            raise ZeroDivisionError(f"second half of {half.size}")
        return half_gradient(model, dataset, half, b)

    monkeypatch.setattr(nn, "_half_gradient", faulty)
    mask = os.sched_getaffinity(0)
    with pytest.raises(ZeroDivisionError, match="second half of 2"):
        train(Network(tiny_model_spec(init_seed=1)), small_data()[0],
              TrainConfig(epochs=1, batch_size=4))
    assert_only_idle_workers_left(mask)


def test_a_partner_that_dies_without_answering_is_reported(cpus, monkeypatch):
    cpus(2)
    parent, half_gradient = os.getpid(), nn._half_gradient

    def dying(model, dataset, half, b):
        if os.getpid() != parent:
            os._exit(3)
        return half_gradient(model, dataset, half, b)

    monkeypatch.setattr(nn, "_half_gradient", dying)
    mask = os.sched_getaffinity(0)
    with pytest.raises(RuntimeError, match="partner process exited with code 3"):
        train(Network(tiny_model_spec(init_seed=1)), small_data()[0],
              TrainConfig(epochs=1, batch_size=4))
    assert_only_idle_workers_left(mask)
