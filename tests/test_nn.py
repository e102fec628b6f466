import numpy as np
import pytest

from oracles import direct_conv2d, network_forward, numeric_gradient
from xbarprune.nn import (
    Conv2d,
    ConvSpec,
    Dataset,
    Dense,
    DenseSpec,
    MaxPool2,
    ModelSpec,
    Network,
    PoolSpec,
    ReluSpec,
    TrainConfig,
    WctConfig,
    evaluate,
    gen_synthetic_dataset,
    reference_model_spec,
    softmax_cross_entropy,
    tiny_model_spec,
    train,
    wct_train,
)
from xbarprune.pruning import SparsityPattern, gen_mask_cf, gen_mask_xcs

CONV_SPECS = [
    ConvSpec(2, 3, 3),                        # default padding kernel // 2
    ConvSpec(2, 3, 3, stride=2, padding=1),
    ConvSpec(1, 4, 3, padding=0),
    ConvSpec(3, 2, 1),
]


def small_data(seed=0):
    return gen_synthetic_dataset(seed, 64, 16)


# odd, non-square maps: the pool drops a row and a column, and a (4, 2, 1)
# map is flattened into a dense -> dense tail
ODD_SPEC = ModelSpec((ConvSpec(2, 3, 3), ReluSpec(), PoolSpec(),
                      ConvSpec(3, 4, 3, stride=2, padding=1), ReluSpec(),
                      DenseSpec(8, 5), ReluSpec(), DenseSpec(5, 3)),
                     input_shape=(2, 7, 5), init_seed=7)


def nhwc(x):
    return x.transpose(0, 2, 3, 1)


def nchw(x):
    return x.transpose(0, 3, 1, 2)


# ------------------------------------------------------------ forward pass


@pytest.mark.parametrize("spec", CONV_SPECS)
def test_conv_forward_matches_direct_conv(spec):
    rng = np.random.default_rng(spec.in_ch * 10 + spec.stride)
    layer = Conv2d(spec, rng)
    x = rng.normal(size=(2, spec.in_ch, 7, 6))
    out = nchw(layer.forward(nhwc(x)))
    ref = direct_conv2d(x, layer.w, stride=spec.stride, padding=spec.pad())
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
    ref = network_forward(spec.layers, list(net.weights().values()), x)
    np.testing.assert_allclose(net.forward(x), ref, rtol=1e-12, atol=1e-13)


def test_network_forward_runs_float32_images_in_float64():
    # a pool first sees the images themselves
    net = Network(ModelSpec((PoolSpec(), ConvSpec(1, 2, 3), DenseSpec(32, 2))))
    x = np.random.default_rng(3).random((3, 1, 8, 8)).astype(np.float32)
    logits = net.forward(x)
    assert logits.dtype == np.float64
    assert logits.tobytes() == net.forward(x.astype(np.float64)).tobytes()


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


# --------------------------------------------------------------- gradients


@pytest.mark.parametrize("spec", CONV_SPECS)
def test_conv_grad_w_matches_numeric_gradient(spec):
    rng = np.random.default_rng(7)
    layer = Conv2d(spec, rng)
    x = nhwc(rng.normal(size=(2, spec.in_ch, 6, 6)))
    probe = rng.normal(size=layer.forward(x).shape)
    layer.backward(probe)
    idx = rng.choice(layer.w.size, size=min(12, layer.w.size), replace=False)
    numeric = numeric_gradient(lambda: float(np.sum(layer.forward(x) * probe)),
                               layer.w, idx)
    np.testing.assert_allclose(layer.grad_w.reshape(-1)[idx], numeric,
                               rtol=1e-6, atol=1e-9)


def test_dense_grad_w_matches_numeric_gradient():
    rng = np.random.default_rng(8)
    layer = Dense(DenseSpec(10, 4), rng)
    x = rng.normal(size=(5, 10))
    probe = rng.normal(size=(5, 4))
    layer.forward(x)
    layer.backward(probe)
    idx = np.arange(layer.w.size)
    numeric = numeric_gradient(lambda: float(np.sum(layer.forward(x) * probe)),
                               layer.w, idx)
    np.testing.assert_allclose(layer.grad_w.reshape(-1), numeric,
                               rtol=1e-6, atol=1e-9)


def assert_backprop_matches_numeric_gradient(net, x, labels):
    def loss():
        return softmax_cross_entropy(net.forward(x), labels)[0]

    _, dlogits = softmax_cross_entropy(net.forward(x), labels)
    net.backward(dlogits)
    rng = np.random.default_rng(4)
    for _, layer in net.trainable:
        idx = rng.choice(layer.w.size, size=10, replace=False)
        analytic = layer.grad_w.reshape(-1)[idx].copy()
        np.testing.assert_allclose(analytic, numeric_gradient(loss, layer.w, idx),
                                   rtol=1e-5, atol=1e-8)


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


# ------------------------------------------------------ compacted C/F


def masked_loop(pattern):
    """The same masks under a method that trains at full width, masked."""
    return SparsityPattern("xcs", pattern.s, pattern.seed, 8, pattern.masks)


def odd_data(n=24, seed=5):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, *ODD_SPEC.input_shape)), rng.integers(0, 3, size=n))


def assert_weights_match(a: Network, b: Network, rtol=1e-12):
    for (name, wa), wb in zip(a.unrolled_weights().items(), b.unrolled_weights().values()):
        assert np.array_equal(wa == 0, wb == 0), name
        assert np.abs(wa - wb).max() <= rtol * np.abs(wb).max(), name


@pytest.mark.parametrize("spec", [reference_model_spec(init_seed=3), ODD_SPEC],
                         ids=["reference", "odd"])
@pytest.mark.parametrize("wct", [False, True], ids=["sgd", "wct"])
def test_cf_sgd_step_matches_the_masked_loop(spec, wct):
    # one batch, one epoch: a single step from the same weights, whose
    # pruned entries are not zero yet
    data = odd_data() if spec is ODD_SPEC else small_data(seed=4)[0]
    pattern = gen_mask_cf(spec, 0.5, seed=3)
    nets = {}
    for label, pat in (("compacted", pattern), ("masked", masked_loop(pattern))):
        net = Network(spec)
        config = TrainConfig(epochs=1, batch_size=len(data), seed=1, pattern=pat,
                             wct=WctConfig(epochs=1))
        if wct:
            wct_train(net, data, config, w_cut=0.05)
        else:
            train(net, data, config)
        nets[label] = net
    assert_weights_match(nets["compacted"], nets["masked"])


def test_cf_train_and_wct_match_the_masked_loop():
    spec = tiny_model_spec(init_seed=4)
    pattern = gen_mask_cf(spec, 0.5, seed=4)
    train_set, _ = small_data(seed=2)
    runs = {}
    for label, pat in (("compacted", pattern), ("masked", masked_loop(pattern))):
        net = Network(spec)
        config = TrainConfig(epochs=3, seed=4, pattern=pat, wct=WctConfig(epochs=2))
        _, losses = train(net, train_set, config)
        trained = net.copy()
        _, w_cut = wct_train(net, train_set, config)
        runs[label] = losses, trained, w_cut, net
    (loss_c, trained_c, cut_c, net_c), (loss_m, trained_m, cut_m, net_m) = runs.values()
    np.testing.assert_allclose(loss_c, loss_m, rtol=1e-12, atol=0)
    assert_weights_match(trained_c, trained_m)
    assert cut_c == cut_m
    assert_weights_match(net_c, net_m)


def test_cf_train_runs_the_compacted_widths(monkeypatch):
    spec = reference_model_spec(init_seed=2)
    pattern = gen_mask_cf(spec, 0.5, seed=2)
    seen = set()
    for cls in (Conv2d, Dense):
        def spy(self, x, forward=cls.forward):
            seen.add(self.w.shape)
            return forward(self, x)
        monkeypatch.setattr(cls, "forward", spy)
    train_set, _ = small_data()
    config = TrainConfig(epochs=1, seed=2, pattern=pattern, wct=WctConfig(epochs=1))
    train(Network(spec), train_set, config)
    wct_train(Network(spec), train_set, config)
    assert seen == {(32, 1, 3, 3), (64, 32, 3, 3), (64, 64, 3, 3), (256, 4)}


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


def test_cf_hand_built_pattern_that_compacts_trains():
    spec = tiny_model_spec(init_seed=8)
    train_set, _ = small_data()
    pattern = SparsityPattern("cf", 0.25, 0, None, tiny_cf_masks())
    nets = []
    for pat in (pattern, masked_loop(pattern)):
        nets.append(train(Network(spec), train_set, TrainConfig(epochs=1, pattern=pat))[0])
    assert_weights_match(*nets)


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


@pytest.mark.parametrize("breaks, reason", [
    (_break_extra_zero, "not whole rows and columns"),
    (_break_other_groups, "other row groups"),
    (_break_missing_mask, "other row groups"),
    (_break_input, "other row groups"),
    (_break_head, "outputs of the last layer"),
], ids=["extra-zero", "other-row-groups", "missing-next-mask", "pruned-input",
        "pruned-head-output"])
@pytest.mark.parametrize("run", [train, wct_train], ids=["train", "wct"])
def test_cf_rejects_patterns_that_do_not_compact(breaks, reason, run):
    masks = tiny_cf_masks()
    breaks(masks)
    net = Network(tiny_model_spec(init_seed=8))
    before = {k: w.copy() for k, w in net.weights().items()}
    config = TrainConfig(epochs=1, pattern=SparsityPattern("cf", 0.25, 0, None, masks))
    with pytest.raises(ValueError, match=reason):
        run(net, small_data()[0], config)
    for name, w in net.weights().items():
        assert w.tobytes() == before[name].tobytes()


@pytest.mark.parametrize("method", ["xcs", "cf"])
@pytest.mark.parametrize("run", [train, wct_train], ids=["train", "wct"])
def test_masks_for_layers_the_model_lacks_are_rejected(method, run):
    net = Network(tiny_model_spec(init_seed=8))
    before = {k: w.copy() for k, w in net.weights().items()}
    pattern = SparsityPattern(method, 0.5, 0, 8, {"conv_1": np.zeros((9, 8))})
    with pytest.raises(ValueError, match="conv_1"):
        run(net, small_data()[0], TrainConfig(epochs=1, pattern=pattern))
    for name, w in net.weights().items():
        assert w.tobytes() == before[name].tobytes()


def test_wct_keeps_every_weight_within_cutoff():
    net = Network(tiny_model_spec(init_seed=2))
    train_set, _ = small_data()
    config = TrainConfig(epochs=1, seed=5, wct=WctConfig(percentile=80.0, epochs=2))
    train(net, train_set, config)
    _, w_cut = wct_train(net, train_set, config)
    assert w_cut > 0
    for w in net.weights().values():
        assert np.all(np.abs(w) <= w_cut)


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
    for name, w in dup.weights().items():
        assert w.tobytes() == net.weights()[name].tobytes()
    assert dup.forward(data.images[:16]).tobytes() == logits.tobytes()


def test_evaluate_leaves_only_the_weights():
    net = Network(reference_model_spec(init_seed=1))
    _, test_set = gen_synthetic_dataset(1, 8, 300)
    evaluate(net, test_set)
    held = [(i, name) for i, layer in enumerate(net.layers) for name, _ in _arrays(layer)]
    assert held == [(net.layers.index(layer), "w") for _, layer in net.trainable]


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_batch_size_below_one(batch_size):
    _, test_set = gen_synthetic_dataset(1, 8, 16)
    with pytest.raises(ValueError, match="batch_size"):
        evaluate(Network(tiny_model_spec(init_seed=1)), test_set, batch_size=batch_size)


# ------------------------------------------------------------ model spec


@pytest.mark.parametrize("spec", [
    reference_model_spec(),
    tiny_model_spec(init_seed=9),
    ModelSpec((ConvSpec(2, 4, 3, stride=2, padding=1), ReluSpec(), PoolSpec(),
               DenseSpec(16, 3)), input_shape=(2, 8, 8), init_seed=4),
])
def test_model_spec_dict_round_trip(spec):
    assert ModelSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("build, reason", [
    (lambda: ModelSpec((DenseSpec(64, 16), PoolSpec())), "needs a \\(C, H, W\\) input"),
    (lambda: ModelSpec((DenseSpec(64, 16), ConvSpec(1, 2, 3))), "needs a \\(C, H, W\\) input"),
    (lambda: ModelSpec((ConvSpec(1, 0, 3), DenseSpec(1, 2))), "out_ch must be >= 1"),
    (lambda: ModelSpec((ConvSpec(0, 2, 3),), input_shape=(0, 8, 8)), "in_ch must be >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, 0),)), "kernel must be >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, -3),)), "kernel must be >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3, stride=0),)), "stride must be >= 1"),
    (lambda: ModelSpec((DenseSpec(64, 0),)), "dense sizes must be >= 1"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3),), input_shape=(1, 0, 8)), "input_shape"),
    (lambda: ModelSpec((ConvSpec(1, 2, 3), PoolSpec(), PoolSpec(), PoolSpec(),
                        DenseSpec(2, 4)), input_shape=(1, 4, 4)), "empty output shape"),
    (lambda: ModelSpec((ConvSpec(1, 2, 5, padding=0), DenseSpec(2, 4)),
                       input_shape=(1, 3, 3)), "empty output shape"),
], ids=["pool-after-dense", "conv-after-dense", "zero-out-channels", "zero-in-channels",
        "zero-kernel", "negative-kernel", "zero-stride", "zero-dense-outputs",
        "empty-input", "pools-to-0x0", "kernel-wider-than-input"])
def test_model_spec_rejects_shapes_it_cannot_run(build, reason):
    with pytest.raises(ValueError, match=reason):
        build()


# ------------------------------------------------------------ determinism


def test_dataset_bit_identical_for_seed():
    a_train, a_test = gen_synthetic_dataset(11, 40, 12)
    b_train, b_test = gen_synthetic_dataset(11, 40, 12)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
    c_train, _ = gen_synthetic_dataset(12, 40, 12)
    assert not np.array_equal(a_train.images, c_train.images)


def test_training_and_wct_bit_identical_for_seed():
    train_set, _ = small_data()
    spec = tiny_model_spec(init_seed=6)
    pattern = gen_mask_cf(spec, 0.5, seed=6)
    runs = []
    for _ in range(2):
        net = Network(spec)
        config = TrainConfig(epochs=2, seed=6, pattern=pattern, wct=WctConfig(epochs=1))
        _, losses = train(net, train_set, config)
        trained = {k: w.copy() for k, w in net.weights().items()}
        _, w_cut = wct_train(net, train_set, config)
        runs.append((losses, trained, w_cut, net.weights()))
    (loss_a, trained_a, cut_a, wct_a), (loss_b, trained_b, cut_b, wct_b) = runs
    assert loss_a == loss_b
    assert cut_a == cut_b
    for name in trained_a:
        assert np.array_equal(trained_a[name], trained_b[name])
        assert np.array_equal(wct_a[name], wct_b[name])
