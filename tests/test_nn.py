import numpy as np
import pytest

from oracles import direct_conv2d, numeric_gradient
from xbarprune.nn import (
    Conv2d,
    ConvSpec,
    Dense,
    DenseSpec,
    ModelSpec,
    Network,
    PoolSpec,
    ReluSpec,
    TrainConfig,
    WctConfig,
    gen_synthetic_dataset,
    reference_model_spec,
    softmax_cross_entropy,
    tiny_model_spec,
    train,
    wct_train,
)
from xbarprune.pruning import gen_mask_cf, gen_mask_xcs

CONV_SPECS = [
    ConvSpec(2, 3, 3),                        # default padding kernel // 2
    ConvSpec(2, 3, 3, stride=2, padding=1),
    ConvSpec(1, 4, 3, padding=0),
    ConvSpec(3, 2, 1),
]


def small_data(seed=0):
    return gen_synthetic_dataset(seed, 64, 16)


# ------------------------------------------------------------ forward pass


@pytest.mark.parametrize("spec", CONV_SPECS)
def test_conv_forward_matches_direct_conv(spec):
    rng = np.random.default_rng(spec.in_ch * 10 + spec.stride)
    layer = Conv2d(spec, rng)
    x = rng.normal(size=(2, spec.in_ch, 7, 6))
    out = layer.forward(x)
    ref = direct_conv2d(x, layer.w, stride=spec.stride, padding=spec.pad())
    assert out.shape == ref.shape
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


# --------------------------------------------------------------- gradients


@pytest.mark.parametrize("spec", CONV_SPECS)
def test_conv_grad_w_matches_numeric_gradient(spec):
    rng = np.random.default_rng(7)
    layer = Conv2d(spec, rng)
    x = rng.normal(size=(2, spec.in_ch, 6, 6))
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


def test_network_backprop_matches_numeric_gradient():
    # cross-entropy through conv, ReLU, max pooling and dense
    net = Network(tiny_model_spec(init_seed=3))
    data, _ = small_data(seed=3)
    x, labels = data.images[:8], data.labels[:8]

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


def test_wct_keeps_every_weight_within_cutoff():
    net = Network(tiny_model_spec(init_seed=2))
    train_set, _ = small_data()
    config = TrainConfig(epochs=1, seed=5, wct=WctConfig(percentile=80.0, epochs=2))
    train(net, train_set, config)
    _, w_cut = wct_train(net, train_set, config)
    assert w_cut > 0
    for w in net.weights().values():
        assert np.all(np.abs(w) <= w_cut)


# ------------------------------------------------------------ model spec


@pytest.mark.parametrize("spec", [
    reference_model_spec(),
    tiny_model_spec(init_seed=9),
    ModelSpec((ConvSpec(2, 4, 3, stride=2, padding=1), ReluSpec(), PoolSpec(),
               DenseSpec(16, 3)), input_shape=(2, 8, 8), init_seed=4),
])
def test_model_spec_dict_round_trip(spec):
    assert ModelSpec.from_dict(spec.to_dict()) == spec


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
