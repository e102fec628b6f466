"""Every public scalar parameter of the package takes only values that can run.

One hypothesis sweep over the entry points: a bool, NaN, an infinity, a
string or None, and for an integer parameter an integral float, raises
ValueError or TypeError whose message starts with the parameter's name.
NumPy integer and float scalars of a valid value run. A last test checks
that the sweep covers every int- and float-annotated parameter of the
public functions and classes, less a short list of exemptions."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarprune import circuit, mapping, nn, pruning
from xbarprune.circuit import CrossbarParams, apply_device_variation, default_params
from xbarprune.mapping import (
    conductances_to_weights,
    layer_nf,
    partition,
    simulate_layer,
    weights_to_conductances,
)
from xbarprune.nn import (
    ConvSpec,
    DenseSpec,
    ModelSpec,
    Network,
    TrainConfig,
    WctConfig,
    gen_synthetic_dataset,
    reference_model_spec,
    tiny_model_spec,
    wct_cutoff,
)
from xbarprune.pruning import (
    SparsityPattern,
    compact_xcs,
    compact_xrs,
    compression_rate,
    gen_mask_cf,
    gen_mask_xcs,
    gen_mask_xrs,
    tile_count_unpruned,
)

SPEC = tiny_model_spec(init_seed=0)
NET = Network(SPEC)
P2, P4 = CrossbarParams(2), CrossbarParams(4)
W = np.random.default_rng(0).normal(size=(6, 5))

# (label, call with the value in place, name that starts the message, valid value)
INTEGER = [
    ("CrossbarParams.n", lambda v: CrossbarParams(v), "n", 4),
    ("default_params.n", lambda v: default_params(v), "n", 4),
    ("partition.n", lambda v: partition(W, v), "tile size", 4),
    ("simulate_layer.master_seed", lambda v: simulate_layer(W, P4, master_seed=v),
     "master_seed", 3),
    ("simulate_layer.layer_index", lambda v: simulate_layer(W, P4, layer_index=v),
     "layer_index", 2),
    ("layer_nf.master_seed", lambda v: layer_nf(W, P4, master_seed=v), "master_seed", 3),
    ("layer_nf.layer_index", lambda v: layer_nf(W, P4, layer_index=v), "layer_index", 2),
    ("SparsityPattern.seed", lambda v: SparsityPattern("xcs", 0.5, v, 4), "seed", 0),
    ("SparsityPattern.n", lambda v: SparsityPattern("xcs", 0.5, 0, v), "tile size", 4),
    ("gen_mask_cf.seed", lambda v: gen_mask_cf(SPEC, 0.5, v), "seed", 1),
    ("gen_mask_xcs.n", lambda v: gen_mask_xcs(SPEC, 0.5, v, 0), "segment length", 4),
    ("gen_mask_xcs.seed", lambda v: gen_mask_xcs(SPEC, 0.5, 4, v), "seed", 1),
    ("gen_mask_xrs.n", lambda v: gen_mask_xrs(SPEC, 0.5, v, 0), "segment length", 4),
    ("gen_mask_xrs.seed", lambda v: gen_mask_xrs(SPEC, 0.5, 4, v), "seed", 1),
    ("compact_xcs.n", lambda v: compact_xcs(W, v), "tile size", 4),
    ("compact_xrs.n", lambda v: compact_xrs(W, v), "tile size", 4),
    ("tile_count_unpruned.rows", lambda v: tile_count_unpruned(v, 5, 4), "rows", 6),
    ("tile_count_unpruned.cols", lambda v: tile_count_unpruned(6, v, 4), "cols", 5),
    ("tile_count_unpruned.n", lambda v: tile_count_unpruned(6, 5, v), "tile size", 4),
    ("compression_rate.n", lambda v: compression_rate(SPEC, None, v), "tile size", 4),
    ("ConvSpec.in_ch", lambda v: ConvSpec(v, 4, 3), "conv in_ch", 1),
    ("ConvSpec.out_ch", lambda v: ConvSpec(1, v, 3), "conv out_ch", 4),
    ("ConvSpec.kernel", lambda v: ConvSpec(1, 4, v), "conv kernel", 3),
    ("DenseSpec.in_features", lambda v: DenseSpec(v, 4), "dense in_features", 8),
    ("DenseSpec.out_features", lambda v: DenseSpec(8, v), "dense out_features", 4),
    ("ModelSpec.input_shape", lambda v: ModelSpec(SPEC.layers, input_shape=(1, v, 8)),
     "input_shape", 8),
    ("ModelSpec.init_seed", lambda v: ModelSpec(SPEC.layers, init_seed=v), "init_seed", 5),
    ("reference_model_spec.init_seed", lambda v: reference_model_spec(v), "init_seed", 5),
    ("tiny_model_spec.init_seed", lambda v: tiny_model_spec(v), "init_seed", 5),
    ("TrainConfig.batch_size", lambda v: TrainConfig(batch_size=v), "batch_size", 16),
    ("TrainConfig.epochs", lambda v: TrainConfig(epochs=v), "epochs", 3),
    ("TrainConfig.seed", lambda v: TrainConfig(seed=v), "seed", 2),
    ("WctConfig.epochs", lambda v: WctConfig(epochs=v), "wct epochs", 1),
    ("gen_synthetic_dataset.seed", lambda v: gen_synthetic_dataset(v, 2, 2), "seed", 2),
    ("gen_synthetic_dataset.n_train", lambda v: gen_synthetic_dataset(0, v, 2), "n_train", 2),
    ("gen_synthetic_dataset.n_test", lambda v: gen_synthetic_dataset(0, 2, v), "n_test", 2),
]

CIRCUIT_VALUES = dict(r_driver=1e3, r_wire_row=5.0, r_wire_col=5.0, r_sense=1e3,
                      g_min=5e-6, g_max=5e-5, sigma_dev=0.1, v_read=1.0)

REAL = [
    *[(f"CrossbarParams.{name}", lambda v, name=name: CrossbarParams(4, **{name: v}),
       name, valid) for name, valid in CIRCUIT_VALUES.items()],
    *[(f"default_params.{name}", lambda v, name=name: default_params(4, **{name: v}),
       name, valid) for name, valid in CIRCUIT_VALUES.items()],
    ("apply_device_variation.sigma_dev",
     lambda v: apply_device_variation(np.full((2, 2), 1e-5), v, np.random.default_rng(0)),
     "sigma_dev", 0.1),
    ("weights_to_conductances.w_scale",
     lambda v: weights_to_conductances(np.full((2, 2), 0.5), v, P2), "w_scale", 1.0),
    ("conductances_to_weights.w_scale",
     lambda v: conductances_to_weights(np.full((2, 2), 1e-5), np.ones((2, 2)), v, P2),
     "w_scale", 1.0),
    ("SparsityPattern.s", lambda v: SparsityPattern("cf", v, 0, None), "sparsity ratio", 0.5),
    ("gen_mask_cf.s", lambda v: gen_mask_cf(SPEC, v, 0), "sparsity ratio", 0.5),
    ("gen_mask_xcs.s", lambda v: gen_mask_xcs(SPEC, v, 4, 0), "sparsity ratio", 0.5),
    ("gen_mask_xrs.s", lambda v: gen_mask_xrs(SPEC, v, 4, 0), "sparsity ratio", 0.5),
    ("TrainConfig.lr", lambda v: TrainConfig(lr=v), "lr", 0.05),
    ("WctConfig.percentile", lambda v: WctConfig(percentile=v), "percentile", 90.0),
    ("wct_cutoff.percentile", lambda v: wct_cutoff(NET, v), "percentile", 90.0),
]

NOT_NUMBERS = st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_, None]),
                        st.text("0123456789.e-", max_size=4))
NOT_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, np.float64(np.nan), np.float32(np.inf)])
INTEGRAL_FLOATS = st.integers(-2, 300).flatmap(
    lambda i: st.sampled_from([float(i), np.float64(i), np.float32(i)]))


def assert_rejected(call, name, value):
    with pytest.raises((ValueError, TypeError), match=f"^{name} must be"):
        call(value)


def ids(cases):
    return [label for label, *_ in cases]


@pytest.mark.parametrize("label, call, name, valid", INTEGER, ids=ids(INTEGER))
@settings(max_examples=8, deadline=None)
@given(value=st.one_of(NOT_NUMBERS, NOT_FINITE, INTEGRAL_FLOATS))
@example(value=True)
@example(value=False)
@example(value=float("nan"))
@example(value=None)
@example(value=1.0)
def test_an_integer_parameter_rejects_what_is_not_an_integer(label, call, name, valid, value):
    assert_rejected(call, name, value)


@pytest.mark.parametrize("label, call, name, valid", REAL, ids=ids(REAL))
@settings(max_examples=8, deadline=None)
@given(value=st.one_of(NOT_NUMBERS, NOT_FINITE))
@example(value=True)
@example(value=False)
@example(value=float("nan"))
@example(value=float("inf"))
@example(value=None)
def test_a_real_parameter_rejects_what_is_not_a_finite_real_number(label, call, name,
                                                                   valid, value):
    assert_rejected(call, name, value)


@pytest.mark.parametrize("label, call, name, valid", INTEGER, ids=ids(INTEGER))
def test_an_integer_parameter_takes_numpy_integers(label, call, name, valid):
    for numpy_type in (np.int64, np.uint8):
        call(numpy_type(valid))


@pytest.mark.parametrize("label, call, name, valid", REAL, ids=ids(REAL))
def test_a_real_parameter_takes_numpy_floats(label, call, name, valid):
    for numpy_type in (np.float64, np.float32):
        call(numpy_type(valid))


# int- and float-annotated parameters that take no sweep row, and why
COMPUTED = "a field of a result or record that the package fills, not an input"
GEOMETRY = "receives the geometry that Network derives from a checked ModelSpec"
EXEMPT = {
    **dict.fromkeys(["LayerNfReport.mean_nf", "MappingRecord.w_scale", "SegmentPacking.n",
                     "UnrolledLayerInfo.rows", "UnrolledLayerInfo.cols",
                     "UnrolledLayerInfo.rows_per_channel", "UnrolledLayerInfo.in_channels",
                     "UnrolledLayerInfo.padding", "UnrolledLayerInfo.positions",
                     "UnrolledLayerInfo.in_size"],
                    COMPUTED),
    **dict.fromkeys(["im2col.padding", "col2im.padding", "Conv2d.padding"], GEOMETRY),
}


def scalar_parameters():
    """"<function or class>.<parameter>" for every int- or float-annotated
    parameter (a dataclass's fields, a class's constructor) of the public
    functions and classes of circuit, mapping, nn and pruning."""
    found = set()
    for module in (circuit, mapping, nn, pruning):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                annotated = [(field.name, field.type) for field in dataclasses.fields(obj)]
            elif inspect.isclass(obj) or inspect.isfunction(obj):
                annotated = [(param.name, param.annotation)
                             for param in inspect.signature(obj).parameters.values()]
            else:
                continue
            # the modules defer annotations, so each is a string such as "int | None"
            found |= {f"{name}.{param}" for param, annotation in annotated
                      if {"int", "float"} & {part.strip() for part in str(annotation).split("|")}}
    return found


def test_the_sweep_covers_every_public_scalar_parameter():
    params = scalar_parameters()
    assert {"ConvSpec.kernel", "TrainConfig.lr", "SparsityPattern.n"} <= params
    assert set(EXEMPT) <= params, "an exemption names no scalar parameter"
    swept = {label for label, *_ in INTEGER + REAL}
    assert sorted(params - swept - set(EXEMPT)) == []
