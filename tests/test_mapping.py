import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarprune import _parallel, circuit, mapping
from xbarprune.circuit import (
    CrossbarParams,
    CrossbarSystem,
    apply_device_variation,
    ideal_mac,
    nonideality_factor,
)
from xbarprune.mapping import (
    column_metrics,
    conductances_to_weights,
    partition,
    rearrange_columns,
    recombine,
    simulate_layer,
    layer_nf,
    weights_to_conductances,
)
from xbarprune.nn import Network, reference_model_spec
from xbarprune.pruning import (
    CfCompaction,
    SparsityPattern,
    apply_mask,
    cf_compaction,
    compact_xcs,
    compact_xrs,
    compression_rate,
    gen_mask_cf,
    gen_mask_xcs,
    gen_mask_xrs,
    tile_count_unpruned,
)

IDEAL = dict(r_driver=0.0, r_wire_row=0.0, r_wire_col=0.0, r_sense=0.0, sigma_dev=0.0)


def crafted_alternating(seed, rows=32, cols=64):
    rng = np.random.default_rng(seed)
    w = np.empty((rows, cols))
    half = cols // 2
    w[:, 0::2] = rng.uniform(0.8, 1.0, (rows, half)) * rng.choice([-1, 1], (rows, half))
    w[:, 1::2] = rng.uniform(0.01, 0.05, (rows, half)) * rng.choice([-1, 1], (rows, half))
    return w


# --------------------------------------------------------------- encoding


def test_encode_zero_maps_to_gmin():
    p = CrossbarParams(2)
    g, signs = weights_to_conductances(np.zeros((2, 2)), 1.0, p)
    assert np.all(g == p.g_min)
    assert np.all(signs == 0.0)


def test_encode_extremes_map_to_gmax_with_sign():
    p = CrossbarParams(2)
    g, signs = weights_to_conductances(np.array([[0.7, -0.7]]), 0.7, p)
    np.testing.assert_allclose(g, p.g_max, rtol=1e-15)
    assert signs.tolist() == [[1.0, -1.0]]


def test_encode_midpoint_value():
    p = CrossbarParams(1, g_min=5e-6, g_max=5e-5)
    g, _ = weights_to_conductances(np.array([[0.5]]), 1.0, p)
    assert g[0, 0] == pytest.approx(2.75e-5, rel=1e-12)


def test_encode_rejects_bad_scale_and_overflow():
    p = CrossbarParams(1)
    with pytest.raises(ValueError):
        weights_to_conductances(np.array([[0.1]]), 0.0, p)
    with pytest.raises(ValueError):
        weights_to_conductances(np.array([[1.5]]), 1.0, p)


@pytest.mark.parametrize("w_scale", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_encode_and_decode_reject_a_scale_that_is_not_finite_and_positive(w_scale):
    p = CrossbarParams(1)
    with pytest.raises(ValueError, match="w_scale"):
        weights_to_conductances(np.array([[0.1]]), w_scale, p)
    with pytest.raises(ValueError, match="w_scale"):
        conductances_to_weights(np.array([[p.g_min]]), np.array([[1.0]]), w_scale, p)


def test_decode_round_trip():
    p = CrossbarParams(4)
    rng = np.random.default_rng(0)
    w = rng.uniform(-1, 1, (4, 4))
    w[0, 0] = 0.0
    g, signs = weights_to_conductances(w, 1.0, p)
    back = conductances_to_weights(g, signs, 1.0, p)
    np.testing.assert_allclose(back, w, rtol=1e-12, atol=1e-15)
    assert back[0, 0] == 0.0


def test_decode_sign_zero_forced_to_zero():
    p = CrossbarParams(1)
    out = conductances_to_weights(np.array([[p.g_min]]), np.array([[0.0]]), 1.0, p)
    assert out[0, 0] == 0.0


def test_decode_below_gmin_shifts_magnitude():
    # from the 1x1 series case: G = 1e-4 with 1k driver and sense droops to
    # 1/12000 S; decode with matching g_max keeps the sign and shifts down
    p = CrossbarParams(1, r_driver=1e3, r_wire_row=0, r_wire_col=0,
                       r_sense=1e3, g_min=5e-6, g_max=1e-4, sigma_dev=0.0)
    w = np.array([[-1.0]])
    g, signs = weights_to_conductances(w, 1.0, p)
    g_eff = CrossbarSystem(g, p).effective_conductance()
    out = conductances_to_weights(g_eff, signs, 1.0, p)
    expected = (1.0 / 12000.0 - p.g_min) / (p.g_max - p.g_min) * 1.0 * -1.0
    assert out[0, 0] == pytest.approx(expected, rel=1e-9)
    assert out[0, 0] < 0


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_encode_decode_scale_invariance(w_scale, seed):
    p = CrossbarParams(3)
    rng = np.random.default_rng(seed)
    frac = rng.uniform(-1, 1, (3, 3))
    frac[np.abs(frac) < 1e-6] = 0.0
    w = frac * w_scale
    g, signs = weights_to_conductances(w, w_scale, p)
    back = conductances_to_weights(g, signs, w_scale, p)
    np.testing.assert_allclose(back, w, rtol=1e-9, atol=w_scale * 1e-15)


# ----------------------------------------------------------------- tiling


def test_partition_4x6_into_2x2_tiles():
    w = np.arange(24, dtype=float).reshape(4, 6)
    tiles, record = partition(w, 2)
    assert len(tiles) == 6
    assert all(pl.rows.size == 2 and pl.cols.size == 2 for pl in record.tile_placements)
    blocks = [(pl.row_block, pl.col_block) for pl in record.tile_placements]
    assert blocks == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_partition_5x5_into_4x4_tiles_with_padding():
    w = np.ones((5, 5))
    tiles, record = partition(w, 4)
    assert len(tiles) == 4
    # real rows/cols per tile; the rest of each 4 x 4 tile is padding
    assert [(pl.rows.size, pl.cols.size) for pl in record.tile_placements] == \
        [(4, 4), (4, 1), (1, 4), (1, 1)]
    assert all(t.shape == (4, 4) for t in tiles)
    # edge tile carries a single real value
    assert tiles[-1][0, 0] == 1.0 and tiles[-1][1:, :].sum() == 0.0


def test_partition_64x64_single_tile():
    w = np.random.default_rng(1).normal(size=(64, 64))
    tiles, record = partition(w, 64)
    assert len(tiles) == 1
    pl = record.tile_placements[0]
    assert pl.rows.size == 64 and pl.cols.size == 64
    np.testing.assert_array_equal(tiles[0], w)


def test_partition_rejects_empty():
    with pytest.raises(ValueError):
        partition(np.empty((0, 3)), 2)


LAYOUTS = [("dense", None), ("dense", "ascending"), ("cf", None), ("cf", "ascending"),
           ("cf", "center_out"), ("xcs", None), ("xrs", None)]


def layout_case(layout):
    """(w, compaction) of a 21 x 19 matrix masked for `layout`; at n = 8
    every layout has padded edge tiles."""
    mask = np.ones((21, 19))
    if layout == "cf":
        mask[[2, 9, 10], :] = 0.0
        mask[:, [0, 5, 17]] = 0.0
    elif layout == "xcs":
        mask[:8, [1, 4, 11]] = 0.0
        mask[8:16, [0, 2, 9, 18]] = 0.0
    elif layout == "xrs":
        mask[[1, 4, 5, 11, 12, 20], :8] = 0.0
        mask[[0, 3, 7], 8:16] = 0.0
    w = np.random.default_rng(13).normal(size=mask.shape) * mask
    compaction = None
    if layout == "cf":
        compaction = cf_compaction(mask)
    elif layout in ("xcs", "xrs"):
        compaction = (compact_xcs if layout == "xcs" else compact_xrs)(w, 8, mask=mask)
    return w, compaction


@pytest.mark.parametrize("layout,order", LAYOUTS)
def test_recombine_round_trip_bitwise(layout, order):
    # one C-contiguous float64 (k, n, n) stack, padded with +0.0 alone
    w, compaction = layout_case(layout)
    tiles, record = partition(w, 8, order=order, compaction=compaction)
    assert tiles.dtype == np.float64 and tiles.flags.c_contiguous
    assert tiles.shape == (len(record.tile_placements), 8, 8)
    padding = np.ones(tiles.shape, dtype=bool)
    for pad, pl in zip(padding, record.tile_placements):
        pad[:pl.rows.size, :pl.cols.size] = False
    assert padding.any()
    assert np.all(tiles[padding] == 0.0) and not np.signbit(tiles[padding]).any()
    np.testing.assert_array_equal(recombine(tiles, record), w)
    dense = np.random.default_rng(2).normal(size=(13, 29))
    np.testing.assert_array_equal(recombine(*partition(dense, 8)), dense)


@pytest.mark.parametrize("layout,order", LAYOUTS)
def test_every_layout_recombines_to_the_masked_matrix(layout, order):
    n = 8
    w, compaction = layout_case(layout)
    tiles, record = partition(w, n, order=order, compaction=compaction)
    assert all(t.shape == (n, n) for t in tiles)
    np.testing.assert_array_equal(recombine(tiles, record), w)
    if layout in ("dense", "cf"):
        # the tiles are those of the compacted (T), rearranged (R) matrix
        mat = w if compaction is None else compaction.apply(w)
        if order is not None:
            mat, _ = rearrange_columns(mat, order)
        for tile, expected in zip(tiles, partition(mat, n)[0], strict=True):
            np.testing.assert_array_equal(tile, expected)


def test_recombine_rejects_mismatched_tiles():
    w = np.ones((4, 4))
    tiles, record = partition(w, 2)
    with pytest.raises(ValueError):
        recombine(tiles[:-1], record)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_partition_recombine_property(rows, cols, n, seed):
    w = np.random.default_rng(seed).normal(size=(rows, cols))
    tiles, record = partition(w, n)
    assert len(tiles) == -(-rows // n) * (-(-cols // n))
    np.testing.assert_array_equal(recombine(tiles, record), w)


@functools.cache
def reference_weights():
    return Network(reference_model_spec(0)).unrolled_weights()


@pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("method", ["cf", "xcs", "xrs"])
def test_compression_rate_counts_the_tiles_partition_places(method, n, s):
    # pruning counts a pattern's tiles with code of its own, and mapping
    # places them: the two counts must agree on every masked layer
    spec = reference_model_spec(0)
    if method == "cf":
        pattern = gen_mask_cf(spec, s, 1)
    else:
        gen_mask, compact = {"xcs": (gen_mask_xcs, compact_xcs),
                             "xrs": (gen_mask_xrs, compact_xrs)}[method]
        pattern = gen_mask(spec, s, n, 1)
    unpruned = placed = 0
    for layer, w in reference_weights().items():
        mask = pattern.masks[layer]
        masked = apply_mask(w, mask)
        compaction = cf_compaction(mask) if method == "cf" else compact(masked, n, mask)
        unpruned += tile_count_unpruned(*w.shape, n)
        placed += len(partition(masked, n, compaction=compaction)[1].tile_placements)
    assert compression_rate(spec, pattern, n) == unpruned / placed


# ----------------------------------------------------------- rearrangement


def test_column_metrics_hand_values():
    metrics = column_metrics(np.array([[0.2, 0.1, 0.9],
                                       [0.2, 0.3, 0.7]]))
    assert metrics[0] == 0.0
    assert metrics[1] == pytest.approx(np.sqrt(0.02))
    assert metrics[2] == pytest.approx(np.sqrt(0.08))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_rearrange_rejects_empty(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            rearrange_columns(np.empty(shape))


def test_rearrange_orders_by_metric():
    # metrics: col0 ~ 0.1414, col1 ~ 0.2828, col2 = 0
    w = np.array([[0.1, 0.9, 0.2],
                  [0.3, 0.7, 0.2]])
    out, perm = rearrange_columns(w)
    assert perm.tolist() == [2, 0, 1]
    np.testing.assert_array_equal(out, w[:, [2, 0, 1]])


def test_rearrange_identity_cases():
    w = np.full((3, 4), 0.5)
    _, perm = rearrange_columns(w)
    assert perm.tolist() == [0, 1, 2, 3]     # stable tie-break

    sorted_w = np.array([[0.0, 0.1, 0.5],
                         [0.0, 0.3, 0.9]])
    _, perm = rearrange_columns(sorted_w)
    assert perm.tolist() == [0, 1, 2]


def test_rearrange_center_out_places_low_metrics_centrally():
    w = crafted_alternating(0, rows=8, cols=8)
    out, perm = rearrange_columns(w, order="center_out")
    metrics = column_metrics(out)
    c = len(metrics)
    center = (c - 1) / 2
    dist = np.abs(np.arange(c) - center)
    # metric must not decrease as we move away from the center
    order = np.argsort(dist, kind="stable")
    assert np.all(np.diff(metrics[order]) >= -1e-15)


# column k is (0, levels[k]), whose metric is levels[k] / 2, so equal levels
# tie. Worked by hand: the stable ascending order of the metrics fills the
# slots from the centre out, the left one of two equidistant slots first.
@pytest.mark.parametrize("levels, perm", [
    ([3], [0]),
    ([3, 1], [1, 0]),
    ([2, 1, 1], [2, 1, 0]),
    ([1, 3, 1, 2], [3, 0, 2, 1]),
    ([2, 2, 0, 1, 1], [0, 3, 2, 4, 1]),
    ([1, 1, 1, 0, 0, 0], [1, 5, 3, 4, 0, 2]),
], ids=[f"c{c}" for c in range(1, 7)])
def test_rearrange_center_out_order_by_hand(levels, perm):
    w = np.array([np.zeros(len(levels)), levels])
    out, got = rearrange_columns(w, order="center_out")
    assert got.tolist() == perm
    np.testing.assert_array_equal(out, w[:, perm])


@pytest.mark.parametrize("order", mapping.REARRANGE_ORDERS)
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_rearrange_permutation_soundness(order, rows, cols, seed):
    w = np.random.default_rng(seed).normal(size=(rows, cols))
    out, perm = rearrange_columns(w, order)
    assert sorted(perm.tolist()) == list(range(cols))
    restored = np.empty_like(out)
    restored[:, perm] = out
    np.testing.assert_array_equal(restored, w)
    # a column placed earlier (ascending) or nearer the centre (center_out)
    # has no higher metric than one placed later or further out
    slot = np.arange(cols) if order == "ascending" else np.abs(np.arange(cols) - (cols - 1) / 2)
    metrics = column_metrics(out)
    earlier = slot[:, None] < slot[None, :]
    assert np.all(metrics[:, None] <= metrics[None, :] + 1e-15, where=earlier)


# ------------------------------------------------------------ layer pipeline


def test_simulate_layer_ideal_pipeline():
    w = np.random.default_rng(5).normal(size=(20, 14))
    p = CrossbarParams(8, **IDEAL)
    res = simulate_layer(w, p)
    np.testing.assert_allclose(res.w_nonideal, w, rtol=1e-9, atol=1e-18)
    assert res.nf.mean_nf == 0.0
    assert np.all(res.nf.per_tile_mean == 0.0)


def test_simulate_layer_ideal_with_all_transform_combinations():
    mask = np.ones((20, 14))
    mask[:, [3, 7]] = 0.0
    mask[5:10, :] = 0.0
    w = np.random.default_rng(6).normal(size=(20, 14)) * mask
    p = CrossbarParams(8, **IDEAL)
    comp = cf_compaction(mask)
    for rearrange in (False, True):
        for compaction in (None, comp):
            res = simulate_layer(w, p, rearrange=rearrange, compaction=compaction)
            np.testing.assert_allclose(res.w_nonideal, w, rtol=1e-9, atol=1e-18)


def test_simulate_layer_deterministic():
    w = np.random.default_rng(7).normal(size=(40, 40))
    p = CrossbarParams(16)
    a = simulate_layer(w, p, master_seed=123, layer_index=2)
    b = simulate_layer(w, p, master_seed=123, layer_index=2)
    assert np.array_equal(a.w_nonideal, b.w_nonideal)
    c = simulate_layer(w, p, master_seed=124, layer_index=2)
    assert not np.array_equal(a.w_nonideal, c.w_nonideal)


def test_simulate_layer_nf_matches_direct_recomputation():
    w = np.random.default_rng(8).normal(size=(64, 64))
    p = CrossbarParams(32)
    res = simulate_layer(w, p, master_seed=5, layer_index=1)
    assert res.nf.mean_nf > 0

    # recompute through the public circuit primitives
    w_scale = float(np.abs(w).max())
    expected = []
    for pl in res.record.tile_placements:
        sub = np.zeros((32, 32))
        sub[:pl.rows.size, :pl.cols.size] = w[np.ix_(pl.rows, pl.cols)]
        g, _ = weights_to_conductances(sub, w_scale, p)
        rng = np.random.default_rng([5, 1, pl.row_block, pl.col_block])
        g_var = apply_device_variation(g, p.sigma_dev, rng)
        ones = np.full(32, p.v_read)
        nf = nonideality_factor(ideal_mac(g, ones),
                                CrossbarSystem(g_var, p).solve(ones).currents)
        expected.append(float(np.mean(nf)))
    assert res.nf.per_tile_mean.tolist() == expected
    assert res.nf.mean_nf == pytest.approx(np.mean(expected), rel=1e-15)


def screen_case(layout, n, seed=9):
    """(w, kwargs) of a layer of a few n x n tiles under ``layout``; a dense
    layer's first tile holds only zero weights."""
    rows, cols = 2 * n + 1, n + 1
    rng = np.random.default_rng(seed)
    mask = np.ones((rows, cols))
    if layout != "dense":
        mask[:, rng.choice(cols, cols // 3, replace=False)] = 0.0
        mask[rng.choice(rows, rows // 4, replace=False), :] = 0.0
    w = rng.normal(size=(rows, cols)) * mask
    if layout == "dense":
        w[:n, :n] = 0.0
    kwargs = {"dense": {},
              "cf-ascending": {"compaction": cf_compaction(mask), "rearrange": True},
              "cf-center_out": {"compaction": cf_compaction(mask), "rearrange": True,
                                "rearrange_order": "center_out"},
              "xcs": {"compaction": compact_xcs(w, n, mask=mask)}}[layout]
    return w, kwargs


def assert_nf_close(a, b, rtol=1e-9, atol=1e-12):
    """Every per-tile mean, every per-column NF and the mean agree to rtol,
    or to atol where an NF lies within atol / rtol of 0. The LU currents
    are themselves within about 1e-12 of a long-double refined solve, so
    no NF can be checked more finely than that. Where a column's device
    variation cancels its IR drop, its NF lies near 0: in the t = 0.05
    regime one reads -8.5e-5, and there LU's NF is 2.0e-13 from the
    refined one and CG's 2.5e-14."""
    np.testing.assert_allclose(a.per_tile_mean, b.per_tile_mean, rtol=rtol, atol=atol)
    np.testing.assert_allclose(a.per_column, b.per_column, rtol=rtol, atol=atol)
    assert a.mean_nf == pytest.approx(b.mean_nf, rel=rtol, abs=atol)


def assert_nf_bitwise(a, b):
    assert a.per_tile_mean.tobytes() == b.per_tile_mean.tobytes()
    assert a.per_column.tobytes() == b.per_column.tobytes()
    assert a.mean_nf == b.mean_nf


@pytest.mark.parametrize("sigma_dev", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("layout", ["dense", "cf-ascending", "cf-center_out", "xcs"])
def test_layer_nf_agrees_with_simulate_layer(layout, n, sigma_dev):
    # layer_nf solves the sense currents by conjugate gradients, so it
    # agrees with the LU of simulate_layer to the solver's tolerance, not
    # bitwise
    w, kwargs = screen_case(layout, n)
    p = CrossbarParams(n, sigma_dev=sigma_dev)
    full = simulate_layer(w, p, master_seed=3, layer_index=2, **kwargs).nf
    assert_nf_close(layer_nf(w, p, master_seed=3, layer_index=2, **kwargs), full)


REGIMES = {
    **{f"t={t}": dict(r_driver=1e3 * t, r_sense=1e3 * t, r_wire_row=5.0 * t,
                      r_wire_col=5.0 * t) for t in (0.05, 0.5, 1.0, 1.5, 2.0)},
    "wire-dominated": dict(r_driver=1.0, r_sense=1.0, r_wire_row=50.0, r_wire_col=50.0),
    "10-ohm-interfaces": dict(r_driver=10.0, r_sense=10.0),
    "1-megohm-interfaces": dict(r_driver=1e6, r_sense=1e6, r_wire_row=1e3,
                                r_wire_col=1e3),
}


@pytest.mark.parametrize("regime", REGIMES)
def test_layer_nf_agrees_with_simulate_layer_in_every_parasitic_regime(regime):
    w, kwargs = screen_case("dense", 64)
    p = CrossbarParams(64, **REGIMES[regime])
    assert_nf_close(layer_nf(w, p, master_seed=1, **kwargs),
                    simulate_layer(w, p, master_seed=1, **kwargs).nf)


@pytest.mark.parametrize("zero", ["r_driver", "r_wire_row", "r_wire_col", "r_sense", None])
def test_layer_nf_takes_the_lu_path_bitwise_where_cg_cannot_run(zero, monkeypatch):
    # a zero-ohm parasitic merges nodes, so there are no wire lines; with
    # no zero-ohm parasitic, an iteration cap of 1 stops every tile short
    w, kwargs = screen_case("cf-ascending", 8)
    if zero is None:
        monkeypatch.setattr(circuit, "CG_MAX_ITERATIONS", 1)
        p = CrossbarParams(8)
    else:
        p = CrossbarParams(8, **{zero: 0.0})
    assert_nf_bitwise(layer_nf(w, p, master_seed=4, **kwargs),
                      simulate_layer(w, p, master_seed=4, **kwargs).nf)


@pytest.mark.parametrize("layout, n", [("dense", 8), ("xcs", 16), ("dense", 128)])
def test_every_tile_solves_alone_as_in_its_layer(layout, n, monkeypatch):
    # tiles that converge at different iterations leave the batch one by
    # one; chunks of one tile solve each tile alone. At n = 128 a sum by
    # np.einsum over a batch would differ from one over a single tile.
    # Every line solve, of the row lines or of the column lines, carries
    # n^2 unknowns per tile. One CPU keeps the whole layer in one chunk
    w, kwargs = screen_case(layout, n)
    p = CrossbarParams(n)
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    batches = []
    dpttrs = circuit.dpttrs

    def spy(d, l, r):
        batches.append(r.size // (n * n))
        return dpttrs(d, l, r)

    monkeypatch.setattr(circuit, "dpttrs", spy)
    monkeypatch.setattr(circuit, "CG_CHUNK_UNKNOWNS", 2 ** 30)
    together = layer_nf(w, p, master_seed=6, **kwargs)
    tiles = len(together.per_tile_mean)
    assert batches[0] == tiles and min(batches) < tiles
    for chunk in (1, 4):
        monkeypatch.setattr(circuit, "CG_CHUNK_UNKNOWNS", chunk * 2 * n * n)
        batches.clear()
        assert_nf_bitwise(layer_nf(w, p, master_seed=6, **kwargs), together)
        assert max(batches) == min(chunk, tiles)


@pytest.mark.parametrize("rearrange", ["center_out", "no", 1, 0, None])
@pytest.mark.parametrize("run", [simulate_layer, layer_nf])
def test_a_rearrange_that_is_not_a_bool_is_rejected(run, rearrange):
    # checked before any tile is placed: the all-zero matrix would fail later
    with pytest.raises(ValueError, match="rearrange must be a bool"):
        run(np.zeros((4, 4)), CrossbarParams(4), rearrange=rearrange)


def test_a_numpy_bool_rearrange_runs_as_the_python_bool():
    w = np.random.default_rng(21).normal(size=(6, 5))
    p = CrossbarParams(4)
    for flag in (False, True):
        assert_bitwise_equal(simulate_layer(w, p, rearrange=np.bool_(flag)),
                             simulate_layer(w, p, rearrange=flag))
        assert_nf_bitwise(layer_nf(w, p, rearrange=np.bool_(flag)),
                          layer_nf(w, p, rearrange=flag))


@pytest.mark.parametrize("kind", ["xcs", "xrs"])
def test_simulate_layer_xcs_packing_round_trip_ideal(kind):
    mask = np.ones((24, 10))
    if kind == "xcs":
        mask[:8, [1, 4]] = 0.0
        mask[8:16, [0, 2, 9]] = 0.0
        compact = compact_xcs
    else:
        mask[[1, 4, 5, 11, 12, 17, 20, 23], :8] = 0.0
        mask[[0, 2, 9], 8:] = 0.0
        compact = compact_xrs
    w = np.random.default_rng(10).normal(size=(24, 10)) * mask
    p = CrossbarParams(8, **IDEAL)
    packing = compact(w, 8, mask=mask)
    res = simulate_layer(w, p, compaction=packing)
    np.testing.assert_allclose(res.w_nonideal, w, rtol=1e-9, atol=1e-18)


def test_simulate_layer_rejects_rearrange_with_packing():
    w = np.random.default_rng(11).normal(size=(16, 8))
    p = CrossbarParams(8)
    packing = compact_xcs(w, 8)
    with pytest.raises(ValueError):
        simulate_layer(w, p, compaction=packing, rearrange=True)


@pytest.mark.parametrize("rearrange", [False, True])
@pytest.mark.parametrize("compaction", [
    cf_compaction(np.ones((12, 9))),
    CfCompaction((12, 10), np.empty(0, dtype=int), np.arange(10)),
    CfCompaction((12, 10), np.arange(12), np.empty(0, dtype=int)),
], ids=["other_shape", "no_rows", "no_cols"])
def test_simulate_layer_rejects_bad_cf_compaction(compaction, rearrange):
    w = np.random.default_rng(14).normal(size=(12, 10))
    with pytest.raises(ValueError):
        simulate_layer(w, CrossbarParams(8), compaction=compaction,
                       rearrange=rearrange)


def test_simulate_layer_rejects_all_zero_and_nonfinite():
    p = CrossbarParams(8)
    with pytest.raises(ValueError):
        simulate_layer(np.zeros((8, 8)), p)
    bad = np.ones((8, 8))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        simulate_layer(bad, p)


NOT_A_LAYOUT = [
    "cf",
    {"kept_rows": np.arange(8), "kept_cols": np.arange(4)},
    SparsityPattern("cf", 0.5, 0, None, {"conv1": np.ones((8, 8))}),
]


@pytest.mark.parametrize("compaction", NOT_A_LAYOUT, ids=["str", "dict", "pattern"])
@pytest.mark.parametrize("run", [partition, simulate_layer, layer_nf])
def test_a_compaction_of_another_type_is_rejected(run, compaction):
    # each of these would otherwise be ignored and the dense matrix mapped
    w = np.random.default_rng(15).normal(size=(8, 8))
    arg = 8 if run is partition else CrossbarParams(8)
    with pytest.raises(TypeError, match="compaction must be"):
        run(w, arg, compaction=compaction)


@pytest.mark.parametrize("run", [simulate_layer, layer_nf])
def test_an_unknown_order_is_rejected_without_rearrangement(run):
    w = np.random.default_rng(16).normal(size=(8, 8))
    with pytest.raises(ValueError, match="bogus"):
        run(w, CrossbarParams(8), rearrange=False, rearrange_order="bogus")


@pytest.mark.parametrize("compaction", [None, "cf", "xcs"])
def test_partition_rejects_an_unknown_order(compaction):
    mask = np.ones((8, 8))
    mask[:, 3] = 0.0
    w = np.random.default_rng(17).normal(size=(8, 8)) * mask
    layout = {None: None, "cf": cf_compaction(mask), "xcs": compact_xcs(w, 4, mask)}
    with pytest.raises(ValueError, match="bogus|cannot follow"):
        partition(w, 4, order="bogus", compaction=layout[compaction])


def test_partition_rejects_a_packing_for_another_tile_size():
    w = np.random.default_rng(18).normal(size=(8, 8))
    with pytest.raises(ValueError, match="packing tile size"):
        partition(w, 8, compaction=compact_xcs(w, 4))


def test_rearrangement_effect_on_crafted_matrices():
    # mechanism behind the column rearrangement: grouping low-magnitude
    # columns yields tiles dominated by low conductances whose decoded
    # weights are much closer to the originals, and whose NF is lower than
    # any mixed tile's
    p = CrossbarParams(32, sigma_dev=0.0)
    low_cols = np.arange(1, 64, 2)
    for seed in range(10):
        w = crafted_alternating(seed)
        plain = simulate_layer(w, p, rearrange=False, master_seed=seed)
        rearr = simulate_layer(w, p, rearrange=True, master_seed=seed)
        err_plain = np.abs(w - plain.w_nonideal)[:, low_cols].mean()
        err_rearr = np.abs(w - rearr.w_nonideal)[:, low_cols].mean()
        assert err_rearr < err_plain
        assert np.nanmin(rearr.nf.per_tile_mean) < np.nanmin(plain.nf.per_tile_mean)


@pytest.mark.parametrize("n", [2.0, True, np.float64(4), "4", 0, -2])
def test_partition_rejects_a_tile_size_that_is_not_an_integer_from_one(n):
    # checked before the weights: an all-zero matrix would fail later
    with pytest.raises(ValueError, match="tile size"):
        partition(np.zeros((4, 4)), n)


@pytest.mark.parametrize("seed", [2.5, 1.0, True, -1, "0", None])
@pytest.mark.parametrize("arg", ["master_seed", "layer_index"])
@pytest.mark.parametrize("run", [simulate_layer, layer_nf])
def test_layer_simulation_rejects_a_seed_that_is_not_an_integer_from_zero(run, arg, seed):
    # checked before any tile is placed: the all-zero matrix would fail later
    with pytest.raises(ValueError, match=f"{arg} must be an integer >= 0"):
        run(np.zeros((4, 4)), CrossbarParams(4), **{arg: seed})


def test_layer_simulation_takes_numpy_integer_seeds():
    w = np.random.default_rng(20).normal(size=(6, 5))
    p = CrossbarParams(4)
    a = simulate_layer(w, p, master_seed=np.int64(3), layer_index=np.uint8(1))
    b = simulate_layer(w, p, master_seed=3, layer_index=1)
    assert a.w_nonideal.tobytes() == b.w_nonideal.tobytes()


def test_partition_takes_a_numpy_integer_tile_size():
    w = np.random.default_rng(19).normal(size=(5, 7))
    tiles, _ = partition(w, np.int64(4))
    assert [t.tobytes() for t in tiles] == [t.tobytes() for t in partition(w, 4)[0]]


# ---------------------------------------------------------- parallel tiles


def parallel_case(layout, row_blocks=7, cols=12):
    """(w, simulate_layer kwargs) of a layer at n = 8 whose tiles fill
    ``row_blocks`` row blocks of the placement grid."""
    rows = 8 * row_blocks
    mask = np.ones((rows, cols))
    if layout == "cf-ascending":
        mask[:, [2, 5, 9, 11]] = 0.0
        mask[rows // 3, :] = 0.0
    elif layout == "xcs":
        mask[8:24, [1, 4]] = 0.0
        mask[32:, 7:11] = 0.0
    w = np.random.default_rng(row_blocks).normal(size=(rows, cols)) * mask
    kwargs = {"dense": {},
              "cf-ascending": {"compaction": cf_compaction(mask), "rearrange": True},
              "xcs": {"compaction": compact_xcs(w, 8, mask=mask)}}[layout]
    return w, kwargs


@pytest.fixture
def workers(monkeypatch):
    """Pin the CPU helper to a worker count and split every layer. Each
    pin shuts the pool down, so that the next split call forks workers
    that inherit the patches made before the pin, and so does the end of
    the test, so that no later test meets a worker that holds them."""
    def pin(count):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: count)
        monkeypatch.setattr(mapping, "PARALLEL_MIN_CELLS", 0)
        _parallel._shutdown()
    yield pin
    _parallel._shutdown()


def assert_only_idle_workers_left():
    """Every child alive is a pool worker with no answer waiting, and none
    is left once the pool is shut down."""
    assert set(multiprocessing.active_children()) == {p for p, _ in _parallel._pool}
    assert not any(link.poll() for _, link in _parallel._pool)
    _parallel._shutdown()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_bitwise_equal(a, b):
    assert a.w_nonideal.tobytes() == b.w_nonideal.tobytes()
    assert_nf_bitwise(a.nf, b.nf)


def patch_solve_chunk(monkeypatch, before):
    """Run before(pl, master_seed) for every tile of a chunk, ahead of the
    chunk's solve, from now on. The patch keeps `_solve_chunk`'s name, so
    that a split call can send it by reference; a worker forked after the
    patch resolves it to the patch."""
    solve_chunk = mapping._solve_chunk

    @functools.wraps(solve_chunk)
    def patched(g, placements, params, master_seed, layer_index, decode):
        for pl in placements:
            before(pl, master_seed)
        return solve_chunk(g, placements, params, master_seed, layer_index, decode)

    monkeypatch.setattr(mapping, "_solve_chunk", patched)


def log_runners(monkeypatch, log):
    """Mark every tile from now on with a file "seed-row_block-pid" in
    `log`, and return {seed: {row_block: pid}} of the files so far."""
    patch_solve_chunk(monkeypatch, lambda pl, seed: (
        log / f"{seed}-{pl.row_block}-{os.getpid()}").touch())

    def runners():
        out = {}
        for path in log.iterdir():
            seed, row_block, pid = map(int, path.name.split("-"))
            out.setdefault(seed, {})[row_block] = pid
        return out
    return runners


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("layout, row_blocks, cols, tiles", [
    ("dense", 7, 12, 14), ("cf-ascending", 7, 12, 7), ("xcs", 7, 12, 11),
    ("dense", 1, 12, 2), ("dense", 1, 8, 1),
], ids=["dense", "cf-ascending", "xcs", "fewer-tiles-than-workers", "one-tile"])
def test_split_tiles_are_bitwise_the_serial_result(workers, count, layout,
                                                   row_blocks, cols, tiles):
    w, kwargs = parallel_case(layout, row_blocks, cols)
    p = CrossbarParams(8)
    workers(1)
    serial = simulate_layer(w, p, master_seed=4, layer_index=3, **kwargs)
    assert len(serial.record.tile_placements) == tiles
    workers(count)
    split = simulate_layer(w, p, master_seed=4, layer_index=3, **kwargs)
    assert_bitwise_equal(split, serial)
    assert_only_idle_workers_left()


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("layout", ["dense", "cf-ascending", "xcs"])
def test_a_split_screen_is_bitwise_the_serial_screen(workers, count, layout):
    # every tile solves alone as in any batch, so the chunks change no bit
    w, kwargs = parallel_case(layout, row_blocks=7, cols=12)
    p = CrossbarParams(8)
    workers(1)
    serial = layer_nf(w, p, master_seed=4, layer_index=3, **kwargs)
    workers(count)
    assert_nf_bitwise(layer_nf(w, p, master_seed=4, layer_index=3, **kwargs), serial)
    assert len(_parallel._pool) == count - 1
    assert_only_idle_workers_left()


def test_a_split_screen_varies_its_tiles_in_every_process(workers, monkeypatch, tmp_path):
    # each process varies the tiles of its own chunk, and the report is
    # bitwise the one-CPU report
    w, kwargs = parallel_case("dense", row_blocks=7, cols=12)
    p = CrossbarParams(8)
    workers(1)
    serial = layer_nf(w, p, master_seed=4, layer_index=3, **kwargs)
    vary = mapping.apply_device_variation

    def spy(g, sigma_dev, rng):
        with open(tmp_path / str(os.getpid()), "a") as log:
            log.write("+")
        return vary(g, sigma_dev, rng)

    monkeypatch.setattr(mapping, "apply_device_variation", spy)
    workers(2)
    assert_nf_bitwise(layer_nf(w, p, master_seed=4, layer_index=3, **kwargs), serial)
    (worker, _), = _parallel._pool
    varied = {int(path.name): len(path.read_text()) for path in tmp_path.iterdir()}
    assert varied == {os.getpid(): 7, worker.pid: 7}
    assert_only_idle_workers_left()


def test_a_screen_below_the_threshold_stays_in_this_process(workers, monkeypatch):
    workers(2)
    w, kwargs = parallel_case("dense", row_blocks=7, cols=12)
    cells = 14 * 8 * 8
    monkeypatch.setattr(mapping, "PARALLEL_MIN_CELLS", cells + 1)
    layer_nf(w, CrossbarParams(8), **kwargs)
    assert _parallel._pool == []
    monkeypatch.setattr(mapping, "PARALLEL_MIN_CELLS", cells)
    layer_nf(w, CrossbarParams(8), **kwargs)
    assert len(_parallel._pool) == 1
    assert_only_idle_workers_left()


def test_a_screen_tile_on_the_lu_path_gives_its_lu_currents_from_a_worker(workers,
                                                                          monkeypatch):
    # patched before the pool forks, so that the worker's chunk stops
    # short too; CG currents would not match the LU ones bitwise
    monkeypatch.setattr(circuit, "CG_MAX_ITERATIONS", 1)
    workers(2)
    w, kwargs = parallel_case("cf-ascending", row_blocks=7, cols=12)
    p = CrossbarParams(8)
    screen = layer_nf(w, p, master_seed=4, **kwargs)
    assert len(_parallel._pool) == 1
    assert_nf_bitwise(screen, simulate_layer(w, p, master_seed=4, **kwargs).nf)
    assert_only_idle_workers_left()


def log_traced_calls(monkeypatch):
    """From now on, log (name, object) for every call of a name the
    benchmark's tracer wraps (perfbench/tracing.py): the system built by
    ``CrossbarSystem``, under either module's name, the system whose
    ``solve`` or ``effective_conductance`` runs, and None for the rest.
    One CPU keeps every call in this process."""
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    log = []

    def build(g, params):
        system = CrossbarSystem(g, params)
        log.append(("build", system))
        return system

    def logged(owner, name, on_self):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            log.append((name, args[0] if on_self else None))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    monkeypatch.setattr(mapping, "CrossbarSystem", build)
    monkeypatch.setattr(circuit, "CrossbarSystem", build)
    for name in ("solve", "effective_conductance"):
        logged(CrossbarSystem, name, True)
    for name in ("weights_to_conductances", "conductances_to_weights", "recombine",
                 "apply_device_variation"):
        logged(mapping, name, False)
    logged(circuit, "splu", False)
    return log


@pytest.mark.parametrize("layout", ["dense", "cf-ascending", "xcs"])
def test_simulate_layer_builds_solves_and_reads_one_system_per_tile(layout, monkeypatch):
    # the benchmark reads its per-tile figures, circuit.solves_per_tile
    # among them, and its per-layer stage times off these calls
    log = log_traced_calls(monkeypatch)
    w, kwargs = parallel_case(layout)
    tiles = len(simulate_layer(w, CrossbarParams(8), **kwargs).record.tile_placements)
    names = [name for name, _ in log]
    systems = [obj for name, obj in log if name == "build"]
    assert len(systems) == len(set(map(id, systems))) == tiles
    for name in ("solve", "effective_conductance"):
        assert [obj for kind, obj in log if kind == name] == systems
    assert names.count("apply_device_variation") == names.count("splu") == tiles
    for name in ("weights_to_conductances", "conductances_to_weights", "recombine"):
        assert names.count(name) == 1


@pytest.mark.parametrize("layout", ["dense", "cf-ascending", "xcs"])
def test_layer_nf_varies_every_tile_once_and_builds_no_system(layout, monkeypatch):
    log = log_traced_calls(monkeypatch)
    w, kwargs = parallel_case(layout)
    tiles = len(layer_nf(w, CrossbarParams(8), **kwargs).per_tile_mean)
    names = [name for name, _ in log]
    assert names.count("apply_device_variation") == tiles
    assert names.count("weights_to_conductances") == 1
    assert set(names) == {"apply_device_variation", "weights_to_conductances"}


def test_layers_split_into_contiguous_chunks_one_per_worker(workers, monkeypatch,
                                                            tmp_path):
    runners = log_runners(monkeypatch, tmp_path)
    workers(3)
    w, _ = parallel_case("dense", row_blocks=7, cols=8)
    simulate_layer(w, CrossbarParams(8))
    pids = [runners()[0][row_block] for row_block in range(7)]
    assert pids == [os.getpid()] * 2 + [pids[2]] * 2 + [pids[4]] * 3
    assert len(set(pids)) == 3
    assert_only_idle_workers_left()


def test_one_worker_serves_consecutive_split_calls(workers, monkeypatch, tmp_path):
    runners = log_runners(monkeypatch, tmp_path)
    workers(2)
    for seed in (1, 2):
        simulate_layer(np.ones((56, 8)), CrossbarParams(8), master_seed=seed)
    (worker, _), = _parallel._pool
    for seed in (1, 2):
        pids = [runners()[seed][row_block] for row_block in range(7)]
        assert pids == [os.getpid()] * 3 + [worker.pid] * 4
    assert_only_idle_workers_left()


@pytest.mark.skipif(not _parallel._openblas_threads(), reason="no OpenBLAS found")
def test_split_tiles_run_openblas_on_one_thread_per_process(workers, monkeypatch,
                                                           tmp_path):
    def counts():
        return [get() for get, _ in _parallel._openblas_threads()]

    patch_solve_chunk(monkeypatch, lambda pl, seed: (
        tmp_path / f"{pl.row_block}-{os.getpid()}").write_text(repr(counts())))
    workers(2)
    before = counts()
    simulate_layer(np.ones((56, 8)), CrossbarParams(8))
    assert counts() == before
    logs = {path.name.split("-")[1]: path.read_text() for path in tmp_path.iterdir()}
    assert len(logs) == 2
    assert set(logs.values()) == {repr([1] * len(before))}


def test_a_layer_below_the_threshold_stays_in_this_process(monkeypatch, tmp_path):
    runners = log_runners(monkeypatch, tmp_path)
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    n = 8
    tiles = mapping.PARALLEL_MIN_CELLS // n ** 2 - 1
    simulate_layer(np.ones((n * tiles, n)), CrossbarParams(n))
    assert set(runners()[0].values()) == {os.getpid()}


@pytest.mark.parametrize("marked", [0, 6], ids=["in-this-process", "in-a-child"])
def test_an_error_on_one_tile_is_raised_by_the_parent(workers, monkeypatch, marked):
    class Faulty(CrossbarSystem):
        def __init__(self, g, params):
            if g[0, 0] > (params.g_min + params.g_max) / 2:
                raise ZeroDivisionError(f"tile with g[0, 0] = {g[0, 0]:.3g}")
            super().__init__(g, params)

    monkeypatch.setattr(mapping, "CrossbarSystem", Faulty)
    workers(2)
    w = np.random.default_rng(2).uniform(-0.4, 0.4, size=(56, 8))
    w[8 * marked, 0] = 1.0
    with pytest.raises(ZeroDivisionError, match="tile with g\\[0, 0\\] = 5e-05"):
        simulate_layer(w, CrossbarParams(8, sigma_dev=0.0))
    assert_only_idle_workers_left()


def test_an_error_in_this_process_leaves_no_stale_answer(workers, monkeypatch):
    # the worker's answer to the failed call is never read: its pool is
    # shut down, and the next call's worker runs that call's tiles
    w, p = np.random.default_rng(3).uniform(-1, 1, size=(56, 8)), CrossbarParams(8)
    workers(1)
    serial = simulate_layer(w, p, master_seed=0)
    assert serial.w_nonideal.tobytes() != simulate_layer(w, p, master_seed=1).w_nonideal.tobytes()
    parent = os.getpid()

    def fail_here_at_seed_1(pl, seed):
        if seed == 1 and os.getpid() == parent:
            raise ZeroDivisionError("this process's chunk")

    patch_solve_chunk(monkeypatch, fail_here_at_seed_1)
    workers(2)
    with pytest.raises(ZeroDivisionError, match="this process's chunk"):
        simulate_layer(w, p, master_seed=1)
    assert _parallel._pool == []
    assert_bitwise_equal(simulate_layer(w, p, master_seed=0), serial)
    assert_only_idle_workers_left()


def test_a_worker_that_dies_without_sending_is_reported(workers, monkeypatch, tmp_path):
    w, p = np.ones((56, 8)), CrossbarParams(8)
    workers(1)
    serial = simulate_layer(w, p, master_seed=0)

    def die_at_seed_1(pl, seed):
        if seed == 1 and pl.row_block == 6:
            os._exit(3)
        (tmp_path / f"{seed}-{pl.row_block}-{os.getpid()}").touch()

    patch_solve_chunk(monkeypatch, die_at_seed_1)
    workers(2)
    simulate_layer(w, p, master_seed=0)
    dead = _parallel._pool[0][0].pid
    with pytest.raises(RuntimeError, match="a worker exited with code 3 before it answered"):
        simulate_layer(w, p, master_seed=1)
    assert _parallel._pool == []
    assert_bitwise_equal(simulate_layer(w, p, master_seed=0), serial)
    (worker, _), = _parallel._pool
    assert worker.pid != dead
    assert (tmp_path / f"0-6-{worker.pid}").exists()
    assert_only_idle_workers_left()


def test_a_worker_that_died_while_idle_is_replaced(workers):
    w, p = np.ones((56, 8)), CrossbarParams(8)
    serial = simulate_layer(w, p)
    workers(2)
    simulate_layer(w, p)
    dead = _parallel._pool[0][0].pid
    os.kill(dead, signal.SIGKILL)
    while not _gone(dead):
        time.sleep(0.01)
    assert_bitwise_equal(simulate_layer(w, p), serial)
    (worker, _), = _parallel._pool
    assert worker.pid != dead
    assert_only_idle_workers_left()


def test_an_os_fork_child_that_exits_leaves_its_parents_worker_alone(workers):
    # multiprocessing's exit handler terminates every child it lists; a
    # child made by os.fork still lists its parent's workers unless the
    # pool drops them at the fork
    w, p = np.ones((56, 8)), CrossbarParams(8)
    workers(2)
    simulate_layer(w, p)
    (worker, _), = _parallel._pool
    child = os.fork()
    if child == 0:
        try:
            multiprocessing.util._exit_function()
        finally:
            os._exit(0)
    assert os.waitpid(child, 0)[1] == 0
    assert worker.is_alive()
    simulate_layer(w, p)
    assert _parallel._pool[0][0] is worker
    assert_only_idle_workers_left()


def _pid_and_inner_pids(split_inside):
    """This process's pid, and the pids that ran a split made inside it."""
    inner = _parallel._fork_map(os.getpid, [()] * 4, True) if split_inside else []
    return os.getpid(), set(inner)


def test_a_split_inside_a_split_runs_in_this_process(workers):
    # the pool is busy with the outer call, so the inner one may not use it
    workers(2)
    outer = _parallel._fork_map(_pid_and_inner_pids, [(True,), (False,)], True)
    (worker, _), = _parallel._pool
    assert outer == [(os.getpid(), {os.getpid()}), (worker.pid, set())]
    assert_only_idle_workers_left()


def _split_and_save(w, p, out):
    out.write_bytes(simulate_layer(w, p, master_seed=2).w_nonideal.tobytes())


def test_a_forked_child_does_not_use_its_parents_worker(workers, monkeypatch, tmp_path):
    w, p = np.ones((56, 8)), CrossbarParams(8)
    serial = simulate_layer(w, p, master_seed=2).w_nonideal.tobytes()
    log = tmp_path / "log"
    log.mkdir()
    runners = log_runners(monkeypatch, log)
    workers(2)
    simulate_layer(w, p, master_seed=1)
    (worker, _), = _parallel._pool
    child = multiprocessing.get_context("fork").Process(
        target=_split_and_save, args=(w, p, tmp_path / "child"))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    assert (tmp_path / "child").read_bytes() == serial
    in_child = set(runners()[2].values())
    assert child.pid in in_child and len(in_child) == 2
    assert not in_child & {os.getpid(), worker.pid}
    # the parent's worker still serves it, with no answer of the child's
    simulate_layer(w, p, master_seed=3)
    assert set(runners()[3].values()) == {os.getpid(), worker.pid}
    assert_only_idle_workers_left()


def _gone(pid: int) -> bool:
    """Whether `pid` has exited: no such process, or an unreaped zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


SPLIT_AND_EXIT = """
import os, sys
import numpy as np
from xbarprune import _parallel, mapping
from xbarprune.circuit import CrossbarParams
_parallel._usable_cpus = lambda: 2
mapping.PARALLEL_MIN_CELLS = 0
mapping.simulate_layer(np.ones((56, 8)), CrossbarParams(8))
(worker, _), = _parallel._pool
print(worker.pid, flush=True)
if sys.argv[1] == "os._exit":
    os._exit(0)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("end", ["interpreter-exit", "os._exit"])
def test_a_process_that_splits_and_exits_leaves_no_worker_behind(end):
    # at interpreter exit the worker is terminated and joined; after
    # os._exit, which skips that, it reads EOF and exits by itself
    proc = subprocess.run([sys.executable, "-c", SPLIT_AND_EXIT, end],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                          capture_output=True, text=True, timeout=120, check=True)
    pid = int(proc.stdout)
    deadline = time.monotonic() + 30
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(pid)


def test_the_cpu_helper_counts_the_affinity_mask_and_one_in_a_daemon():
    if hasattr(os, "sched_getaffinity"):
        assert _parallel._usable_cpus() == len(os.sched_getaffinity(0))
    # a multiprocessing pool's workers are daemonic and may not fork
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_parallel._usable_cpus) == 1
    assert_only_idle_workers_left()
