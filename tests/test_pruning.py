import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import segment_mask, segment_packing
from xbarprune.pruning import (
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


@dataclass
class FakeLayer:
    name: str
    rows: int
    cols: int
    rows_per_channel: int
    in_channels: int


class FakeModel:
    """Anything exposing unrolled_layers() works for mask generation."""

    def __init__(self, layers):
        self._layers = layers

    def unrolled_layers(self):
        return self._layers


def two_conv_model():
    # conv(1->8, 3x3) then conv(8->16, 3x3): 9x8 and 72x16 unrolled
    return FakeModel([
        FakeLayer("conv1", rows=9, cols=8, rows_per_channel=9, in_channels=1),
        FakeLayer("conv2", rows=72, cols=16, rows_per_channel=9, in_channels=8),
    ])


def wide_model():
    # desk-scale stand-in with crossbar-sized middle layers
    return FakeModel([
        FakeLayer("conv1", rows=9, cols=64, rows_per_channel=9, in_channels=1),
        FakeLayer("conv2", rows=576, cols=128, rows_per_channel=9, in_channels=64),
        FakeLayer("conv3", rows=1152, cols=128, rows_per_channel=9, in_channels=128),
        FakeLayer("dense1", rows=512, cols=4, rows_per_channel=4, in_channels=128),
    ])


# --------------------------------------------------------------- patterns


def test_pattern_validates_method_and_ratio():
    with pytest.raises(ValueError):
        SparsityPattern("magnitude", 0.5, 0, None)
    with pytest.raises(ValueError):
        SparsityPattern("cf", 1.0, 0, None)


BAD_SEEDS = [2.5, 1.0, True, -1, "0", None]


@pytest.mark.parametrize("gen", [
    gen_mask_cf,
    lambda model, s, seed: gen_mask_xcs(model, s, 4, seed),
    lambda model, s, seed: gen_mask_xrs(model, s, 4, seed),
    lambda model, s, seed: SparsityPattern("xcs", s, seed, 4),
], ids=["cf", "xcs", "xrs", "pattern"])
@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_patterns_reject_a_seed_that_is_not_an_integer_from_zero(gen, seed):
    # "0" and True once drew masks, 2.5 and -1 failed inside numpy
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        gen(two_conv_model(), 0.5, seed)


def test_patterns_take_numpy_integer_seeds():
    for gen in (gen_mask_cf, lambda m, s, seed: gen_mask_xrs(m, s, 4, seed)):
        a, b = gen(two_conv_model(), 0.5, np.int64(3)), gen(two_conv_model(), 0.5, 3)
        assert all(np.array_equal(a.masks[k], b.masks[k]) for k in b.masks)


@pytest.mark.parametrize("method", ["xcs", "xrs"])
@pytest.mark.parametrize("n", [2.5, 8.0, True, "8", 0, -1, None])
def test_a_segment_pattern_rejects_a_tile_size_that_is_not_an_integer_from_one(method, n):
    with pytest.raises(ValueError, match="tile size must be an integer >= 1"):
        SparsityPattern(method, 0.5, 0, n)
    assert SparsityPattern(method, 0.5, 0, np.int64(8)).n == 8
    assert SparsityPattern("cf", 0.5, 0, n).n is n       # C/F has no segments


def test_cf_zero_sparsity_keeps_everything():
    pat = gen_mask_cf(two_conv_model(), 0.0, seed=0)
    assert all(np.all(m == 1.0) for m in pat.masks.values())


def test_cf_prunes_exact_filter_count_and_is_seeded():
    pat = gen_mask_cf(two_conv_model(), 0.5, seed=3)
    zero_cols = np.flatnonzero(~pat.masks["conv1"].any(axis=0))
    assert zero_cols.size == math.floor(0.5 * 8) == 4
    again = gen_mask_cf(two_conv_model(), 0.5, seed=3)
    for name in pat.masks:
        assert np.array_equal(pat.masks[name], again.masks[name])
    other = gen_mask_cf(two_conv_model(), 0.5, seed=4)
    assert any(not np.array_equal(pat.masks[n], other.masks[n]) for n in pat.masks)


def test_cf_zero_column_zeroes_next_layer_row_group():
    pat = gen_mask_cf(two_conv_model(), 0.5, seed=3)
    pruned = np.flatnonzero(~pat.masks["conv1"].any(axis=0))
    mask2 = pat.masks["conv2"]
    for c in pruned:
        assert np.all(mask2[c * 9:(c + 1) * 9, :] == 0.0)
    kept = np.setdiff1d(np.arange(8), pruned)
    for c in kept:
        assert np.all(mask2[c * 9:(c + 1) * 9, :] == 1.0)


def test_cf_never_prunes_classifier_outputs():
    pat = gen_mask_cf(wide_model(), 0.8, seed=0)
    assert pat.masks["dense1"].any(axis=0).all()   # every output column survives
    assert pat.masks["conv1"].any(axis=1).all()    # first-layer inputs untouched


def test_segment_masks_zero_exact_count():
    model = FakeModel([FakeLayer("fc", rows=64, cols=64, rows_per_channel=1,
                                 in_channels=64)])
    pat = gen_mask_xcs(model, 0.5, n=32, seed=1)
    mask = pat.masks["fc"]
    # (2 row blocks x 64 cols) segments, half zeroed
    zeroed = sum(1 for rb in range(2) for c in range(64)
                 if not mask[rb * 32:(rb + 1) * 32, c].any())
    assert zeroed == math.floor(0.5 * 128) == 64

    pat_r = gen_mask_xrs(model, 0.5, n=32, seed=1)
    mask_r = pat_r.masks["fc"]
    zeroed_r = sum(1 for r in range(64) for cb in range(2)
                   if not mask_r[r, cb * 32:(cb + 1) * 32].any())
    assert zeroed_r == 64


def test_segment_masks_deterministic():
    model = FakeModel([FakeLayer("fc", rows=40, cols=24, rows_per_channel=1,
                                 in_channels=40)])
    a = gen_mask_xcs(model, 0.3, n=16, seed=9)
    b = gen_mask_xcs(model, 0.3, n=16, seed=9)
    assert np.array_equal(a.masks["fc"], b.masks["fc"])


@pytest.mark.parametrize("gen", [
    gen_mask_cf,
    lambda model, s, seed: gen_mask_xcs(model, s, 4, seed),
    lambda model, s, seed: gen_mask_xrs(model, s, 4, seed),
], ids=["cf", "xcs", "xrs"])
@pytest.mark.parametrize("s", [-0.1, 1.0, np.nan])
def test_mask_generators_reject_a_ratio_outside_0_1(gen, s):
    with pytest.raises(ValueError, match="sparsity ratio"):
        gen(two_conv_model(), s, 0)


@pytest.mark.parametrize("gen", [gen_mask_xcs, gen_mask_xrs], ids=["xcs", "xrs"])
@pytest.mark.parametrize("n", [0, -1, 2.5, 8.0, True, "8"])
def test_segment_generators_reject_a_length_that_is_not_an_integer_above_zero(gen, n):
    with pytest.raises(ValueError, match="segment length"):
        gen(two_conv_model(), 0.5, n, 0)


ODD_LAYERS = FakeModel([
    FakeLayer("a", rows=9, cols=8, rows_per_channel=9, in_channels=1),
    FakeLayer("b", rows=72, cols=16, rows_per_channel=9, in_channels=8),
    FakeLayer("c", rows=20, cols=13, rows_per_channel=1, in_channels=20),
    FakeLayer("d", rows=64, cols=5, rows_per_channel=1, in_channels=64),
])


@pytest.mark.parametrize("kind", ["xcs", "xrs"])
@pytest.mark.parametrize("n", [1, 3, 8, 32])
def test_segment_masks_and_packings_match_the_looped_oracle(kind, n):
    gen, compact = (gen_mask_xcs, compact_xcs) if kind == "xcs" else (gen_mask_xrs, compact_xrs)
    for s in (0.0, 0.3, 0.5, 0.9):
        for seed in (0, 1):
            pat = gen(ODD_LAYERS, s, n, seed)
            for idx, info in enumerate(ODD_LAYERS.unrolled_layers()):
                mask = pat.masks[info.name]
                expected = segment_mask(info.rows, info.cols, n, s,
                                        np.random.default_rng([seed, idx]), kind)
                np.testing.assert_array_equal(mask, expected)
                packing = compact(mask, n)
                assert packing.orig_shape == mask.shape
                oracle = segment_packing(mask, n, kind)
                assert len(packing.tiles) == len(oracle)
                for got, want in zip(packing.tiles, oracle):
                    assert got[:2] == want[:2]
                    np.testing.assert_array_equal(got.rows, want[2])
                    np.testing.assert_array_equal(got.cols, want[3])


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 0.95), st.integers(0, 10_000))
def test_cf_mask_fraction_property(s, seed):
    pat = gen_mask_cf(two_conv_model(), s, seed)
    zero_cols = int((~pat.masks["conv1"].any(axis=0)).sum())
    assert zero_cols == math.floor(s * 8)


# -------------------------------------------------------------- compaction


def test_cf_compaction_basic_example():
    w_l = np.arange(12, dtype=float).reshape(3, 4)
    w_l[:, [1, 3]] = 0.0
    w_next = np.arange(8.0).reshape(4, 2) + 1.0
    w_next[[1, 3], :] = 0.0
    desc_l, desc_next = cf_compaction(w_l != 0), cf_compaction(w_next != 0)
    wlc, wnc = desc_l.apply(w_l), desc_next.apply(w_next)
    assert wlc.shape == (3, 2)
    np.testing.assert_array_equal(wlc, w_l[:, [0, 2]])
    assert wnc.shape == (2, 2)
    np.testing.assert_array_equal(wnc, w_next[[0, 2], :])


def test_cf_compaction_identity_without_zero_columns():
    w_l = np.ones((3, 4))
    w_next = np.ones((4, 2))
    np.testing.assert_array_equal(cf_compaction(w_l != 0).apply(w_l), w_l)
    np.testing.assert_array_equal(cf_compaction(w_next != 0).apply(w_next), w_next)


def test_cf_compaction_roundtrip_on_generated_masks():
    pat = gen_mask_cf(two_conv_model(), 0.5, seed=11)
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(9, 8)) * pat.masks["conv1"]
    w2 = rng.normal(size=(72, 16)) * pat.masks["conv2"]
    d1, d2 = cf_compaction(pat.masks["conv1"]), cf_compaction(pat.masks["conv2"])
    wlc, wnc = d1.apply(w1), d2.apply(w2)
    # the filters dropped from conv1 are exactly the row groups dropped from conv2
    assert wnc.shape[0] == 9 * wlc.shape[1]
    np.testing.assert_array_equal(d2.kept_rows // 9, np.repeat(d1.kept_cols, 9))


def test_cf_compaction_descriptor_round_trip():
    mask = np.outer([1, 0, 1, 1], [1, 1, 0, 1, 0]).astype(float)
    comp = cf_compaction(mask)
    w = np.random.default_rng(1).normal(size=(4, 5)) * mask
    assert comp.kept_rows.tolist() == [0, 2, 3]
    assert comp.kept_cols.tolist() == [0, 1, 3]
    np.testing.assert_array_equal(comp.apply(w), w[np.ix_([0, 2, 3], [0, 1, 3])])


def test_compact_xcs_all_survive_matches_partition_grid():
    w = np.ones((8, 6))
    packing = compact_xcs(w, n=4)
    # 2 row blocks, each with ceil(6/4) = 2 tiles
    assert len(packing.tiles) == 4
    blocks = {(br, bc) for br, bc, _, _ in packing.tiles}
    assert blocks == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_compact_xcs_packs_three_survivors_into_two_tiles():
    w = np.zeros((2, 5))
    w[:, [0, 2, 4]] = 1.0   # 3 surviving segments, n=2
    packing = compact_xcs(w, n=2)
    assert len(packing.tiles) == 2
    _, _, rows0, cols0 = packing.tiles[0]
    _, _, rows1, cols1 = packing.tiles[1]
    assert cols0.tolist() == [0, 2] and cols1.tolist() == [4]


def test_compact_xcs_scatter_roundtrip():
    model = FakeModel([FakeLayer("fc", rows=20, cols=12, rows_per_channel=1,
                                 in_channels=20)])
    pat = gen_mask_xcs(model, 0.4, n=8, seed=5)
    mask = pat.masks["fc"]
    w = np.random.default_rng(2).normal(size=(20, 12)) * mask
    packing = compact_xcs(w, n=8, mask=mask)
    out = np.zeros_like(w)
    for _, _, rows, cols in packing.tiles:
        out[np.ix_(rows, cols)] = w[np.ix_(rows, cols)]
    np.testing.assert_array_equal(out, w)


def test_compact_xrs_scatter_roundtrip():
    model = FakeModel([FakeLayer("fc", rows=20, cols=12, rows_per_channel=1,
                                 in_channels=20)])
    pat = gen_mask_xrs(model, 0.4, n=8, seed=6)
    mask = pat.masks["fc"]
    w = np.random.default_rng(3).normal(size=(20, 12)) * mask
    packing = compact_xrs(w, n=8, mask=mask)
    out = np.zeros_like(w)
    for _, _, rows, cols in packing.tiles:
        out[np.ix_(rows, cols)] = w[np.ix_(rows, cols)]
    np.testing.assert_array_equal(out, w)


# --------------------------------------------------------- compression rate


def test_compression_rate_unpruned_is_one():
    assert compression_rate(wide_model(), None, 32) == 1.0


def test_compression_rate_cf_style_64x64():
    model = FakeModel([FakeLayer("fc", rows=64, cols=64, rows_per_channel=1,
                                 in_channels=64)])
    keep = np.zeros(64, dtype=bool)
    keep[:16] = True     # 48 zero rows and 48 zero columns
    mask = np.outer(keep, keep).astype(float)
    pat = SparsityPattern("cf", 0.75, 0, None, {"fc": mask})
    assert compression_rate(model, pat, 32) == pytest.approx(4.0)


def test_compression_rate_xcs_75_percent():
    model = FakeModel([FakeLayer("fc", rows=64, cols=64, rows_per_channel=1,
                                 in_channels=64)])
    # zero 96 of the 128 segments, 16 survivors in each row block
    mask = np.ones((64, 64))
    mask[:32, 16:] = 0.0
    mask[32:, 16:] = 0.0
    pat = SparsityPattern("xcs", 0.75, 0, 32, {"fc": mask})
    # 4 unpruned tiles vs ceil(16/32) per row block = 2 packed tiles
    assert compression_rate(model, pat, 32) == pytest.approx(2.0)


@pytest.mark.parametrize("method", ["cf", "xcs", "xrs"])
def test_compression_rate_counts_a_layer_without_mask_as_unpruned(method):
    # training treats a layer the pattern has no mask for as unpruned
    model = FakeModel([
        FakeLayer("fc", rows=64, cols=64, rows_per_channel=1, in_channels=64),
        FakeLayer("dense1", rows=64, cols=8, rows_per_channel=1, in_channels=64),
    ])
    mask = np.ones((64, 64))
    mask[:, 16:] = 0.0       # every method packs fc into 2 tiles of 32
    pat = SparsityPattern(method, 0.75, 0, None if method == "cf" else 32, {"fc": mask})
    # (4 + 2) unpruned tiles against 2 for fc plus 2 for the unmasked dense1
    assert compression_rate(model, pat, 32) == pytest.approx(1.5)


@pytest.mark.parametrize("method", ["cf", "xcs", "xrs"])
def test_compression_rate_rejects_a_mask_for_a_layer_the_model_lacks(method):
    model = wide_model()
    masks = {"conv9": np.ones((9, 64))}
    pat = SparsityPattern(method, 0.5, 0, None if method == "cf" else 32, masks)
    with pytest.raises(ValueError, match=r"masks for layers the model lacks: \['conv9'\]"):
        compression_rate(model, pat, 32)


@pytest.mark.parametrize("method", ["cf", "xcs", "xrs"])
def test_compression_rate_rejects_a_mask_of_the_wrong_shape(method):
    # the tiny model's conv1 mask once counted 1.02 on the wide model, whose
    # training rejects it
    model = wide_model()
    other = two_conv_model()
    gen = {"cf": lambda: gen_mask_cf(other, 0.5, seed=0),
           "xcs": lambda: gen_mask_xcs(other, 0.5, 8, seed=0),
           "xrs": lambda: gen_mask_xrs(other, 0.5, 8, seed=0)}[method]
    with pytest.raises(ValueError, match=r"mask for conv1 has shape \(9, 8\)"):
        compression_rate(model, gen(), 8)


@pytest.mark.parametrize("gen", [gen_mask_xcs, gen_mask_xrs], ids=["xcs", "xrs"])
@pytest.mark.parametrize("n", [4, 32])
def test_compression_rate_rejects_a_tile_size_other_than_the_segment_length(gen, n):
    # a pattern packs only into tiles of its segment length, as in partition
    model = wide_model()
    with pytest.raises(ValueError, match="segment length 8 != tile size"):
        compression_rate(model, gen(model, 0.5, 8, seed=0), n)


@pytest.mark.parametrize("n", [-3, 0, 2.5, 32.0, np.float64(32), True, False, "32", None])
def test_tile_counts_reject_a_size_that_is_not_an_integer_above_zero(n):
    # checked before any work, with partition's rule: a negative size once
    # counted 8064 tiles of a 576 x 128 matrix, n=True ran as 1 and n=0
    # divided by zero
    model = wide_model()
    calls = [
        lambda: tile_count_unpruned(576, 128, n),
        lambda: compression_rate(model, None, n),
        lambda: compression_rate(FakeModel([]), None, n),
        lambda: compression_rate(model, gen_mask_cf(model, 0.5, seed=0), n),
        lambda: compression_rate(model, gen_mask_xcs(model, 0.5, 32, seed=0), n),
        lambda: compact_xcs(np.ones((8, 8)), n),
        lambda: compact_xrs(np.ones((8, 8)), n),
        lambda: compact_xcs(np.ones((8, 8)), n, mask=np.ones((3, 3))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tile size must be an integer >= 1"):
            call()


def test_tile_counts_take_numpy_integer_sizes():
    model = wide_model()
    assert tile_count_unpruned(576, 128, np.int64(32)) == 18 * 4
    assert compression_rate(model, None, np.int32(32)) == 1.0
    assert len(compact_xcs(np.ones((8, 8)), np.int64(4)).tiles) == 4
    assert len(compact_xrs(np.ones((8, 8)), np.int16(4)).tiles) == 4


def test_compression_ordering_cf_beats_segment_styles():
    model = wide_model()
    cf = compression_rate(model, gen_mask_cf(model, 0.8, seed=0), 32)
    xcs = compression_rate(model, gen_mask_xcs(model, 0.8, 32, seed=0), 32)
    xrs = compression_rate(model, gen_mask_xrs(model, 0.8, 32, seed=0), 32)
    assert cf > xcs > 1.0
    assert cf > xrs > 1.0


# --------------------------------------------------------------- apply_mask


def test_apply_mask_identity_zero_idempotent():
    w = np.random.default_rng(4).normal(size=(3, 5))
    ones = np.ones_like(w)
    zeros = np.zeros_like(w)
    np.testing.assert_array_equal(apply_mask(w, ones), w)
    assert np.all(apply_mask(w, zeros) == 0.0)
    mask = (np.random.default_rng(5).random((3, 5)) > 0.5).astype(float)
    once = apply_mask(w, mask)
    np.testing.assert_array_equal(apply_mask(once, mask), once)


def test_apply_mask_shape_mismatch():
    with pytest.raises(ValueError):
        apply_mask(np.ones((2, 2)), np.ones((2, 3)))


def test_apply_mask_zeroes_pruned_weights_that_are_not_finite():
    # w * mask once left NaN at the pruned NaN and inf entries, with a
    # RuntimeWarning for inf * 0; a kept NaN stays NaN
    w = np.array([[np.nan, 1.0, np.nan], [np.inf, -2.0, -3.0]])
    out = apply_mask(w, np.array([[0, 1, 1], [0, 1, 0]]))
    assert out[:, 1].tolist() == [1.0, -2.0]
    assert np.isnan(out[0, 2])
    assert out[1, 2] == 0.0 and out[:, 0].tolist() == [0.0, 0.0]
    assert not np.signbit(out[[0, 1, 1], [0, 0, 2]]).any()
