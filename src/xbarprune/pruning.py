"""Structured sparsity fixed at initialization, plus the compaction
transforms that turn sparse weight matrices into dense crossbar payloads.

Three mask styles are supported on a layer's unrolled weight matrix
(rows = fan-in, columns = output units):

* channel/filter ("cf"): whole columns of layer l and the matching
  row groups of layer l+1;
* crossbar-column segments ("xcs"): tile-aligned length-n runs within
  single columns;
* crossbar-row segments ("xrs"): tile-aligned length-n runs within
  single rows.

XRS is XCS on the transpose: both draw from one grid of segments and
differ only in the axis the segments run along, and an XRS packing is the
XCS packing of the transposed mask with each tile's axes swapped.

Mask generators take any object exposing ``unrolled_layers()`` that
yields per-layer records with ``name``, ``rows``, ``cols``,
``rows_per_channel`` and ``in_channels`` fields (see nn.ModelSpec).
Selection is uniform at random: the weights do not exist yet when the
mask is fixed, so magnitude ranking would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._checks import check_int, check_real
from .nn import _row_groups, _unrolled_masks

METHODS = ("cf", "xcs", "xrs")


@dataclass
class SparsityPattern:
    """Pruning method, ratio and the per-layer binary masks it induces."""

    method: str
    s: float
    seed: int
    n: int | None                     # tile size, xcs/xrs only
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown pruning method {self.method!r}")
        check_real("sparsity ratio", self.s, 0.0, 1.0, "[)")
        check_int("seed", self.seed, 0)
        if self.method != "cf":
            check_int("tile size", self.n, 1)


class TilePlacement(NamedTuple):
    """Where one padded tile's real content lives in the original matrix."""

    row_block: int
    col_block: int
    rows: np.ndarray      # source row indices, length <= n
    cols: np.ndarray      # source column indices, length <= n


@dataclass
class CfCompaction:
    """Rows/columns surviving C/F pruning for one layer."""

    orig_shape: tuple[int, int]
    kept_rows: np.ndarray
    kept_cols: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        if w.shape != self.orig_shape:
            raise ValueError(f"matrix shape {w.shape} does not match descriptor "
                             f"{self.orig_shape}")
        return w[np.ix_(self.kept_rows, self.kept_cols)]


@dataclass
class SegmentPacking:
    """Placement of surviving XCS/XRS segments into dense crossbar tiles.

    ``tiles`` holds one TilePlacement per packed tile. Its indices refer to
    the original matrix, like those of every other layout, so one scatter
    reassembles the layer.
    """

    kind: str                         # "xcs" | "xrs"
    n: int
    orig_shape: tuple[int, int]
    tiles: list[TilePlacement]


def _layer_rng(seed: int, layer_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, layer_index])


def gen_mask_cf(model_spec, s: float, seed: int) -> SparsityPattern:
    """Filter/channel masks: prune floor(s * out_units) filters of every
    layer except the classifier head, zeroing their columns plus the
    matching row groups of the next layer. First-layer inputs and final
    outputs are never pruned."""
    pattern = SparsityPattern("cf", s, seed, None)
    infos = list(model_spec.unrolled_layers())
    if not infos:
        raise ValueError("model has no trainable layers")

    pruned: dict[int, np.ndarray] = {}
    for idx, info in enumerate(infos[:-1]):
        k = math.floor(s * info.cols)
        if k >= info.cols:
            raise ValueError(f"s={s} would prune all {info.cols} filters "
                             f"of layer {info.name}")
        chosen = _layer_rng(seed, idx).choice(info.cols, size=k, replace=False)
        pruned[idx] = np.sort(chosen)

    for idx, info in enumerate(infos):
        keep_cols = np.ones(info.cols, dtype=bool)
        if idx in pruned:
            keep_cols[pruned[idx]] = False
        keep_rows = np.ones(info.rows, dtype=bool)
        if idx > 0 and pruned.get(idx - 1) is not None and pruned[idx - 1].size:
            rpc = info.rows_per_channel
            if info.in_channels != infos[idx - 1].cols or info.rows != info.in_channels * rpc:
                raise ValueError(f"layer {info.name} does not compose with "
                                 f"{infos[idx - 1].name} for C/F pruning")
            keep_rows[_row_groups(pruned[idx - 1], rpc)] = False
        pattern.masks[info.name] = np.outer(keep_rows, keep_cols).astype(float)
    return pattern


def _gen_mask_segments(model_spec, s, n, seed, kind) -> SparsityPattern:
    """Zero floor(s * count) length-n segments, drawn from the row-major
    keep-grid of segments: XCS segments run down the rows (axis 0), XRS
    segments along the columns (axis 1)."""
    check_int("segment length", n, 1)
    pattern = SparsityPattern(kind, s, seed, n)
    infos = list(model_spec.unrolled_layers())
    if not infos:
        raise ValueError("model has no trainable layers")
    axis = 0 if kind == "xcs" else 1
    for idx, info in enumerate(infos):
        grid = [info.rows, info.cols]
        grid[axis] = math.ceil(grid[axis] / n)
        count = grid[0] * grid[1]
        k = math.floor(s * count)
        if k >= count:
            raise ValueError(f"s={s} would prune every segment of layer {info.name}")
        keep = np.ones(count)
        keep[_layer_rng(seed, idx).choice(count, size=k, replace=False)] = 0.0
        pattern.masks[info.name] = np.repeat(keep.reshape(grid), n,
                                             axis=axis)[:info.rows, :info.cols]
    return pattern


def gen_mask_xcs(model_spec, s: float, n: int, seed: int) -> SparsityPattern:
    """Crossbar-column sparsity: zero floor(s * count) of the length-n
    column segments on the (ceil(rows/n) x cols) grid of each layer."""
    return _gen_mask_segments(model_spec, s, n, seed, "xcs")


def gen_mask_xrs(model_spec, s: float, n: int, seed: int) -> SparsityPattern:
    """Crossbar-row sparsity: zero floor(s * count) of the length-n row
    segments on the (rows x ceil(cols/n)) grid of each layer."""
    return _gen_mask_segments(model_spec, s, n, seed, "xrs")


def cf_compaction(mask: np.ndarray) -> CfCompaction:
    """Per-layer C/F compaction from the layer's own mask: keep the rows
    and columns with any surviving weight."""
    mask = np.asarray(mask)
    return CfCompaction(
        orig_shape=mask.shape,
        kept_rows=np.flatnonzero(mask.any(axis=1)),
        kept_cols=np.flatnonzero(mask.any(axis=0)),
    )


def _segment_packing(w: np.ndarray, n: int, kind: str,
                     mask: np.ndarray | None = None) -> SegmentPacking:
    """Pack the surviving column segments of each row block left to right
    into tiles of n columns. An XRS packing is the XCS packing of the
    transposed mask with each tile's row and column fields swapped."""
    check_int("tile size", n, 1)
    w = np.asarray(w)
    mask = (w != 0) if mask is None else np.asarray(mask).astype(bool)
    if mask.shape != w.shape:
        raise ValueError("mask shape does not match the weight matrix")
    if kind == "xrs":
        tiles = _segment_packing(mask.T, n, "xcs").tiles
        return SegmentPacking(kind, n, mask.shape,
                              [TilePlacement(c, r, cs, rs) for r, c, rs, cs in tiles])
    rows = mask.shape[0]
    tiles = []
    for rb in range(math.ceil(rows / n)):
        r0, r1 = rb * n, min(rows, (rb + 1) * n)
        surv = np.flatnonzero(mask[r0:r1, :].any(axis=0))
        for t in range(math.ceil(surv.size / n)):
            tiles.append(TilePlacement(rb, t, np.arange(r0, r1), surv[t * n:(t + 1) * n]))
    return SegmentPacking(kind, n, mask.shape, tiles)


def compact_xcs(w: np.ndarray, n: int, mask: np.ndarray | None = None) -> SegmentPacking:
    """Pack the surviving column segments of each row block left to right
    into ceil(count/n) tiles of n columns. The returned descriptor lists
    every packed tile's source indices."""
    return _segment_packing(w, n, "xcs", mask)


def compact_xrs(w: np.ndarray, n: int, mask: np.ndarray | None = None) -> SegmentPacking:
    """Row-segment analog of compact_xcs: pack surviving row segments of
    each column block top to bottom."""
    return _segment_packing(w, n, "xrs", mask)


def tile_count_unpruned(rows: int, cols: int, n: int) -> int:
    """Tiles of size n for a nonempty rows x cols matrix, as in `partition`."""
    check_int("tile size", n, 1)
    check_int("rows", rows, 1)
    check_int("cols", cols, 1)
    return math.ceil(rows / n) * math.ceil(cols / n)


def compression_rate(model_spec, pattern: SparsityPattern | None, n: int) -> float:
    """Crossbar tiles needed for the unpruned model divided by tiles after
    compaction, both at tile size n. The masks are checked and completed
    as training takes them: a layer with no mask is unpruned (all ones),
    a mask for another layer or of another shape raises ValueError. An
    XCS/XRS pattern packs only into tiles of its own segment length."""
    check_int("tile size", n, 1)
    infos = list(model_spec.unrolled_layers())
    unpruned = sum(tile_count_unpruned(i.rows, i.cols, n) for i in infos)
    if pattern is None:
        return 1.0
    if pattern.method != "cf" and pattern.n != n:
        raise ValueError(f"pattern segment length {pattern.n} != tile size {n}")
    total = 0
    for mask in _unrolled_masks(model_spec, pattern).values():
        if pattern.method == "cf":
            comp = cf_compaction(mask)
            if comp.kept_rows.size:         # an all-zero mask keeps no tile
                total += tile_count_unpruned(comp.kept_rows.size, comp.kept_cols.size, n)
        else:
            total += len(_segment_packing(mask, n, pattern.method).tiles)
    if total == 0:
        raise ValueError("compacted model needs zero tiles; pattern is degenerate")
    return unpruned / total


def apply_mask(w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise mask; pruned entries (mask 0) come back +0.0, whatever
    the weight there, NaN and inf included."""
    w = np.asarray(w)
    mask = np.asarray(mask)
    if w.shape != mask.shape:
        raise ValueError(f"mask shape {mask.shape} does not match weights {w.shape}")
    out = np.zeros(w.shape, dtype=np.result_type(w, mask))
    kept = mask != 0
    out[kept] = w[kept] * mask[kept]
    return out
