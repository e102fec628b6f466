"""Layer weights to crossbar tiles and back.

``partition`` is the one placement step. It turns every layout into a
list of TilePlacements: the rows and columns of the original weight
matrix that fill each padded n x n tile. C/F compaction T and column
rearrangement R only choose those indices, and XCS/XRS segment packing
lists them directly, so after the tiles are encoded, simulated and
decoded one scatter reassembles the non-ideal weight matrix; no
transform has to be inverted.

``simulate_layer`` is the one tile loop. Every tile gets one parasitic
network, one factorization, whose all-ones solve gives the tile's
non-ideality factor (NF) and whose port admittance gives the decoded
weights; ``layer_nf`` is the NF half of its result.

Signed weights are encoded as magnitude-to-conductance with a digitally
tracked sign applied at decode time, so a single crossbar per tile
suffices. Zero and padded weights sit exactly at g_min with sign 0 and
decode back to exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CrossbarParams,
    CrossbarSystem,
    NfReport,
    apply_device_variation,
    ideal_mac,
    nonideality_factor,
)
from .nn import _check_seed
from .pruning import CfCompaction, SegmentPacking, TilePlacement, _check_tile_size

REARRANGE_ORDERS = ("ascending", "center_out")


@dataclass
class MappingRecord:
    """A layer's encoding scale, shape and tile placements; the placements
    index the original matrix, so recombine is one scatter."""

    w_scale: float
    assembled_shape: tuple[int, int]
    tile_placements: list[TilePlacement]


@dataclass
class LayerNfReport:
    """Non-ideality factors aggregated over one layer's tiles."""

    per_tile_mean: np.ndarray              # NaN where a tile had no valid column
    per_column: np.ndarray                 # all defined per-column NFs, concatenated
    mean_nf: float | None                  # mean of defined per-tile means


@dataclass
class LayerSimResult:
    w_nonideal: np.ndarray
    nf: LayerNfReport
    record: MappingRecord


# ------------------------------------------------------------- encoding


def _check_w_scale(w_scale: float):
    if not (np.isfinite(w_scale) and w_scale > 0):
        raise ValueError(f"w_scale must be finite and > 0, got {w_scale}")


def weights_to_conductances(w_tile: np.ndarray, w_scale: float,
                            params: CrossbarParams):
    """Affine magnitude encoding G = g_min + |W| / w_scale * (g_max - g_min),
    returning the conductance tile and the sign matrix."""
    w_tile = np.asarray(w_tile, dtype=float)
    _check_w_scale(w_scale)
    if np.any(np.abs(w_tile) > w_scale):
        raise ValueError("tile contains |weights| above w_scale")
    g = params.g_min + np.abs(w_tile) / w_scale * (params.g_max - params.g_min)
    return g, np.sign(w_tile)


def conductances_to_weights(g_eff: np.ndarray, signs: np.ndarray,
                            w_scale: float, params: CrossbarParams) -> np.ndarray:
    """Inverse of the affine encoding with the stored signs; sign-0 entries
    (true zeros and padding) are forced back to exactly zero. Effective
    conductances below g_min (IR drop) decode to magnitude-shifted values."""
    _check_w_scale(w_scale)
    g_eff = np.asarray(g_eff, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if g_eff.shape != signs.shape:
        raise ValueError(f"shape mismatch: {g_eff.shape} vs signs {signs.shape}")
    w = (g_eff - params.g_min) / (params.g_max - params.g_min) * w_scale * signs
    w[signs == 0] = 0.0
    return w


# ------------------------------------------------------------ tiling


def _gather_tile(mat: np.ndarray, pl: TilePlacement, n: int) -> np.ndarray:
    tile = np.zeros((n, n))
    tile[:pl.rows.size, :pl.cols.size] = mat[np.ix_(pl.rows, pl.cols)]
    return tile


def _grid(rows: np.ndarray, cols: np.ndarray, n: int) -> list[TilePlacement]:
    """Cut the source row and column indices into n-sized chunks: one
    placement per (row chunk, column chunk), row-major."""
    return [TilePlacement(i, j, rows[i * n:(i + 1) * n], cols[j * n:(j + 1) * n])
            for i in range(math.ceil(rows.size / n))
            for j in range(math.ceil(cols.size / n))]


def partition(w: np.ndarray, n: int, *, order: str | None = None,
              compaction: object | None = None):
    """Place every tile in the original matrix and gather the zero-padded
    n x n tiles; returns (tiles, record). The tiles cut the matrix, or the
    rows and columns a CfCompaction keeps, row-major after rearranging the
    columns into ``order``; a SegmentPacking lists its tiles itself."""
    _check_tile_size(n)
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"need a nonempty 2-D weight matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    w_scale = float(np.max(np.abs(w)))
    if w_scale <= 0:
        raise ValueError("layer weights are all zero; nothing to map")
    if not isinstance(compaction, (type(None), CfCompaction, SegmentPacking)):
        raise TypeError("compaction must be None, a CfCompaction or a "
                        f"SegmentPacking, got {type(compaction).__name__}")
    if compaction is not None and compaction.orig_shape != w.shape:
        raise ValueError(f"compaction was built for {compaction.orig_shape}, "
                         f"matrix is {w.shape}")
    if isinstance(compaction, SegmentPacking):
        if order is not None:
            raise ValueError("column rearrangement needs a matrix-form layout; "
                             "it cannot follow XCS/XRS segment packing")
        if compaction.n != n:
            raise ValueError(f"packing tile size {compaction.n} != tile size {n}")
        placements = list(compaction.tiles)
    else:
        rows, cols = np.arange(w.shape[0]), np.arange(w.shape[1])
        if compaction is not None:
            rows, cols = compaction.kept_rows, compaction.kept_cols
        if rows.size == 0 or cols.size == 0:
            raise ValueError("compaction keeps no rows or no columns")
        if order is not None:
            _, perm = rearrange_columns(w[np.ix_(rows, cols)], order)
            cols = cols[perm]
        placements = _grid(rows, cols, n)
    record = MappingRecord(w_scale, w.shape, placements)
    return [_gather_tile(w, pl, n) for pl in placements], record


def recombine(tiles: list[np.ndarray], record: MappingRecord) -> np.ndarray:
    """Strip padding and scatter every tile to its recorded source indices;
    entries no tile covers (pruned rows and columns) come back zero."""
    if len(tiles) != len(record.tile_placements):
        raise ValueError(f"{len(tiles)} tiles for {len(record.tile_placements)} "
                         "recorded placements")
    out = np.zeros(record.assembled_shape)
    for tile, pl in zip(tiles, record.tile_placements):
        if tile.shape[0] < pl.rows.size or tile.shape[1] < pl.cols.size:
            raise ValueError("tile smaller than its recorded placement")
        out[np.ix_(pl.rows, pl.cols)] = tile[:pl.rows.size, :pl.cols.size]
    return out


# --------------------------------------------------------- rearrangement


def column_metrics(w: np.ndarray) -> np.ndarray:
    """sqrt(mean(|w|) * population_std(|w|)) of every column."""
    a = np.abs(np.asarray(w, dtype=float))
    return np.sqrt(a.mean(axis=0) * a.std(axis=0))


def rearrange_columns(w: np.ndarray, order: str = "ascending"):
    """Sort columns by ascending sqrt(mu * sigma) of absolute weights
    (stable), or place the lowest-metric columns at the center with
    order="center_out". Returns the rearranged matrix and the permutation
    p with new[:, k] = old[:, p[k]]."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError(f"need a matrix with at least one row and one column, "
                         f"got shape {w.shape}")
    if order not in REARRANGE_ORDERS:
        raise ValueError(f"order must be one of {REARRANGE_ORDERS}, got {order!r}")
    ascending = np.argsort(column_metrics(w), kind="stable")
    if order == "ascending":
        perm = ascending
    else:
        c = w.shape[1]
        slots = sorted(range(c), key=lambda j: (abs(j - (c - 1) / 2), j))
        perm = np.empty(c, dtype=int)
        for rank, slot in enumerate(slots):
            perm[slot] = ascending[rank]
    return w[:, perm], perm


# ------------------------------------------------------- layer pipeline


def _tile_rng(master_seed: int, layer_index: int, pl: TilePlacement) -> np.random.Generator:
    # stream depends only on identity, never on execution order
    return np.random.default_rng([master_seed, layer_index, pl.row_block, pl.col_block])


def aggregate_nf(reports: list[NfReport]) -> LayerNfReport:
    per_tile = np.array([np.nan if r.mean_nf is None else r.mean_nf for r in reports])
    defined = per_tile[~np.isnan(per_tile)]
    columns = [r.per_column_nf[~np.isnan(r.per_column_nf)] for r in reports]
    return LayerNfReport(
        per_tile_mean=per_tile,
        per_column=np.concatenate(columns) if columns else np.empty(0),
        mean_nf=float(defined.mean()) if defined.size else None,
    )


def simulate_layer(w: np.ndarray, params: CrossbarParams, *,
                   rearrange: bool = False, rearrange_order: str = "ascending",
                   compaction: object | None = None, master_seed: int = 0,
                   layer_index: int = 0) -> LayerSimResult:
    """The per-layer pipeline on square tiles: place them (T and R choose
    the source indices) and gather, then per tile encode -> device
    variation -> parasitic network -> NF from all-ones inputs and decoded
    effective conductances, then recombine (one scatter back to the
    original matrix)."""
    _check_seed("master_seed", master_seed)
    _check_seed("layer_index", layer_index)
    if params.n_rows != params.n_cols:
        raise ValueError("layer simulation uses square tiles; params must have "
                         "n_rows == n_cols")
    if rearrange_order not in REARRANGE_ORDERS:
        raise ValueError(f"rearrange_order must be one of {REARRANGE_ORDERS}, "
                         f"got {rearrange_order!r}")
    tiles, record = partition(w, params.n_rows,
                              order=rearrange_order if rearrange else None,
                              compaction=compaction)
    ones = np.full(params.n_rows, params.v_read)
    out_tiles, reports = [], []
    for tile, pl in zip(tiles, record.tile_placements):
        g, signs = weights_to_conductances(tile, record.w_scale, params)
        g_var = apply_device_variation(g, params.sigma_dev,
                                       _tile_rng(master_seed, layer_index, pl))
        system = CrossbarSystem(g_var, params)
        reports.append(nonideality_factor(ideal_mac(g, ones),
                                          system.solve(ones).currents))
        out_tiles.append(conductances_to_weights(system.effective_conductance(),
                                                 signs, record.w_scale, params))
    return LayerSimResult(
        w_nonideal=recombine(out_tiles, record),
        nf=aggregate_nf(reports),
        record=record,
    )


def layer_nf(w: np.ndarray, params: CrossbarParams, *,
             rearrange: bool = False, rearrange_order: str = "ascending",
             compaction: object | None = None, master_seed: int = 0,
             layer_index: int = 0) -> LayerNfReport:
    """The NF report of `simulate_layer`, for an NF screen."""
    return simulate_layer(w, params, rearrange=rearrange,
                          rearrange_order=rearrange_order, compaction=compaction,
                          master_seed=master_seed, layer_index=layer_index).nf
