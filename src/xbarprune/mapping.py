"""Layer weights to crossbar tiles and back.

``partition`` is the one placement step. It turns every layout into a
list of TilePlacements: the rows and columns of the original weight
matrix that fill each padded n x n tile. C/F compaction T and column
rearrangement R only choose those indices, and XCS/XRS segment packing
lists them directly, so after the tiles are encoded, simulated and
decoded one scatter reassembles the non-ideal weight matrix; no
transform has to be inverted.

``simulate_layer`` is the tile loop of a full simulation. Every tile gets
one parasitic network and one factorization, which leaves its port
admittance: the sense currents under all-ones inputs, read off it, give
the tile's non-ideality factor (NF), and its effective conductances give
the decoded weights. No node voltage is solved. A large enough layer
runs its tiles on every CPU this process may use, by
``_parallel._fork_map``: this process takes the first contiguous chunk
of placements and a persistent pool worker each other one, sent its
tiles and placements with ``_simulate_tile``. Every tile's variation is
seeded from its identity, so the results are bitwise those of a serial
run. See ``_parallel`` for the CPU count, what a worker holds, and
callers that run the package in worker processes of their own.

``layer_nf`` screens a layer's NF without decoding any weight, so it
needs the sense currents of one input per tile and no port admittance.
It places, encodes and varies the same tiles as ``simulate_layer``, then
solves every tile's currents under all-ones inputs by conjugate gradients
(``circuit._sense_currents``), without a sparse factorization, one batch
per contiguous chunk of tiles. A layer that ``simulate_layer`` would
split is cut into one chunk per usable CPU, and the chunks run by
``_parallel._fork_map`` as its tiles do; a tile's currents do not depend
on its batch, so the NFs are bitwise those of a serial run. They agree
with ``simulate_layer``'s to 1e-9 relative, or 1e-12 where an NF lies
that close to 0.

Signed weights are encoded as magnitude-to-conductance with a digitally
tracked sign applied at decode time, so a single crossbar per tile
suffices. Zero and padded weights sit exactly at g_min with sign 0 and
decode back to exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from .circuit import (
    CrossbarParams,
    CrossbarSystem,
    NfReport,
    _sense_currents,
    _topology,
    apply_device_variation,
    ideal_mac,
    nonideality_factor,
)
from ._checks import check_int, check_real
from .pruning import CfCompaction, SegmentPacking, TilePlacement

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


def weights_to_conductances(w_tile: np.ndarray, w_scale: float,
                            params: CrossbarParams):
    """Affine magnitude encoding G = g_min + |W| / w_scale * (g_max - g_min),
    returning the conductance tile and the sign matrix."""
    w_tile = np.asarray(w_tile, dtype=float)
    check_real("w_scale", w_scale, 0.0, np.inf)
    if np.any(np.abs(w_tile) > w_scale):
        raise ValueError("tile contains |weights| above w_scale")
    g = params.g_min + np.abs(w_tile) / w_scale * (params.g_max - params.g_min)
    return g, np.sign(w_tile)


def conductances_to_weights(g_eff: np.ndarray, signs: np.ndarray,
                            w_scale: float, params: CrossbarParams) -> np.ndarray:
    """Inverse of the affine encoding with the stored signs; sign-0 entries
    (true zeros and padding) are forced back to exactly zero. Effective
    conductances below g_min (IR drop) decode to magnitude-shifted values."""
    check_real("w_scale", w_scale, 0.0, np.inf)
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
    check_int("tile size", n, 1)
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


def _simulate_tile(tile: np.ndarray, pl: TilePlacement, w_scale: float,
                   params: CrossbarParams, master_seed: int, layer_index: int):
    """Encode -> device variation -> parasitic network -> (decoded tile,
    NF report) for one placed tile. The NF compares the ideal currents
    under all-ones inputs with the sense currents ``solve`` reads off the
    port admittance; the node voltages are never read, so never solved."""
    g, signs = weights_to_conductances(tile, w_scale, params)
    g_var = apply_device_variation(g, params.sigma_dev,
                                   _tile_rng(master_seed, layer_index, pl))
    system = CrossbarSystem(g_var, params)
    ones = np.full(params.n_rows, params.v_read)
    report = nonideality_factor(ideal_mac(g, ones), system.solve(ones).currents)
    return conductances_to_weights(system.effective_conductance(), signs,
                                   w_scale, params), report


# Fewest crossbar cells (tiles x n^2) in a layer for which its tiles are
# split over processes; a smaller layer runs in this process alone. Median
# of 25 interleaved rounds per row, simulate_layer on t default n x n tiles
# run serially and split over this process and one warm pool worker, from
# a 150 MB parent (numpy 2.4, scipy 1.17, Python 3.11, 2-vCPU Xeon, one
# OpenBLAS thread, as in every split):
#
#   n     t   t x n^2   serial    split    change
#   8    32    2048     25.4 ms   16.1 ms   -37 %
#   8    64    4096     46.7      33.0      -29 %
#   8   128    8192     99.1      64.7      -35 %
#   16    8    2048     11.4       8.4      -26 %
#   16   32    8192     38.5      31.1      -19 %
#   32    2    2048      7.2       5.5      -23 %
#   32    4    4096     14.2      10.0      -29 %
#   32    8    8192     29.7      22.2      -25 %
#   64    2    8192     29.1      19.2      -34 %
#   64    4   16384     59.9      41.4      -31 %
#
# Near the break-even, two runs of 61 rounds each read +33 % and +26 % at
# 2 tiles of n = 4 (32 cells), +10 % and 0 % at 2 of n = 8 (128), +15 %
# and +3 % at 3 of n = 8 (192), -8 % and -20 % at 4 of n = 8 (256), and
# -8 % and -16 % at 2 of n = 16 (512). So the split gains from 256 cells
# on; the first split call of a process also pays the fork, 4-8 ms on 8
# tiles of n = 32 in these runs. The constant stays at 6 x 32^2, the
# break-even of a child forked per call, because a traced benchmark run
# counts the spans of this process only: below it, the small traced runs
# of perfbench/tests would split and read half their tiles' solves. Lower
# it to 256 once traced runs count the workers' tiles too.
#
# layer_nf splits by the same rule, and breaks even near it: median of 25
# interleaved rounds, default tiles, serial against split over this
# process and one warm worker, read -1 % at 6 tiles of n = 32, +3 % at 24
# of n = 16 and +6 % at 96 of n = 8 (all 6144 cells), and -8 % at 2 tiles
# of n = 64, -23 % at 12 of n = 32, -31 % at 4 of n = 64 and -42 % at 2
# of n = 128 (3.4, 7.3, 6.4 and 19.8 ms serially).
PARALLEL_MIN_CELLS = 6 * 32 ** 2


def _placed_tiles(w, params, rearrange, rearrange_order, compaction,
                  master_seed, layer_index):
    """Check the arguments of `simulate_layer` and `layer_nf`, then place
    and gather the layer's tiles; returns (tiles, record)."""
    if not isinstance(rearrange, (bool, np.bool_)):
        raise ValueError(f"rearrange must be a bool, got {rearrange!r}")
    check_int("master_seed", master_seed, 0)
    check_int("layer_index", layer_index, 0)
    if params.n_rows != params.n_cols:
        raise ValueError("layer simulation uses square tiles; params must have "
                         "n_rows == n_cols")
    if rearrange_order not in REARRANGE_ORDERS:
        raise ValueError(f"rearrange_order must be one of {REARRANGE_ORDERS}, "
                         f"got {rearrange_order!r}")
    return partition(w, params.n_rows, order=rearrange_order if rearrange else None,
                     compaction=compaction)


def simulate_layer(w: np.ndarray, params: CrossbarParams, *,
                   rearrange: bool = False, rearrange_order: str = "ascending",
                   compaction: object | None = None, master_seed: int = 0,
                   layer_index: int = 0) -> LayerSimResult:
    """The per-layer pipeline on square tiles: place them (T and R choose
    the source indices) and gather, then per tile encode -> device
    variation -> parasitic network -> NF from the sense currents under
    all-ones inputs and decoded effective conductances, both off the port
    admittance, then recombine (one scatter back to the
    original matrix).

    The tiles of a layer of at least ``PARALLEL_MIN_CELLS`` cells run
    on every CPU in this process's affinity mask: this process runs the
    first chunk and a persistent pool worker, forked by the first such
    call and idle between calls, each other one, with OpenBLAS on one
    thread in each process. A worker runs ``_simulate_tile`` as it was
    when the worker was forked. The results are bitwise those of a serial
    run. A caller that runs this in worker processes of its own should
    narrow each worker's CPU affinity."""
    tiles, record = _placed_tiles(w, params, rearrange, rearrange_order, compaction,
                                  master_seed, layer_index)
    # built here, so that a pool worker forked by this call inherits it;
    # one forked earlier builds its own on its first tile and keeps it
    _topology(params)
    results = _parallel._fork_map(
        _simulate_tile,
        [(tile, pl, record.w_scale, params, master_seed, layer_index)
         for tile, pl in zip(tiles, record.tile_placements)],
        len(tiles) * params.n_rows ** 2 >= PARALLEL_MIN_CELLS)
    return LayerSimResult(
        w_nonideal=recombine([tile for tile, _ in results], record),
        nf=aggregate_nf([report for _, report in results]),
        record=record,
    )


def layer_nf(w: np.ndarray, params: CrossbarParams, *,
             rearrange: bool = False, rearrange_order: str = "ascending",
             compaction: object | None = None, master_seed: int = 0,
             layer_index: int = 0) -> LayerNfReport:
    """The NF report of a layer's tiles, for an NF screen: the tiles of
    `simulate_layer`, encoded and varied alike, with the sense currents
    under all-ones inputs solved by conjugate gradients
    (``circuit._sense_currents``). No ``CrossbarSystem`` is built and no
    weight decoded. Every NF agrees with ``simulate_layer(...).nf`` to
    1e-9 relative (1e-12 where it lies that close to 0), and bitwise where
    a parasitic is 0 ohm or a tile takes the LU path.

    A layer of at least ``PARALLEL_MIN_CELLS`` cells is cut into
    contiguous chunks of tiles, one per CPU in this process's affinity
    mask, solved by this process and the pool workers of
    `simulate_layer`; a chunk's tiles are solved in one batch, and the
    report is bitwise that of a serial run."""
    tiles, record = _placed_tiles(w, params, rearrange, rearrange_order, compaction,
                                  master_seed, layer_index)
    g = [weights_to_conductances(tile, record.w_scale, params)[0] for tile in tiles]
    g_var = np.stack([apply_device_variation(gt, params.sigma_dev,
                                             _tile_rng(master_seed, layer_index, pl))
                      for gt, pl in zip(g, record.tile_placements)])
    ones = np.full(params.n_rows, params.v_read)
    split = len(tiles) * params.n_rows ** 2 >= PARALLEL_MIN_CELLS
    bounds = _parallel._bounds(len(tiles), split)
    chunks = _parallel._fork_map(
        _sense_currents, [(g_var[start:stop], params, ones)
                          for start, stop in zip(bounds, bounds[1:])], split)
    return aggregate_nf([nonideality_factor(ideal_mac(gt, ones), currents)
                         for gt, currents in zip(g, (c for chunk in chunks for c in chunk))])
