"""Layer weights to crossbar tiles and back.

``partition`` is the one placement step. It turns every layout into a
list of TilePlacements, the rows and columns of the original weight
matrix that fill each padded n x n tile, and gathers the tiles into one
(k, n, n) stack. C/F compaction T and column rearrangement R only choose
those indices, and XCS/XRS segment packing lists them directly, so one
scatter (``recombine``) reassembles the decoded stack; no transform has
to be inverted.

``simulate_layer`` and ``layer_nf`` share one pipeline: encode the stack
once, cut it into contiguous chunks, and in each chunk's process vary
every tile from its identity seed and solve it under all-ones inputs
(``_solve_chunk``); then compute every tile's non-ideality factor (NF)
at once from the stacked ideal and sense currents. ``simulate_layer``
gives each tile one parasitic network and one factorization, whose port
admittance yields the sense currents and the effective conductances,
decoded once for the whole stack; no node voltage is solved.
``layer_nf`` screens the NF alone and solves a chunk's currents in one
conjugate-gradient batch (``circuit._sense_currents``) with no sparse
factorization; its NFs agree with ``simulate_layer``'s to 1e-9
relative, or 1e-12 where an NF lies that close to 0.

A large enough layer runs its chunks on every CPU this process may use,
by ``_parallel._fork_map``: this process takes the first and a
persistent pool worker each other one. A tile's variation is seeded
from its identity and its solve does not depend on its chunk, so the
results are bitwise those of a serial run. See ``_parallel`` for the CPU
count, what a worker holds, and callers that run the package in worker
processes of their own.

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
    """Affine magnitude encoding G = g_min + |W| / w_scale * (g_max - g_min)
    of a tile or a stack, returning the conductances and the signs."""
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
    w = g_eff - params.g_min
    w /= params.g_max - params.g_min
    w *= w_scale
    w *= signs
    w[signs == 0] = 0.0
    return w


# ------------------------------------------------------------ tiling


def _grid(rows: np.ndarray, cols: np.ndarray, n: int) -> list[TilePlacement]:
    """Cut the source row and column indices into n-sized chunks: one
    placement per (row chunk, column chunk), row-major."""
    return [TilePlacement(i, j, rows[i * n:(i + 1) * n], cols[j * n:(j + 1) * n])
            for i in range(math.ceil(rows.size / n))
            for j in range(math.ceil(cols.size / n))]


def partition(w: np.ndarray, n: int, *, order: str | None = None,
              compaction: object | None = None):
    """Place every tile in the original matrix and gather the zero-padded
    n x n tiles into one C-contiguous (k, n, n) float64 stack; returns
    (tiles, record). The tiles cut the matrix, or the rows and columns a
    CfCompaction keeps, row-major after rearranging the columns into
    ``order``; a SegmentPacking lists its tiles itself."""
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
    tiles = np.zeros((len(placements), n, n))
    for tile, pl in zip(tiles, placements):
        tile[:pl.rows.size, :pl.cols.size] = w[np.ix_(pl.rows, pl.cols)]
    return tiles, MappingRecord(w_scale, w.shape, placements)


def recombine(tiles: np.ndarray, record: MappingRecord) -> np.ndarray:
    """Strip padding and scatter every tile of a (k, n, n) stack to its
    recorded source indices; entries no tile covers (pruned rows and
    columns) come back zero."""
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
    perm = np.argsort(column_metrics(w), kind="stable")
    if order == "center_out":
        c = w.shape[1]
        # slots nearest the centre first, the left one of a tie first
        slots = np.argsort(np.abs(np.arange(c) - (c - 1) / 2), kind="stable")
        perm = perm[np.argsort(slots)]
    return w[:, perm], perm


# ------------------------------------------------------- layer pipeline


def _tile_rng(master_seed: int, layer_index: int, pl: TilePlacement) -> np.random.Generator:
    # stream depends only on identity, never on execution order
    return np.random.default_rng([master_seed, layer_index, pl.row_block, pl.col_block])


def _nf_report(nf: np.ndarray) -> LayerNfReport:
    """The report of a layer's (k, n) per-column NFs, NaN where a column
    has none."""
    defined = ~np.isnan(nf)
    per_tile = np.array([row[ok].mean() if ok.any() else np.nan
                         for row, ok in zip(nf, defined)])
    means = per_tile[~np.isnan(per_tile)]
    return LayerNfReport(per_tile_mean=per_tile, per_column=nf[defined],
                         mean_nf=float(means.mean()) if means.size else None)


def _solve_chunk(g: np.ndarray, placements: list[TilePlacement], params: CrossbarParams,
                 master_seed: int, layer_index: int, decode: bool):
    """Vary every tile of the encoded chunk g (k, n, n) from its identity
    seed and solve it under all-ones inputs: (sense currents (k, n), G_eff
    (k, n, n) if `decode` else None). With `decode` each tile gets one
    CrossbarSystem, solved and read for G_eff once; without, the chunk's
    currents come from one ``_sense_currents`` batch."""
    varied = (apply_device_variation(gt, params.sigma_dev,
                                     _tile_rng(master_seed, layer_index, pl))
              for gt, pl in zip(g, placements))
    ones = np.full(params.n, params.v_read)
    if not decode:
        return _sense_currents(np.stack(list(varied)), params, ones), None
    currents, g_eff = np.empty(g.shape[:2]), np.empty(g.shape)
    for t, gt in enumerate(varied):
        system = CrossbarSystem(gt, params)
        currents[t] = system.solve(ones).currents
        g_eff[t] = system.effective_conductance()
    return currents, g_eff


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
# layer_nf splits by the same rule, and breaks even near it, though each
# process now varies its own chunk's tiles as well as solving them.
# Medians of three series of interleaved rounds (25, 41 and 41), default
# tiles, serial against split over this process and one warm worker, from
# a 150 MB parent on the same host, whose other load spreads the rounds:
#
#   n     t   t x n^2   serial          change
#   8    96    6144      6.9-10.9 ms    +35,  +5,  -2 %
#   16   24    6144      3.8-5.5        +40,  +9,  +4 %
#   32    6    6144      3.6-4.5         +7, +14,  +8 %
#   64    2    8192      4.2-5.2         -7,  +3,  -7 %
#   32   12   12288      6.2-8.7        -16, -21, -34 %
#   64    4   16384      7.6-10.4       -26, -24, -32 %
#   128   2   32768     20.7-24.6       -44, -38, -45 %
#
# The stacked encode and NF made the serial screen faster too: 96 tiles of
# n = 8 took 12.6-14.5 ms serially when only the solve split.
PARALLEL_MIN_CELLS = 6 * 32 ** 2


def _run_layer(w, params, rearrange, rearrange_order, compaction, master_seed,
               layer_index, decode):
    """`simulate_layer` (`decode`) and `layer_nf` with their argument checks:
    (non-ideal weights if `decode` else None, NF report, record)."""
    if not isinstance(rearrange, (bool, np.bool_)):
        raise ValueError(f"rearrange must be a bool, got {rearrange!r}")
    check_int("master_seed", master_seed, 0)
    check_int("layer_index", layer_index, 0)
    if rearrange_order not in REARRANGE_ORDERS:
        raise ValueError(f"rearrange_order must be one of {REARRANGE_ORDERS}, "
                         f"got {rearrange_order!r}")
    tiles, record = partition(w, params.n, compaction=compaction,
                              order=rearrange_order if rearrange else None)
    g, signs = weights_to_conductances(tiles, record.w_scale, params)
    del tiles
    if decode:
        # built here, so that a pool worker forked by this call inherits it;
        # one forked earlier builds its own on its first tile and keeps it
        _topology(params)
    split = len(g) * params.n ** 2 >= PARALLEL_MIN_CELLS
    bounds = _parallel._bounds(len(g), split)
    chunks = _parallel._fork_map(
        _solve_chunk, [(g[start:stop], record.tile_placements[start:stop], params,
                        master_seed, layer_index, decode)
                       for start, stop in zip(bounds, bounds[1:])], split)
    ideal = ideal_mac(g, np.full(params.n, params.v_read))
    del g
    nf = _nf_report(nonideality_factor(ideal, _joined([c for c, _ in chunks])))
    if not decode:
        return None, nf, record
    g_eff = _joined([g_eff for _, g_eff in chunks])
    del chunks
    return recombine(conductances_to_weights(g_eff, signs, record.w_scale, params),
                     record), nf, record


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The chunks' stacks as one: the only one as is, else concatenated."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def simulate_layer(w: np.ndarray, params: CrossbarParams, *,
                   rearrange: bool = False, rearrange_order: str = "ascending",
                   compaction: object | None = None, master_seed: int = 0,
                   layer_index: int = 0) -> LayerSimResult:
    """The per-layer pipeline on square tiles: place them (T and R choose
    the source indices) and encode the stack, then per tile device
    variation -> parasitic network -> sense currents under all-ones inputs
    and effective conductances, both off the port admittance; then every
    NF, one decode of the stack and one scatter back to the original
    matrix.

    A layer of at least ``PARALLEL_MIN_CELLS`` cells runs on every CPU in
    this process's affinity mask: this process runs the first chunk and a
    persistent pool worker, forked by the first such call and idle
    between calls, each other one, with OpenBLAS on one thread in each
    process. A worker runs ``_solve_chunk`` as it was when the worker was
    forked. The results are bitwise those of a serial run. A caller that
    runs this in worker processes of its own should narrow each worker's
    CPU affinity."""
    return LayerSimResult(*_run_layer(w, params, rearrange, rearrange_order, compaction,
                                      master_seed, layer_index, decode=True))


def layer_nf(w: np.ndarray, params: CrossbarParams, *,
             rearrange: bool = False, rearrange_order: str = "ascending",
             compaction: object | None = None, master_seed: int = 0,
             layer_index: int = 0) -> LayerNfReport:
    """The NF report of a layer's tiles, for an NF screen: the tiles and
    chunks of `simulate_layer`, encoded and varied alike, with each
    chunk's sense currents under all-ones inputs solved in one batch by
    conjugate gradients (``circuit._sense_currents``). No
    ``CrossbarSystem`` is built and no weight decoded. Every NF agrees
    with ``simulate_layer(...).nf`` to 1e-9 relative (1e-12 where it lies
    that close to 0), and bitwise where a parasitic is 0 ohm or a tile
    takes the LU path. The report is bitwise that of a serial run."""
    return _run_layer(w, params, rearrange, rearrange_order, compaction,
                      master_seed, layer_index, decode=False)[1]
