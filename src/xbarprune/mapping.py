"""Layer weights to crossbar tiles and back.

``partition`` is the one placement step. It turns every layout into a
list of TilePlacements: the rows and columns of the original weight
matrix that fill each padded n x n tile. C/F compaction T and column
rearrangement R only choose those indices, and XCS/XRS segment packing
lists them directly, so after the tiles are encoded, simulated and
decoded one scatter reassembles the non-ideal weight matrix; no
transform has to be inverted.

``simulate_layer`` is the one tile loop. Every tile gets one parasitic
network and one factorization, which leaves its port admittance: the
sense currents under all-ones inputs, read off it, give the tile's
non-ideality factor (NF), and its effective conductances give the
decoded weights. No node voltage is solved. ``layer_nf`` is the NF half
of its result. A large enough layer
runs its tiles on every CPU this process may use: this process takes the
first contiguous chunk of placements and a forked child each other one.
Every tile's variation is seeded from its identity, so the results are
bitwise those of a serial run. OpenBLAS runs on one thread in each process
while a layer is split. Callers that already run ``simulate_layer`` in
worker processes of their own should narrow each worker's CPU affinity
(``os.sched_setaffinity``), or every worker forks as many children again.

Signed weights are encoded as magnitude-to-conductance with a digitally
tracked sign applied at decode time, so a single crossbar per tile
suffices. Zero and padded weights sit exactly at g_min with sign 0 and
decode back to exactly zero.
"""

from __future__ import annotations

import ctypes
import functools
import math
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CrossbarParams,
    CrossbarSystem,
    NfReport,
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
# split over processes; a smaller layer runs in this process alone, as
# fork, pickling and join cost more than the other CPUs save. Median of
# 25 interleaved rounds per row, simulate_layer on t default n x n tiles
# run serially and split over 2 processes, from a 150 MB parent (numpy
# 2.4, scipy 1.17, Python 3.11, 2-vCPU Xeon, one OpenBLAS thread, as in
# every split; the serial times do not change with two):
#
#   n     t    serial    split    change   t x n^2 / 32^2
#   8    32    24.3 ms   42.8 ms   +76 %    2
#   8    64    44.3      42.3       -5 %    4
#   8    96    65.4      48.7      -26 %    6
#   8   128   119.0      70.9      -40 %    8
#   16    8    14.7      17.4      +18 %    2
#   16   16    28.6      25.9       -9 %    4
#   16   24    41.4      29.7      -28 %    6
#   16   32    55.5      40.6      -27 %    8
#   32    2    11.0      17.4      +58 %    2
#   32    4    21.8      24.3      +12 %    4
#   32    6    33.0      32.0       -3 %    6
#   32    8    43.5      41.0       -6 %    8
#   64    2    43.7      39.4      -10 %    8
#   64    4    84.5      61.1      -28 %    16
#
# Per-tile time grows much slower than n^3 here (0.7-0.9, 1.8, 5.4 and
# 21 ms at n = 8 to 64), so the break-even is a cell count: between 4 and
# 6 x 32^2 cells at n = 8, 16 and 32, while 2 tiles at n = 64 (8 x 32^2)
# already gain. As tiles x n^3 it would run from 0.5 x 32^3 at n = 8 to
# 5 x 32^3 at n = 32. The split stays ahead from the upper end on.
# With OpenBLAS left at one thread per CPU in each process, the split
# lost at n = 64 (7 rounds): 64 -> 83 ms on 4 tiles, 135 -> 181 ms on 9.
PARALLEL_MIN_CELLS = 6 * 32 ** 2


def _usable_cpus() -> int:
    """CPUs this process may give tiles to: 1 where it cannot say, cannot
    fork, or is a daemonic process, which multiprocessing lets have no
    children."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process (the numpy and scipy wheels each bring their own), found
    by file name in /proc/self/maps; empty where it cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread in this process, and in every child
    forked inside, then restore its thread counts. Each process already
    has a CPU of its own; an OpenBLAS pool per process, one thread per
    CPU, busy-waits on the CPUs of the others."""
    controls = _openblas_threads()
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def _run_chunk(send, run, lo: int, hi: int) -> None:
    """A forked child's body: send [run(i) for i in lo..hi-1], or the
    exception that stopped it."""
    try:
        outcome = [run(i) for i in range(lo, hi)]
    except Exception as exc:            # re-raised by the parent
        outcome = exc
    try:
        send.send(outcome)
    except Exception:                   # an exception that does not pickle
        send.send(RuntimeError(f"{type(outcome).__name__}: {outcome}"))
    send.close()


def _map_tiles(run, count: int, n: int) -> list:
    """[run(i) for i in range(count)] on the usable CPUs: contiguous chunks,
    the first in this process and each other one in a forked child,
    gathered in order, with OpenBLAS on one thread in each. Every child is
    joined before this returns or raises; a child's exception is raised
    here."""
    workers = min(_usable_cpus(), count)
    if workers < 2 or count * n * n < PARALLEL_MIN_CELLS:
        return [run(i) for i in range(count)]
    bounds = [count * k // workers for k in range(workers + 1)]
    fork = multiprocessing.get_context("fork")
    children, gathered = [], False
    with _one_blas_thread():
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                receive, send = fork.Pipe(duplex=False)
                child = fork.Process(target=_run_chunk, args=(send, run, lo, hi))
                children.append((child, receive))
                try:
                    child.start()
                finally:
                    send.close()
            results = [run(i) for i in range(bounds[1])]
            for child, receive in children:
                try:
                    outcome = receive.recv()
                except EOFError:
                    child.join()
                    raise RuntimeError(f"a tile worker exited with code {child.exitcode} "
                                       "before sending its tiles") from None
                if isinstance(outcome, Exception):
                    raise outcome
                results.extend(outcome)
            gathered = True
            return results
        finally:
            for child, receive in children:
                if child.pid is not None:   # the fork succeeded
                    if not gathered:
                        child.terminate()   # it may be blocked writing to its pipe
                    child.join()
                    child.close()
                receive.close()


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
    on every CPU in this process's affinity mask, in forked children that
    are all joined before the call returns, with OpenBLAS on one thread in
    each process. The results are bitwise those of a serial run. A caller
    that runs this in worker processes of its own should narrow each
    worker's CPU affinity."""
    check_int("master_seed", master_seed, 0)
    check_int("layer_index", layer_index, 0)
    if params.n_rows != params.n_cols:
        raise ValueError("layer simulation uses square tiles; params must have "
                         "n_rows == n_cols")
    if rearrange_order not in REARRANGE_ORDERS:
        raise ValueError(f"rearrange_order must be one of {REARRANGE_ORDERS}, "
                         f"got {rearrange_order!r}")
    tiles, record = partition(w, params.n_rows,
                              order=rearrange_order if rearrange else None,
                              compaction=compaction)
    _topology(params)       # built once here, so that forked children inherit it
    placements = record.tile_placements
    results = _map_tiles(
        lambda i: _simulate_tile(tiles[i], placements[i], record.w_scale, params,
                                 master_seed, layer_index),
        len(tiles), params.n_rows)
    return LayerSimResult(
        w_nonideal=recombine([tile for tile, _ in results], record),
        nf=aggregate_nf([report for _, report in results]),
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
