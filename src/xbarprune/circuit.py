"""Exact resistive-network model of one memristive crossbar tile.

A tile is a plain (n_rows, n_cols) float array of synapse conductances in
siemens. Every cell (i, j) has its own row node and column node joined by
the synapse conductance; row wires run left to right between adjacent row
nodes, column wires top to bottom between adjacent column nodes. Row i is
fed by an ideal source through ``r_driver`` at the left edge, and column j
is read through ``r_sense`` into a virtual-ground sense terminal at the
bottom edge; the sense current of column j is the current into that
terminal, V(bottom column node) / r_sense.

Zero-valued parasitics are handled exactly by merging the nodes that a
zero-ohm segment would join (no epsilon resistances), so the ideal limit
reproduces the plain dot product bitwise.

The sources and sense terminals are the tile's m + n ports. They are
unknowns of the nodal matrix like every other node (only ground is
pinned) and are eliminated last, so the trailing (m+n)^2 block of the
tile's LU factors is the network Kron-reduced to its ports (Dorfler and
Bullo, IEEE TCAS-I 2013). G_eff is read off that block without a solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

DEFAULT_NF_EPSILON = 1e-12

# Default device/circuit values: r_min = 20 kOhm at ON, ON/OFF ratio 10,
# 1 kOhm driver/sense interfaces, 5 Ohm wire segments per cell.
DEFAULT_R_DRIVER = 1e3
DEFAULT_R_WIRE = 5.0
DEFAULT_R_SENSE = 1e3
DEFAULT_G_MIN = 5e-6
DEFAULT_G_MAX = 5e-5
DEFAULT_SIGMA_DEV = 0.1
DEFAULT_V_READ = 1.0

# Largest accepted tile side, set by a budget of 0.5 GB per tile in each
# process: mapping.simulate_layer factorizes one tile at a time in every
# process it splits a layer over, so a layer can hold one such tile per
# usable CPU. One 256 x 256 tile factorizes to 6.8 M LU non-zeros and
# peaks at about 275 MB resident (numpy 2.4, scipy 1.17). Fill grows about
# 5x per doubling of n, so 512 would need about 1 GB.
MAX_TILE_DIM = 256

# SuperLU's supernode relaxation and panel size for the nested-dissection
# order of _dissection. SuperLU's defaults (relax 10, panel 20; passing them
# gives the same factors bit for bit) cost more than they save on it. Time
# of gstrf against the defaults: median over interleaved rounds of each
# round's ratio, one tile of default parameters per n, one BLAS thread
# (numpy 2.4, scipy 1.17, 2-vCPU Xeon; 200, 60, 24 and 12 rounds):
#
#   relax, panel    n = 32   64     128    256
#   1, 1            -29 %    -24 %  -21 %  +3 %
#   1, 2            -24 %    -22 %  -24 %  -8 %
#   1, 4            -21 %    -18 %  -21 %  -9 %
#   4, 1            -30 %    -24 %  -23 %  +3 %
#   4, 2            -24 %    -25 %  -22 %  -4 %
#   4, 4            -20 %    -22 %  -20 %  -9 %
#   10, 20          -1 %     +1 %   +1 %   +1 %   (the defaults again)
#
# On a coarser grid, relax 2 and the default relax read like 1 and 4, and
# the default panel size with any relax within 5 % of the defaults. Panels
# of 1 are the fastest at n = 32 but lose at n = 256; panels of 2 are
# within 5 points of the best size at every n.
# The factors keep their non-zero count, and G_eff moves by at most 3.3e-13
# relative to its largest entry.
SPLU_RELAX = 1
SPLU_PANEL_SIZE = 2


@dataclass(frozen=True)
class CrossbarParams:
    """Tile dimensions plus every circuit and device parameter."""

    n_rows: int
    n_cols: int
    r_driver: float = DEFAULT_R_DRIVER
    r_wire_row: float = DEFAULT_R_WIRE
    r_wire_col: float = DEFAULT_R_WIRE
    r_sense: float = DEFAULT_R_SENSE
    g_min: float = DEFAULT_G_MIN
    g_max: float = DEFAULT_G_MAX
    sigma_dev: float = DEFAULT_SIGMA_DEV
    v_read: float = DEFAULT_V_READ

    def __post_init__(self):
        for name in ("n_rows", "n_cols"):
            side = getattr(self, name)
            if not isinstance(side, (int, np.integer)) or isinstance(side, bool):
                raise ValueError(f"{name} must be an integer, got {side!r}")
        if not (1 <= self.n_rows <= MAX_TILE_DIM and 1 <= self.n_cols <= MAX_TILE_DIM):
            raise ValueError(f"tile dimensions must be in 1..{MAX_TILE_DIM}, "
                             f"got {self.n_rows}x{self.n_cols}")
        for name in ("r_driver", "r_wire_row", "r_wire_col", "r_sense"):
            r = getattr(self, name)
            if not (np.isfinite(r) and r >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {r}")
        if not (0 < self.g_min < self.g_max < np.inf):
            raise ValueError(f"need finite g_max > g_min > 0, got g_min={self.g_min}, "
                             f"g_max={self.g_max}")
        if not (0 <= self.sigma_dev < 1.0 / 3.0):
            raise ValueError(f"sigma_dev must be in [0, 1/3), got {self.sigma_dev}")
        if not (np.isfinite(self.v_read) and self.v_read > 0):
            raise ValueError(f"v_read must be finite and > 0, got {self.v_read}")


def default_params(n: int, **overrides) -> CrossbarParams:
    """An n x n tile with the default values, except the overrides."""
    return CrossbarParams(n, n, **overrides)


@dataclass
class SolveResult:
    """Sense currents plus internal node voltages for one input vector."""

    currents: np.ndarray      # (n_cols,)
    v_row: np.ndarray         # (n_rows, n_cols) row-node voltages
    v_col: np.ndarray         # (n_rows, n_cols) column-node voltages


@dataclass
class NfReport:
    """Per-column non-ideality factor (I_ideal - I_nonideal) / I_ideal."""

    per_column_nf: np.ndarray           # NaN where the ideal current is ~0
    mean_nf: float | None               # mean of the defined NFs; None if none is


def _check_tile(g: np.ndarray, params: CrossbarParams) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape != (params.n_rows, params.n_cols):
        raise ValueError(f"tile shape {g.shape} does not match params "
                         f"{params.n_rows}x{params.n_cols}")
    if not np.all(np.isfinite(g)):
        raise ValueError("tile contains non-finite conductances")
    if np.any(g < 0):
        raise ValueError("tile contains negative conductances")
    return g


def ideal_mac(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ideal column currents I_j = sum_i G_ij * V_i (plain dot product)."""
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim != 2 or v.shape != (g.shape[0],):
        raise ValueError(f"input length {v.shape} does not match tile rows {g.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input voltages must be finite")
    return g.T @ v


@dataclass(frozen=True)
class _Topology:
    """What every tile of one CrossbarParams shares.

    Physical node ids: row(i, j) = 2(i*n + j), col(i, j) = row(i, j) + 1,
    source i = 2mn + i, sense terminal j = 2mn + m + j, ground = 2mn + m + n.
    Unknown ids order the nodal matrix and are its elimination order:
    interior roots in the nested-dissection order of ``_dissection``, then
    the n sense terminals, then the m sources. A root that merges several
    physical nodes takes the place of its last member. At n = 128 with the
    default parasitics the LU holds 1.44 M non-zeros, against 1.75 M under
    SuperLU's minimum degree (MMD_AT_PLUS_A).
    """

    root: np.ndarray          # merged representative of every physical node
    branch_a: np.ndarray      # physical ends of every branch, devices first
    branch_b: np.ndarray
    fixed_g: np.ndarray       # conductances of the branches after the devices
    interior: np.ndarray      # physical ids of the interior roots, in order
    row_unknown: np.ndarray   # (m, n) unknown id of every row node
    col_unknown: np.ndarray   # (m, n) unknown id of every column node
    indices: np.ndarray       # CSC pattern of the nodal matrix
    indptr: np.ndarray
    to_data: sp.csr_matrix    # CSC data = to_data @ branch conductances


def _dissection(m: int, n: int) -> np.ndarray:
    """Physical ids of the 2mn cell nodes of an m x n tile in nested-dissection
    order (George, SIAM J. Numer. Anal. 1973).

    A block of cells is cut at the middle line across its longer side; both
    halves come first, then the line. The row nodes of a column line
    separate the halves. Its column nodes touch only each other, those row
    nodes and lines cut earlier, so they go just before the row nodes as a
    chain. A row line swaps the roles. Blocks of at most 4 cells are leaves,
    ordered cell by cell."""
    rows = 2 * np.arange(m * n).reshape(m, n)
    order = []

    def visit(block):
        h, w = block.shape
        if h * w <= 4:
            order.append(np.stack([block, block + 1], axis=-1).ravel())
        elif w >= h:
            mid = w // 2
            visit(block[:, :mid])
            visit(block[:, mid + 1:])
            order.extend([block[:, mid] + 1, block[:, mid]])
        else:
            mid = h // 2
            visit(block[:mid])
            visit(block[mid + 1:])
            order.extend([block[mid], block[mid] + 1])

    visit(rows)
    return np.concatenate(order)


@functools.lru_cache(maxsize=16)
def _topology(params: CrossbarParams) -> _Topology:
    m, n = params.n_rows, params.n_cols
    mn = m * n
    rows = 2 * np.arange(mn).reshape(m, n)
    cols = rows + 1
    src = 2 * mn + np.arange(m)
    term = 2 * mn + m + np.arange(n)
    gnd = 2 * mn + m + n

    # collapse zero-ohm segments
    root = np.arange(gnd + 1)
    if params.r_wire_row == 0:
        root[rows] = src[:, None] if params.r_driver == 0 else rows[:, :1]
    elif params.r_driver == 0:
        root[rows[:, 0]] = src
    if params.r_wire_col == 0:
        root[cols] = term if params.r_sense == 0 else cols[:1, :]
    elif params.r_sense == 0:
        root[cols[-1, :]] = term

    # finite branches; the devices' conductances come with each tile
    ends, fixed = [(rows.ravel(), cols.ravel())], []

    def add(a, b, g):
        a, b = np.broadcast_arrays(a, b)
        ends.append((a.ravel(), b.ravel()))
        fixed.append(np.full(a.size, g))

    if params.r_wire_row > 0:
        add(rows[:, :-1], rows[:, 1:], 1.0 / params.r_wire_row)
    if params.r_wire_col > 0:
        add(cols[:-1, :], cols[1:, :], 1.0 / params.r_wire_col)
    if params.r_driver > 0:
        add(src, rows[:, 0], 1.0 / params.r_driver)
    if params.r_sense > 0:
        add(cols[-1, :], term, 1.0 / params.r_sense)
    # port ties: a port is held at its voltage, so its tie moves no other
    # node, but it grounds a row or column whose devices are all 0 S
    add(np.concatenate([term, src]), gnd, params.g_max)
    a = np.concatenate([e[0] for e in ends])
    b = np.concatenate([e[1] for e in ends])

    # interior roots in nested-dissection order, a merged node at the place
    # of its last member; the ports, ids from 2mn on, come after them all
    last_first = root[_dissection(m, n)][::-1]
    interior = last_first[np.sort(np.unique(last_first, return_index=True)[1])][::-1]
    interior = interior[interior < 2 * mn]
    n_int = interior.size
    size = n_int + n + m
    unknown = np.full(gnd + 1, -1)
    unknown[interior] = np.arange(n_int)
    unknown[term] = n_int + np.arange(n)
    unknown[src] = n_int + n + np.arange(m)

    # nodal-matrix stamps (row, col, branch, sign); ground is not an unknown
    ua, ub = unknown[root[a]], unknown[root[b]]
    k = np.arange(a.size)
    both = (ua >= 0) & (ub >= 0)
    r = np.concatenate([ua, ub, ua[both], ub[both]])
    c = np.concatenate([ua, ub, ub[both], ua[both]])
    br = np.concatenate([k, k, k[both], k[both]])
    sign = np.concatenate([np.ones(2 * k.size), -np.ones(2 * both.sum())])
    keep = r >= 0
    r, c, br, sign = r[keep], c[keep], br[keep], sign[keep]

    keys, position = np.unique(c * size + r, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(size + 1) * size)
    topo = _Topology(
        root=root, branch_a=a, branch_b=b, fixed_g=np.concatenate(fixed),
        interior=interior,
        row_unknown=unknown[root[rows]],
        col_unknown=unknown[root[cols]],
        indices=(keys % size).astype(np.int32), indptr=indptr.astype(np.int32),
        to_data=sp.csr_matrix((sign, (position, br)), shape=(keys.size, a.size)))
    for value in vars(topo).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return topo


def _trailing_block(factor, first: int) -> np.ndarray:
    """Dense factor[first:, first:] of a square CSC factor."""
    k = factor.shape[0] - first
    start = factor.indptr[first]
    rows = factor.indices[start:] - first
    cols = np.repeat(np.arange(k), np.diff(factor.indptr[first:]))
    keep = rows >= 0
    block = np.zeros((k, k))
    block[rows[keep], cols[keep]] = factor.data[start:][keep]
    return block


class CrossbarSystem:
    """Assembled and factorized parasitic network for one tile.

    Only ground is pinned. The m sources and the n sense terminals (the
    ports) are unknowns tied to ground through ``g_max``, and they are
    eliminated last, so the trailing (m+n)^2 blocks of the tile's single
    LU factorization multiply to the network Kron-reduced to its ports.
    Its source columns Y give the current to inject at each port to hold
    the sources at v and the sense terminals at 0 V: ``solve`` feeds
    exactly those currents to the factorization, and the sense currents
    are -Y_sense v, so G_eff = -Y_sense^T. The node merging, branch list,
    elimination order and matrix pattern are built once per
    CrossbarParams; a tile only fills in its values.

    SuperLU factorizes in the order given, with no relaxed supernodes
    (``SPLU_RELAX``) and panels of ``SPLU_PANEL_SIZE`` columns. Its
    defaults are tuned for general sparse matrices; on this order they
    cost more than they save, and the fitted blocking takes 20-25 % off
    the factorization at n <= 128 and 8 % at n = 256.
    """

    def __init__(self, g: np.ndarray, params: CrossbarParams):
        self.g = _check_tile(g, params)
        self.params = params
        self._topo = topo = _topology(params)
        m, n = params.n_rows, params.n_cols
        size = topo.indptr.size - 1
        if size == m + n:
            # every node merged into a port: the network is ideal
            self._lu = self._port_y = None
            return
        data = topo.to_data @ np.concatenate([self.g.ravel(), topo.fixed_g])
        A = sp.csc_matrix((data, topo.indices, topo.indptr), shape=(size, size))
        try:
            # symmetric positive definite: diagonal pivots, ports stay last
            self._lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                            relax=SPLU_RELAX, panel_size=SPLU_PANEL_SIZE,
                            options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise ValueError(f"singular crossbar network: {exc}") from exc
        first = size - m - n
        tail = np.arange(first, size)
        if not (np.array_equal(self._lu.perm_c[first:], tail)
                and np.array_equal(self._lu.perm_r[first:], tail)):
            raise RuntimeError("the factorization did not eliminate the ports last")
        lower = _trailing_block(self._lu.L, first)
        upper = _trailing_block(self._lu.U, first)
        self._port_y = lower @ upper[:, n:]

    def solve(self, v: np.ndarray) -> SolveResult:
        """Node voltages and sense currents for one input vector."""
        v = np.asarray(v, dtype=float)
        m, n = self.params.n_rows, self.params.n_cols
        if v.shape != (m,):
            raise ValueError(f"input length {v.shape} does not match {m} rows")
        if not np.all(np.isfinite(v)):
            raise ValueError("input voltages must be finite")
        held = np.concatenate([np.zeros(n), v])
        if self._lu is None:
            pot, currents = held, ideal_mac(self.g, v)
        else:
            injected = self._port_y @ v
            rhs = np.zeros(self._lu.shape[0])
            rhs[-held.size:] = injected
            pot = self._lu.solve(rhs)
            pot[-held.size:] = held
            currents = -injected[:n]
        return SolveResult(currents=currents,
                           v_row=pot[self._topo.row_unknown],
                           v_col=pot[self._topo.col_unknown])

    def effective_conductance(self) -> np.ndarray:
        """Input-independent G' with I = G'^T v for every v, read off the
        port admittance without a solve."""
        if self._lu is None:
            return self.g.copy()
        return -self._port_y[:self.params.n_cols].T

    def kcl_residual(self, v: np.ndarray, result: SolveResult) -> float:
        """Worst, over the interior supernodes, of the net current into the
        node over the sum of g * (|V_a| + |V_b|) over its branches: the
        componentwise (Oettli-Prager) backward error of the node voltages,
        recomputed from individual branch currents. A node that carries no
        current, such as one under a row of 0 S devices, reads the rounding
        of its voltages, not 1."""
        topo = self._topo
        mn = self.g.size
        pot = np.zeros(topo.root.size)
        pot[0:2 * mn:2] = result.v_row.ravel()
        pot[1:2 * mn:2] = result.v_col.ravel()
        pot[2 * mn:2 * mn + self.params.n_rows] = np.asarray(v, dtype=float)
        a, b = topo.branch_a, topo.branch_b
        g = np.concatenate([self.g.ravel(), topo.fixed_g])
        cur = g * (pot[a] - pot[b])
        mag = g * (np.abs(pot[a]) + np.abs(pot[b]))
        net = np.zeros(pot.size)
        scale = np.zeros(pot.size)
        np.add.at(net, topo.root[a], -cur)
        np.add.at(net, topo.root[b], cur)
        np.add.at(scale, topo.root[a], mag)
        np.add.at(scale, topo.root[b], mag)
        free = topo.interior
        if free.size == 0:
            return 0.0
        denom = np.maximum(scale[free], np.finfo(float).tiny)
        return float(np.max(np.abs(net[free]) / denom))


def apply_device_variation(g: np.ndarray, sigma_dev: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Multiplicative Gaussian device variation, truncated at +-3 sigma.

    Each entry becomes G_ij * (1 + eps_ij) with eps_ij ~ N(0, sigma^2)
    redrawn while outside [-3 sigma, 3 sigma]; sigma < 1/3 keeps every
    conductance strictly positive. Deterministic for a given generator
    state.
    """
    if not (0 <= sigma_dev < 1.0 / 3.0):
        raise ValueError(f"sigma_dev must be in [0, 1/3), got {sigma_dev}")
    g = np.asarray(g, dtype=float)
    if sigma_dev == 0:
        return g.copy()
    eps = rng.normal(0.0, sigma_dev, size=g.shape)
    bad = np.abs(eps) > 3 * sigma_dev
    while bad.any():
        eps[bad] = rng.normal(0.0, sigma_dev, size=int(bad.sum()))
        bad = np.abs(eps) > 3 * sigma_dev
    return g * (1.0 + eps)


def nonideality_factor(i_ideal: np.ndarray, i_nonideal: np.ndarray) -> NfReport:
    """Per-column NF = (I_ideal - I_nonideal) / I_ideal.

    A column with |I_ideal| < DEFAULT_NF_EPSILON has no NF: it reads NaN
    and stays out of the mean, which is None if no column has one.
    """
    i_ideal = np.asarray(i_ideal, dtype=float)
    i_nonideal = np.asarray(i_nonideal, dtype=float)
    if i_ideal.shape != i_nonideal.shape or i_ideal.ndim != 1:
        raise ValueError(f"current vectors must be 1-D and equal length, "
                         f"got {i_ideal.shape} vs {i_nonideal.shape}")
    keep = ~(np.abs(i_ideal) < DEFAULT_NF_EPSILON)
    nf = np.full(i_ideal.shape, np.nan)
    nf[keep] = (i_ideal[keep] - i_nonideal[keep]) / i_ideal[keep]
    mean = float(np.mean(nf[keep])) if keep.any() else None
    return NfReport(per_column_nf=nf, mean_nf=mean)
