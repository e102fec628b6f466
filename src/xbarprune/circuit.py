"""Exact resistive-network model of one memristive crossbar tile.

A tile is a plain (n, n) float array of synapse conductances in
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

The sources and sense terminals are the tile's 2n ports. They are
unknowns of the nodal matrix like every other node (only ground is
pinned) and are eliminated last, so the trailing (2n)^2 block of the
tile's LU factors is the network Kron-reduced to its ports (Dorfler and
Bullo, IEEE TCAS-I 2013). A tile keeps only that port admittance: G_eff
and the sense currents of any input are read off it without a solve, and
the LU factors are dropped once it is built. The internal node voltages
are solved only when a SolveResult's ``v_row`` or ``v_col`` is first
read, and that read factorizes the network again.

``_sense_currents`` solves the sense currents of a stack of tiles under
one input without any sparse factorization, for ``mapping.layer_nf``,
which calls it once per chunk of a layer's tiles:
conjugate gradients (Hestenes and Stiefel, J. Res. NBS 1952) on the
column-node voltages alone, with the sources held at v and the sense
terminals at 0 V, in one numpy batch. Every row wire is a tridiagonal
line that is eliminated exactly, so CG runs on the Schur complement of
the row nodes, preconditioned by the exact tridiagonal solve along every
column wire; both sets of lines are factorized once per tile by LAPACK.
Its oracle is the LU of ``CrossbarSystem``: the table at ``CG_TOL`` gives
both solvers' errors against the LU solve refined in long double, and
the tests hold the NFs of ``layer_nf`` to 1e-9 of those of
``mapping.simulate_layer``. A network with a zero-ohm parasitic has
merged nodes and no wire lines, and takes the LU path, as does a tile
not converged within ``CG_MAX_ITERATIONS``; their currents are bitwise
those of ``CrossbarSystem.solve``.
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import splu

from ._checks import check_int, check_real

# Ideal column current (A) below which a column has no NF. Derived, not a
# device value: with every device at g_min or more, a column fed v_read on
# every row carries at least g_min * v_read = 5e-6 A, so this excludes only
# columns whose ideal current is zero (0 S devices or zero inputs) and
# their rounding.
DEFAULT_NF_EPSILON = 1e-12

# Default device and circuit values. The source paper's text here is its
# abstract alone, which gives none, and no other file of this repository
# does, so every value below except v_read is an assumption:
# - r_min = 20 kOhm at ON (DEFAULT_G_MAX) and an ON/OFF ratio of 10
#   (DEFAULT_G_MIN): assumed round values. The ratio keeps a zero weight
#   at a tenth of the largest conductance, so pruned and padded cells
#   still load the wires.
# - 1 kOhm driver and sense interfaces: assumed. They make the default
#   interface-dominated: conv2 of the reference net, trained 3 epochs
#   under cf@0.5 and mapped at n = 64 without variation, reads a mean NF
#   of 0.625 with them and 0.150 with 10 Ohm interfaces, both at 5 Ohm
#   wires.
# - 5 Ohm per wire segment between adjacent cells: assumed.
# - sigma_dev = 0.1: an assumed 10 % device spread; any value below 1/3
#   keeps every device positive under the 3-sigma truncation.
# - v_read = 1 V: a scale only. The network is linear, so currents scale
#   with it; G_eff does not depend on it, and the NF only through
#   DEFAULT_NF_EPSILON.
DEFAULT_R_DRIVER = 1e3
DEFAULT_R_WIRE = 5.0
DEFAULT_R_SENSE = 1e3
DEFAULT_G_MIN = 5e-6
DEFAULT_G_MAX = 5e-5
DEFAULT_SIGMA_DEV = 0.1
DEFAULT_V_READ = 1.0

# sigma_dev's interval, [0, 1/3): see the sigma_dev note above
_SIGMA_DEV_RANGE = (0.0, 1.0 / 3.0, "[)")

# Largest accepted tile side, set by a budget of 0.5 GB per tile in each
# process: mapping.simulate_layer factorizes one tile at a time in every
# process it splits a layer over (mapping._solve_chunk), so a layer can
# hold one such tile per usable CPU. A built CrossbarSystem keeps no
# factor, so the peak is that of one factorization however many systems
# are alive. One 256 x 256 tile
# factorizes to 6.8 M LU non-zeros. Building default tiles in a fresh
# process (one BLAS thread, numpy 2.4, scipy 1.17, Python 3.11) peaks at
# 106 MB resident at n = 128 and 269 MB at n = 256, from 59 MB after the
# imports and 83 and 148 MB once the topology is built; a second tile
# built while the first is alive, or the voltages of a solve read, peak
# no higher. Fill grows about 5x per doubling of n, so 512 would need
# about 1 GB.
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

# Stop rule, cap and chunk size of _sense_currents (see the module
# docstring). A tile has converged when, on the true residual of the
# whole network, with the row voltages solved from the column ones, every
# node's net current is at most CG_TOL times its diagonal conductance
# times |its voltage|: the diagonal part of kcl_residual's scale, so the
# backward error is CG_TOL or less. Measured on 8 random tiles per row
# (70 % of cells programmed, sigma_dev = 0.1 unless stated, all-ones
# input; 3 tiles at n = 256): CG iterations per tile; the largest
# relative error of a sense current, of CG and of LU, against the LU solve
# refined in long double; the largest relative difference of a column's
# NF between CG and LU; time per tile of CG in one batch and of a
# CrossbarSystem build and solve (one BLAS thread, numpy 2.4, scipy 1.17,
# 2-vCPU Xeon). Regime t scales all four default parasitics by t; "iface"
# is the driver and sense resistance, "wire" each wire segment's:
#
#   regime                   n    iter   CG err   LU err   NF diff  CG ms  LU ms
#   t = 0.05                 64   3      2.1e-12  1.5e-12  1.4e-11  0.98   14.0
#   t = 0.5                  64   5      2.0e-12  8.2e-13  1.8e-12  1.04   13.0
#   t = 1 (default)          64   6      6.7e-13  6.9e-13  3.1e-13  1.12   12.4
#   t = 1.5                  64   7      3.6e-13  4.5e-13  1.3e-13  1.40   12.5
#   t = 2                    64   7      5.0e-13  4.8e-13  1.1e-13  1.43   12.8
#   default                  1    1      3.5e-16  2.6e-16  2.8e-14  0.02   0.17
#   default                  8    4-5    1.4e-12  2.2e-13  4.5e-12  0.07   0.26
#   default                  32   5      1.3e-12  4.4e-13  9.7e-13  0.27   2.2
#   default                  128  7-8    2.2e-12  1.1e-12  3.7e-13  8.4    58.7
#   default                  256  10     8.5e-13  1.6e-12  1.2e-13  37.7   349
#   iface 1 Ohm, wire 50     64   9      5.0e-14  4.9e-14  2.6e-14  1.48   10.2
#   iface 10 Ohm             64   5      1.0e-13  1.4e-13  5.6e-13  1.08   10.2
#   iface 1 MOhm, wire 1 k   64   28     4.8e-13  4.4e-13  2.2e-16  4.35   10.5
#   iface 1 MOhm, wire 1 k   128  48-50  3.6e-13  4.1e-13  2.2e-16  35.1   57.5
#   iface 1 MOhm, wire 1 k   256  91     4.9e-13  5.6e-13  2.2e-16  260    318
#   1 mOhm everywhere        64   2      9.3e-14  2.2e-13  1.7e-09  0.62   9.5
#   sigma_dev = 0.3          64   6      8.4e-13  7.8e-13  4.1e-13  1.25   10.5
#
# At 1 mOhm both solvers' currents are right to 3e-13, CG's the closer:
# their NFs differ by 1.7e-9 relative only because the smallest NF there
# is 6.3e-5, beside which current rounding is large. Stopping at a
# backward error of 1e-12 instead left sense-current errors of up to
# 3.7e-10. A tile not converged after CG_MAX_ITERATIONS takes the LU path;
# the slowest regime above needs 91 at n = 256. Tiles are solved in
# chunks of at most CG_CHUNK_UNKNOWNS unknowns of the network (2 n^2 a
# tile): a full chunk peaks at 10.6-12.2 MB (tracemalloc, n = 32 to 256),
# about 11 arrays of 8 bytes an unknown.
CG_TOL = 1e-14
CG_MAX_ITERATIONS = 200
CG_CHUNK_UNKNOWNS = 2 ** 17


@dataclass(frozen=True)
class CrossbarParams:
    """Tile side n plus every circuit and device parameter."""

    n: int
    _: KW_ONLY
    r_driver: float = DEFAULT_R_DRIVER
    r_wire_row: float = DEFAULT_R_WIRE
    r_wire_col: float = DEFAULT_R_WIRE
    r_sense: float = DEFAULT_R_SENSE
    g_min: float = DEFAULT_G_MIN
    g_max: float = DEFAULT_G_MAX
    sigma_dev: float = DEFAULT_SIGMA_DEV
    v_read: float = DEFAULT_V_READ

    def __post_init__(self):
        check_int("n", self.n, 1, MAX_TILE_DIM)
        for name in ("r_driver", "r_wire_row", "r_wire_col", "r_sense"):
            check_real(name, getattr(self, name), 0.0, np.inf, "[)")
        check_real("g_min", self.g_min, 0.0, np.inf)
        check_real("g_max", self.g_max, self.g_min, np.inf)
        check_real("sigma_dev", self.sigma_dev, *_SIGMA_DEV_RANGE)
        check_real("v_read", self.v_read, 0.0, np.inf)


def default_params(n: int, **overrides) -> CrossbarParams:
    """An n x n tile with the default values, except the overrides."""
    return CrossbarParams(n, **overrides)


class SolveResult:
    """Sense currents for one input vector, and the internal node voltages
    behind them.

    The result holds its system and its own copy of the input. The
    voltages are solved on the first read of ``v_row`` or ``v_col``: that
    read factorizes the tile's network again, solves once, keeps both
    arrays here and lets the system go, so later reads return the same
    arrays and an edit made in place stays visible. No factor is kept.
    """

    def __init__(self, currents: np.ndarray, system: CrossbarSystem, v: np.ndarray):
        self.currents = currents                # (n,)
        self._system, self._v = system, v       # until the voltages are read

    @property
    def v_row(self) -> np.ndarray:
        """(n, n) row-node voltages."""
        return self._voltages[0]

    @property
    def v_col(self) -> np.ndarray:
        """(n, n) column-node voltages."""
        return self._voltages[1]

    @functools.cached_property
    def _voltages(self) -> tuple[np.ndarray, np.ndarray]:
        voltages = self._system._node_voltages(self._v)
        del self._system, self._v
        return voltages


def _check_tile(g: np.ndarray, params: CrossbarParams) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (params.n, params.n):
        raise ValueError(f"tile shape {g.shape} does not match params "
                         f"{params.n}x{params.n}")
    if not np.all(np.isfinite(g)):
        raise ValueError("tile contains non-finite conductances")
    if np.any(g < 0):
        raise ValueError("tile contains negative conductances")
    return g


def ideal_mac(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ideal column currents I_j = sum_i G_ij * V_i (plain dot product) of a
    tile (m, n), or of each tile of a stack (..., m, n), bitwise its own."""
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim < 2 or v.shape != (g.shape[-2],):
        raise ValueError(f"input length {v.shape} does not match tile rows {g.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input voltages must be finite")
    return np.swapaxes(g, -1, -2) @ v


@dataclass(frozen=True)
class _Topology:
    """What every tile of one CrossbarParams shares.

    Physical node ids: row(i, j) = 2(i*n + j), col(i, j) = row(i, j) + 1,
    source i = 2n^2 + i, sense terminal j = 2n^2 + n + j, ground = 2n^2 + 2n.
    Unknown ids order the nodal matrix and are its elimination order:
    interior roots in the nested-dissection order of ``_dissection``, then
    the n sense terminals, then the n sources. A root that merges several
    physical nodes takes the place of its last member. At n = 128 with the
    default parasitics the LU holds 1.44 M non-zeros, against 1.75 M under
    SuperLU's minimum degree (MMD_AT_PLUS_A).
    """

    root: np.ndarray          # merged representative of every physical node
    branch_a: np.ndarray      # physical ends of every branch, devices first
    branch_b: np.ndarray
    fixed_g: np.ndarray       # conductances of the branches after the devices
    interior: np.ndarray      # physical ids of the interior roots, in order
    row_unknown: np.ndarray   # (n, n) unknown id of every row node
    col_unknown: np.ndarray   # (n, n) unknown id of every column node
    indices: np.ndarray       # CSC pattern of the nodal matrix
    indptr: np.ndarray
    to_data: sp.csr_matrix    # CSC data = to_data @ branch conductances


def _dissection(n: int) -> np.ndarray:
    """Physical ids of the 2n^2 cell nodes of an n x n tile in nested-dissection
    order (George, SIAM J. Numer. Anal. 1973).

    A block of cells is cut at the middle line across its longer side; both
    halves come first, then the line. The row nodes of a column line
    separate the halves. Its column nodes touch only each other, those row
    nodes and lines cut earlier, so they go just before the row nodes as a
    chain. A row line swaps the roles. Blocks of at most 4 cells are leaves,
    ordered cell by cell."""
    rows = 2 * np.arange(n * n).reshape(n, n)
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
    n = params.n
    cells = n * n
    rows = 2 * np.arange(cells).reshape(n, n)
    cols = rows + 1
    src = 2 * cells + np.arange(n)
    term = 2 * cells + n + np.arange(n)
    gnd = 2 * cells + 2 * n

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
    # of its last member; the ports, ids from 2n^2 on, come after them all
    last_first = root[_dissection(n)][::-1]
    interior = last_first[np.sort(np.unique(last_first, return_index=True)[1])][::-1]
    interior = interior[interior < 2 * cells]
    n_int = interior.size
    size = n_int + 2 * n
    unknown = np.full(gnd + 1, -1)
    unknown[interior] = np.arange(n_int)
    unknown[term] = n_int + np.arange(n)
    unknown[src] = n_int + n + np.arange(n)

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


class CrossbarSystem:
    """Port admittance of one tile's parasitic network.

    Only ground is pinned. The n sources and the n sense terminals (the
    ports) are unknowns tied to ground through ``g_max``, and they are
    eliminated last, so the trailing (2n)^2 blocks of the tile's LU
    factorization multiply to the network Kron-reduced to its ports.
    Its source columns Y, L's trailing block times the source columns of
    U's, give the current to inject at each port to hold the sources at v
    and the sense terminals at 0 V. The sense currents are -Y_sense v, so
    G_eff = -Y_sense^T. A system keeps Y and the tile, nothing of the size
    of its factors: ``__init__`` factorizes once and drops the factors,
    and ``solve`` returns the currents without a triangular solve. A
    SolveResult holds its system until its node voltages are first read;
    that read factorizes the network again, with the same options, so the
    factors are bit for bit those of the build. The node merging, branch
    list, elimination order and matrix pattern are built once per
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
        n = params.n
        size = topo.indptr.size - 1
        if size == 2 * n:
            # every node merged into a port: the network is ideal
            self._port_y = None
            return
        lu = self._factorize()
        first = size - 2 * n
        tail = np.arange(first, size)
        if not (np.array_equal(lu.perm_c[first:], tail)
                and np.array_equal(lu.perm_r[first:], tail)):
            raise RuntimeError("the factorization did not eliminate the ports last")
        self._port_y = lu.L[first:, first:].toarray() @ lu.U[first:, first + n:].toarray()

    def _factorize(self):
        """SuperLU factors of the tile's nodal matrix."""
        topo = self._topo
        size = topo.indptr.size - 1
        data = topo.to_data @ np.concatenate([self.g.ravel(), topo.fixed_g])
        A = sp.csc_matrix((data, topo.indices, topo.indptr), shape=(size, size))
        try:
            # symmetric positive definite: diagonal pivots, ports stay last
            return splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                        relax=SPLU_RELAX, panel_size=SPLU_PANEL_SIZE,
                        options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise ValueError(f"singular crossbar network: {exc}") from exc

    def solve(self, v: np.ndarray) -> SolveResult:
        """Sense currents for one input vector, read off the port
        admittance. The result keeps this system and a copy of v, and
        solves its node voltages when they are first read."""
        v = np.array(v, dtype=float)
        n = self.params.n
        if v.shape != (n,):
            raise ValueError(f"input length {v.shape} does not match {n} rows")
        if not np.all(np.isfinite(v)):
            raise ValueError("input voltages must be finite")
        if self._port_y is None:
            return SolveResult(ideal_mac(self.g, v), self, v)
        return SolveResult(-(self._port_y @ v)[:n], self, v)

    def _node_voltages(self, v: np.ndarray):
        """(v_row, v_col) under the input v: the sources held at v and the
        sense terminals at 0 V by the port currents Y v, which take one
        more factorization; an ideal network, every node a port, needs
        none."""
        pot = held = np.concatenate([np.zeros(v.size), v])
        if self._port_y is not None:
            lu = self._factorize()
            rhs = np.zeros(lu.shape[0])
            rhs[-held.size:] = self._port_y @ v
            pot = np.concatenate([lu.solve(rhs)[:-held.size], held])
        return pot[self._topo.row_unknown], pot[self._topo.col_unknown]

    def effective_conductance(self) -> np.ndarray:
        """Input-independent G' with I = G'^T v for every v, read off the
        port admittance without a solve."""
        if self._port_y is None:
            return self.g.copy()
        return -self._port_y[:self.params.n].T

    def kcl_residual(self, v: np.ndarray, result: SolveResult) -> float:
        """Worst, over the interior supernodes, of the net current into the
        node over the sum of g * (|V_a| + |V_b|) over its branches: the
        componentwise (Oettli-Prager) backward error of the node voltages,
        recomputed from individual branch currents. A node that carries no
        current, such as one under a row of 0 S devices, reads the rounding
        of its voltages, not 1."""
        topo = self._topo
        cells = self.g.size
        pot = np.zeros(topo.root.size)
        pot[0:2 * cells:2] = result.v_row.ravel()
        pot[1:2 * cells:2] = result.v_col.ravel()
        pot[2 * cells:2 * cells + self.params.n] = np.asarray(v, dtype=float)
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


def _lines(dev: np.ndarray, wire: float, end: float, at: int):
    """Diagonal and off-diagonal of tridiagonal lines along the last axis
    of ``dev``, each node's device conductance: every node is joined to
    its neighbours by ``wire`` and the node at ``at`` to its port by
    ``end``. off[..., t] couples nodes t and t + 1 and is 0 at a line's
    end; it is the same for every tile."""
    off = np.full(dev.shape[1:], -wire)
    off[..., -1] = 0.0
    diag = dev - off
    diag[..., 1:] -= off[..., :-1]
    diag[..., at] += end
    return diag, off


def _line_product(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The lines' matrix times x, line by line along the last axis."""
    q = diag * x
    q[..., 1:] += off[..., :-1] * x[..., :-1]
    q[..., :-1] += off[..., :-1] * x[..., 1:]
    return q


def _lapack_off(l: np.ndarray) -> np.ndarray:
    """Lines' off-diagonal, laid end to end, as LAPACK's ``dpt*`` routines
    take it: one shorter than the diagonal, but one long where there is
    one unknown, as f2py's bounds ask."""
    return l.reshape(-1)[:max(l.size - 1, 1)]


def _line_factors(diag: np.ndarray, off: np.ndarray):
    """LDL^T factors (d, l) of the lines by ``dpttrf``, laid end to end:
    off is 0 at every line's end, so l is too, and the lines stay
    independent under ``dpttrs``."""
    l = np.broadcast_to(off, diag.shape).copy()
    d, e, _ = dpttrf(diag.ravel(), _lapack_off(l))
    l.reshape(-1)[:-1] = e[:l.size - 1]
    return d.reshape(diag.shape), l


def _line_solve(d: np.ndarray, l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve every line's system for the right-hand side r, of d's shape."""
    x, _ = dpttrs(d.ravel(), _lapack_off(l), r.reshape(-1, 1))
    return x.reshape(d.shape)


def _cg_tiles(g: np.ndarray, params: CrossbarParams, v: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Sense currents of the tiles g (k, n, n) under input v by
    preconditioned conjugate gradients on the column nodes, in one numpy
    batch, written to the rows of ``out`` (k, n); returns the indices of
    the tiles not converged within ``CG_MAX_ITERATIONS``, whose rows it
    leaves as they were.

    The row nodes of a tile, row by row, and its column nodes, column by
    column, each form tridiagonal lines: D_r, with the sources held at v
    through the drivers, and D_c, with the sense terminals at 0 V. The
    devices couple row node (i, j) with column node (i, j) alone, a
    diagonal G. Every row line is eliminated exactly, and CG runs on the
    Schur complement S = D_c - G D_r^-1 G, preconditioned by D_c: one
    product with S is one row-line solve and elementwise products, and
    the row voltages are one row-line solve from the column ones. Solved
    on both node sets at once, the system is two-cyclic, and CG would
    zero one set's residual each step and need twice the iterations
    (Hageman and Young, Applied Iterative Methods, 1981). A tile takes
    part only in elementwise operations, line solves and sums over its
    own axis, and leaves the batch once converged, so its currents do
    not depend on the other tiles."""
    k, _, n = g.shape
    g_t = np.ascontiguousarray(g.transpose(0, 2, 1))
    diag_r, off_r = _lines(g, 1.0 / params.r_wire_row, 1.0 / params.r_driver, 0)
    diag_c, off_c = _lines(g_t, 1.0 / params.r_wire_col, 1.0 / params.r_sense, -1)
    d_r, l_r = _line_factors(diag_r, off_r)
    d_c, l_c = _line_factors(diag_c, off_c)
    b_r = np.zeros((n, n))
    b_r[:, 0] = np.asarray(v, dtype=float) / params.r_driver

    def schur_product(p):       # over the live tiles
        coupled = _line_solve(d_r, l_r, g * p.transpose(0, 2, 1))
        return _line_product(diag_c, off_c, p) - g_t * coupled.transpose(0, 2, 1)

    def converged(r, x, diag):
        return np.all((np.abs(r) <= CG_TOL * (diag * np.abs(x))).reshape(len(x), -1), axis=1)

    def dot(a, b):
        return np.add.reduce((a * b).reshape(len(a), -1), axis=1)

    live = np.arange(k)
    x = np.zeros_like(g_t)
    r = g_t * _line_solve(d_r, l_r, np.broadcast_to(b_r, g.shape)).transpose(0, 2, 1)
    p = _line_solve(d_c, l_c, r)
    rz = dot(r, p)
    for _ in range(CG_MAX_ITERATIONS):
        q = schur_product(p)
        alpha = (rz / dot(p, q))[:, None, None]
        x += alpha * p
        r -= alpha * q
        done = converged(r, x, diag_c)
        if done.any():
            # the recurred residual drifts from the true one: recover the
            # row voltages, confirm on the whole network's true residual,
            # and go on from the column nodes' where it fails
            xd = x[done]
            fed = b_r + g[done] * xd.transpose(0, 2, 1)
            x_r = _line_solve(d_r[done], l_r[done], fed)
            r_r = fed - _line_product(diag_r[done], off_r, x_r)
            r[done] = (g_t[done] * x_r.transpose(0, 2, 1)
                       - _line_product(diag_c[done], off_c, xd))
            done[done] = (converged(r_r, x_r, diag_r[done])
                          & converged(r[done], xd, diag_c[done]))
            out[live[done]] = x[done, :, -1] / params.r_sense
            keep = ~done
            live, x, r, p, rz = live[keep], x[keep], r[keep], p[keep], rz[keep]
            g, g_t, diag_r, diag_c, d_r, l_r, d_c, l_c = (
                a[keep] for a in (g, g_t, diag_r, diag_c, d_r, l_r, d_c, l_c))
            if not live.size:
                break
        z = _line_solve(d_c, l_c, r)
        rz_next = dot(r, z)
        p = z + (rz_next / rz)[:, None, None] * p
        rz = rz_next
    return live


def _sense_currents(g: np.ndarray, params: CrossbarParams, v: np.ndarray) -> np.ndarray:
    """Sense currents (k, n) of every tile of g (k, n, n) under one input
    v: ``CrossbarSystem(tile, params).solve(v).currents``, to within the
    accuracy of ``CG_TOL``, by ``_cg_tiles`` on chunks of at most
    ``CG_CHUNK_UNKNOWNS`` unknowns, and exactly that for every tile CG
    does not solve. A network with a zero-ohm parasitic merges nodes and
    has no wire lines, so CG solves none of its tiles."""
    currents = np.empty(g.shape[:2])
    unsolved = range(len(g))
    if min(params.r_driver, params.r_wire_row, params.r_wire_col, params.r_sense) > 0:
        chunk = max(1, CG_CHUNK_UNKNOWNS // (2 * params.n ** 2))
        unsolved = [start + t for start in range(0, len(g), chunk)
                    for t in _cg_tiles(g[start:start + chunk], params, v,
                                       currents[start:start + chunk])]
    for t in unsolved:
        currents[t] = CrossbarSystem(g[t], params).solve(v).currents
    return currents


def apply_device_variation(g: np.ndarray, sigma_dev: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Multiplicative Gaussian device variation, truncated at +-3 sigma.

    Each entry becomes G_ij * (1 + eps_ij) with eps_ij ~ N(0, sigma^2)
    redrawn while outside [-3 sigma, 3 sigma]; sigma < 1/3 keeps every
    conductance strictly positive. Deterministic for a given generator
    state.
    """
    check_real("sigma_dev", sigma_dev, *_SIGMA_DEV_RANGE)
    g = np.asarray(g, dtype=float)
    if sigma_dev == 0:
        return g.copy()
    eps = rng.normal(0.0, sigma_dev, size=g.shape)
    bad = np.abs(eps) > 3 * sigma_dev
    while bad.any():
        eps[bad] = rng.normal(0.0, sigma_dev, size=int(bad.sum()))
        bad = np.abs(eps) > 3 * sigma_dev
    return g * (1.0 + eps)


def nonideality_factor(i_ideal: np.ndarray, i_nonideal: np.ndarray) -> np.ndarray:
    """Per-column NF = (I_ideal - I_nonideal) / I_ideal, of one tile's
    currents (n,) or of any stack of them (..., n).

    A column with |I_ideal| < DEFAULT_NF_EPSILON has no NF: it reads NaN.
    """
    i_ideal = np.asarray(i_ideal, dtype=float)
    i_nonideal = np.asarray(i_nonideal, dtype=float)
    if i_ideal.shape != i_nonideal.shape or i_ideal.ndim == 0:
        raise ValueError(f"current arrays must have one shape of at least one "
                         f"axis, got {i_ideal.shape} vs {i_nonideal.shape}")
    keep = ~(np.abs(i_ideal) < DEFAULT_NF_EPSILON)
    nf = np.full(i_ideal.shape, np.nan)
    nf[keep] = (i_ideal[keep] - i_nonideal[keep]) / i_ideal[keep]
    return nf
