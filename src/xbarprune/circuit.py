"""Exact resistive-network model of one memristive crossbar tile.

A tile is a plain (n_rows, n_cols) float array of synapse conductances in
siemens. Every cell (i, j) has its own row node and column node joined by
the synapse conductance; row wires run left to right between adjacent row
nodes, column wires top to bottom between adjacent column nodes. Row i is
fed by an ideal source through ``r_driver`` at the left edge, and column j
is read through ``r_sense`` into virtual ground at the bottom edge, so the
sense current of column j is V(bottom column node) / r_sense.

Zero-valued parasitics are handled exactly by merging the nodes that a
zero-ohm segment would join (no epsilon resistances), so the ideal limit
reproduces the plain dot product bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

MAX_TILE_DIM = 1024


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
        if not (1 <= self.n_rows <= MAX_TILE_DIM and 1 <= self.n_cols <= MAX_TILE_DIM):
            raise ValueError(f"tile dimensions must be in 1..{MAX_TILE_DIM}, "
                             f"got {self.n_rows}x{self.n_cols}")
        for name in ("r_driver", "r_wire_row", "r_wire_col", "r_sense"):
            r = getattr(self, name)
            if not (np.isfinite(r) and r >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {r}")
        if not (0 < self.g_min < self.g_max):
            raise ValueError(f"need g_max > g_min > 0, got g_min={self.g_min}, g_max={self.g_max}")
        if not (0 <= self.sigma_dev < 1.0 / 3.0):
            raise ValueError(f"sigma_dev must be in [0, 1/3), got {self.sigma_dev}")
        if not (np.isfinite(self.v_read) and self.v_read > 0):
            raise ValueError(f"v_read must be finite and > 0, got {self.v_read}")

    @property
    def on_off_ratio(self) -> float:
        return self.g_max / self.g_min


def default_params(n_rows: int, n_cols: int | None = None, **overrides) -> CrossbarParams:
    return CrossbarParams(n_rows, n_cols if n_cols is not None else n_rows, **overrides)


@dataclass
class SolveResult:
    """Sense currents plus internal node voltages for one input vector."""

    currents: np.ndarray      # (n_cols,)
    v_row: np.ndarray         # (n_rows, n_cols) row-node voltages
    v_col: np.ndarray         # (n_rows, n_cols) column-node voltages


@dataclass
class NfReport:
    """Per-column non-ideality factor (I_ideal - I_nonideal) / I_ideal."""

    per_column_nf: np.ndarray           # NaN at excluded columns
    mean_nf: float | None               # mean over non-excluded; None if all excluded
    excluded_columns: list[int] = field(default_factory=list)


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


class CrossbarSystem:
    """Assembled and factorized parasitic network for one tile.

    Building the system factorizes the nodal matrix once; ``solve`` and
    ``effective_conductance`` reuse the factorization across right-hand
    sides. Zero-ohm parasitics merge nodes instead of stamping infinite
    conductances, and merged-to-source / merged-to-ground nodes become
    Dirichlet pins eliminated from the unknown set.
    """

    def __init__(self, g: np.ndarray, params: CrossbarParams):
        self.g = _check_tile(g, params)
        self.params = params
        m, n = params.n_rows, params.n_cols
        self._m, self._n = m, n

        mn = m * n
        # Physical node ids: row(i,j)=i*n+j, col(i,j)=mn+i*n+j,
        # source terminal src_i=2mn+i, ground=2mn+m.
        self._n_nodes = 2 * mn + m + 1
        self._gnd = 2 * mn + m
        self._src = 2 * mn + np.arange(m)

        self._root = self._merge_roots()
        self._assemble()

    # -- node bookkeeping ------------------------------------------------

    def _row_ids(self):
        m, n = self._m, self._n
        return (np.arange(m)[:, None] * n + np.arange(n)[None, :])

    def _col_ids(self):
        return self._m * self._n + self._row_ids()

    def _merge_roots(self) -> np.ndarray:
        """Representative node for every physical node after collapsing
        zero-ohm segments."""
        p = self.params
        root = np.arange(self._n_nodes)
        rows = self._row_ids()
        cols = self._col_ids()

        if p.r_wire_row == 0:
            root[rows] = self._src[:, None] if p.r_driver == 0 else rows[:, :1]
        elif p.r_driver == 0:
            root[rows[:, 0]] = self._src

        if p.r_wire_col == 0:
            root[cols] = self._gnd if p.r_sense == 0 else cols[:1, :]
        elif p.r_sense == 0:
            root[cols[-1, :]] = self._gnd
        return root

    def _assemble(self):
        p = self.params
        m, n = self._m, self._n
        rows = self._row_ids()
        cols = self._col_ids()

        # finite branches as (a, b, conductance)
        br_a, br_b, br_g = [], [], []

        def add(a, b, g):
            a = np.asarray(a).ravel()
            br_a.append(a)
            br_b.append(np.asarray(b).ravel())
            br_g.append(np.broadcast_to(np.ravel(np.asarray(g, dtype=float)),
                                        a.shape))

        add(rows, cols, self.g)  # devices
        if p.r_wire_row > 0 and n > 1:
            add(rows[:, :-1], rows[:, 1:], 1.0 / p.r_wire_row)
        if p.r_wire_col > 0 and m > 1:
            add(cols[:-1, :], cols[1:, :], 1.0 / p.r_wire_col)
        if p.r_driver > 0:
            add(self._src, rows[:, 0], 1.0 / p.r_driver)
        if p.r_sense > 0:
            add(cols[-1, :], np.full(n, self._gnd), 1.0 / p.r_sense)

        a = np.concatenate(br_a)
        b = np.concatenate(br_b)
        gbr = np.concatenate(br_g)
        self._branches = (a, b, gbr)

        root = self._root
        ra, rb = root[a], root[b]
        pin_cut = 2 * m * n  # roots >= pin_cut are pinned (sources or ground)

        free_roots = np.unique(np.concatenate([ra[ra < pin_cut], rb[rb < pin_cut]]))
        findex = np.full(self._n_nodes, -1, dtype=np.int64)
        findex[free_roots] = np.arange(free_roots.size)
        self._free_roots = free_roots
        self._findex = findex
        nf = free_roots.size

        ii, jj, vv = [], [], []
        mi, mj, mv = [], [], []  # source-injection matrix entries

        fa, fb = findex[ra], findex[rb]
        a_free, b_free = ra < pin_cut, rb < pin_cut

        both = a_free & b_free
        ii += [fa[both], fb[both], fa[both], fb[both]]
        jj += [fa[both], fb[both], fb[both], fa[both]]
        vv += [gbr[both], gbr[both], -gbr[both], -gbr[both]]

        for free_mask, f_side, pin_side in ((a_free & ~b_free, fa, rb),
                                            (b_free & ~a_free, fb, ra)):
            ii.append(f_side[free_mask])
            jj.append(f_side[free_mask])
            vv.append(gbr[free_mask])
            # pinned neighbors at source potential feed the RHS; ground adds 0
            is_src = free_mask & (pin_side != self._gnd)
            mi.append(f_side[is_src])
            mj.append(pin_side[is_src] - 2 * m * n)
            mv.append(gbr[is_src])

        if nf > 0:
            A = sp.coo_matrix((np.concatenate(vv),
                               (np.concatenate(ii), np.concatenate(jj))),
                              shape=(nf, nf)).tocsc()
            self._inject = sp.coo_matrix((np.concatenate(mv),
                                          (np.concatenate(mi), np.concatenate(mj))),
                                         shape=(nf, m)).tocsc()
            try:
                self._lu = splu(A)
            except RuntimeError as exc:
                raise ValueError(f"singular crossbar network: {exc}") from exc
        else:
            self._lu = None
            self._inject = None

    # -- solving ----------------------------------------------------------

    def _potentials(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Potential of every physical node from free solution x and pins v."""
        pot = np.zeros(self._n_nodes)
        pot[self._src] = v
        if x.size:
            pot[self._free_roots] = x
        return pot[self._root]

    def _currents_from_potentials(self, v: np.ndarray, pot: np.ndarray) -> np.ndarray:
        p = self.params
        m, n = self._m, self._n
        if p.r_sense > 0:
            bottom = self._col_ids()[-1, :]
            return pot[bottom] / p.r_sense
        # columns merged into ground: sum branch currents flowing into the
        # grounded part of each column
        cols = self._col_ids()
        rows = self._row_ids()
        grounded = self._root[cols] == self._gnd
        if grounded.all():
            # fully ideal column side; with ideal rows too this is the exact
            # dot product
            if self._free_roots.size == 0:
                return ideal_mac(self.g, v)
            return np.einsum("ij,ij->j", self.g, pot[rows])
        currents = np.einsum("ij,ij->j", self.g * grounded, pot[rows])
        if p.r_wire_col > 0 and m > 1:
            gw = 1.0 / p.r_wire_col
            upper, lower = cols[:-1, :], cols[1:, :]
            boundary = (self._root[lower] == self._gnd) & (self._root[upper] != self._gnd)
            currents += gw * (boundary.astype(float) * pot[upper]).sum(axis=0)
        return currents

    def solve(self, v: np.ndarray) -> SolveResult:
        """Node voltages and sense currents for one input vector."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self._m,):
            raise ValueError(f"input length {v.shape} does not match {self._m} rows")
        if not np.all(np.isfinite(v)):
            raise ValueError("input voltages must be finite")
        if self._lu is not None:
            x = self._lu.solve(self._inject @ v)
        else:
            x = np.empty(0)
        pot = self._potentials(v, x)
        return SolveResult(
            currents=self._currents_from_potentials(v, pot),
            v_row=pot[self._row_ids()],
            v_col=pot[self._col_ids()],
        )

    def effective_conductance(self) -> np.ndarray:
        """Input-independent G' with I = G'^T v for every v, from one solve
        per row on the shared factorization."""
        p = self.params
        m = self._m
        if self._lu is None:
            # every node pinned: the network is ideal on both sides
            return self.g.copy()
        basis = np.eye(m) * p.v_read
        X = self._lu.solve(self._inject @ basis)
        if X.ndim == 1:
            X = X[:, None]
        if p.r_sense > 0:
            bottom = self._findex[self._root[self._col_ids()[-1, :]]]
            return X[bottom, :].T / (p.r_sense * p.v_read)
        g_eff = np.empty((m, self._n))
        for i in range(m):
            pot = self._potentials(basis[:, i], X[:, i])
            g_eff[i, :] = self._currents_from_potentials(basis[:, i], pot) / p.v_read
        return g_eff

    def kcl_residual(self, v: np.ndarray, result: SolveResult) -> float:
        """Worst relative KCL violation over internal (free) supernodes,
        recomputed from individual branch currents."""
        pot_nodes = np.zeros(self._n_nodes)
        pot_nodes[self._row_ids()] = result.v_row
        pot_nodes[self._col_ids()] = result.v_col
        pot_nodes[self._src] = np.asarray(v, dtype=float)
        a, b, gbr = self._branches
        cur = gbr * (pot_nodes[a] - pot_nodes[b])
        net = np.zeros(self._n_nodes)
        scale = np.zeros(self._n_nodes)
        np.add.at(net, self._root[a], -cur)
        np.add.at(net, self._root[b], cur)
        np.add.at(scale, self._root[a], np.abs(cur))
        np.add.at(scale, self._root[b], np.abs(cur))
        free = self._free_roots
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


def nonideality_factor(i_ideal: np.ndarray, i_nonideal: np.ndarray,
                       epsilon: float = DEFAULT_NF_EPSILON) -> NfReport:
    """Per-column NF = (I_ideal - I_nonideal) / I_ideal.

    Columns with |I_ideal| < epsilon are excluded from the mean and listed;
    if every column is excluded the mean is undefined (None).
    """
    i_ideal = np.asarray(i_ideal, dtype=float)
    i_nonideal = np.asarray(i_nonideal, dtype=float)
    if i_ideal.shape != i_nonideal.shape or i_ideal.ndim != 1:
        raise ValueError(f"current vectors must be 1-D and equal length, "
                         f"got {i_ideal.shape} vs {i_nonideal.shape}")
    excluded = np.abs(i_ideal) < epsilon
    nf = np.full(i_ideal.shape, np.nan)
    keep = ~excluded
    nf[keep] = (i_ideal[keep] - i_nonideal[keep]) / i_ideal[keep]
    mean = float(np.mean(nf[keep])) if keep.any() else None
    return NfReport(per_column_nf=nf, mean_nf=mean,
                    excluded_columns=np.flatnonzero(excluded).tolist())
