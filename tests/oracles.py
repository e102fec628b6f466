"""Independent reference implementations used only by the test suite.

These are written against the problem statements, not against the package
internals: the circuit oracle builds the full dense modified-nodal-analysis
system with explicit voltage-source rows and solves it by direct
elimination, the convolution oracle slides kernels with plain loops, and
the network oracle runs a model spec layer by layer on NCHW arrays with
those loops. The segment oracles zero and pack XCS and XRS segments one
at a time, each kind on its own grid.
"""

from __future__ import annotations

import math

import numpy as np


def dense_mna_currents(g, r_driver, r_wire_row, r_wire_col, r_sense, v):
    """Column sense currents of the parasitic crossbar, solved densely.

    Unknowns are all row nodes, all column nodes, the source terminal of
    each row, and one branch current per ideal voltage source. A zero-ohm
    parasitic is a 0 V source with a branch current of its own, as in
    textbook MNA (no node merging here on purpose).
    """
    g = np.asarray(g, dtype=float)
    m, n = g.shape
    assert min(r_driver, r_wire_row, r_wire_col, r_sense) >= 0

    def rnode(i, j):
        return i * n + j

    def cnode(i, j):
        return m * n + i * n + j

    def snode(i):
        return 2 * m * n + i

    n_nodes = 2 * m * n + m
    GROUND = -1
    branches = []       # (a, b, resistance); b may be GROUND
    for i in range(m):
        for j in range(n):
            branches.append((rnode(i, j), cnode(i, j), 1.0 / g[i, j]))
            if j + 1 < n:
                branches.append((rnode(i, j), rnode(i, j + 1), r_wire_row))
            if i + 1 < m:
                branches.append((cnode(i, j), cnode(i + 1, j), r_wire_col))
        branches.append((snode(i), rnode(i, 0), r_driver))
    sense = [len(branches) + j for j in range(n)]
    branches += [(cnode(m - 1, j), GROUND, r_sense) for j in range(n)]
    n_shorts = sum(r == 0 for _, _, r in branches)

    # one current unknown per ideal source: m inputs, then the 0 V shorts
    n_unknowns = n_nodes + m + n_shorts
    A = np.zeros((n_unknowns, n_unknowns))
    rhs = np.zeros(n_unknowns)
    extra = {}
    for k, (a, b, r) in enumerate(branches):
        ends = [(a, 1.0)] + ([(b, -1.0)] if b != GROUND else [])
        if r == 0:
            # current x[u] flows a -> b through the short, and V_a - V_b = 0
            u = extra[k] = n_nodes + m + len(extra)
            for node, sign in ends:
                A[node, u] += sign
                A[u, node] += sign
        else:
            for p, sp in ends:
                for q, sq in ends:
                    A[p, q] += sp * sq / r

    # ideal source fixing each source terminal: extra current unknown plus
    # the V(s_i) = v_i constraint row
    for i in range(m):
        k = n_nodes + i
        A[snode(i), k] += 1.0
        A[k, snode(i)] += 1.0
        rhs[k] = v[i]

    x = np.linalg.solve(A, rhs)
    return np.array([x[extra[k]] if r_sense == 0 else x[cnode(m - 1, j)] / r_sense
                     for j, k in enumerate(sense)])


def direct_conv2d(x, w, stride=1, padding=0):
    """Plain sliding-window convolution (cross-correlation), looped."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n, c_in, h, width = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (width + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for b in range(n):
        for o in range(c_out):
            for y in range(h_out):
                for xx in range(w_out):
                    patch = xp[b, :, y * stride:y * stride + k, xx * stride:xx * stride + k]
                    out[b, o, y, xx] = np.sum(patch * w[o])
    return out


def max_pool2(x):
    """2x2 max pooling with stride 2 on NCHW x, looped; an odd last row or
    column is dropped."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2))
    for b, ch, i, j in np.ndindex(*out.shape):
        out[b, ch, i, j] = max(x[b, ch, 2 * i, 2 * j], x[b, ch, 2 * i, 2 * j + 1],
                               x[b, ch, 2 * i + 1, 2 * j], x[b, ch, 2 * i + 1, 2 * j + 1])
    return out


def network_forward(layers, weights, x):
    """Logits of a layer stack on NCHW images x: direct_conv2d, elementwise
    ReLU, max_pool2, and dense layers on the activations flattened in
    (C, H, W) order. `layers` are nn layer specs, `weights` the trainable
    weights in layer order (conv (out, in, k, k), dense (in, out))."""
    x = np.asarray(x, dtype=float)
    weights = iter(weights)
    for spec in layers:
        kind = type(spec).__name__
        if kind == "ConvSpec":
            x = direct_conv2d(x, next(weights), spec.stride, spec.pad())
        elif kind == "ReluSpec":
            x = np.maximum(x, 0.0)
        elif kind == "PoolSpec":
            x = max_pool2(x)
        elif kind == "DenseSpec":
            x = x.reshape(x.shape[0], -1) @ next(weights)
        else:
            raise ValueError(f"unknown layer spec {spec!r}")
    return x


def numeric_gradient(loss_fn, w, indices, h=1e-6):
    """Central finite differences of loss_fn with respect to w at the given
    flat indices; w is modified in place and restored."""
    flat = w.reshape(-1)
    grads = np.zeros(len(indices))
    for pos, idx in enumerate(indices):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        grads[pos] = (up - down) / (2 * h)
    return grads


def segment_mask(rows, cols, n, s, rng, kind):
    """Zero floor(s * count) length-n segments drawn by rng. Segments are
    numbered row-major on the kind's own grid: (row block, column) for
    "xcs", (row, column block) for "xrs"."""
    mask = np.ones((rows, cols))
    grid_cols = cols if kind == "xcs" else math.ceil(cols / n)
    count = (math.ceil(rows / n) if kind == "xcs" else rows) * grid_cols
    for seg in rng.choice(count, size=math.floor(s * count), replace=False):
        i, j = divmod(int(seg), grid_cols)
        if kind == "xcs":
            mask[i * n:(i + 1) * n, j] = 0.0
        else:
            mask[i, j * n:(j + 1) * n] = 0.0
    return mask


def segment_packing(mask, n, kind):
    """(row_block, col_block, rows, cols) of every packed tile: "xcs" packs
    the surviving columns of each row block left to right, "xrs" the
    surviving rows of each column block top to bottom."""
    rows, cols = mask.shape
    tiles = []
    if kind == "xcs":
        for rb in range(math.ceil(rows / n)):
            block = np.arange(rb * n, min(rows, (rb + 1) * n))
            surv = [c for c in range(cols) if mask[block, c].any()]
            for t in range(math.ceil(len(surv) / n)):
                tiles.append((rb, t, block, np.array(surv[t * n:(t + 1) * n])))
    else:
        for cb in range(math.ceil(cols / n)):
            block = np.arange(cb * n, min(cols, (cb + 1) * n))
            surv = [r for r in range(rows) if mask[r, block].any()]
            for t in range(math.ceil(len(surv) / n)):
                tiles.append((t, cb, np.array(surv[t * n:(t + 1) * n]), block))
    return tiles
