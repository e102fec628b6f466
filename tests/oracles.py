"""Independent reference implementations used only by the test suite.

These are written against the problem statements, not against the package
internals: the circuit oracle builds the full dense modified-nodal-analysis
system with explicit voltage-source rows and solves it by direct
elimination, the convolution oracle slides kernels with plain loops, and
the network oracle runs a model spec layer by layer on NCHW arrays with
those loops.
"""

from __future__ import annotations

import numpy as np


def dense_mna_currents(g, r_driver, r_wire_row, r_wire_col, r_sense, v):
    """Column sense currents of the parasitic crossbar, solved densely.

    Unknowns are all row nodes, all column nodes, the source terminal of
    each row, and one branch current per ideal voltage source. Requires
    strictly positive parasitics (no node merging here on purpose).
    """
    g = np.asarray(g, dtype=float)
    m, n = g.shape
    assert min(r_driver, r_wire_row, r_wire_col, r_sense) > 0

    def rnode(i, j):
        return i * n + j

    def cnode(i, j):
        return m * n + i * n + j

    def snode(i):
        return 2 * m * n + i

    n_nodes = 2 * m * n + m
    n_unknowns = n_nodes + m  # plus one current unknown per source
    A = np.zeros((n_unknowns, n_unknowns))
    rhs = np.zeros(n_unknowns)

    def stamp(a, b, resistance):
        cond = 1.0 / resistance
        A[a, a] += cond
        A[b, b] += cond
        A[a, b] -= cond
        A[b, a] -= cond

    def stamp_to_ground(a, resistance):
        A[a, a] += 1.0 / resistance

    for i in range(m):
        for j in range(n):
            stamp(rnode(i, j), cnode(i, j), 1.0 / g[i, j])
            if j + 1 < n:
                stamp(rnode(i, j), rnode(i, j + 1), r_wire_row)
            if i + 1 < m:
                stamp(cnode(i, j), cnode(i + 1, j), r_wire_col)
        stamp(snode(i), rnode(i, 0), r_driver)
    for j in range(n):
        stamp_to_ground(cnode(m - 1, j), r_sense)

    # ideal source fixing each source terminal: extra current unknown plus
    # the V(s_i) = v_i constraint row
    for i in range(m):
        k = n_nodes + i
        A[snode(i), k] += 1.0
        A[k, snode(i)] += 1.0
        rhs[k] = v[i]

    x = np.linalg.solve(A, rhs)
    return np.array([x[cnode(m - 1, j)] / r_sense for j in range(n)])


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
