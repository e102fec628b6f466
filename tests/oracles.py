"""Independent reference implementations used only by the test suite.

These are written against the problem statements, not against the package
internals: the circuit oracle builds the full dense modified-nodal-analysis
system with explicit voltage-source rows and solves it by direct
elimination, the convolution oracle slides kernels with plain loops, and
the network oracle runs a model spec layer by layer on NCHW arrays with
those loops. The conv-block oracles keep an earlier, independent data path
of the channels-last convolution: im2col by `np.pad` and a whole
sliding-window copy, col2im on a padded buffer, and ReLU before an
`np.argmax` max pool, in the order a model spec lists them. The training
oracle runs SGD at full width with the masks multiplied in after every
update, so every weight a mask leaves stays in every GEMM. The segment
oracles zero and pack XCS and XRS segments one at a time, each kind on
its own grid.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def direct_conv2d(x, w, padding):
    """Plain stride-1 sliding-window convolution (cross-correlation) of x
    padded by `padding` zeros on every side, looped."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n, c_in, h, width = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = h + 2 * padding - k + 1
    w_out = width + 2 * padding - k + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for b in range(n):
        for o in range(c_out):
            for y in range(h_out):
                for xx in range(w_out):
                    patch = xp[b, :, y:y + k, xx:xx + k]
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


def conv_matrix(w):
    """An (out, in, k, k) filter bank as the unrolled (in*k*k, out) matrix
    that a conv layer holds: column j is filter j, its rows in (in, kernel
    row, kernel column) order."""
    out_ch, in_ch, k, _ = w.shape
    return w.transpose(1, 2, 3, 0).reshape(in_ch * k * k, out_ch)


def filter_bank(mat, k):
    """Inverse of conv_matrix for a k x k kernel: the (out, in, k, k)
    filter bank of an unrolled (in*k*k, out) matrix."""
    return mat.reshape(-1, k, k, mat.shape[1]).transpose(3, 0, 1, 2)


def native_weights(layers, matrices):
    """network_forward's weights from a net's unrolled matrices in layer
    order: each conv's filter bank, each dense matrix as it is."""
    matrices = iter(matrices)
    out = []
    for spec in layers:
        kind = type(spec).__name__
        if kind == "ConvSpec":
            out.append(filter_bank(next(matrices), spec.kernel))
        elif kind == "DenseSpec":
            out.append(next(matrices))
    return out


def he_normal_init(spec):
    """The initial weights of a model spec: one generator seeded by
    `spec.init_seed` draws standard normals for every trainable layer in
    order, scaled by sqrt(2 / fan_in); conv (out, in, k, k), dense (in, out)."""
    rng = np.random.default_rng(spec.init_seed)
    out = []
    for layer in spec.layers:
        kind = type(layer).__name__
        if kind == "ConvSpec":
            fan_in = layer.in_ch * layer.kernel ** 2
            shape = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)
        elif kind == "DenseSpec":
            fan_in = layer.in_features
            shape = (layer.in_features, layer.out_features)
        else:
            continue
        out.append(rng.standard_normal(shape) * math.sqrt(2.0 / fan_in))
    return out


def im2col_padded(x, window, padding):
    """The stride-1 (kh, kw) windows of a channels-last x (n, h, w, c) as a
    (n*ho*wo, c*kh*kw) matrix, rows in (n, ho, wo) order and columns in
    (channel, window row, window column) order: pad x with np.pad and copy
    its (n, ho, wo, c, kh, kw) window view whole. Returns (cols, ho, wo)."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = sliding_window_view(xp, window, axis=(1, 2))
    ho, wo = win.shape[1], win.shape[2]
    return np.ascontiguousarray(win).reshape(n * ho * wo, -1), ho, wo


def col2im_padded(dcols, x_shape, window, padding, ho, wo):
    """Adjoint of im2col_padded: add the (channel, window row, window
    column) column gradients onto a zero-padded input in (window row,
    window column) order, then crop the padding."""
    n, h, w, c = x_shape
    kh, kw = window
    dxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    d6 = dcols.reshape(n, ho, wo, c, kh, kw)
    for kr in range(kh):
        for kc in range(kw):
            dxp[:, kr:kr + ho, kc:kc + wo] += d6[..., kr, kc]
    return dxp[:, padding:padding + h, padding:padding + w]


def max_pool2_argmax(x):
    """2x2 max pooling, stride 2, of a channels-last x (n, h, w, c) by
    np.argmax over each window's four entries in row-major order (the first
    maximum, or the first NaN); an odd last row or column is dropped.
    Returns (pooled, backward), where backward(dout) routes each gradient
    to the entry picked and +0.0 to the other three."""
    n, h, w, c = x.shape
    ho, wo = h // 2, w // 2
    win = (x[:, :2 * ho, :2 * wo].reshape(n, ho, 2, wo, 2, c)
           .transpose(0, 1, 3, 5, 2, 4).reshape(n, ho, wo, c, 4))
    pick = np.argmax(win, axis=-1)[..., None]
    out = np.take_along_axis(win, pick, axis=-1)[..., 0]

    def backward(dout):
        d = np.zeros(win.shape)
        np.put_along_axis(d, pick, dout[..., None], axis=-1)
        dx = np.zeros(x.shape)
        dx[:, :2 * ho, :2 * wo] = (d.reshape(n, ho, wo, c, 2, 2)
                                   .transpose(0, 1, 4, 2, 5, 3).reshape(n, 2 * ho, 2 * wo, c))
        return dx

    return out, backward


def relu(x):
    """ReLU by cases: x where x > 0 or x is NaN, else a zero with the sign
    of x (so -inf gives -0.0)."""
    return np.where((x > 0) | np.isnan(x), x, np.copysign(0.0, x))


def relu_then_pool(x, dout, pool=True):
    """`relu` and then, if `pool`, max_pool2_argmax, forward and backward on
    a channels-last x; returns (out, dx)."""
    mask = x > 0
    out, back = max_pool2_argmax(relu(x)) if pool else (relu(x), lambda d: d)
    return out, back(dout) * mask


def conv_block(x, w, dout, pool=True):
    """A k x k conv padded by k // 2 -> ReLU (-> 2x2 max pool) block on a
    channels-last x, forward and backward through im2col_padded, one GEMM
    by the (in, k, k)-major unrolled weights, relu_then_pool and
    col2im_padded. Returns (out, dx, grad_w), grad_w shaped like w
    (out, in, k, k)."""
    out_ch, _, k, _ = w.shape
    cols, ho, wo = im2col_padded(x, (k, k), k // 2)
    w_mat = conv_matrix(w)
    y = (cols @ w_mat).reshape(x.shape[0], ho, wo, out_ch)
    out, dy = relu_then_pool(y, dout, pool)
    d2 = dy.reshape(-1, out_ch)
    grad_w = filter_bank(cols.T @ d2, k)
    dx = col2im_padded(d2 @ w_mat.T, x.shape, (k, k), k // 2, ho, wo)
    return out, dx, grad_w


def network_forward(layers, weights, x):
    """Logits of a layer stack on NCHW images x: direct_conv2d padded by
    kernel // 2, elementwise ReLU, max_pool2, and dense layers on the
    activations flattened in (C, H, W) order. `layers` are nn layer specs, `weights` the trainable
    weights in layer order (conv (out, in, k, k), dense (in, out))."""
    x = np.asarray(x, dtype=float)
    weights = iter(weights)
    for spec in layers:
        kind = type(spec).__name__
        if kind == "ConvSpec":
            x = direct_conv2d(x, next(weights), spec.kernel // 2)
        elif kind == "ReluSpec":
            x = np.maximum(x, 0.0)
        elif kind == "PoolSpec":
            x = max_pool2(x)
        elif kind == "DenseSpec":
            x = x.reshape(x.shape[0], -1) @ next(weights)
        else:
            raise ValueError(f"unknown layer spec {spec!r}")
    return x


def masked_sgd(net, dataset, masks, lr, batch_size, epochs, rng, w_cut=None):
    """Minibatch SGD with softmax cross-entropy on `net`, a package
    Network, at full width: project, then for each batch of one permutation
    of the data per epoch, w -= lr * grad and project again. A batch of b
    samples has the gradient of its first ceil(b/2) samples plus that of
    the rest, each from its own forward and backward with the softmax
    gradient divided by b. Projecting clips every weight to
    [-w_cut, w_cut] (unless w_cut is None) and multiplies it by its layer's
    mask; `masks` holds unrolled (fan-in x outputs) masks by layer name,
    the shape of every layer's weights, and a layer without one is
    unpruned. Returns the per-epoch mean losses."""
    def project():
        for name, layer in net.trainable:
            if w_cut is not None:
                layer.w = np.clip(layer.w, -w_cut, w_cut)
            if name in masks:
                layer.w = layer.w * np.asarray(masks[name], dtype=float)

    project()
    losses = []
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            split = math.ceil(idx.size / 2)
            grads = []
            for half in (idx[:split], idx[split:]):
                if not half.size:
                    continue
                labels = dataset.labels[half]
                logits = net.forward(dataset.images[half])
                z = logits - logits.max(axis=1, keepdims=True)
                logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
                total -= logp[np.arange(half.size), labels].sum()
                dlogits = np.exp(logp)
                dlogits[np.arange(half.size), labels] -= 1.0
                net.backward(dlogits / idx.size)
                grads.append([layer.grad_w for _, layer in net.trainable])
            for i, (_, layer) in enumerate(net.trainable):
                layer.w = layer.w - lr * sum(grad[i] for grad in grads)
            project()
        losses.append(total / n)
    return losses


def nearest_rank_cutoff(net, percentile):
    """The nearest-rank percentile of |w| over every trainable weight."""
    v = np.sort(np.abs(np.concatenate([w.ravel() for w in net.unrolled_weights().values()])))
    return float(v[math.ceil(percentile / 100.0 * v.size) - 1])


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
