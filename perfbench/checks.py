"""Correctness checks that need no stored reference, and the per-run
fingerprint of simulated statistics.

The checks hold for any dataset, model or seed, so a later change to
either cannot break them: Kirchhoff's current law on the solved network
(as a backward error, see kcl_backward_error), linearity (G_eff^T v
equals a direct solve), exact zeros for pruned and padded weights, and the
bitwise ideal limit with every parasitic at 0 ohm.
"""

from __future__ import annotations

import numpy as np

from xbarprune import circuit, mapping, pruning

from .workloads import CheckedLayer

KCL_BACKWARD_TOL = 1e-12   # about 4500 units of double rounding
GEFF_REL_TOL = 1e-9


class CheckLog:
    """Counts attempted checks and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, message: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def kcl_backward_error(g: np.ndarray, params, v: np.ndarray,
                       result: circuit.SolveResult) -> float:
    """Worst, over the internal nodes, of the net current into the node
    over the sum of g * (|V_a| + |V_b|) over the node's branches.

    Below this share, the solved voltages satisfy KCL exactly on a network
    whose every conductance and source is off by at most that share (the
    Oettli-Prager componentwise backward error). The topology is rebuilt
    here from circuit's documented model, not taken from the solver, and
    the sums run in long double. Needs every parasitic resistance > 0.
    """
    ld = np.longdouble
    vr, vc, v = result.v_row.astype(ld), result.v_col.astype(ld), np.asarray(v, ld)
    net_r, den_r = np.zeros_like(vr), np.zeros_like(vr)
    net_c, den_c = np.zeros_like(vc), np.zeros_like(vc)

    def branch(gb, pa, pb, a, b):
        """Current gb * (pa - pb) leaves node views a and enters b; a
        pinned end is None."""
        cur, mag = gb * (pa - pb), gb * (np.abs(pa) + np.abs(pb))
        for end, sign in ((a, -1), (b, 1)):
            if end is not None:
                net, den = end
                net += sign * cur
                den += mag

    gw_row, gw_col = ld(1) / ld(params.r_wire_row), ld(1) / ld(params.r_wire_col)
    branch(np.asarray(g, ld), vr, vc, (net_r, den_r), (net_c, den_c))
    branch(gw_row, vr[:, :-1], vr[:, 1:], (net_r[:, :-1], den_r[:, :-1]),
           (net_r[:, 1:], den_r[:, 1:]))
    branch(gw_col, vc[:-1], vc[1:], (net_c[:-1], den_c[:-1]), (net_c[1:], den_c[1:]))
    branch(ld(1) / ld(params.r_driver), v, vr[:, 0], None, (net_r[:, 0], den_r[:, 0]))
    branch(ld(1) / ld(params.r_sense), vc[-1], ld(0), (net_c[-1], den_c[-1]), None)
    tiny = np.finfo(float).tiny
    return float(max(np.max(np.abs(net_r) / np.maximum(den_r, tiny)),
                     np.max(np.abs(net_c) / np.maximum(den_c, tiny))))


def layer_tiles(layer: CheckedLayer) -> list[np.ndarray]:
    """The layer's padded n x n weight tiles, built with the public API."""
    n = layer.n
    if isinstance(layer.compaction, pruning.SegmentPacking):
        tiles = []
        for _, _, rows, cols in layer.compaction.tiles:
            tile = np.zeros((n, n))
            tile[:rows.size, :cols.size] = layer.w[np.ix_(rows, cols)]
            tiles.append(tile)
        return tiles
    mat = layer.w if layer.compaction is None else layer.compaction.apply(layer.w)
    if layer.order is not None:
        mat, _ = mapping.rearrange_columns(mat, layer.order)
    return mapping.partition(mat, n)[0]


def check_tiles(layers: list[CheckedLayer], seed: int, log: CheckLog) -> dict[str, float]:
    """Check one seeded tile of every layer; returns circuit's own KCL
    residual of each sampled tile by layer key, for the fingerprint."""
    rng = np.random.default_rng([seed, 1])
    kcl = {}
    for layer in layers:
        tiles = layer_tiles(layer)
        tile = tiles[int(rng.integers(len(tiles)))]
        params = circuit.default_params(layer.n)
        w_scale = float(np.max(np.abs(layer.w)))
        g, signs = mapping.weights_to_conductances(tile, w_scale, params)
        g = circuit.apply_device_variation(g, params.sigma_dev, rng)
        system = circuit.CrossbarSystem(g, params)
        v = rng.uniform(0.0, params.v_read, layer.n)
        result = system.solve(v)

        kcl[layer.key] = system.kcl_residual(v, result)
        omega = kcl_backward_error(g, params, v, result)
        log.check(f"{layer.key}: KCL backward error {omega:.3g} > {KCL_BACKWARD_TOL}",
                  omega <= KCL_BACKWARD_TOL)
        g_eff = system.effective_conductance()
        err = (np.max(np.abs(g_eff.T @ v - result.currents))
               / np.max(np.abs(result.currents)))
        log.check(f"{layer.key}: G_eff^T v differs from solve(v) by {err:.3g}",
                  err <= GEFF_REL_TOL)
        decoded = mapping.conductances_to_weights(g_eff, signs, w_scale, params)
        log.check(f"{layer.key}: a pruned or padded weight decoded to non-zero",
                  np.all(decoded[signs == 0] == 0))
        ideal = circuit.default_params(layer.n, r_driver=0.0, r_wire_row=0.0,
                                       r_wire_col=0.0, r_sense=0.0)
        log.check(f"{layer.key}: G_eff with 0-ohm parasitics is not the tile",
                  np.array_equal(circuit.CrossbarSystem(g, ideal).effective_conductance(), g))
    return kcl


def check_outcome(spec, n: int, outcome: dict, log: CheckLog) -> None:
    """Checks on what one timed pass produced."""
    for config in outcome["configs"]:
        unpruned = tiles = 0
        for layer, w in config.weights.items():
            w_ni = outcome["layers"][config.name, layer].w_nonideal
            key = f"{config.name}/{layer}"
            log.check(f"{key}: simulated weights are not finite", np.all(np.isfinite(w_ni)))
            log.check(f"{key}: a pruned weight simulated to non-zero", np.all(w_ni[w == 0] == 0))
            unpruned += pruning.tile_count_unpruned(*w.shape, n)
            tiles += len(outcome["layers"][config.name, layer].record.tile_placements)
        log.check(f"{config.name}: compression_rate disagrees with the simulated tiles",
                  pruning.compression_rate(spec, config.pattern, n) == unpruned / tiles)
    if "w_cut" in outcome:
        (config,) = outcome["configs"]
        trained = config.weights.values()
        log.check("training revived a pruned weight",
                  all(np.all(w[config.pattern.masks[layer] == 0] == 0)
                      for layer, w in config.weights.items()))
        log.check("a WCT weight lies outside [-w_cut, w_cut]",
                  max(np.max(np.abs(w)) for w in trained) <= outcome["w_cut"])
    if "accuracy" in outcome:
        log.check("an accuracy lies outside [0, 1]",
                  all(0.0 <= a <= 1.0 for a in outcome["accuracy"].values()))


def scaled_weight_error(w: np.ndarray, w_nonideal: np.ndarray) -> float:
    """||s w' - w|| / ||w|| at the best global scale s."""
    denom = float(np.vdot(w_nonideal, w_nonideal))
    s = float(np.vdot(w_nonideal, w)) / denom if denom > 0 else 0.0
    return float(np.linalg.norm(s * w_nonideal - w) / np.linalg.norm(w))


def fingerprint(n: int, outcome: dict, kcl: dict[str, float]) -> dict:
    """Simulated statistics of one pass; a speed-only change keeps them
    bit for bit."""
    layers = {}
    for config in outcome["configs"]:
        for layer, w in config.weights.items():
            result = outcome["layers"][config.name, layer]
            nf, w_ni = result.nf.per_column, result.w_nonideal
            tiles = len(result.record.tile_placements)
            layers[f"{config.name}/{layer}"] = {
                "nf_mean": result.nf.mean_nf,
                "nf_p95": float(np.percentile(nf, 95)) if nf.size else None,
                "tiles": tiles,
                "compression_rate": pruning.tile_count_unpruned(*w.shape, n) / tiles,
                "scaled_weight_error": scaled_weight_error(w, w_ni),
                "sign_flips": int(np.count_nonzero((np.sign(w_ni) != np.sign(w)) & (w != 0))),
            }
    out = {"layers": layers, "kcl_worst": kcl}
    for key in ("screen_nf_mean", "accuracy"):
        if key in outcome:
            out[key] = outcome[key]
    return out
