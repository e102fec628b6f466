import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tile
from oracles import dense_mna_currents
from xbarprune import circuit
from xbarprune.circuit import (
    CrossbarParams,
    CrossbarSystem,
    _topology,
    apply_device_variation,
    default_params,
    ideal_mac,
    nonideality_factor,
)

IDEAL = dict(r_driver=0.0, r_wire_row=0.0, r_wire_col=0.0, r_sense=0.0)


def ideal_params(m, n):
    return CrossbarParams(m, n, sigma_dev=0.0, **IDEAL)


# ---------------------------------------------------------------- params


def test_params_defaults_and_ratio():
    p = CrossbarParams(16, 16)
    assert p.g_max > p.g_min > 0
    assert p.on_off_ratio == pytest.approx(10.0)
    sized = default_params(64)
    assert (sized.n_rows, sized.n_cols) == (64, 64)


@pytest.mark.parametrize("kwargs", [
    dict(n_rows=0, n_cols=4),
    dict(n_rows=4, n_cols=2000),
    dict(n_rows=4, n_cols=4, r_driver=-1.0),
    dict(n_rows=4, n_cols=4, g_min=0.0),
    dict(n_rows=4, n_cols=4, g_min=2e-5, g_max=1e-5),
    dict(n_rows=4, n_cols=4, sigma_dev=0.4),
    dict(n_rows=4, n_cols=4, v_read=0.0),
])
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        CrossbarParams(**kwargs)


def test_params_tile_size_bound():
    # 256 is the largest side measured to fit the per-tile memory budget
    # documented at circuit.MAX_TILE_DIM; only the validator runs here.
    assert CrossbarParams(256, 256).n_rows == 256
    for shape in ((257, 1), (1, 257)):
        with pytest.raises(ValueError, match="1..256"):
            CrossbarParams(*shape)


# ------------------------------------------------------------- ideal_mac


def test_ideal_mac_one_cell_ohms_law():
    assert ideal_mac(np.array([[1e-4]]), np.array([1.0]))[0] == 1e-4


def test_ideal_mac_zero_input():
    g = random_tile(5, 3, seed=0)
    assert np.all(ideal_mac(g, np.zeros(5)) == 0.0)


def test_ideal_mac_column_sums():
    g = np.array([[1e-4, 2e-4], [3e-4, 4e-4]])
    np.testing.assert_allclose(ideal_mac(g, np.ones(2)), [4e-4, 6e-4], rtol=1e-15)


def test_ideal_mac_dimension_mismatch():
    with pytest.raises(ValueError):
        ideal_mac(np.ones((2, 2)), np.ones(3))


# ------------------------------------------------- CrossbarSystem.solve


def test_solve_one_cell_series_resistances():
    # 10 kOhm device + 1 kOhm driver + 1 kOhm sense in series
    p = CrossbarParams(1, 1, r_driver=1e3, r_wire_row=0, r_wire_col=0, r_sense=1e3)
    res = CrossbarSystem(np.array([[1e-4]]), p).solve(np.array([1.0]))
    assert res.currents[0] == pytest.approx(1.0 / 12000.0, rel=1e-12)


def test_solve_ideal_limit_matches_ideal_mac():
    g = random_tile(8, 6, seed=1)
    v = np.random.default_rng(2).uniform(0, 1, 8)
    res = CrossbarSystem(g, ideal_params(8, 6)).solve(v)
    np.testing.assert_allclose(res.currents, ideal_mac(g, v), rtol=1e-9)
    # the fully merged network takes the exact dot-product path
    assert np.array_equal(res.currents, ideal_mac(g, v))


def test_solve_matches_dense_oracle_2x2():
    g = np.full((2, 2), 1e-4)
    p = CrossbarParams(2, 2, r_driver=1e3, r_wire_row=100.0, r_wire_col=100.0, r_sense=1e3)
    v = np.ones(2)
    ours = CrossbarSystem(g, p).solve(v).currents
    ref = dense_mna_currents(g, 1e3, 100.0, 100.0, 1e3, v)
    np.testing.assert_allclose(ours, ref, rtol=1e-9)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (4, 4), (8, 8), (3, 7)])
def test_solve_matches_dense_oracle_random(m, n):
    rng = np.random.default_rng(100 + m * 10 + n)
    g = rng.uniform(5e-6, 5e-5, (m, n))
    rd, rr, rc, rs = rng.uniform(1.0, 2e3, 4)
    p = CrossbarParams(m, n, r_driver=rd, r_wire_row=rr, r_wire_col=rc, r_sense=rs)
    v = rng.uniform(-1, 1, m)
    ours = CrossbarSystem(g, p).solve(v).currents
    ref = dense_mna_currents(g, rd, rr, rc, rs, v)
    np.testing.assert_allclose(ours, ref, rtol=1e-9)


@pytest.mark.parametrize("zero", ["r_driver", "r_wire_row", "r_wire_col", "r_sense"])
def test_solve_single_zero_parasitic_consistent_with_near_zero(zero):
    # merged-node handling of an exactly-zero segment should agree with a
    # vanishingly small but positive one
    g = random_tile(4, 5, seed=3)
    base = dict(r_driver=500.0, r_wire_row=20.0, r_wire_col=20.0, r_sense=500.0)
    v = np.random.default_rng(4).uniform(0, 1, 4)
    exact = CrossbarSystem(g, CrossbarParams(4, 5, **{**base, zero: 0.0})).solve(v).currents
    tiny = CrossbarSystem(g, CrossbarParams(4, 5, **{**base, zero: 1e-5})).solve(v).currents
    np.testing.assert_allclose(exact, tiny, rtol=1e-6)


def test_solve_rejects_nonfinite_input():
    p = CrossbarParams(2, 2)
    with pytest.raises(ValueError):
        CrossbarSystem(np.full((2, 2), 1e-5), p).solve(np.array([1.0, np.nan]))


def test_solve_rejects_dimension_mismatch():
    p = CrossbarParams(2, 2)
    with pytest.raises(ValueError):
        CrossbarSystem(np.full((2, 3), 1e-5), p).solve(np.ones(2))
    with pytest.raises(ValueError):
        CrossbarSystem(np.full((2, 2), 1e-5), p).solve(np.ones(3))


def test_solve_linearity():
    g = random_tile(8, 8, seed=5)
    p = CrossbarParams(8, 8)
    sys_ = CrossbarSystem(g, p)
    rng = np.random.default_rng(6)
    v1, v2 = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
    a, b = 0.7, -1.3
    lhs = sys_.solve(a * v1 + b * v2).currents
    rhs = a * sys_.solve(v1).currents + b * sys_.solve(v2).currents
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_kcl_residual_small_everywhere():
    for seed, (m, n) in enumerate([(4, 4), (8, 8), (16, 16)]):
        g = random_tile(m, n, seed=seed)
        p = CrossbarParams(m, n)
        sys_ = CrossbarSystem(g, p)
        v = np.random.default_rng(seed).uniform(0, 1, m)
        res = sys_.solve(v)
        assert sys_.kcl_residual(v, res) <= 1e-9


def test_kcl_residual_sees_a_perturbed_voltage():
    # beside an all-zero device row, which carries no current
    g = random_tile(5, 7, seed=20)
    g[2, :] = 0.0
    v = np.random.default_rng(19).uniform(0.1, 1.0, 5)
    system = CrossbarSystem(g, CrossbarParams(5, 7))
    result = system.solve(v)
    result.v_col[3, 1] += 1e-6
    assert system.kcl_residual(v, result) > 1e-8


def test_empirical_passivity_nonnegative_inputs():
    # IR drop can only lose current for nonnegative inputs
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        g = rng.uniform(5e-6, 5e-5, (m, n))
        v = rng.uniform(0, 1, m)
        p = CrossbarParams(m, n)
        nonideal = CrossbarSystem(g, p).solve(v).currents
        ideal = ideal_mac(g, v)
        assert np.all(nonideal <= ideal + 1e-12)
        hits += 1
    assert hits == 100


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_solve_oracle_property(m, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(1e-6, 1e-4, (m, n))
    rd, rr, rc, rs = rng.uniform(0.5, 5e3, 4)
    v = rng.uniform(-2, 2, m)
    system = CrossbarSystem(g, CrossbarParams(m, n, r_driver=rd, r_wire_row=rr,
                                              r_wire_col=rc, r_sense=rs))
    ref = dense_mna_currents(g, rd, rr, rc, rs, v)
    np.testing.assert_allclose(system.solve(v).currents, ref, rtol=1e-9, atol=1e-18)
    np.testing.assert_allclose(system.effective_conductance().T @ v, ref,
                               rtol=1e-9, atol=1e-18)


# ------------------------------------- CrossbarSystem.effective_conductance


def test_effective_conductance_ideal_limit():
    g = random_tile(6, 4, seed=7)
    g_eff = CrossbarSystem(g, ideal_params(6, 4)).effective_conductance()
    np.testing.assert_allclose(g_eff, g, rtol=1e-9)


@pytest.mark.parametrize("v_read", [0.3, 0.7])
def test_effective_conductance_ideal_limit_bitwise_for_any_read_voltage(v_read):
    g = random_tile(32, 32, seed=14)
    p = CrossbarParams(32, 32, sigma_dev=0.0, v_read=v_read, **IDEAL)
    assert np.array_equal(CrossbarSystem(g, p).effective_conductance(), g)


def test_effective_conductance_one_cell_series_formula():
    p = CrossbarParams(1, 1, r_driver=1e3, r_wire_row=0, r_wire_col=0, r_sense=1e3)
    g_eff = CrossbarSystem(np.array([[1e-4]]), p).effective_conductance()
    assert g_eff[0, 0] == pytest.approx(1.0 / 12000.0, rel=1e-12)


def test_effective_conductance_reproduces_solver():
    g = random_tile(4, 4, seed=8)
    p = CrossbarParams(4, 4)
    sys_ = CrossbarSystem(g, p)
    g_eff = sys_.effective_conductance()
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(sys_.solve(v).currents, g_eff.T @ v, rtol=1e-9)


def test_effective_conductance_zero_sense_path():
    g = random_tile(3, 3, seed=10)
    p = CrossbarParams(3, 3, r_driver=100.0, r_wire_row=10.0, r_wire_col=10.0, r_sense=0.0)
    sys_ = CrossbarSystem(g, p)
    g_eff = sys_.effective_conductance()
    v = np.array([0.3, -0.2, 0.9])
    np.testing.assert_allclose(sys_.solve(v).currents, g_eff.T @ v, rtol=1e-9)


ZERO_OHM_NAMES = ("r_driver", "r_wire_row", "r_wire_col", "r_sense")
ZERO_OHM_PATTERNS = pytest.mark.parametrize(
    "zeros", range(16), ids=lambda z: "zero:" + "+".join(
        name for bit, name in enumerate(ZERO_OHM_NAMES) if z >> bit & 1) or "none")


def zero_ohm_parasitics(zeros):
    """The parasitics whose bit is set in `zeros` at 0 ohm, the rest positive."""
    positive = dict(r_driver=300.0, r_wire_row=7.0, r_wire_col=9.0, r_sense=500.0)
    return {name: 0.0 if zeros >> bit & 1 else positive[name]
            for bit, name in enumerate(ZERO_OHM_NAMES)}


@ZERO_OHM_PATTERNS
def test_effective_conductance_every_zero_ohm_pattern(zeros):
    # 0 S devices, including a whole row and a whole column: each of these
    # reaches ground only through the tie of its source or sense terminal,
    # and their nodes carry no current, so KCL is measured against voltages
    p = CrossbarParams(5, 7, **zero_ohm_parasitics(zeros))
    rng = np.random.default_rng(19)
    g = random_tile(5, 7, seed=20)
    g[rng.random((5, 7)) < 0.3] = 0.0
    g[2, :] = 0.0
    g[:, 4] = 0.0
    system = CrossbarSystem(g, p)
    v = rng.uniform(0.1, 1.0, 5)
    result = system.solve(v)
    np.testing.assert_allclose(system.effective_conductance().T @ v,
                               result.currents, rtol=1e-12, atol=0)
    assert system.kcl_residual(v, result) <= 1e-12


@pytest.mark.parametrize("m,n", [(1, 7), (7, 1), (5, 8), (8, 5), (6, 6)])
@ZERO_OHM_PATTERNS
def test_elimination_order_covers_every_interior_root_once(m, n, zeros):
    parasitics = zero_ohm_parasitics(zeros)
    p = CrossbarParams(m, n, **parasitics)
    topo = _topology(p)
    roots = topo.root[:2 * m * n]           # cell nodes, row and column interleaved
    ids = np.stack([topo.row_unknown, topo.col_unknown], axis=-1).ravel()
    interior = roots < 2 * m * n            # not merged into a port
    n_int = np.unique(roots[interior]).size
    assert topo.indptr.size - 1 == n_int + m + n
    assert np.array_equal(np.sort(topo.interior), np.unique(roots[interior]))
    # one unknown per root and one root per unknown; the ports' ids come last
    assert (np.unique(np.stack([roots, ids]), axis=1).shape[1]
            == np.unique(roots).size == np.unique(ids).size)
    assert np.array_equal(np.unique(ids[interior]), np.arange(n_int))
    assert np.all(ids[~interior] >= n_int)
    g = random_tile(m, n, seed=27)
    ref = np.array([dense_mna_currents(g, v=v, **parasitics) for v in np.eye(m)])
    np.testing.assert_allclose(CrossbarSystem(g, p).effective_conductance(), ref,
                               rtol=1e-9, atol=0)


def test_factorization_fill_of_a_64x64_tile():
    # nested dissection leaves 296,998 LU non-zeros here; SuperLU's minimum
    # degree order (MMD_AT_PLUS_A) left 374,050
    system = CrossbarSystem(random_tile(64, 64, seed=11), CrossbarParams(64, 64))
    assert system._lu.L.nnz + system._lu.U.nnz <= 1.01 * 296_998


def test_topology_cache_does_not_change_results():
    _topology.cache_clear()
    p = CrossbarParams(6, 5)
    g = random_tile(6, 5, seed=21)
    v = np.random.default_rng(22).uniform(0, 1, 6)
    cold = CrossbarSystem(g, p)
    cold_g_eff, cold_res = cold.effective_conductance(), cold.solve(v)
    CrossbarSystem(random_tile(4, 9, seed=23), CrossbarParams(4, 9))
    CrossbarSystem(random_tile(6, 5, seed=24), CrossbarParams(6, 5, r_sense=0.0))
    warm = CrossbarSystem(g, p)
    assert _topology.cache_info().hits >= 1
    assert np.array_equal(warm.effective_conductance(), cold_g_eff)
    warm_res = warm.solve(v)
    for name in ("currents", "v_row", "v_col"):
        assert np.array_equal(getattr(warm_res, name), getattr(cold_res, name))


@pytest.mark.parametrize("overrides", [{}, dict(r_sense=0.0),
                                       dict(r_driver=0.0, r_wire_row=0.0)],
                         ids=["default", "zero_sense", "ideal_rows"])
def test_effective_conductance_allocates_only_port_sized_arrays(overrides):
    m, n = 48, 40
    system = CrossbarSystem(random_tile(m, n, seed=25), CrossbarParams(m, n, **overrides))
    tracemalloc.start()
    try:
        system.effective_conductance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m + n) ** 2


def test_factorization_must_eliminate_ports_last(monkeypatch):
    monkeypatch.setattr(circuit, "splu", lambda A, **_: spla.splu(A, permc_spec="COLAMD"))
    with pytest.raises(RuntimeError, match="ports last"):
        CrossbarSystem(random_tile(8, 8, seed=26), CrossbarParams(8, 8))


def test_effective_conductance_64x64_runtime():
    import time
    g = random_tile(64, 64, seed=11)
    t0 = time.perf_counter()
    g_eff = CrossbarSystem(g, CrossbarParams(64, 64)).effective_conductance()
    elapsed = time.perf_counter() - t0
    assert g_eff.shape == (64, 64)
    assert elapsed < 2.0


# ------------------------------------------------------ device variation


def test_variation_sigma_zero_identity():
    g = random_tile(4, 4, seed=12)
    out = apply_device_variation(g, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, g)
    assert out is not g


def test_variation_deterministic():
    g = random_tile(8, 8, seed=13)
    a = apply_device_variation(g, 0.1, np.random.default_rng(42))
    b = apply_device_variation(g, 0.1, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_variation_monte_carlo_statistics():
    g = np.full((100, 100), 2e-5)
    out = apply_device_variation(g, 0.1, np.random.default_rng(7))
    ratio = out / g
    assert abs(ratio.mean() - 1.0) < 0.01
    assert abs(ratio.std() - 0.1) < 0.01
    assert np.all(out > 0)
    assert np.all(np.abs(ratio - 1.0) <= 0.3 + 1e-12)


def test_variation_rejects_bad_sigma():
    g = np.full((2, 2), 1e-5)
    with pytest.raises(ValueError):
        apply_device_variation(g, 0.34, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_device_variation(g, -0.1, np.random.default_rng(0))


# --------------------------------------------------------------- NF report


def test_nf_zero_when_equal():
    i = np.array([1e-4, 2e-4])
    rep = nonideality_factor(i, i.copy())
    assert np.all(rep.per_column_nf == 0.0)
    assert rep.mean_nf == 0.0
    assert rep.excluded_columns == []


def test_nf_one_cell_series_value():
    rep = nonideality_factor(np.array([1e-4]), np.array([1.0 / 12000.0]))
    assert rep.mean_nf == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_nf_excludes_small_ideal_currents():
    rep = nonideality_factor(np.array([0.0, 1e-4]), np.array([0.0, 9e-5]),
                             epsilon=1e-12)
    assert rep.excluded_columns == [0]
    assert np.isnan(rep.per_column_nf[0])
    assert rep.mean_nf == pytest.approx(0.1)


def test_nf_all_excluded_mean_undefined():
    rep = nonideality_factor(np.zeros(3), np.zeros(3))
    assert rep.mean_nf is None
    assert rep.excluded_columns == [0, 1, 2]


def test_nf_rejects_length_mismatch():
    with pytest.raises(ValueError):
        nonideality_factor(np.zeros(2), np.zeros(3))


# --------------------------------------------------- qualitative NF trends


def test_nf_grows_with_tile_size_smoke():
    # quick 5-seed version of the size trend; the 20-seed gate lives in
    # the acceptance suite
    means = {}
    for size in (8, 16, 32):
        per_seed = []
        for seed in range(5):
            g = random_tile(size, size, seed=200 + seed)
            p = CrossbarParams(size, size, sigma_dev=0.0)
            ideal = ideal_mac(g, np.ones(size))
            non = CrossbarSystem(g, p).solve(np.ones(size)).currents
            per_seed.append(nonideality_factor(ideal, non).mean_nf)
        means[size] = np.mean(per_seed)
    assert means[32] > means[16] > means[8] > 0


def test_nf_drops_with_low_conductance_fraction_smoke():
    p = CrossbarParams(16, 16, sigma_dev=0.0)
    means = []
    for frac in (0.0, 0.25, 0.5, 0.75):
        per_seed = []
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            g = rng.uniform(p.g_min, p.g_max, (16, 16))
            mask = rng.random((16, 16)) < frac
            g[mask] = p.g_min
            ideal = ideal_mac(g, np.ones(16))
            non = CrossbarSystem(g, p).solve(np.ones(16)).currents
            per_seed.append(nonideality_factor(ideal, non).mean_nf)
        means.append(np.mean(per_seed))
    assert all(a > b for a, b in zip(means, means[1:]))
