import gc
import tracemalloc
import types
import weakref

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


def ideal_params(n):
    return CrossbarParams(n, sigma_dev=0.0, **IDEAL)


def splu_spy(monkeypatch):
    """Every factorization circuit runs from now on, as (matrix, options,
    factor) in call order."""
    calls = []

    def spy(A, **kwargs):
        lu = spla.splu(A, **kwargs)
        calls.append((A, kwargs, lu))
        return lu

    monkeypatch.setattr(circuit, "splu", spy)
    return calls


# ---------------------------------------------------------------- params


def test_params_defaults_and_ratio():
    p = CrossbarParams(16)
    assert p.g_max > p.g_min > 0
    assert p.g_max / p.g_min == pytest.approx(10.0)
    assert default_params(64).n == 64
    assert default_params(np.int64(8)).n == 8


@pytest.mark.parametrize("kwargs", [
    dict(n=0),
    dict(n=4.0),
    dict(n=np.float64(4)),
    dict(n=True),
    dict(n=2000),
    dict(n=4, r_driver=-1.0),
    dict(n=4, g_min=0.0),
    dict(n=4, g_min=2e-5, g_max=1e-5),
    dict(n=4, g_max=np.inf),
    dict(n=4, g_max=np.nan),
    dict(n=4, g_min=np.inf, g_max=np.inf),
    dict(n=4, sigma_dev=0.4),
    dict(n=4, v_read=0.0),
])
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        CrossbarParams(**kwargs)


def test_params_tile_size_bound():
    # 256 is the largest side measured to fit the per-tile memory budget
    # documented at circuit.MAX_TILE_DIM; only the validator runs here.
    assert CrossbarParams(256).n == 256
    with pytest.raises(ValueError, match="1..256"):
        CrossbarParams(257)


def test_params_take_one_tile_size_and_the_rest_by_keyword():
    # a two-size call must fail, not read its second size as r_driver
    with pytest.raises(TypeError):
        CrossbarParams(5, 7)
    with pytest.raises(TypeError):
        default_params(5, 7)
    assert CrossbarParams(5, r_driver=7.0).r_driver == 7.0


# ------------------------------------------------------------- ideal_mac


def test_ideal_mac_one_cell_ohms_law():
    assert ideal_mac(np.array([[1e-4]]), np.array([1.0]))[0] == 1e-4


def test_ideal_mac_zero_input():
    g = random_tile(5, seed=0)
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
    p = CrossbarParams(1, r_driver=1e3, r_wire_row=0, r_wire_col=0, r_sense=1e3)
    res = CrossbarSystem(np.array([[1e-4]]), p).solve(np.array([1.0]))
    assert res.currents[0] == pytest.approx(1.0 / 12000.0, rel=1e-12)


def test_solve_ideal_limit_matches_ideal_mac():
    g = random_tile(8, seed=1)
    v = np.random.default_rng(2).uniform(0, 1, 8)
    res = CrossbarSystem(g, ideal_params(8)).solve(v)
    np.testing.assert_allclose(res.currents, ideal_mac(g, v), rtol=1e-9)
    # the fully merged network takes the exact dot-product path
    assert np.array_equal(res.currents, ideal_mac(g, v))


def test_solve_matches_dense_oracle_2x2():
    g = np.full((2, 2), 1e-4)
    p = CrossbarParams(2, r_driver=1e3, r_wire_row=100.0, r_wire_col=100.0, r_sense=1e3)
    v = np.ones(2)
    ours = CrossbarSystem(g, p).solve(v).currents
    ref = dense_mna_currents(g, 1e3, 100.0, 100.0, 1e3, v)
    np.testing.assert_allclose(ours, ref, rtol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 8])
def test_solve_matches_dense_oracle_random(n):
    rng = np.random.default_rng(100 + n * 11)
    g = rng.uniform(5e-6, 5e-5, (n, n))
    rd, rr, rc, rs = rng.uniform(1.0, 2e3, 4)
    p = CrossbarParams(n, r_driver=rd, r_wire_row=rr, r_wire_col=rc, r_sense=rs)
    v = rng.uniform(-1, 1, n)
    ours = CrossbarSystem(g, p).solve(v).currents
    ref = dense_mna_currents(g, rd, rr, rc, rs, v)
    np.testing.assert_allclose(ours, ref, rtol=1e-9)


@pytest.mark.parametrize("zero", ["r_driver", "r_wire_row", "r_wire_col", "r_sense"])
def test_solve_single_zero_parasitic_consistent_with_near_zero(zero):
    # merged-node handling of an exactly-zero segment should agree with a
    # vanishingly small but positive one
    g = random_tile(5, seed=3)
    base = dict(r_driver=500.0, r_wire_row=20.0, r_wire_col=20.0, r_sense=500.0)
    v = np.random.default_rng(4).uniform(0, 1, 5)
    exact = CrossbarSystem(g, CrossbarParams(5, **{**base, zero: 0.0})).solve(v).currents
    tiny = CrossbarSystem(g, CrossbarParams(5, **{**base, zero: 1e-5})).solve(v).currents
    np.testing.assert_allclose(exact, tiny, rtol=1e-6)


@pytest.mark.parametrize("tiles", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_batched_sense_currents_match_the_dense_oracle(n, tiles, monkeypatch):
    # every tile converges by conjugate gradients: nothing is factorized.
    # One 1 x 1 tile is one unknown per line solve
    factorized = splu_spy(monkeypatch)
    rng = np.random.default_rng(200 + n * 11)
    rd, rr, rc, rs = rng.uniform(1.0, 2e3, 4)
    p = CrossbarParams(n, r_driver=rd, r_wire_row=rr, r_wire_col=rc, r_sense=rs)
    g = rng.uniform(5e-6, 5e-5, (tiles, n, n))
    v = rng.uniform(0.2, 1.0, n)
    for tile, currents in zip(g, circuit._sense_currents(g, p, v)):
        np.testing.assert_allclose(currents, dense_mna_currents(tile, rd, rr, rc, rs, v),
                                   rtol=1e-9)
    assert factorized == []


def test_solve_rejects_nonfinite_input():
    p = CrossbarParams(2)
    with pytest.raises(ValueError):
        CrossbarSystem(np.full((2, 2), 1e-5), p).solve(np.array([1.0, np.nan]))


def test_solve_rejects_dimension_mismatch():
    p = CrossbarParams(2)
    with pytest.raises(ValueError):
        CrossbarSystem(np.full((2, 3), 1e-5), p).solve(np.ones(2))
    with pytest.raises(ValueError):
        CrossbarSystem(np.full((2, 2), 1e-5), p).solve(np.ones(3))


def test_solve_linearity():
    g = random_tile(8, seed=5)
    p = CrossbarParams(8)
    sys_ = CrossbarSystem(g, p)
    rng = np.random.default_rng(6)
    v1, v2 = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
    a, b = 0.7, -1.3
    lhs = sys_.solve(a * v1 + b * v2).currents
    rhs = a * sys_.solve(v1).currents + b * sys_.solve(v2).currents
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_kcl_residual_small_everywhere():
    for seed, n in enumerate([4, 8, 16]):
        g = random_tile(n, seed=seed)
        p = CrossbarParams(n)
        sys_ = CrossbarSystem(g, p)
        v = np.random.default_rng(seed).uniform(0, 1, n)
        res = sys_.solve(v)
        assert sys_.kcl_residual(v, res) <= 1e-9


def test_kcl_residual_sees_a_perturbed_voltage():
    # beside an all-zero device row, which carries no current
    g = random_tile(7, seed=20)
    g[2, :] = 0.0
    v = np.random.default_rng(19).uniform(0.1, 1.0, 7)
    system = CrossbarSystem(g, CrossbarParams(7))
    result = system.solve(v)
    result.v_col[3, 1] += 1e-6
    assert system.kcl_residual(v, result) > 1e-8


def sense_current(g, p, result):
    """Current into every sense terminal by Ohm's law on the solved node
    voltages: through r_sense, or, at 0 ohm, into the bottom column node
    that merges with the terminal."""
    if p.r_sense > 0:
        return result.v_col[-1] / p.r_sense
    assert np.all(result.v_col[-1] == 0.0)
    return g[-1] * result.v_row[-1] + result.v_col[-2] / p.r_wire_col


@pytest.mark.parametrize("tile", ["random", "all_g_min"])
@pytest.mark.parametrize("r_sense", [circuit.DEFAULT_R_SENSE, 0.0],
                         ids=["default", "zero_sense"])
@pytest.mark.parametrize("n", [16, 32, 40])
def test_solve_currents_match_the_solved_voltages(n, r_sense, tile):
    # the currents come off the port admittance, the voltages from the
    # factors: two routes through the same network
    p = CrossbarParams(n, r_sense=r_sense)
    g = random_tile(n, seed=2 * n) if tile == "random" else np.full((n, n), p.g_min)
    system = CrossbarSystem(g, p)
    for v in (np.full(n, p.v_read), np.random.default_rng(n).uniform(0, p.v_read, n)):
        result = system.solve(v)
        np.testing.assert_allclose(result.currents, sense_current(g, p, result),
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("overrides", [{}, dict(r_sense=0.0), dict(r_driver=0.0)],
                         ids=["default", "zero_sense", "zero_driver"])
def test_voltages_on_demand_equal_a_direct_superlu_solve(overrides, monkeypatch):
    n = 12
    p = CrossbarParams(n, **overrides)
    calls = splu_spy(monkeypatch)
    system = CrossbarSystem(random_tile(n, seed=30), p)
    [(A, options, _)] = calls
    v = np.random.default_rng(31).uniform(0, p.v_read, n)
    result = system.solve(v)
    assert len(calls) == 1          # the currents need no factorization
    # the same matrix factorized here with the circuit's options, fed the
    # port currents that hold the sense terminals at 0 V and the sources at v
    rhs = np.zeros(A.shape[0])
    rhs[-2 * n:] = system._port_y @ v
    pot = spla.splu(A, **options).solve(rhs)
    pot[-2 * n:] = np.concatenate([np.zeros(n), v])
    topo = _topology(p)
    assert np.array_equal(result.v_row, pot[topo.row_unknown])
    assert np.array_equal(result.v_col, pot[topo.col_unknown])
    assert len(calls) == 2 and calls[1][1] == options
    assert np.array_equal(calls[1][0].toarray(), A.toarray())


@pytest.mark.parametrize("p", [CrossbarParams(7), ideal_params(7)],
                         ids=["default", "ideal"])
def test_voltages_are_solved_once_and_kept(p, monkeypatch):
    g = random_tile(7, seed=32)
    v = np.random.default_rng(33).uniform(0.1, 1.0, 7)
    calls = splu_spy(monkeypatch)
    system = CrossbarSystem(g, p)
    built = len(calls)
    result = system.solve(v)
    v_col = result.v_col
    v_row = result.v_row
    assert result.v_col is v_col and result.v_row is v_row
    assert len(calls) == 2 * built  # one more factorization for both arrays, if any
    assert system.kcl_residual(v, result) <= 1e-12
    v_col[3, 1] += 1e-6
    if built:
        assert system.kcl_residual(v, result) > 1e-8
    assert len(calls) == 2 * built
    # a second result of the same system solves its own voltages
    other = system.solve(v)
    assert other.v_col is not v_col
    assert len(calls) == 3 * built


@pytest.mark.parametrize("p", [CrossbarParams(7), ideal_params(7)],
                         ids=["default", "ideal"])
def test_a_result_keeps_its_own_input_and_lets_its_system_go(p):
    g = random_tile(7, seed=36)
    v = np.random.default_rng(37).uniform(0.1, 1.0, 7)
    system = CrossbarSystem(g, p)
    expected = system.solve(v.copy())
    result = system.solve(v)
    v[:] = 0.0
    assert np.array_equal(result.currents, expected.currents)
    assert np.array_equal(result.v_row, expected.v_row)
    assert np.array_equal(result.v_col, expected.v_col)
    alive = weakref.ref(system)
    del system, expected
    assert alive() is None


def reachable(root, stop):
    """Every object reachable from ``root`` through references, not
    entering ``stop``, a type or a module; a function is entered through
    its closure only."""
    seen, found, todo = {id(stop)}, [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("overrides", [{}, dict(r_sense=0.0), dict(r_wire_row=0.0)],
                         ids=["default", "zero_sense", "zero_row_wires"])
def test_a_built_system_keeps_only_port_sized_arrays(overrides):
    n = 40
    p = CrossbarParams(n, **overrides)
    system = CrossbarSystem(random_tile(n, seed=34), p)
    v = np.random.default_rng(35).uniform(0, p.v_read, n)
    result = system.solve(v)
    # the topology is shared by every tile of the same parameters
    for owner in (system, result):
        held = reachable(owner, stop=_topology(p))
        assert not any(isinstance(obj, spla.SuperLU) for obj in held)
        assert max(obj.size for obj in held if isinstance(obj, np.ndarray)) <= 2 * n * n
    result.v_row
    held = reachable(result, stop=_topology(p))
    assert not any(isinstance(obj, spla.SuperLU) for obj in held)
    assert not any(obj is system for obj in held)


def test_empirical_passivity_nonnegative_inputs():
    # IR drop can only lose current for nonnegative inputs
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 17))
        g = rng.uniform(5e-6, 5e-5, (n, n))
        v = rng.uniform(0, 1, n)
        p = CrossbarParams(n)
        nonideal = CrossbarSystem(g, p).solve(v).currents
        ideal = ideal_mac(g, v)
        assert np.all(nonideal <= ideal + 1e-12)
        hits += 1
    assert hits == 100


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_solve_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(1e-6, 1e-4, (n, n))
    rd, rr, rc, rs = rng.uniform(0.5, 5e3, 4)
    v = rng.uniform(-2, 2, n)
    system = CrossbarSystem(g, CrossbarParams(n, r_driver=rd, r_wire_row=rr,
                                              r_wire_col=rc, r_sense=rs))
    ref = dense_mna_currents(g, rd, rr, rc, rs, v)
    np.testing.assert_allclose(system.solve(v).currents, ref, rtol=1e-9, atol=1e-18)
    np.testing.assert_allclose(system.effective_conductance().T @ v, ref,
                               rtol=1e-9, atol=1e-18)


# ------------------------------------- CrossbarSystem.effective_conductance


def test_effective_conductance_ideal_limit():
    g = random_tile(6, seed=7)
    g_eff = CrossbarSystem(g, ideal_params(6)).effective_conductance()
    np.testing.assert_allclose(g_eff, g, rtol=1e-9)


@pytest.mark.parametrize("v_read", [0.3, 0.7])
def test_effective_conductance_ideal_limit_bitwise_for_any_read_voltage(v_read):
    g = random_tile(32, seed=14)
    p = CrossbarParams(32, sigma_dev=0.0, v_read=v_read, **IDEAL)
    assert np.array_equal(CrossbarSystem(g, p).effective_conductance(), g)


def test_effective_conductance_one_cell_series_formula():
    p = CrossbarParams(1, r_driver=1e3, r_wire_row=0, r_wire_col=0, r_sense=1e3)
    g_eff = CrossbarSystem(np.array([[1e-4]]), p).effective_conductance()
    assert g_eff[0, 0] == pytest.approx(1.0 / 12000.0, rel=1e-12)


def test_effective_conductance_reproduces_solver():
    g = random_tile(4, seed=8)
    p = CrossbarParams(4)
    sys_ = CrossbarSystem(g, p)
    g_eff = sys_.effective_conductance()
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(sys_.solve(v).currents, g_eff.T @ v, rtol=1e-9)


def test_effective_conductance_zero_sense_path():
    g = random_tile(3, seed=10)
    p = CrossbarParams(3, r_driver=100.0, r_wire_row=10.0, r_wire_col=10.0, r_sense=0.0)
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


def zero_device_tile():
    """A 7 x 7 tile with 0 S devices, including a whole row and a whole
    column, and an input for it."""
    rng = np.random.default_rng(19)
    g = random_tile(7, seed=20)
    g[rng.random((7, 7)) < 0.3] = 0.0
    g[2, :] = 0.0
    g[:, 4] = 0.0
    return g, rng.uniform(0.1, 1.0, 7)


@ZERO_OHM_PATTERNS
def test_effective_conductance_every_zero_ohm_pattern(zeros):
    # 0 S devices, including a whole row and a whole column: each of these
    # reaches ground only through the tie of its source or sense terminal,
    # and their nodes carry no current, so KCL is measured against voltages
    p = CrossbarParams(7, **zero_ohm_parasitics(zeros))
    g, v = zero_device_tile()
    system = CrossbarSystem(g, p)
    result = system.solve(v)
    np.testing.assert_allclose(system.effective_conductance().T @ v,
                               result.currents, rtol=1e-12, atol=0)
    assert system.kcl_residual(v, result) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 6, 8])
@ZERO_OHM_PATTERNS
def test_elimination_order_covers_every_interior_root_once(n, zeros):
    parasitics = zero_ohm_parasitics(zeros)
    p = CrossbarParams(n, **parasitics)
    topo = _topology(p)
    roots = topo.root[:2 * n * n]           # cell nodes, row and column interleaved
    ids = np.stack([topo.row_unknown, topo.col_unknown], axis=-1).ravel()
    interior = roots < 2 * n * n            # not merged into a port
    n_int = np.unique(roots[interior]).size
    assert topo.indptr.size - 1 == n_int + 2 * n
    assert np.array_equal(np.sort(topo.interior), np.unique(roots[interior]))
    # one unknown per root and one root per unknown; the ports' ids come last
    assert (np.unique(np.stack([roots, ids]), axis=1).shape[1]
            == np.unique(roots).size == np.unique(ids).size)
    assert np.array_equal(np.unique(ids[interior]), np.arange(n_int))
    assert np.all(ids[~interior] >= n_int)
    g = random_tile(n, seed=27)
    ref = np.array([dense_mna_currents(g, v=v, **parasitics) for v in np.eye(n)])
    np.testing.assert_allclose(CrossbarSystem(g, p).effective_conductance(), ref,
                               rtol=1e-9, atol=0)


def test_factorization_fill_of_a_64x64_tile(monkeypatch):
    # nested dissection leaves 296,998 LU non-zeros here; SuperLU's minimum
    # degree order (MMD_AT_PLUS_A) left 374,050
    calls = splu_spy(monkeypatch)
    CrossbarSystem(random_tile(64, seed=11), CrossbarParams(64))
    [(_, _, lu)] = calls
    assert lu.L.nnz + lu.U.nnz <= 1.01 * 296_998


def blocking_cases():
    square = [pytest.param(random_tile(n, seed=40 + n), CrossbarParams(n), id=f"{n}x{n}")
              for n in (1, 2, 7, 32, 40, 64)]
    g_min = CrossbarParams(32).g_min
    zero_ohm = [pytest.param(zero_device_tile()[0],
                             CrossbarParams(7, **zero_ohm_parasitics(zeros)),
                             id=f"zero_devices-zero_ohm:{zeros}") for zeros in range(16)]
    return [*square,
            pytest.param(np.full((32, 32), g_min), CrossbarParams(32), id="all_g_min"),
            *zero_ohm]


@pytest.mark.parametrize("g,p", blocking_cases())
def test_fitted_blocking_matches_superlu_default_blocking(g, p, monkeypatch):
    # the same tile factorized with SuperLU's default relaxed supernodes
    # and panels is the oracle for the blocking fitted to the order
    calls = splu_spy(monkeypatch)
    fitted_splu = circuit.splu

    def default_blocking(A, relax=None, panel_size=None, **kwargs):
        return fitted_splu(A, **kwargs)

    # each result's voltages are read under the blocking its system was
    # built with, as the read factorizes again
    v = np.random.default_rng(46).uniform(0.0, 1.0, p.n)
    fitted = CrossbarSystem(g, p)
    ours = fitted.solve(v)
    ours.v_row
    monkeypatch.setattr(circuit, "splu", default_blocking)
    default = CrossbarSystem(g, p)
    ref = default.solve(v)
    ref.v_row
    blocking = [(kwargs.get("relax"), kwargs.get("panel_size")) for _, kwargs, _ in calls]
    if _topology(p).indptr.size - 1 == 2 * p.n:
        assert blocking == []       # every node merged into a port
    else:
        assert blocking == [(circuit.SPLU_RELAX, circuit.SPLU_PANEL_SIZE)] * 2 + [
            (None, None)] * 2

    def assert_close(actual, desired):
        # relative to the largest entry: a 0 S column reads rounding only
        np.testing.assert_allclose(actual, desired, rtol=1e-9,
                                   atol=1e-9 * np.max(np.abs(desired)))

    assert_close(fitted.effective_conductance(), default.effective_conductance())
    for name in ("currents", "v_row", "v_col"):
        assert_close(getattr(ours, name), getattr(ref, name))


def test_topology_cache_does_not_change_results():
    _topology.cache_clear()
    p = CrossbarParams(6)
    g = random_tile(6, seed=21)
    v = np.random.default_rng(22).uniform(0, 1, 6)
    cold = CrossbarSystem(g, p)
    cold_g_eff, cold_res = cold.effective_conductance(), cold.solve(v)
    CrossbarSystem(random_tile(9, seed=23), CrossbarParams(9))
    CrossbarSystem(random_tile(6, seed=24), CrossbarParams(6, r_sense=0.0))
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
    n = 48
    system = CrossbarSystem(random_tile(n, seed=25), CrossbarParams(n, **overrides))
    tracemalloc.start()
    try:
        system.effective_conductance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n) ** 2


def test_factorization_must_eliminate_ports_last(monkeypatch):
    monkeypatch.setattr(circuit, "splu", lambda A, **_: spla.splu(A, permc_spec="COLAMD"))
    with pytest.raises(RuntimeError, match="ports last"):
        CrossbarSystem(random_tile(8, seed=26), CrossbarParams(8))


def test_effective_conductance_64x64_runtime():
    import time
    g = random_tile(64, seed=11)
    t0 = time.perf_counter()
    g_eff = CrossbarSystem(g, CrossbarParams(64)).effective_conductance()
    elapsed = time.perf_counter() - t0
    assert g_eff.shape == (64, 64)
    assert elapsed < 2.0


# ------------------------------------------------------ device variation


def test_variation_sigma_zero_identity():
    g = random_tile(4, seed=12)
    out = apply_device_variation(g, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, g)
    assert out is not g


def test_variation_deterministic():
    g = random_tile(8, seed=13)
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
    nf = nonideality_factor(i, i.copy())
    assert np.all(nf == 0.0)
    assert not np.isnan(nf).any()


def test_nf_one_cell_series_value():
    nf = nonideality_factor(np.array([1e-4]), np.array([1.0 / 12000.0]))
    assert nf[0] == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_nf_excludes_small_ideal_currents():
    nf = nonideality_factor(np.array([0.0, 1e-4]), np.array([0.0, 9e-5]))
    assert np.isnan(nf).tolist() == [True, False]
    assert nf[1] == pytest.approx(0.1)


def test_nf_all_excluded_reads_nan():
    assert np.isnan(nonideality_factor(np.zeros(3), np.zeros(3))).all()


def test_nf_rejects_length_mismatch():
    with pytest.raises(ValueError):
        nonideality_factor(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        nonideality_factor(np.float64(1e-4), np.float64(9e-5))


def test_a_stack_of_tiles_gives_every_tiles_own_currents_and_nfs():
    # ideal_mac and nonideality_factor on a (2, 3, m, n) stack give each
    # tile's own result bit for bit, NaN columns included
    rng = np.random.default_rng(4)
    g = rng.uniform(5e-6, 5e-5, (2, 3, 16, 16))
    g[1, 2, :, 5] = 0.0
    v = rng.uniform(0.0, 1.0, 16)
    ideal = ideal_mac(g, v)
    non = ideal * rng.uniform(0.5, 1.0, ideal.shape)
    nf = nonideality_factor(ideal, non)
    assert ideal.shape == nf.shape == (2, 3, 16)
    for a in range(2):
        for b in range(3):
            assert ideal[a, b].tobytes() == ideal_mac(g[a, b], v).tobytes()
            assert nf[a, b].tobytes() == nonideality_factor(ideal[a, b], non[a, b]).tobytes()
    assert np.isnan(nf).sum() == 1 and np.isnan(nf[1, 2, 5])


# --------------------------------------------------- qualitative NF trends


def test_nf_grows_with_tile_size_smoke():
    # quick 5-seed version of the size trend; the 20-seed gate lives in
    # the acceptance suite
    means = {}
    for size in (8, 16, 32):
        per_seed = []
        for seed in range(5):
            g = random_tile(size, seed=200 + seed)
            p = CrossbarParams(size, sigma_dev=0.0)
            ideal = ideal_mac(g, np.ones(size))
            non = CrossbarSystem(g, p).solve(np.ones(size)).currents
            per_seed.append(nonideality_factor(ideal, non).mean())
        means[size] = np.mean(per_seed)
    assert means[32] > means[16] > means[8] > 0


def test_nf_drops_with_low_conductance_fraction_smoke():
    p = CrossbarParams(16, sigma_dev=0.0)
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
            per_seed.append(nonideality_factor(ideal, non).mean())
        means.append(np.mean(per_seed))
    assert all(a > b for a, b in zip(means, means[1:]))
