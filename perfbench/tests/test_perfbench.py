"""The benchmark's own tests, on the tiny model at small tile sizes.

Run with: python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import ROOT

from perfbench import checks, harness, sensitivity, tracing, workloads
from xbarprune import circuit, nn

SMALL = {
    "sim-n32": {"spec_fn": nn.tiny_model_spec, "n": 8},
    "sim-n128": {"spec_fn": nn.tiny_model_spec, "n": 16},
    "paper-e2e": {"spec_fn": nn.tiny_model_spec, "n": 8, "screen_n": 16,
                  "n_train": 64, "n_test": 32, "epochs": 1},
}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)


def small_run(name, trace, seed=3):
    return harness.measure(name, seed, 0.0, trace, **SMALL[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_every_check(name, trace):
    result, record = small_run(name, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == record["checks"]["attempted"] > 0
    assert record["passes"] >= 1
    assert record["env"]["heldout_seed"] != record["env"]["seed"]
    values = {m: v["value"] for m, v in result["metrics"].items()}
    if not trace:
        assert set(values) == set(harness.END_TO_END_UNITS)
        assert all(v > 0 for v in values.values())
    else:
        assert record["missing_stages"] == []
        assert len(record["untraced_pass_s"]) == record["passes"]
        assert all(v is not None for v in values.values())
        assert values["circuit.factorize_ms.count"] > 0
        assert values["circuit.assemble_ms.p50"] < values["circuit.build_ms.p50"]
        assert values["circuit.solves_per_tile"] == 1.0
        called_nn = name == "paper-e2e"
        assert (values["nn.train_s"] > 0) == called_nn
        assert (values["nn.eval_samples_per_s"] > 0) == called_nn


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_fingerprint(name):
    first = small_run(name, False)[1]["fingerprint"]
    second = small_run(name, True)[1]["fingerprint"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_unwrapped_stage_is_missing_not_zero(monkeypatch):
    # as if circuit had renamed its splu import: factorization escapes the wrapper
    monkeypatch.setattr(tracing, "TARGETS",
                        tuple(t for t in tracing.TARGETS if t[1] != "splu"))
    result, record = small_run("sim-n32", True)
    assert record["missing_stages"] == ["circuit.factorize"]
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert values["circuit.factorize_ms.p50"] is None
    assert values["circuit.lu_nnz"] is None
    assert values["circuit.geff_ms.p50"] > 0


def test_sensitivity_times_every_side_of_each_round():
    result = sensitivity.measure("sim-n32", 3, 2, **SMALL["sim-n32"])
    assert result["systems_per_pass"] > 0
    for kinds in result["times"].values():
        assert all(len(v) == 2 and min(v) > 0 for v in kinds.values())
    assert set(result["recovered"]) == {"calibrated", "raw"}


def test_kcl_backward_error_tells_a_solve_from_a_wrong_one():
    rng = np.random.default_rng(0)
    params = circuit.default_params(16)
    g = rng.uniform(params.g_min, params.g_max, (16, 16))
    v = rng.uniform(0.0, params.v_read, 16)
    result = circuit.CrossbarSystem(g, params).solve(v)
    assert checks.kcl_backward_error(g, params, v, result) < 1e-15
    other = circuit.default_params(16, r_wire_row=2.0, r_sense=50.0)
    assert checks.kcl_backward_error(g, other, v, result) > 1e-3
    result.v_col[5, 7] *= 1 + 1e-9
    assert checks.kcl_backward_error(g, params, v, result) > checks.KCL_BACKWARD_TOL


def test_tail_percentile_keeps_ten_samples_above():
    assert tracing.tail_percentile(range(1, 101)) == ("p90", pytest.approx(90.1))
    assert tracing.tail_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-n32",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
