"""The benchmark's correctness checks build each layer's tiles with their
own copy of the layout (perfbench.checks.layer_tiles). Hold that copy to
mapping.partition, so the KCL and G_eff checks sample tiles that are
simulated."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from xbarprune import mapping, nn

ROOT = Path(__file__).resolve().parent.parent

# the tiny model at small tile sizes, as in the benchmark's own tests
SMALL = {
    "sim-n32": {"spec_fn": nn.tiny_model_spec, "n": 8},
    "sim-n128": {"spec_fn": nn.tiny_model_spec, "n": 16},
    "paper-e2e": {"spec_fn": nn.tiny_model_spec, "n": 8, "screen_n": 16,
                  "n_train": 64, "n_test": 32, "epochs": 1},
}


def benchmark_module(name):
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    return importlib.import_module(f"perfbench.{name}")


def test_every_workload_is_covered():
    assert set(benchmark_module("workloads").WORKLOADS) == set(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_benchmark_tiles_are_the_partitioned_tiles(name):
    checks, workloads = benchmark_module("checks"), benchmark_module("workloads")
    workload = workloads.make(name, 0, **SMALL[name])
    layers = workload.checked_layers(workload.setup())
    assert layers
    for layer in layers:
        expected, _ = mapping.partition(layer.w, layer.n, order=layer.order,
                                        compaction=layer.compaction)
        tiles = checks.layer_tiles(layer)
        assert len(tiles) == len(expected), layer.key
        for tile, want in zip(tiles, expected):
            np.testing.assert_array_equal(tile, want, err_msg=layer.key)
