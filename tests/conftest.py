import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xbarprune.circuit import CrossbarParams


@pytest.fixture
def params_16():
    return CrossbarParams(16)


def random_tile(n, seed, g_min=5e-6, g_max=5e-5):
    rng = np.random.default_rng(seed)
    return rng.uniform(g_min, g_max, size=(n, n))
