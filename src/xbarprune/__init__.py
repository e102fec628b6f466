"""Structure-pruned neural networks on non-ideal memristive crossbars.

Modules
-------
circuit   exact parasitic-network model of one crossbar tile
mapping   weight <-> conductance conversion, tiling, column rearrangement
pruning   structured sparsity masks, compaction transforms, compression rate
nn        minimal trainable CNN with prune-at-init and WCT
"""

__version__ = "0.1.0"

from .circuit import (
    CrossbarParams,
    CrossbarSystem,
    NfReport,
    SolveResult,
    apply_device_variation,
    default_params,
    ideal_mac,
    nonideality_factor,
)

__all__ = [
    "CrossbarParams",
    "CrossbarSystem",
    "NfReport",
    "SolveResult",
    "apply_device_variation",
    "default_params",
    "ideal_mac",
    "nonideality_factor",
    "__version__",
]
