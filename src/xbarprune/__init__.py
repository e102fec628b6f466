"""Structure-pruned neural networks on non-ideal memristive crossbars.

Modules
-------
circuit   exact parasitic-network model of one crossbar tile
mapping   weight <-> conductance conversion, tiling, column rearrangement
pruning   structured sparsity masks, compaction transforms, compression rate
nn        minimal trainable CNN with prune-at-init and WCT
_checks   the rules for scalar arguments, shared by the other modules
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
