"""Wildcard partial-match queries over tries and a simulated Chord ring.

The library has four layers plus a CLI:

- ``trie``: fixed-depth k-ary tries stored as sorted key arrays.
- ``wildcard``: query patterns with wildcards, the backtracking search that
  answers them, and a brute-force oracle.
- ``analysis``: exact rational evaluation of the per-configuration and
  average step bounds the search obeys.
- ``dht``: a deterministic Chord-style ring with greedy bit-improving
  lookups and a wildcard lookup protocol, with hop accounting.
- ``experiments`` / ``cli``: seeded, reproducible experiment runners with
  CSV/JSON reports.
"""

__version__ = "0.1.0"

from .errors import KeyRangeError, PatternShapeError, SizeLimitError
from .trie import Trie, complete_trie, random_trie
from .wildcard import (
    QueryPattern,
    QueryResult,
    backtracking_query,
    brute_force_query,
    enumerate_configurations,
    sample_configuration,
)
from .analysis import (
    binomial_convolution_identity,
    config_step_bound,
    mean_step_bound,
    mean_step_bound_hypergeometric,
    wildcard_position_pmf,
)
from .dht import (
    ChordNetwork,
    LookupOutcome,
    RingQueryResult,
    build_network,
)

__all__ = [
    "__version__",
    "KeyRangeError",
    "PatternShapeError",
    "SizeLimitError",
    "Trie",
    "complete_trie",
    "random_trie",
    "QueryPattern",
    "QueryResult",
    "backtracking_query",
    "brute_force_query",
    "enumerate_configurations",
    "sample_configuration",
    "binomial_convolution_identity",
    "config_step_bound",
    "mean_step_bound",
    "mean_step_bound_hypergeometric",
    "wildcard_position_pmf",
    "ChordNetwork",
    "LookupOutcome",
    "RingQueryResult",
    "build_network",
]
