"""Explicit Lipschitz bijections between boolean functions on the Hamming
cube, with exhaustive and statistical verification at desk scale."""

import os
import sys

# Nothing here calls BLAS, so a process that imports cubemorph before numpy
# gets single-threaded OpenBLAS instead of an idle thread pool.  OpenBLAS
# reads the variable once, when numpy loads it; it is then removed, so the
# caller and its subprocesses see the environment they had.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .cube_core import (
    BooleanFunction,
    Point,
    dist,
    flip,
    format_point,
    parse_point,
    random_balanced,
    weight,
)
from .btk_chains import (
    Chain,
    Signature,
    chain_of,
    enumerate_partition,
    hausdorff_chain_distance,
    index_in_chain,
    mark,
    signature,
    signature_distance,
)
from .chain_mappings import dict_to_maj, maj_to_dict, maj_to_xor
from .gf2_maps import SparseGF2Matrix, build_tree_matrix, verify_conditions
from .stretch_metrics import (
    Mapping,
    StretchReport,
    exhaustive_min_avg_stretch,
    is_mapping_between,
    local_search_min_stretch,
    middle_binomial_check,
    stretch_report,
    typical_fraction,
)
from .random_matching import (
    MatchState,
    build_dict_to_random_details,
    build_random_to_random,
    recursion_curve,
    run_matching,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction", "Point", "dist", "flip", "format_point", "parse_point",
    "random_balanced", "weight",
    "Chain", "Signature", "chain_of", "enumerate_partition",
    "hausdorff_chain_distance", "index_in_chain", "mark", "signature",
    "signature_distance",
    "dict_to_maj", "maj_to_dict", "maj_to_xor",
    "SparseGF2Matrix", "build_tree_matrix", "verify_conditions",
    "Mapping", "StretchReport", "exhaustive_min_avg_stretch", "is_mapping_between",
    "local_search_min_stretch", "middle_binomial_check", "stretch_report", "typical_fraction",
    "MatchState", "build_dict_to_random_details", "build_random_to_random",
    "recursion_curve", "run_matching",
]
