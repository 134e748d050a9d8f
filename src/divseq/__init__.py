"""Exact-arithmetic toolkit for dividing formulas n | Q(n).

Four layers: prime-factorization inclusion-exclusion operators (arith),
memoized recurrence families and divisibility-preserving combinators
(sequences), an exact piecewise-linear oracle that recounts everything by
enumeration (interval_map), and an edge-count engine giving a third,
independent computation path (symbolic). The `divseq` command wires them
together.
"""

from .arith import (
    Factorization,
    IntSequence,
    divisibility_check,
    factorize,
    phi1,
    phi2,
)
from .interval_map import (
    DEFAULT_PIECE_CAP,
    InfiniteSolutionsError,
    PieceCapExceededError,
    PLMap,
    antifixed_point_solutions,
    build_gj,
    compose,
    count_antifixed,
    count_fixed,
    fixed_point_solutions,
    is_odd_map,
    iterates,
    load_map_file,
    parse_map_file,
)
from .sequences import (
    MAP_DERIVED_PHI,
    NO_GUARANTEE,
    ODD_MAP_DERIVED_PSI,
    PHI1_CLOSURE,
    LinearRecurrence,
    Sequence,
    TableRangeError,
    constant,
    dilate,
    dilate_odd,
    linear_combine,
    load_table,
    make_theorem4,
    make_theorem5_phi,
    make_theorem5_psi,
    parse_table,
    product,
)
from .symbolic import (
    DEFAULT_WORD_CAP,
    EdgeTensor,
    WordLengthError,
    bucket_interval,
    c_count,
    d_count,
    expand_word,
    initial_tensor,
    label_pair,
    pair_label,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "Factorization", "IntSequence", "factorize", "phi1", "phi2",
    "divisibility_check",
    # sequences
    "Sequence", "LinearRecurrence", "TableRangeError", "make_theorem4",
    "make_theorem5_phi", "make_theorem5_psi", "constant", "linear_combine",
    "dilate", "dilate_odd", "product", "parse_table", "load_table",
    "MAP_DERIVED_PHI", "ODD_MAP_DERIVED_PSI", "PHI1_CLOSURE", "NO_GUARANTEE",
    # interval_map
    "PLMap", "PieceCapExceededError", "InfiniteSolutionsError",
    "DEFAULT_PIECE_CAP", "build_gj", "compose", "iterates",
    "fixed_point_solutions", "antifixed_point_solutions", "count_fixed",
    "count_antifixed", "is_odd_map", "parse_map_file", "load_map_file",
    # symbolic
    "EdgeTensor", "WordLengthError", "DEFAULT_WORD_CAP", "initial_tensor",
    "step", "c_count", "d_count", "expand_word", "label_pair", "pair_label",
    "bucket_interval",
]
