"""Exact-arithmetic toolkit for dividing formulas n | Q(n).

Four layers: prime-factorization inclusion-exclusion operators (arith),
memoized recurrence families and divisibility-preserving combinators
(sequences), an exact piecewise-linear oracle that recounts everything by
enumeration (interval_map), and an edge-count engine giving a third,
independent computation path (symbolic). The `divseq` command wires them
together.
"""

from .arith import *
from .interval_map import *
from .sequences import *
from .symbolic import *

__version__ = "0.1.0"

__all__ = ["__version__", *arith.__all__, *sequences.__all__,
           *interval_map.__all__, *symbolic.__all__]
