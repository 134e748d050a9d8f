"""The piece cap and the errors of the interval-map oracle, kept apart from
it so that the command line can catch them, and default --piece-cap, without
importing the oracle: `divseq.interval_map` re-exports these very objects."""

from __future__ import annotations

# Iterates of the zigzag maps grow like 3**n pieces; the cap turns runaway
# composition into a clean error at roughly n = 14 instead of an OOM.
DEFAULT_PIECE_CAP = 10_000_000


class PieceCapExceededError(RuntimeError):
    """Composition would produce more linear pieces than the configured cap.

    When raised by `iterates`, `n` is the iterate that would exceed it.
    """

    n: int | None = None


class InfiniteSolutionsError(ArithmeticError):
    """A linear piece coincides with the line being solved against, so the
    solution set is a whole interval rather than a finite set of points."""
