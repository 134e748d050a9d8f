"""Shared set-up: every tensor `step` returns is validated again.

`step` builds its result unchecked, since a valid tensor stepped by
additions alone cannot go negative. Here, before any test module imports it
by name, `divseq.symbolic.step` and the package's re-export become a wrapper
that rebuilds each result through EdgeTensor(...), which checks j, n, the
grid's shape and the signs; `__wrapped__` is the library's own `step`.
"""

from __future__ import annotations

import functools

import divseq
from divseq import symbolic


@functools.wraps(symbolic.step)
def _revalidated_step(t):
    got = _revalidated_step.__wrapped__(t)
    assert symbolic.EdgeTensor(got.j, got.n, got.counts) == got
    return got


symbolic.step = divseq.step = _revalidated_step
