"""Seedable 64-bit generator for stochastic block selection.

The generator is pinned in-repo rather than delegated to numpy so that
stochastic solver traces replay bit-for-bit on any platform and stay
stable across library upgrades.  SplitMix64: the state walks by a fixed
odd constant and each output is a finalizer-mixed copy of the state.

Since the j-th output depends only on seed + j*increment, a run of draws
can be computed at once: :meth:`SplitMix64.randint_below_batch` gives
exactly the values of successive :meth:`SplitMix64.randint_below` calls,
in wrapping uint64 numpy arithmetic, and leaves the state where those
calls would.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic uniform generator over 64-bit integers."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not isinstance(seed, int) or not (0 <= seed <= _MASK64):
            raise ContractViolation("seed must be an integer in [0, 2^64)")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n), free of modulo bias.

        Rejection sampling: draws are discarded while they fall in the
        short tail ``[limit, 2^64)`` with ``limit = 2^64 - (2^64 mod n)``,
        then reduced mod n.  For n far below 2^64 the expected number of
        redraws is negligible.
        """
        limit = _limit(n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint_below_batch(self, n: int, count: int) -> list:
        """The next ``count`` values of :meth:`randint_below` (n), as a list.

        The outputs are mixed as uint64 arrays, whose arithmetic wraps
        modulo 2^64 as the masks above do.  When a draw in the batch falls
        in the rejected tail, the batch is drawn again by the scalar loop,
        so the values and the final state always equal those of ``count``
        randint_below calls.
        """
        limit = _limit(n)
        if not isinstance(count, int) or count < 0:
            raise ContractViolation("count must be a nonnegative integer")
        z = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
             + np.uint64(self.state))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        if limit <= _MASK64 and np.any(z >= np.uint64(limit)):
            return [self.randint_below(n) for _ in range(count)]
        self.state = (self.state + count * _GAMMA) & _MASK64
        return (z % np.uint64(n)).tolist()


def _limit(n: int) -> int:
    # draws at or above this bound are rejected: 2^64 - (2^64 mod n)
    if not isinstance(n, int) or n <= 0:
        raise ContractViolation("n must be a positive integer")
    if n > _MASK64:
        raise ContractViolation("n must fit in 64 bits")
    return (_MASK64 + 1) - ((_MASK64 + 1) % n)
