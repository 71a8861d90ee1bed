"""Deterministic random streams.

Every stochastic routine takes an explicit :class:`RandomSource`.  The
stream is counter-based (Philox), so a given seed produces bit-identical
output regardless of platform, run or worker count.  Replicate ``r`` of
seed ``s`` is keyed ``[s, r + 1]`` and the root ``[s, 0]``, so distinct
(seed, replicate) pairs never share a stream, however replicates are
sharded across jobs (Salmon et al., "Parallel random numbers", SC'11).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, _integer

__all__ = ["RandomSource"]

_SEED_MAX = 2**64


class RandomSource:
    """A 64-bit-seeded, counter-based random stream.

    Attributes:
        seed: the seed this source was created with.
        replicate: the replicate index it was spawned for, None for a root.
        gen: the underlying ``numpy.random.Generator`` (Philox).
    """

    __slots__ = ("seed", "replicate", "gen")

    def __init__(self, seed: int):
        seed = _integer("seed", seed)
        if not 0 <= seed < _SEED_MAX:
            raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
        self.seed = seed
        self.replicate = None
        self.gen = np.random.Generator(np.random.Philox(key=self.seed))  # key [seed, 0]

    def spawn(self, index: int) -> "RandomSource":
        """Derive the stream for replicate ``index``, keyed ``[seed, index + 1]``.

        The derivation depends only on (seed, index), never on job layout;
        only a root spawns, so each replicate stream has one name.
        """
        if self.replicate is not None:
            raise ValidationError("a spawned source cannot spawn; spawn from its root")
        index = _integer("replicate index", index)
        if not 0 <= index < _SEED_MAX - 1:
            raise ValidationError(f"replicate index must be in [0, 2^64 - 1), got {index}")
        sub = RandomSource.__new__(RandomSource)
        sub.seed, sub.replicate = self.seed, index
        sub.gen = np.random.Generator(np.random.Philox(key=self.seed + ((index + 1) << 64)))
        return sub

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, replicate={self.replicate})"
