"""Seeded random-number management.

Every stochastic component (traffic generators, topology generators)
draws from a named stream derived from one master seed,
so adding a new consumer never perturbs the draws seen by existing ones —
a requirement for reproducible experiments and regression tests.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np


def _derive(master_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def spawn_seed(master_seed: int, *key: object) -> int:
    """Derive a 63-bit child seed from a master seed and a spawn key.

    The spawn key is a tuple of ints/strings identifying the child
    deterministically — for a parameter sweep, ``(job_index,)``.  The
    derivation is a pure function of ``(master_seed, key)``: it does not
    depend on process state, call order, or which worker runs the job,
    so sweep results are independent of worker scheduling.  Different
    keys give statistically independent seeds (SHA-256 avalanche), and
    child seeds never collide with :class:`RngRegistry` stream seeds
    (distinct derivation tags).
    """
    tag = "spawn:" + ":".join(repr(part) for part in key)
    digest = hashlib.sha256(f"{master_seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngRegistry:
    """A registry of independent, named random streams.

    Examples
    --------
    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("traffic")
    >>> b = rngs.stream("traffic")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        self._np_streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stdlib stream named ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive(self.seed, name))
        return self._streams[name]

    def np_stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the NumPy generator named ``name``."""
        if name not in self._np_streams:
            self._np_streams[name] = np.random.default_rng(_derive(self.seed, name))
        return self._np_streams[name]

    def reset(self) -> None:
        """Re-seed every existing stream back to its initial state."""
        for name in list(self._streams):
            self._streams[name] = random.Random(_derive(self.seed, name))
        for name in list(self._np_streams):
            self._np_streams[name] = np.random.default_rng(_derive(self.seed, name))
