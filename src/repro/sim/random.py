"""Named, independently seeded random streams for reproducible simulations.

Every stochastic component asks the simulator for a stream by name
(``sim.streams.get("traffic.ftp.fwd")``).  Streams with different names are
statistically independent (seeded via ``numpy.random.SeedSequence`` spawning
keyed on the name), and the *same* name always yields the *same* stream for a
given master seed.  This means adding a new random component never perturbs
the draws seen by existing components — the property that makes A/B ablation
runs comparable.
"""

from __future__ import annotations

import zlib

import numpy as np


class RandomStreams:
    """A registry of named ``numpy.random.Generator`` instances."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed is derived from the master seed and a stable
        hash of the name, so it does not depend on creation order.
        """
        if name not in self._streams:
            name_key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(name_key,))
            self._streams[name] = np.random.Generator(
                np.random.PCG64(sequence))
        return self._streams[name]

    def names(self) -> list[str]:
        """Names of streams created so far, in creation order."""
        return list(self._streams)
