"""Deterministic random streams for the simulator.

Every stochastic model component (Ethernet backoff, bit-error injection,
workload generators) draws from its own named substream so that adding a
new consumer never perturbs existing experiments — the classic
common-random-numbers discipline for simulation reproducibility.
"""

from __future__ import annotations

__all__ = ["RngRegistry"]


class _Stream:
    """A named Generator built, numpy imported, at its first draw; each
    method is bound onto the handle at its first use, for direct calls."""

    def __init__(self, seed: int, name: str):
        self._key, self._gen = (seed, tuple(name.encode("utf-8"))), None

    def __getattr__(self, attr: str):
        if attr.startswith("_"):       # copy/pickle probes
            raise AttributeError(attr)
        if self._gen is None:
            import numpy as np
            seq = np.random.SeedSequence(self._key[0], spawn_key=self._key[1])
            self._gen = np.random.Generator(np.random.PCG64(seq))
        self.__dict__[attr] = value = getattr(self._gen, attr)
        return value


class RngRegistry:
    """A registry of independent, named ``numpy`` Generators.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("ethernet.backoff")
    >>> b = rngs.stream("link.errors")
    >>> a is rngs.stream("ethernet.backoff")
    True
    """

    def __init__(self, seed: int = 1995):
        self.seed = int(seed)
        self._streams: dict[str, _Stream] = {}

    def stream(self, name: str) -> _Stream:
        """The generator for ``name``, created on first use.

        The substream seed is derived from ``(root seed, name)`` via
        ``numpy``'s SeedSequence spawning, so streams are statistically
        independent and stable across runs and platforms.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = _Stream(self.seed, name)
        return gen

    def reset(self) -> None:
        """Drop all streams; next use re-creates them from scratch."""
        self._streams.clear()
