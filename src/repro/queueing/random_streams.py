"""Seeded random-variate streams for the discrete-event simulator.

Each stochastic element of the simulation (per-source packet spacing jitter,
service-time variation) draws from its own named stream so that changing one
element's randomness does not perturb the others -- the standard
common-random-numbers discipline for comparing protocol variants.

The module also provides the project's canonical *child-seed derivation*
helpers.  Anything that splits work across shards or worker processes
(:func:`repro.stochastic.run_ensemble`, the :mod:`repro.runner` job matrix)
derives per-shard seeds here, via :class:`numpy.random.SeedSequence` spawn
keys rather than naive ``seed + i`` arithmetic, so child streams are
statistically independent and reproducible regardless of execution order or
process boundaries.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "BufferedJitter",
    "RandomStreams",
    "child_seed_sequence",
    "child_seed_sequences",
    "derive_child_seed",
]

SpawnKeyElement = Union[int, str]


def _stable_name_key(name: str) -> int:
    """Map a stream/shard name to a stable 32-bit integer.

    Uses SHA-256 rather than the built-in ``hash`` so the mapping is identical
    across processes and interpreter runs (``hash(str)`` is salted per
    process, which would silently break cross-process reproducibility).
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _normalise_spawn_key(key: Sequence[SpawnKeyElement]) -> Tuple[int, ...]:
    elements = []
    for element in key:
        if isinstance(element, bool) or not isinstance(element, (int, str)):
            raise ConfigurationError(
                f"spawn-key elements must be ints or strings, got {element!r}")
        if isinstance(element, str):
            elements.append(_stable_name_key(element))
        else:
            if element < 0:
                raise ConfigurationError(
                    f"integer spawn-key elements must be non-negative, "
                    f"got {element}")
            elements.append(int(element))
    return tuple(elements)


def child_seed_sequence(master_seed: int,
                        key: Sequence[SpawnKeyElement] = ()
                        ) -> np.random.SeedSequence:
    """Return the :class:`~numpy.random.SeedSequence` child for *key*.

    The child is identified by its spawn key, so ``child_seed_sequence(s,
    (2,))`` is the same stream whether or not siblings ``(0,)`` and ``(1,)``
    were ever created -- derivation is order-independent by construction.
    String key elements are allowed and hashed stably.
    """
    if master_seed < 0:
        raise ConfigurationError("master seed must be non-negative")
    return np.random.SeedSequence(int(master_seed),
                                  spawn_key=_normalise_spawn_key(key))


def child_seed_sequences(master_seed: int, n_children: int,
                         key: Sequence[SpawnKeyElement] = ()
                         ) -> List[np.random.SeedSequence]:
    """Return *n_children* sibling seed sequences under a common prefix key.

    Child ``i`` has spawn key ``key + (i,)``; it depends only on the master
    seed and its own index, never on how many siblings exist or in which
    order they are instantiated.
    """
    if n_children < 1:
        raise ConfigurationError("n_children must be at least 1")
    prefix = tuple(key)
    return [child_seed_sequence(master_seed, prefix + (index,))
            for index in range(n_children)]


def derive_child_seed(master_seed: int,
                      key: Sequence[SpawnKeyElement] = ()) -> int:
    """Derive one deterministic 63-bit integer child seed for *key*."""
    state = child_seed_sequence(master_seed, key).generate_state(2, np.uint32)
    return (int(state[0]) | (int(state[1]) << 32)) & (2 ** 63 - 1)


class BufferedJitter:
    """Per-packet jitter factors served from block-refilled uniform draws.

    ``Generator.uniform(low, high, n)`` consumes the identical bit-stream
    positions as *n* scalar ``uniform(low, high)`` calls, so serving factors
    from a block buffer is bit-identical to the seed's draw-per-packet
    pattern while amortising the numpy call overhead over ``block_size``
    packets.  One instance owns one named stream, so refill timing cannot
    interleave with other consumers.
    """

    __slots__ = ("_generator", "_jitter_fraction", "_block_size", "_buffer",
                 "_index")

    def __init__(self, generator: np.random.Generator,
                 jitter_fraction: float, block_size: int = 256):
        if jitter_fraction <= 0.0:
            raise ConfigurationError("jitter_fraction must be positive")
        if block_size < 1:
            raise ConfigurationError("block_size must be at least 1")
        self._generator = generator
        self._jitter_fraction = float(jitter_fraction)
        self._block_size = int(block_size)
        self._buffer: List[float] = []
        self._index = 0

    def next_factor(self) -> float:
        """The next multiplicative factor ``1 + U(-j, +j)`` as a float."""
        index = self._index
        buffer = self._buffer
        if index >= len(buffer):
            jitter = self._jitter_fraction
            buffer = self._generator.uniform(-jitter, jitter,
                                             self._block_size).tolist()
            self._buffer = buffer
            index = 0
        self._index = index + 1
        return 1.0 + buffer[index]


class RandomStreams:
    """A family of independently seeded :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed.  Each named stream derives its own child seed from the
        master seed and the stream name, so streams are reproducible and
        independent of the order in which they are first requested.
    """

    def __init__(self, seed: int = 12345):
        if seed < 0:
            raise ConfigurationError("seed must be non-negative")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*.

        The child seed is derived with the stable spawn-key scheme of
        :func:`child_seed_sequence`, so the same ``(seed, name)`` pair yields
        the same stream in every process and interpreter run.
        """
        if name not in self._streams:
            child = child_seed_sequence(self._seed, (name,))
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given *mean* from stream *name*."""
        if mean <= 0.0:
            raise ConfigurationError("exponential mean must be positive")
        return float(self.stream(name).exponential(mean))

    def jitter_factors(self, name: str, jitter_fraction: float,
                       block_size: int = 256) -> BufferedJitter:
        """A :class:`BufferedJitter` over stream *name*.

        Its factors are ``1 + U(-jitter_fraction, +jitter_fraction)``, drawn
        from the stream in blocks of *block_size*.
        """
        return BufferedJitter(self.stream(name), jitter_fraction, block_size)
