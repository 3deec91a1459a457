"""Deterministic random-number helpers for workload generation.

The benchmark must be reproducible: the same seed must yield the same
stream of materials, steps, attribute values and BLAST hits, so that runs
against different storage managers see *identical* workloads (the paper
runs the same stream against every server version).

``DeterministicRng`` wraps :class:`random.Random` with the domain-specific
draws the generators need, plus named substreams so that adding draws in
one part of the generator does not perturb another.

``dna`` draws its bases in bulk and still consumes exactly the
Mersenne-Twister words a per-base ``random.choice("ACGT")`` loop would.
``choice`` over four items is ``_randbelow(4)``: ``getrandbits(3)``, the
top 3 bits of one 32-bit output, drawn again while it is 4 or more.
``getrandbits(32 * n)`` is the next ``n`` outputs, the first in the least
significant 32 bits.  So each output's top byte, ``to_bytes(4 * n,
"little")[3::4]``, is a base when it is below 128 (its top 3 bits are
0-3) and a rejected draw otherwise.  Asking for exactly as many words as
bases are still missing never draws one the loop would not have drawn:
the loop needs at least one word per base.  The string and the
generator's state afterwards are therefore the loop's, which is what
keeps every later draw, every database byte and every count unchanged.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")

# A word's top byte -> its base: 0-31 A, 32-63 C, 64-95 G, 96-127 T; the
# bytes from 128 up are rejected draws, deleted by the same translate.
_TOP_BYTE_TO_BASE = bytes(b"ACGT"[top >> 5] if top < 128 else 0 for top in range(256))
_REJECTED = bytes(range(128, 256))


class DeterministicRng:
    """Seeded RNG with named, independent substreams.

    >>> rng = DeterministicRng(42)
    >>> a = rng.substream("materials").randint(0, 10)
    >>> b = DeterministicRng(42).substream("materials").randint(0, 10)
    >>> a == b
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        self._substreams: dict[str, DeterministicRng] = {}

    # -- substreams --------------------------------------------------------

    def substream(self, name: str) -> "DeterministicRng":
        """Return a child RNG whose stream depends only on (seed, name)."""
        stream = self._substreams.get(name)
        if stream is None:
            child_seed = random.Random((self.seed, name).__repr__()).getrandbits(64)
            stream = DeterministicRng(child_seed)
            self._substreams[name] = stream
        return stream

    # -- primitive draws ----------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._random.sample(seq, k)

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """One draw from ``items`` with the given relative weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    # -- domain draws -------------------------------------------------------

    def dna(self, length: int) -> str:
        """A random DNA sequence of the given length (the string, and the
        state left behind, of ``length`` draws of ``choice("ACGT")``)."""
        parts: list[bytes] = []
        missing = length
        while missing > 0:
            words = self._random.getrandbits(32 * missing).to_bytes(4 * missing, "little")
            bases = words[3::4].translate(_TOP_BYTE_TO_BASE, _REJECTED)
            parts.append(bases)
            missing -= len(bases)
        return b"".join(parts).decode("ascii")

    def identifier(self, prefix: str, width: int = 6) -> str:
        """A synthetic lab identifier such as ``clone-004217``."""
        return f"{prefix}-{self._random.randrange(10 ** width):0{width}d}"

    def gaussian_int(self, mean: float, stddev: float, minimum: int = 0) -> int:
        """A normally distributed integer, clamped below at ``minimum``."""
        return max(minimum, round(self._random.gauss(mean, stddev)))
