"""Portable deterministic random streams.

Every stochastic choice in the package draws from a `Stream`, a counter-based
SplitMix64 generator.  The full update rule, so that any implementation can
reproduce the exact sequences:

    GOLDEN = 0x9E3779B97F4A7C15
    mix(z):  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2**64)
             z = (z ^ (z >> 27)) * 0x94D049BB133111EB   (mod 2**64)
             return z ^ (z >> 31)

    output_i = mix((seed + (i + 1) * GOLDEN) mod 2**64)      i = 0, 1, 2, ...

Streams are split by key, never by sequential consumption, so sibling
consumers cannot perturb each other:

    child_seed = mix((seed + GOLDEN) mod 2**64  ^  key_hash)

where `key_hash` is mix(key mod 2**64) for integer keys and mix(FNV1a64(key))
for string keys.  Doubles come from the top 53 bits: u = (output >> 11) * 2**-53.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U64_GOLDEN = np.uint64(GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)

_TWO_NEG_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _U64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U64_MIX2
    return z ^ (z >> np.uint64(31))


def _hash_key(key: int | str) -> int:
    if isinstance(key, str):
        h = _FNV_OFFSET
        for b in key.encode("utf-8"):
            h = ((h ^ b) * _FNV_PRIME) & MASK64
        return mix64(h)
    return mix64(key & MASK64)


class Stream:
    """Counter-based SplitMix64 stream with keyed splitting."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & MASK64
        self.counter = counter

    def child(self, key: int | str) -> "Stream":
        """Derive an independent stream; does not advance this one."""
        return Stream(mix64(((self.seed + GOLDEN) & MASK64) ^ _hash_key(key)))

    def u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GOLDEN) & MASK64)

    def u64_array(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64_array(np.uint64(self.seed) + idx * _U64_GOLDEN)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.u64() >> 11) * _TWO_NEG_53
        return low + (high - low) * u

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53
        return low + (high - low) * u

    def normals(self, n: int, scale: float = 1.0) -> np.ndarray:
        """Box-Muller; consumes exactly 2n raw draws."""
        raw = self.u64_array(2 * n)
        u1 = ((raw[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG_53
        u2 = (raw[n:] >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53
        return scale * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def randint(self, n: int) -> int:
        """Integer uniform on [0, n)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return min(int(self.uniform() * n), n - 1)

    def randrange(self, lo: int, hi: int) -> int:
        """Integer uniform on [lo, hi)."""
        return lo + self.randint(hi - lo)

    def poisson(self, lam: float) -> int:
        """Knuth inversion; adequate for the small rates used here."""
        if lam <= 0.0:
            return 0
        limit = float(np.exp(-lam))
        k, p = 0, 1.0
        while True:
            p *= self.uniform()
            if p <= limit:
                return k
            k += 1

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        self.shuffle(order)
        return order
