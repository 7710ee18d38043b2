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

Normals are Box-Muller over 2n raw draws: u1 = ((output >> 11) + 1) * 2**-53
from the first n, u2 from the next n, and z = sqrt(-2 log u1) * cos(2 pi u2).
`normal_rows` draws them for several streams at once, a cache-sized band of
streams per pass, in place; `Stream.normals` is its one-row case, so both
give the same bits.
"""

from __future__ import annotations

import functools

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
_TWO_PI = 2.0 * np.pi


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; returns `z`."""
    t = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= _U64_MIX1
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= _U64_MIX2
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


# raw draws per pass of `normal_rows`: a band of streams is mixed and
# transformed while it stays in cache
_BAND_DRAWS = 1 << 15


def normal_rows(streams: list[Stream], n: int) -> np.ndarray:
    """One row of n Box-Muller normals per stream, shape (len(streams), n);
    row k is what `streams[k].normals(n)` returns.  Each stream
    consumes exactly 2n raw draws."""
    out = np.empty((len(streams), n))
    # (i + 1) * GOLDEN for i < 2n, the offsets of a stream's next 2n raw
    # draws from its current position: steps[0] offsets its first n draws
    # and steps[1] its next n, so a band's u1 and u2 planes are each one
    # contiguous block
    steps = (np.arange(1, 2 * n + 1, dtype=np.uint64)
             * _U64_GOLDEN).reshape(2, 1, n)
    per_band = max(1, _BAND_DRAWS // (2 * n))
    for lo in range(0, len(streams), per_band):
        band = streams[lo:lo + per_band]
        base = np.array([(st.seed + st.counter * GOLDEN) & MASK64
                         for st in band], dtype=np.uint64)
        for st in band:
            st.counter += 2 * n
        z = _mix64_array(np.add(base[:, None], steps))
        z >>= np.uint64(11)
        # below 2**53, so exact as int64 and as float64
        z = z.view(np.int64)
        u1 = out[lo:lo + len(band)]
        np.add(z[0], 1.0, out=u1)
        u1 *= _TWO_NEG_53
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u2 = np.multiply(z[1], _TWO_NEG_53)
        u2 *= _TWO_PI
        u1 *= np.cos(u2, out=u2)
    return out


# string keys are a small fixed vocabulary ("noise0", "road3", ...), so
# their hashes are kept; integer keys such as training steps are not
@functools.lru_cache(maxsize=1024)
def _hash_str(key: str) -> int:
    h = _FNV_OFFSET
    for b in key.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return mix64(h)


def _hash_key(key: int | str) -> int:
    if isinstance(key, str):
        return _hash_str(key)
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

    def normals(self, n: int) -> np.ndarray:
        """Box-Muller; consumes exactly 2n raw draws."""
        return normal_rows([self], n)[0]

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
