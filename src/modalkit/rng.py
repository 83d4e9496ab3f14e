"""Pinned hash and PRNG primitives.

Placeholder media and the embedding stub must produce identical bytes on
every platform, so the hash (FNV-1a 64) and the generator (splitmix64)
are written out here instead of leaning on hash() or random.

splitmix64 (Steele, Lea & Flood, OOPSLA 2014) keeps its state as
seed + k*gamma mod 2^64 after k draws, so SplitMix64.bytes and
unit_floats compute a whole block of draws as one numpy uint64
expression.  The block equals k scalar next_u64 calls byte for byte,
and the stream continues exactly where those calls would leave it.

fnv1a64 hashes inputs of 2 KiB or more in numpy and returns exactly the
value of the byte loop.  One step is h' = (h ^ b) * P mod 2^64.  That
map is a T-function (Klimov & Shamir, "A New Class of Invertible
Mappings", CHES 2002): bit k of h' depends only on bits 0..k of h and b.
So the low byte L of the state evolves on its own, and bit k of the next
L is bit k of (L ^ b) * P.  P is odd, so that bit is bit k of L, xor bit
k of b, xor a carry from bits 0..k-1.  While bits 0..k-1 of L are known
at every position and bits k and up are still zero, bit k of the product
is the flip of L's bit k; at the first byte, where L is known whole, it
is the next L's bit k, which starts the scan.  So bit k over the whole
input is one running xor, and eight passes give L everywhere.  The
running xor packs the bits into uint64 words, takes the prefix inside
each word with shifts of 1, 2, 4, 8, 16 and 32, and carries across words
with one accumulate.  With L known, h ^ b = h + d for d = (L ^ b) - L,
so after m bytes h = h0 * P^m + sum of d_i * P^(m-i) mod 2^64: one
wrapping uint64 dot product against a table of powers of P.  The input
goes through in 64 KiB chunks, carrying h, so temporaries stay under
1 MiB.  Shorter inputs stay on the loop, which is faster below about
2 KiB.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SM_GAMMA = 0x9E3779B97F4A7C15

_FNV_CHUNK = 1 << 16
_FNV_VECTOR_MIN = 1 << 11
_FNV_POWERS = np.full(_FNV_CHUNK, _FNV_PRIME, dtype=np.uint64)
np.multiply.accumulate(_FNV_POWERS, out=_FNV_POWERS)  # P^1 .. P^CHUNK, wrapping


def fnv1a64(data: bytes) -> int:
    """FNV-1a over raw bytes, 64-bit variant."""
    h = _FNV_OFFSET
    if len(data) < _FNV_VECTOR_MIN:
        for b in data:
            h ^= b
            h = (h * _FNV_PRIME) & _MASK
        return h
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, buf.size, _FNV_CHUNK):
        h = _fnv_chunk(h, buf[start : start + _FNV_CHUNK])
    return h


def _fnv_chunk(h: int, data: np.ndarray) -> int:
    """The FNV-1a state after data, starting from h; see the module docstring."""
    m = data.size
    low = np.zeros(m + 1, dtype=np.uint8)  # L before each byte, then after the last
    low[0] = h & 0xFF
    state = low[:-1]
    for k in range(8):
        bit = 1 << k
        flips = state ^ data
        flips *= _FNV_PRIME & 0xFF  # bit k: L's flip, or at byte 0 the next L's bit
        flips &= bit
        run = _xor_scan(flips)
        run *= bit
        low[1:] |= run
    d = (state ^ data).astype(np.uint64)
    d -= state  # wraps mod 2^64 where L ^ b < L
    powers = _FNV_POWERS[m - 1 :: -1]  # P^m .. P^1
    return (h * int(powers[0]) + int(d @ powers)) & _MASK


def _xor_scan(flags: np.ndarray) -> np.ndarray:
    """Running xor of a uint8 array read as bits (nonzero is 1), as 0/1 uint8."""
    n = flags.size
    words = np.zeros(-(-n // 64), dtype="<u8")
    packed = np.packbits(flags, bitorder="little")
    words.view(np.uint8)[: packed.size] = packed
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << np.uint64(shift)
    # bit 63 now holds each word's parity; flip every word after an odd total
    carry = np.bitwise_xor.accumulate(words[:-1] >> np.uint64(63))
    words[1:] ^= np.negative(carry)
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def content_hash(kind: str, prompt: str) -> int:
    """Hash of a generation request: UTF-8 of kind, a NUL, UTF-8 of prompt."""
    return fnv1a64(kind.encode("utf-8") + b"\x00" + prompt.encode("utf-8"))


def _scramble(z: int) -> int:
    # splitmix64 output function, doubles as a general 64-bit finalizer
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _scramble_block(z: np.ndarray) -> np.ndarray:
    # _scramble on a uint64 array; products wrap mod 2^64 like the masks above
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def mix64(*parts: int) -> int:
    """Fold any number of 64-bit values into one seed."""
    acc = _SM_GAMMA
    for p in parts:
        acc = _scramble((acc + (p & _MASK)) & _MASK)
    return acc


class SplitMix64:
    """Tiny deterministic stream; state advances by the golden gamma."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _SM_GAMMA) & _MASK
        return _scramble(self._state)

    def _draw(self, k: int) -> np.ndarray:
        """The next k outputs as one uint64 array: the state ramp
        start + gamma*(1..k), scrambled, then the state moves past it."""
        with np.errstate(over="ignore"):
            ramp = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_SM_GAMMA)
            ramp += np.uint64(self._state)
        self._state = (self._state + k * _SM_GAMMA) & _MASK
        return _scramble_block(ramp)

    def bytes(self, n: int) -> bytes:
        """n bytes: ceil(n/8) draws, each little-endian, the tail cut off."""
        return self._draw(-(-n // 8)).astype("<u8").tobytes()[:n]

    def unit_floats(self, n: int) -> list[float]:
        """n floats in [-1, 1), 2^-63 resolution."""
        # uint64 -> float64 rounds to nearest like int / int does, and
        # dividing by 2^63 is exact, so each value equals the scalar one.
        return (self._draw(n) / float(1 << 63) - 1.0).tolist()
