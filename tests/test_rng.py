"""Hash and PRNG primitives against reference implementations."""

from __future__ import annotations

import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from conftest import oracle_fnv1a64, oracle_splitmix64_stream
from modalkit.rng import SplitMix64, content_hash, fnv1a64, mix64

# Published FNV-1a 64 test vectors.
KNOWN_FNV = [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
]


def test_fnv_known_vectors():
    for data, expected in KNOWN_FNV:
        assert fnv1a64(data) == expected


@given(st.binary(max_size=200))
def test_fnv_matches_reference(data):
    assert fnv1a64(data) == oracle_fnv1a64(data)


@given(st.integers(min_value=0, max_value=200_000), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_fnv_matches_reference_long(n, seed):
    # Drawing (n, seed) keeps generation cheap at lengths that reach the
    # numpy path and cross several chunk boundaries.
    data = SplitMix64(seed).bytes(n)
    assert fnv1a64(data) == oracle_fnv1a64(data)


def test_fnv_long_input_memory_is_bounded():
    # numpy reports its buffers to tracemalloc.  Hashing in 64 KiB chunks
    # keeps the temporaries under 1 MiB; one pass over the whole MiB
    # would hold about 30.
    data = SplitMix64(1).bytes(1 << 20)
    tracemalloc.start()
    try:
        fnv1a64(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_content_hash_layout():
    # kind and prompt are joined with a NUL, so the pair is unambiguous
    assert content_hash("text-to-image", "cat") == oracle_fnv1a64(b"text-to-image\x00cat")
    assert content_hash("text-to-imag", "ecat") != content_hash("text-to-image", "cat")


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_splitmix_matches_reference(seed):
    stream = SplitMix64(seed)
    got = [stream.next_u64() for _ in range(5)]
    assert got == oracle_splitmix64_stream(seed, 5)


def test_splitmix_bytes_prefix_and_endianness():
    words = oracle_splitmix64_stream(99, 2)
    expected = b"".join(w.to_bytes(8, "little") for w in words)
    assert SplitMix64(99).bytes(16) == expected
    assert SplitMix64(99).bytes(5) == expected[:5]


def test_unit_floats_range_and_determinism():
    values = SplitMix64(7).unit_floats(1000)
    assert all(-1.0 <= v < 1.0 for v in values)
    assert values == SplitMix64(7).unit_floats(1000)


def test_mix64_depends_on_every_part():
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert mix64(a, b) == mix64(a, b)
        if a != b:
            assert mix64(a, b) != mix64(b, a) or (a, b) == (b, a)
    assert mix64(1) != mix64(1, 0)
    assert mix64() == mix64()


def test_mix64_masks_to_64_bits():
    assert 0 <= mix64(2**64 + 5, -1 & (2**64 - 1)) < 2**64


def _scalar_bytes(stream: SplitMix64, n: int) -> bytes:
    out = b""
    while len(out) < n:
        out += stream.next_u64().to_bytes(8, "little")
    return out[:n]


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_block_draws_match_scalar_reference(seed, n):
    # bytes and unit_floats draw a block at once; both must equal the
    # one-draw-at-a-time stream and leave the stream where it would be.
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    assert fast.bytes(n) == _scalar_bytes(slow, n)
    assert fast.next_u64() == slow.next_u64()
    floats = fast.unit_floats(n)
    assert floats == [slow.next_u64() / 2**63 - 1.0 for _ in range(n)]
    assert all(type(v) is float for v in floats)
    assert fast.next_u64() == slow.next_u64()
