"""Shared fixtures, hypothesis strategies, and independent oracles.

The oracle helpers here are deliberately written from the format and
algorithm definitions, not by calling into modalkit, so tests compare
two independent routes to the same answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from modalkit.meta import GENERATABLE_MODALITIES, Invocation, MetaResponse, kind_for_modality
from modalkit.zoo import ModelDescriptor, ModelRegistry


# --- independent oracles ------------------------------------------------


def oracle_fnv1a64(data: bytes) -> int:
    """Reference FNV-1a 64, written from the published definition."""
    value = 14695981039346656037  # 0xCBF29CE484222325
    for byte in data:
        value = ((value ^ byte) * 1099511628211) % (2**64)  # prime 0x100000001B3
    return value


def oracle_splitmix64_stream(seed: int, count: int) -> list[int]:
    """Reference splitmix64 outputs, written from the published algorithm."""
    out = []
    state = seed % 2**64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


# --- random meta-response generation (plain random, used by fuzz tests) --


MODALITY_VALUES = tuple(m.value for m in GENERATABLE_MODALITIES)


def random_meta(rng: random.Random, max_invocations: int = 4) -> MetaResponse:
    """A structurally valid MetaResponse with printable text and prompts."""
    n = rng.randint(0, max_invocations)
    text = random_text(rng, allow_empty=n > 0)
    invocations = tuple(
        Invocation(
            f"text-to-{rng.choice(MODALITY_VALUES)}",
            random_text(rng, allow_empty=False, max_len=40),
        )
        for _ in range(n)
    )
    return MetaResponse(text, invocations)


_TEXT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
    ".,:;!?'\"()[]{}\\/\n\t-_=+*&^%$#@~`|<>"
    "éüñ中文日本語한국어🐱🔊🎬"
)


def random_text(rng: random.Random, allow_empty: bool, max_len: int = 60) -> str:
    low = 0 if allow_empty else 1
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(low, max_len)))


# --- hypothesis strategies ------------------------------------------------


def st_prompt(max_size: int = 60) -> st.SearchStrategy[str]:
    return st.text(min_size=1, max_size=max_size).filter(
        lambda s: 1 <= len(s.encode("utf-8")) <= 2048
    )


def st_invocation() -> st.SearchStrategy[Invocation]:
    kinds = st.sampled_from([f"text-to-{v}" for v in MODALITY_VALUES])
    return st.builds(Invocation, model=kinds, prompt=st_prompt())


def st_meta() -> st.SearchStrategy[MetaResponse]:
    def build(text: str, invocations: tuple) -> MetaResponse:
        return MetaResponse(text, invocations)

    with_invocations = st.builds(
        build,
        st.text(max_size=60),
        st.tuples(st_invocation()).flatmap(
            lambda first: st.lists(st_invocation(), max_size=3).map(
                lambda rest: first + tuple(rest)
            )
        ),
    )
    text_only = st.builds(build, st.text(min_size=1, max_size=60), st.just(()))
    return st.one_of(text_only, with_invocations)


# --- registry helpers ------------------------------------------------------


class CountingExecutor:
    """Executor that records every call and returns small deterministic bytes."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.calls: list[tuple[str, int]] = []

    def __call__(self, prompt: str, seed: int) -> bytes:
        self.calls.append((prompt, seed))
        return f"{self.kind}|{prompt}|{seed}".encode("utf-8")


def counting_registry() -> tuple[ModelRegistry, dict[str, CountingExecutor]]:
    """One counting backend per kind, finalized."""
    registry = ModelRegistry()
    executors: dict[str, CountingExecutor] = {}
    for modality in GENERATABLE_MODALITIES:
        kind = kind_for_modality(modality)
        executor = CountingExecutor(kind)
        executors[kind] = executor
        registry.register(ModelDescriptor(f"count-{modality.value}", kind, modality), executor)
    return registry.finalize(), executors


@pytest.fixture
def tmp_workspace(tmp_path):
    return tmp_path / "ws"


# --- hostile JSON ------------------------------------------------------------

# Inputs json.loads rejects with something other than JSONDecodeError:
# nesting deeper than the interpreter stack raises RecursionError, and an
# integer literal past the int-digit limit raises a plain ValueError.
HOSTILE_JSON = {
    "deep_array": "[" * 100_000,
    "deep_invocations": '{"text": "", "invocations": ' + "[" * 5000 + "]" * 5000 + "}",
    "huge_int": "1" * 5000,
}


def over_hostile_json(argname: str):
    """Parametrize a test over HOSTILE_JSON, with short test ids."""
    return pytest.mark.parametrize(argname, list(HOSTILE_JSON.values()), ids=list(HOSTILE_JSON))
