"""Language backends: they turn an instruction into a raw meta-response.

The scripted one answers from an ordered rule table so whole-system
behavior is reproducible offline; the external one asks a chat
completion endpoint.  Both are plain text in, text out, so building
one imports no numerics.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chat
from .errors import ConfigError
from .meta import Modality


@dataclass(frozen=True)
class ScriptedRule:
    """First match wins.  A rule with no predicates matches everything."""

    respond: str
    instruction_contains: str | None = None
    attachment_modalities: tuple[Modality, ...] | None = None

    def matches(self, instruction: str, modalities: tuple[Modality, ...]) -> bool:
        if self.instruction_contains is not None:
            if self.instruction_contains.lower() not in instruction.lower():
                return False
        if self.attachment_modalities is not None:
            present = set(modalities)
            if not all(m in present for m in self.attachment_modalities):
                return False
        return True


class ScriptedBackend:
    """Deterministic language backend driven by an ordered rule table."""

    def __init__(self, rules: list[ScriptedRule]) -> None:
        if not rules:
            raise ConfigError("scripted backend needs at least one rule")
        last = rules[-1]
        if last.instruction_contains is not None or last.attachment_modalities is not None:
            raise ConfigError("the final scripted rule must be a catch-all (no predicates)")
        self._rules = list(rules)

    def generate(self, instruction: str, modalities: tuple[Modality, ...]) -> str:
        # the constructor enforces a catch-all, so some rule always matches
        return next(r.respond for r in self._rules if r.matches(instruction, modalities))


class ExternalBackend:
    """Language backend that defers to a chat completion endpoint."""

    def __init__(self, cfg: chat.ChatClientConfig, transport=None) -> None:
        self._cfg = cfg
        self._transport = transport or chat.build_transport(cfg)

    def generate(self, instruction: str, modalities: tuple[Modality, ...]) -> str:
        summary = ", ".join(m.value for m in modalities) or "none"
        prompt = (
            f"Attachments: {summary}\n"
            f"Instruction: {instruction}\n"
            "Reply with one JSON object: "
            '{"text": string, "invocations": [{"model": string, "prompt": string}]}'
        )
        return chat.complete(self._transport, self._cfg, prompt)
