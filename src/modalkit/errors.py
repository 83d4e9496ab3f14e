"""Exception hierarchy shared across the package.

Everything raised on purpose derives from ModalkitError so callers can
catch the whole family at a process boundary (the CLI maps them to exit
codes) without swallowing genuine bugs.
"""

from __future__ import annotations


class ModalkitError(Exception):
    """Base class for all deliberate failures."""


# --- meta-response protocol ---------------------------------------------


class MetaError(ModalkitError):
    """Base for wire-format failures."""


class MalformedMeta(MetaError):
    """Input deviates from the canonical meta-response form."""


class EmptyMeta(MetaError):
    """Parsed meta-response carries no text and no invocations."""


class PromptTooLong(MetaError):
    """An invocation prompt exceeds the byte cap."""


class InvariantViolation(MetaError):
    """In-memory object violates its own structural invariants."""


# --- model zoo -----------------------------------------------------------


class DuplicateName(ModalkitError):
    """A backend name was registered twice."""


class RegistryFinalized(ModalkitError):
    """Mutation attempted after finalize()."""


class UnknownModelKind(ModalkitError):
    """No registered backend serves the requested model kind."""


# --- numerics ------------------------------------------------------------


class ShapeMismatch(ModalkitError):
    pass


class ModalityMismatch(ModalkitError):
    pass


class EmptyInput(ModalkitError):
    """encode was handed zero bytes."""


class BadMagic(ModalkitError):
    """Embedding file does not start with the expected magic."""


class DimMismatch(ModalkitError):
    """Declared embedding dimension disagrees with the payload."""


class NotNormalized(ModalkitError):
    """Stored embedding is too far from unit norm to repair."""


class DivergenceDetected(ModalkitError):
    """Training loss went non-finite."""


class InvalidArgument(ModalkitError):
    """A caller-supplied value is out of range or names a path that cannot be used."""


# --- instruction generation ----------------------------------------------


class EmptyBundle(ModalkitError):
    """Query bundle is missing a required section."""


class InsufficientCandidates(ModalkitError):
    """No candidate description available for a needed modality."""


class MalformedLine(ModalkitError):
    """A dataset line could not be interpreted; carries the line number."""

    def __init__(self, lineno: int, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class TransportError(ModalkitError):
    """Chat transport failed after exhausting retries."""


class FixtureMiss(ModalkitError):
    """Replay fixture holds no (more) responses for a request."""


# --- pipeline / config ----------------------------------------------------


class InstructionRequired(ModalkitError):
    """Request instruction is empty."""


class AttachmentMissing(ModalkitError):
    """Request references an attachment file that does not exist."""


class ConfigError(ModalkitError):
    """Configuration failed to parse or validate."""
