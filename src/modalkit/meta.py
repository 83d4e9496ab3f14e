"""Meta-response wire protocol.

A language backend answers every request with a meta-response: free text
plus an ordered list of generator invocations.  The canonical form is a
single-line JSON object:

    {"text": "...", "invocations": [{"model": "text-to-image", "prompt": "..."}]}

Strict parsing accepts only that shape.  Lenient parsing additionally
recovers the tuple-list style some models emit inside prose,

    [("text-to-image", "A photo of a cat"), ]

with one warning per recovered record, and falls back to treating the
whole input as plain text when no structure is found.  Kind strings are
checked syntactically here (text-to-<word>); whether a kind is actually
served is a registry question answered by validate_invocations.

Each rule has one home here: check_prompt is the prompt rule that the
parsers and validate_invocations share, _read_object is the one object
reader behind strict parsing, lenient JSON-object recovery and
serialize_meta_response, and the tuple-list grammar is a handful of
regular patterns.  Its QUOTED and STRING_LIST patterns,
unquote and scan_tuple_lists are public because the dataset reader
recovers the same form from older lines.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass

from .errors import EmptyMeta, InvariantViolation, MalformedMeta, MetaError, PromptTooLong

PROMPT_BYTE_CAP = 2048

MODEL_KIND_RE = re.compile(r"text-to-[a-z]+")


class Modality(enum.Enum):
    TEXT = "text"
    IMAGE = "image"
    AUDIO = "audio"
    VIDEO = "video"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


GENERATABLE_MODALITIES = (Modality.IMAGE, Modality.AUDIO, Modality.VIDEO)

KNOWN_MODEL_KINDS = tuple(f"text-to-{m.value}" for m in GENERATABLE_MODALITIES)


def kind_for_modality(modality: Modality) -> str:
    if modality is Modality.TEXT:
        raise InvariantViolation("no generator kind produces text")
    return f"text-to-{modality.value}"


def modality_for_kind(kind: str) -> Modality:
    for m in GENERATABLE_MODALITIES:
        if kind == f"text-to-{m.value}":
            return m
    raise InvariantViolation(f"not a known model kind: {kind!r}")


@dataclass(frozen=True)
class Invocation:
    """One generator call requested by the language backend."""

    model: str
    prompt: str


@dataclass(frozen=True)
class MetaResponse:
    """Immutable parse result: text plus ordered invocations."""

    text: str = ""
    invocations: tuple[Invocation, ...] = ()


@dataclass(frozen=True)
class ParseDiagnostics:
    mode: str
    warnings: tuple[tuple[int, str], ...] = ()  # (byte offset, message)


@dataclass(frozen=True)
class ValidationIssue:
    """One invocation-level problem found by check_prompt or validate_invocations."""

    code: str  # UnknownModelKind | EmptyPrompt | PromptTooLong | UnpairedSurrogate
    index: int
    message: str

    def __str__(self) -> str:
        return f"{self.code}@{self.index}: {self.message}"


def serialize_meta_response(meta: MetaResponse) -> str:
    """Canonical single-line JSON of a meta-response that strict parsing
    accepts; anything else raises InvariantViolation with the strict reason."""
    payload = {
        "text": meta.text,
        "invocations": [
            {"model": v.model, "prompt": v.prompt} if isinstance(v, Invocation) else None
            for v in meta.invocations
        ],
    }
    try:
        _read_object(payload)
    except MetaError as exc:
        raise InvariantViolation(str(exc)) from None
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def has_lone_surrogate(s: str) -> bool:
    """True when s holds a surrogate code point, the one thing UTF-8 cannot
    encode: a lone \\ud800-style JSON escape, or a byte decoded with surrogateescape."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def check_prompt(prompt, index: int = -1) -> ValidationIssue | None:
    """The prompt rule: None when usable, else an EmptyPrompt issue (a
    non-string counts as empty), an UnpairedSurrogate one, or a
    PromptTooLong one with the UTF-8 byte count."""
    try:
        n = len(prompt.encode("utf-8")) if isinstance(prompt, str) else 0
    except UnicodeEncodeError:
        return ValidationIssue("UnpairedSurrogate", index, "prompt holds an unpaired surrogate")
    if n == 0:
        return ValidationIssue("EmptyPrompt", index, "prompt is empty")
    if n <= PROMPT_BYTE_CAP:
        return None
    return ValidationIssue("PromptTooLong", index, f"prompt is {n} bytes, cap {PROMPT_BYTE_CAP}")


def validate_invocations(meta, registry) -> list[ValidationIssue]:
    """Check every invocation against the prompt rule and the registry.

    Never raises; returns the issues in invocation order, a prompt issue
    before a kind issue.  meta is anything with an invocations sequence
    (a MetaResponse or an InstructionPair); the registry only needs a
    serves_kind(kind) -> bool method.
    """
    issues: list[ValidationIssue] = []
    for i, inv in enumerate(meta.invocations):
        prompt_issue = check_prompt(inv.prompt, i)
        if prompt_issue is not None:
            issues.append(prompt_issue)
        if inv.model not in KNOWN_MODEL_KINDS or not registry.serves_kind(inv.model):
            issues.append(
                ValidationIssue("UnknownModelKind", i, f"no backend serves {inv.model!r}")
            )
    return issues


# --- parsing ---------------------------------------------------------------


def parse_meta_response(raw: str, mode: str = "strict") -> tuple[MetaResponse, ParseDiagnostics]:
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode: {mode!r}")
    if mode == "strict":
        return _parse_strict(raw), ParseDiagnostics("strict")
    return _parse_lenient(raw)


def _decode(raw: str):
    """The one JSON decode of a meta-response; EmptyMeta or MalformedMeta on failure."""
    if raw.strip() == "":
        raise EmptyMeta("input is empty")
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the stack
        raise MalformedMeta(f"not valid JSON: {exc}") from None


def _prompt_issue(prompt, where: str) -> ValidationIssue | None:
    """The parsers' outcome of the prompt rule: None when usable, the
    issue when the caller rejects or drops the prompt, PromptTooLong over the cap."""
    issue = check_prompt(prompt)
    if issue is not None and issue.code == "PromptTooLong":
        raise PromptTooLong(f"{where} {issue.message}")
    return issue


def _parse_strict(raw: str) -> MetaResponse:
    return _read_object(_decode(raw))


def _parse_lenient(raw: str) -> tuple[MetaResponse, ParseDiagnostics]:
    try:
        obj = _decode(raw)
    except MalformedMeta:
        obj = None
    if not isinstance(obj, dict):
        return _recover_prose(raw)
    warnings: list[tuple[int, str]] = []
    return _read_object(obj, warnings), ParseDiagnostics("lenient", tuple(warnings))


_META_KEYS = {"text", "invocations"}
_ITEM_KEYS = {"model", "prompt"}


def _read_object(obj, warnings: list[tuple[int, str]] | None = None) -> MetaResponse:
    """The one reader of a decoded meta-response object.

    Without a warnings list it is strict: the exact key sets are checked
    first and the first fault raises MalformedMeta.  With one it is
    lenient: each fault appends its warning and the faulty part is
    dropped or defaulted.  A prompt over the cap (PromptTooLong) and an
    empty result (EmptyMeta) are hard errors in both modes."""
    strict = warnings is None

    def fault(reason: str, warning: str) -> None:
        if strict:
            raise MalformedMeta(reason)
        warnings.append((0, warning))

    if not isinstance(obj, dict):
        raise MalformedMeta("top level is not a JSON object")
    if strict and obj.keys() != _META_KEYS:
        raise MalformedMeta(f"keys must be exactly text and invocations, got {sorted(obj)}")
    # below, a missing or extra key can only be met in lenient mode
    text = obj.get("text", "")
    if not isinstance(text, str):
        kind = type(text).__name__
        fault("text is not a string", f"text field is not a string, dropped ({kind})")
        text = ""
    elif "text" not in obj:
        warnings.append((0, "text field missing, treated as empty"))
    elif has_lone_surrogate(text):
        fault("text holds an unpaired surrogate", "text field holds an unpaired surrogate, dropped")
        text = ""
    items = obj.get("invocations")
    if not isinstance(items, list):
        fault(
            "invocations is not a list",
            "invocations field missing, treated as empty"
            if items is None
            else "invocations field is not a list, dropped",
        )
        items = []
    invocations = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or (strict and item.keys() != _ITEM_KEYS):
            fault(
                f"invocation {i} must be an object with model and prompt",
                f"invocation {i} is not an object, dropped",
            )
            continue
        model, prompt = item.get("model"), item.get("prompt")
        if not isinstance(model, str) or not MODEL_KIND_RE.fullmatch(model):
            fault(
                f"invocation {i} model is not text-to-<modality>: {model!r}",
                f"invocation {i} has no usable model kind, dropped",
            )
            continue
        if (issue := _prompt_issue(prompt, f"invocation {i}")) is not None:
            reason = issue.message if isinstance(prompt, str) else "prompt is not a string"
            fault(f"invocation {i} {reason}", f"invocation {i} has no usable prompt, dropped")
            continue
        if item.keys() != _ITEM_KEYS:
            warnings.append((0, f"invocation {i} carries extra keys, ignored"))
        invocations.append(Invocation(model, prompt))
    if extra := obj.keys() - _META_KEYS:
        warnings.append((0, f"unexpected top-level keys ignored: {sorted(extra)}"))
    if text == "" and not invocations:
        raise EmptyMeta("no text and no invocations")
    return MetaResponse(text, tuple(invocations))


def _recover_prose(raw: str) -> tuple[MetaResponse, ParseDiagnostics]:
    if has_lone_surrogate(raw):
        raise MalformedMeta("input holds an unpaired surrogate")
    warnings: list[tuple[int, str]] = []
    invocations: list[Invocation] = []
    pieces: list[str] = []
    cursor = 0
    for start, end, records in scan_tuple_lists(raw):
        pieces.append(raw[cursor:start])
        cursor = end
        offset = len(raw[:start].encode("utf-8"))
        for model, prompt in records:
            if _prompt_issue(prompt, "recovered") is not None:
                warnings.append((offset, f"tuple record for {model!r} has an empty prompt, dropped"))
                continue
            warnings.append((offset, f"recovered tuple-style invocation ({model!r})"))
            invocations.append(Invocation(model, prompt))
    pieces.append(raw[cursor:])
    text = "".join(pieces).strip()
    if text == "" and not invocations:
        raise EmptyMeta("input reduced to nothing after recovery")
    return MetaResponse(text, tuple(invocations)), ParseDiagnostics("lenient", tuple(warnings))


# The tuple-list grammar, one regular pattern per rule:
#
#   ws      = [ \t\r\n]*   (not \s: form feed, \v and NBSP are text)
#   lit     = "..." | '...'   a backslash escapes the next character, newline included
#   pair    = ( ws lit ws , ws lit ws [, ws] )
#   list    = [ ws pair ws (, ws pair ws)* [, ws] ]
#   strings = [ ws (lit ws [, ws])*   the two-key instruction list, up to its ]
_WS = "[ \t\r\n]*"
_LIT = r""""[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*'"""
_PAIR = rf"\({_WS}({_LIT}){_WS},{_WS}({_LIT}){_WS}(?:,{_WS})?\)"
QUOTED = re.compile(_LIT, re.DOTALL)
STRING_LIST = re.compile(rf"\[{_WS}(?:(?:{_LIT}){_WS}(?:,{_WS})?)*", re.DOTALL)
_PAIR_RE = re.compile(_PAIR, re.DOTALL)
_TUPLE_LIST_RE = re.compile(
    rf"\[{_WS}{_PAIR}{_WS}(?:,{_WS}{_PAIR}{_WS})*(?:,{_WS})?\]", re.DOTALL
)

_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def unquote(literal: str) -> str:
    """The value of a QUOTED literal: \\ \\' \\" \\n \\t decode, any other
    backslash pair stays as written."""
    body = literal[1:-1]
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[0]), body)


def scan_tuple_lists(raw: str):
    """Yield (start, end, records) for each tuple list in raw, in textual
    order, where records are its (model, prompt) pairs.  A list counts
    only when every model looks like a model kind, so ordinary bracketed
    lists in model chatter stay prose; the scan then resumes inside it."""
    pos = 0
    while (m := _TUPLE_LIST_RE.search(raw, pos)) is not None:
        # inside a matched list, only its own pairs match the pair pattern
        pairs = _PAIR_RE.findall(raw, m.start(), m.end())
        records = [(unquote(model), unquote(prompt)) for model, prompt in pairs]
        if all(MODEL_KIND_RE.fullmatch(model) for model, _ in records):
            yield m.start(), m.end(), records
            pos = m.end()
        else:
            pos = m.start() + 1
