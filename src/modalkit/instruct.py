"""Instruction dataset generation and validation.

Pairs come in three types: input_align (describe an attachment),
output_align (attachment in, generator invocation out), and reasoning
(answer a question about an attachment).  Two generators produce them:
an offline template expander over bundled candidate descriptions, and a
chat-completion path that assembles few-shot queries and parses the
model's reply line by line.  Both must emit pairs that pass
validate_pair against the default registry.
"""

from __future__ import annotations

import enum
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import chat
from .errors import (
    EmptyBundle,
    FixtureMiss,
    InsufficientCandidates,
    InvalidArgument,
    MalformedLine,
)
from .media import modality_for_path
from .meta import (
    GENERATABLE_MODALITIES,
    MODEL_KIND_RE,
    QUOTED,
    STRING_LIST,
    Invocation,
    Modality,
    ValidationIssue,
    has_lone_surrogate,
    kind_for_modality,
    scan_tuple_lists,
    unquote,
    validate_invocations,
)
from .zoo import default_registry


class InstructionType(enum.Enum):
    INPUT_ALIGN = "input_align"
    OUTPUT_ALIGN = "output_align"
    REASONING = "reasoning"


DEFAULT_TYPE_MIX = {
    InstructionType.INPUT_ALIGN: 0.4,
    InstructionType.OUTPUT_ALIGN: 0.4,
    InstructionType.REASONING: 0.2,
}


@dataclass(frozen=True)
class Attachment:
    path: str
    modality: Modality


@dataclass(frozen=True)
class InstructionPair:
    id: str
    type: InstructionType
    instruction: str
    attachments: tuple[Attachment, ...] = ()
    invocations: tuple[Invocation, ...] = ()
    response_text: str | None = None


@dataclass(frozen=True)
class Candidate:
    """A short description standing in for a real asset of one modality."""

    description: str
    modality: Modality


def validate_pair(pair: InstructionPair, registry=None) -> list[ValidationIssue]:
    """All structural invariants plus registry resolution; never raises.
    The invocations get the same checks as a meta-response's
    (meta.validate_invocations)."""
    if registry is None:
        registry = default_registry()
    issues: list[ValidationIssue] = []
    if not pair.instruction.strip():
        issues.append(ValidationIssue("InstructionRequired", -1, "instruction is empty"))
    if pair.type is InstructionType.OUTPUT_ALIGN:
        if not pair.invocations:
            issues.append(
                ValidationIssue("MissingInvocation", -1, "output_align needs an invocation")
            )
    else:
        if pair.invocations:
            issues.append(
                ValidationIssue(
                    "UnexpectedInvocation", -1, f"{pair.type.value} pairs must not invoke"
                )
            )
        if not (pair.response_text or "").strip():
            issues.append(
                ValidationIssue(
                    "MissingResponseText", -1, f"{pair.type.value} needs response_text"
                )
            )
    for i, att in enumerate(pair.attachments):
        if not _path_ok(att.path):
            issues.append(
                ValidationIssue("DanglingAttachment", i, f"bad attachment path {att.path!r}")
            )
        if att.modality not in GENERATABLE_MODALITIES:
            issues.append(
                ValidationIssue(
                    "BadAttachmentModality", i, f"attachments cannot be {att.modality.value}"
                )
            )
    issues.extend(validate_invocations(pair, registry))
    return issues


def _path_ok(path: str) -> bool:
    if not isinstance(path, str) or not path or "\x00" in path or "\n" in path:
        return False
    return bool(path.rstrip("/")) and not path.endswith("/")


# --- JSONL dataset -----------------------------------------------------------


def pair_to_json(pair: InstructionPair) -> str:
    payload = {
        "id": pair.id,
        "type": pair.type.value,
        "instruction": pair.instruction,
        "attachments": [{"path": a.path, "modality": a.modality.value} for a in pair.attachments],
        "invocations": [{"model": v.model, "prompt": v.prompt} for v in pair.invocations],
        "response_text": pair.response_text,
    }
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


_PAIR_KEYS = {"id", "type", "instruction", "attachments", "invocations", "response_text"}


def pair_from_json(line: str, lineno: int = 0) -> InstructionPair:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the stack
        raise MalformedLine(lineno, f"not valid JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise MalformedLine(lineno, "line is not a JSON object")
    if set(obj.keys()) != _PAIR_KEYS:
        raise MalformedLine(lineno, f"keys must be exactly {sorted(_PAIR_KEYS)}")
    try:
        pair_type = InstructionType(obj["type"])
    except ValueError:
        raise MalformedLine(lineno, f"unknown pair type {obj['type']!r}") from None
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise MalformedLine(lineno, "id must be a nonempty string")
    if not isinstance(obj["instruction"], str):
        raise MalformedLine(lineno, "instruction must be a string")
    attachments = []
    for item in _expect_list(obj, "attachments", lineno):
        if not isinstance(item, dict) or set(item.keys()) != {"path", "modality"}:
            raise MalformedLine(lineno, "attachment must be an object with path and modality")
        try:
            modality = Modality(item["modality"])
        except ValueError:
            raise MalformedLine(lineno, f"unknown modality {item['modality']!r}") from None
        if not isinstance(item["path"], str):
            raise MalformedLine(lineno, "attachment path must be a string")
        attachments.append(Attachment(item["path"], modality))
    invocations = []
    for item in _expect_list(obj, "invocations", lineno):
        if not isinstance(item, dict) or set(item.keys()) != {"model", "prompt"}:
            raise MalformedLine(lineno, "invocation must be an object with model and prompt")
        model, prompt = item["model"], item["prompt"]
        if not isinstance(model, str) or not MODEL_KIND_RE.fullmatch(model):
            raise MalformedLine(lineno, f"invocation model {model!r} is not text-to-<modality>")
        if not isinstance(prompt, str) or not prompt:
            raise MalformedLine(lineno, "invocation prompt must be a nonempty string")
        invocations.append(Invocation(model, prompt))
    response_text = obj["response_text"]
    if response_text is not None and not isinstance(response_text, str):
        raise MalformedLine(lineno, "response_text must be a string or null")
    # Decoding yields a surrogate only from a \u escape or a non-ASCII line.
    # Prompts are left to validate_pair, which reports UnpairedSurrogate.
    if not line.isascii() or "\\u" in line:
        texts = [("id", obj["id"]), ("instruction", obj["instruction"])]
        texts += [("attachment path", a.path) for a in attachments]
        for label, text in texts + [("response_text", response_text or "")]:
            if has_lone_surrogate(text):
                raise MalformedLine(lineno, f"{label} holds an unpaired surrogate")
    return InstructionPair(
        obj["id"],
        pair_type,
        obj["instruction"],
        tuple(attachments),
        tuple(invocations),
        response_text,
    )


def _expect_list(obj: dict, key: str, lineno: int) -> list:
    value = obj[key]
    if not isinstance(value, list):
        raise MalformedLine(lineno, f"{key} must be a list")
    return value


_TWO_KEY_INSTRUCTION_RE = re.compile(r'"instruction"\s*:\s*\[')


def _recover_two_key(line: str, lineno: int) -> InstructionPair:
    """Interpret the older two-key shape:

        {"instruction": [<text>, <filename>, ...] "invocation": [(<kind>, <prompt>), ]}

    Filenames become attachments with modality read off the extension;
    the tuple list becomes invocations.  Anything else is malformed.
    """
    m = _TWO_KEY_INSTRUCTION_RE.search(line)
    if m is None:
        raise MalformedLine(lineno, "no canonical object and no instruction list")
    strings = _read_string_list(line, m.end() - 1, lineno)
    if not strings:
        raise MalformedLine(lineno, "instruction list is empty")
    instruction, filenames = strings[0], strings[1:]
    attachments = []
    for name in filenames:
        modality = modality_for_path(name)
        if modality is None:
            raise MalformedLine(lineno, f"cannot infer modality for attachment {name!r}")
        attachments.append(Attachment(name, modality))
    invocations = []
    for _, _, records in scan_tuple_lists(line):
        for model, prompt in records:
            if not prompt:
                raise MalformedLine(lineno, "recovered invocation has an empty prompt")
            invocations.append(Invocation(model, prompt))
    if not invocations:
        raise MalformedLine(lineno, "two-key line carries no invocation tuples")
    return InstructionPair(
        f"recovered-{lineno:04d}",
        InstructionType.OUTPUT_ALIGN,
        instruction,
        tuple(attachments),
        tuple(invocations),
        None,
    )


def _read_string_list(s: str, start: int, lineno: int) -> list[str]:
    """Parse [ "a", "b", ] starting at the opening bracket; commas are optional."""
    end = STRING_LIST.match(s, start).end()
    if end == len(s):
        raise MalformedLine(lineno, "instruction list never closes")
    if s[end] != "]":
        raise MalformedLine(lineno, "instruction list holds a non-string")
    return [unquote(literal) for literal in QUOTED.findall(s, start, end)]


def write_dataset(pairs: list[InstructionPair], path: str | Path) -> int:
    seen: set[str] = set()
    for pair in pairs:
        if pair.id in seen:
            raise InvalidArgument(f"duplicate pair id {pair.id!r}")
        seen.add(pair.id)
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(pair_to_json(pair) + "\n")
    return len(pairs)


def read_dataset(path: str | Path, mode: str = "strict") -> list[InstructionPair]:
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown read mode {mode!r}")
    pairs: list[InstructionPair] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                pairs.append(pair_from_json(line, lineno))
            except MalformedLine:
                if mode == "strict":
                    raise
                pairs.append(_recover_two_key(line, lineno))
    return pairs


# --- query assembly ----------------------------------------------------------


@dataclass(frozen=True)
class QueryBundle:
    seeds: tuple[InstructionPair, ...]
    candidates: tuple[Candidate, ...]
    references: tuple[str, ...]
    target_type: InstructionType


def assemble_query(bundle: QueryBundle) -> str:
    """Render the bundle into one deterministic prompt string.

    Sections appear in fixed order with fixed labels; seed pairs are
    embedded verbatim in their canonical JSON form."""
    if not bundle.seeds:
        raise EmptyBundle("bundle has no seed pairs")
    if not bundle.candidates:
        raise EmptyBundle("bundle has no candidate descriptions")
    if bundle.target_type is InstructionType.OUTPUT_ALIGN and not bundle.references:
        raise EmptyBundle("output_align queries need language references")
    lines = [
        "You write supervision pairs for a multi-modal assistant.",
        f"Target pair type: {bundle.target_type.value}",
        "",
        "SEEDS:",
    ]
    lines += [pair_to_json(seed) for seed in bundle.seeds]
    lines += ["", "CANDIDATES:"]
    lines += [f"- [{c.modality.value}] {c.description}" for c in bundle.candidates]
    lines += ["", "REFERENCES:"]
    lines += [f"- {ref}" for ref in bundle.references]
    lines += [
        "",
        "Emit one JSON object per line with keys id, type, instruction, "
        "attachments, invocations, response_text, in the same shape as the "
        "SEEDS lines. Output nothing else.",
    ]
    return "\n".join(lines)


def build_bundle(
    seeds: list[InstructionPair],
    candidates: list[Candidate],
    references: list[str],
    target_type: InstructionType,
    seed: int,
    seeds_per_query: int = 3,
    candidates_per_query: int = 4,
    references_per_query: int = 3,
) -> QueryBundle:
    if not seeds or not candidates:
        raise EmptyBundle("need at least one seed and one candidate")
    rng = random.Random(seed)

    def sample(pool, k):
        return tuple(rng.sample(pool, min(k, len(pool))))

    return QueryBundle(
        sample(seeds, seeds_per_query),
        sample(candidates, candidates_per_query),
        sample(references, references_per_query),
        target_type,
    )


# --- generators --------------------------------------------------------------


@dataclass
class RejectedLine:
    request_index: int
    lineno: int
    reason: str
    line: str


@dataclass
class RejectsReport:
    rejected: list[RejectedLine] = field(default_factory=list)
    requests_issued: int = 0
    shortfall: int = 0

    def summary(self) -> str:
        return (
            f"requests={self.requests_issued} rejected={len(self.rejected)} "
            f"shortfall={self.shortfall}"
        )


def generate_pairs_llm(
    cfg: chat.ChatClientConfig,
    bundle: QueryBundle,
    n: int,
    registry=None,
    transport=None,
) -> tuple[list[InstructionPair], RejectsReport]:
    """Ask the completion endpoint for n pairs; invalid lines become rejects.

    Issues at most n requests, so a fixture that keeps answering with
    garbage terminates with a shortfall instead of spinning.  An
    exhausted replay fixture also ends the loop with a shortfall, unless
    it cannot serve even the first request."""
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if registry is None:
        registry = default_registry()
    if transport is None:
        transport = chat.build_transport(cfg)
    query = assemble_query(bundle)
    report = RejectsReport()
    pairs: list[InstructionPair] = []
    seen_ids: set[str] = set()
    while len(pairs) < n and report.requests_issued < n:
        try:
            body = chat.complete(transport, cfg, query)
        except FixtureMiss:
            if report.requests_issued == 0:
                raise
            break
        report.requests_issued += 1
        for lineno, line in enumerate(body.splitlines(), start=1):
            if not line.strip() or len(pairs) >= n:
                continue
            try:
                pair = pair_from_json(line, lineno)
            except MalformedLine as exc:
                report.rejected.append(
                    RejectedLine(report.requests_issued, lineno, exc.reason, line)
                )
                continue
            issues = validate_pair(pair, registry)
            if issues:
                reasons = "; ".join(str(i) for i in issues)
                report.rejected.append(RejectedLine(report.requests_issued, lineno, reasons, line))
                continue
            if pair.id in seen_ids:
                report.rejected.append(
                    RejectedLine(report.requests_issued, lineno, f"duplicate id {pair.id!r}", line)
                )
                continue
            seen_ids.add(pair.id)
            pairs.append(pair)
    report.shortfall = n - len(pairs)
    return pairs, report


_CAPTION_VERBS = {Modality.IMAGE: "shows", Modality.AUDIO: "captures", Modality.VIDEO: "shows"}
_PROMPT_STYLES = {
    Modality.IMAGE: "A photo of {desc}",
    Modality.AUDIO: "The sound of {desc}",
    Modality.VIDEO: "A video of {desc}",
}
_SYNTHETIC_EXT = {Modality.IMAGE: "png", Modality.AUDIO: "wav", Modality.VIDEO: "mp4"}
_REASONING_TEMPLATES = (
    "Where might this {modality} have been recorded?",
    "What is happening in this {modality}?",
    "What stands out in this {modality}?",
)


def _slug(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")
    return slug or "item"


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def template_generate(
    candidates: list[Candidate],
    type_mix: dict[InstructionType, float] | None = None,
    seed: int = 0,
    n: int = 0,
    id_prefix: str = "tpl",
) -> list[InstructionPair]:
    """Offline generator: expand candidate descriptions through fixed
    templates, drawing pair types from the normalized mix."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    mix = dict(DEFAULT_TYPE_MIX if type_mix is None else type_mix)
    weights = [float(mix.get(t, 0.0)) for t in InstructionType]
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise InvalidArgument(f"type mix weights must be >= 0 and sum > 0, got {mix}")
    if n == 0:
        return []
    if not candidates:
        raise InsufficientCandidates("template generation needs candidate descriptions")
    rng = random.Random(seed)
    pairs: list[InstructionPair] = []
    for i in range(n):
        pair_type = rng.choices(list(InstructionType), weights=weights)[0]
        cand = rng.choice(candidates)
        pair_id = f"{id_prefix}-{i:06d}"
        path = f"{_slug(cand.description)}.{_SYNTHETIC_EXT[cand.modality]}"
        attachment = Attachment(path, cand.modality)
        if pair_type is InstructionType.INPUT_ALIGN:
            pairs.append(
                InstructionPair(
                    pair_id,
                    pair_type,
                    f"Describe the given {cand.modality.value}.",
                    (attachment,),
                    (),
                    f"The {cand.modality.value} {_CAPTION_VERBS[cand.modality]} {cand.description}.",
                )
            )
        elif pair_type is InstructionType.REASONING:
            template = rng.choice(_REASONING_TEMPLATES)
            pairs.append(
                InstructionPair(
                    pair_id,
                    pair_type,
                    template.format(modality=cand.modality.value),
                    (attachment,),
                    (),
                    f"Judging by the {cand.modality.value}, it involves {cand.description}.",
                )
            )
        else:
            targets = [m for m in GENERATABLE_MODALITIES if m is not cand.modality]
            target = rng.choice(targets)
            prompt = _PROMPT_STYLES[target].format(desc=cand.description)
            pairs.append(
                InstructionPair(
                    pair_id,
                    pair_type,
                    f"Generate {_article(target.value)} {target.value} based on "
                    f"the provided {cand.modality.value}.",
                    (attachment,),
                    (Invocation(kind_for_modality(target), prompt),),
                    f"Here is {_article(target.value)} {target.value} matching your "
                    f"{cand.modality.value}.",
                )
            )
    return pairs


def load_candidates(path: str | Path, modality: Modality) -> list[Candidate]:
    """One description per line; blanks and # comments are skipped."""
    return [Candidate(text, modality) for text in load_reference_lines(path)]


def load_reference_lines(path: str | Path) -> list[str]:
    """The stripped lines of a text file, without blanks and # comments."""
    lines = (line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]
