"""End-to-end request pipeline.

encode -> project -> language backend -> lenient parse -> validate ->
route -> execute.  The language backend is pluggable; the scripted one
answers from an ordered rule table so whole-system behavior is
reproducible offline.  Invocation validation failures degrade the run
to a text-only response with diagnostics; they never execute partially.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import chat
from .errors import (
    AttachmentMissing,
    ConfigError,
    InstructionRequired,
    InvalidArgument,
    ModalityMismatch,
    ShapeMismatch,
)
from .instruct import Attachment
from .media import modality_for_path
from .meta import Modality, parse_meta_response, validate_invocations
from .projection import (
    AlignmentModel,
    EmbeddingVector,
    TrainConfig,
    encode_stub,
    init_model,
    load_embedding,
    project,
    trainable_arrays,
    uniform_enc_dims,
)
from .zoo import FinalResponse, ModelRegistry, execute_plan, manifest_json, route


@dataclass(frozen=True)
class UserRequest:
    instruction: str
    attachments: tuple[Attachment, ...] = ()


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
        for rule in self._rules:
            if rule.matches(instruction, modalities):
                return rule.respond
        raise AssertionError("unreachable: catch-all rule is enforced")


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


def load_scripted_rules(path: str | Path) -> ScriptedBackend:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read rules {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
        raise ConfigError(f"rules file {path} must hold a rules list")
    rules = []
    for i, item in enumerate(doc["rules"]):
        if not isinstance(item, dict) or "respond" not in item:
            raise ConfigError(f"rule {i} must be an object with a respond field")
        modalities = item.get("attachment_modalities")
        if modalities is not None:
            try:
                modalities = tuple(Modality(m) for m in modalities)
            except ValueError as exc:
                raise ConfigError(f"rule {i}: {exc}") from None
        rules.append(
            ScriptedRule(
                respond=str(item["respond"]),
                instruction_contains=item.get("instruction_contains"),
                attachment_modalities=modalities,
            )
        )
    return ScriptedBackend(rules)


@dataclass
class StageRecord:
    name: str
    details: dict
    elapsed_ms: float = 0.0


@dataclass
class PipelineTrace:
    stages: list[StageRecord] = field(default_factory=list)

    def to_json(self, include_timings: bool = True) -> str:
        stages = []
        for s in self.stages:
            record = {"name": s.name, "details": s.details}
            if include_timings:
                record["elapsed_ms"] = round(s.elapsed_ms, 3)
            stages.append(record)
        return json.dumps({"stages": stages}, indent=2, ensure_ascii=False) + "\n"


def default_pipeline_config() -> TrainConfig:
    # Small dims: the pipeline only needs the projection path to be real,
    # not expensive.
    return TrainConfig(d_enc=uniform_enc_dims(64), d_llm=128, rank=4)


def _config_key(cfg: TrainConfig) -> tuple:
    """Every TrainConfig field in field order, d_enc as a tuple of its
    items so the key hashes: init_model reads them all (validate() the rest)."""
    d_enc, *rest = (getattr(cfg, f.name) for f in fields(cfg))
    return (tuple(d_enc.items()), *rest)


@functools.lru_cache(maxsize=8)
def _shared_model(key: tuple) -> AlignmentModel:
    """init_model for one config value, built on the first request that
    needs it; its arrays are read-only because every later request shares them."""
    d_enc, *rest = key
    model = init_model(TrainConfig(dict(d_enc), *rest))
    for _, array in trainable_arrays(model):
        array.flags.writeable = False
    model.adaptor.base.flags.writeable = False
    return model


def _validate_request(req: UserRequest) -> None:
    if not req.instruction.strip():
        raise InstructionRequired("request instruction is empty")
    for att in req.attachments:
        if not Path(att.path).exists():
            raise AttachmentMissing(att.path)
        if att.path.endswith(".mvec"):
            continue  # checked against the stored header at encode time
        inferred = modality_for_path(att.path)
        if inferred is None:
            raise ModalityMismatch(f"{att.path}: unrecognized extension")
        if inferred is not att.modality:
            raise ModalityMismatch(
                f"{att.path}: extension says {inferred.value}, request says {att.modality.value}"
            )


def _encode_attachment(att: Attachment, cfg: TrainConfig, seed: int) -> EmbeddingVector:
    want_dim = cfg.d_enc[att.modality]
    if att.path.endswith(".mvec"):
        vec = load_embedding(att.path)
        if vec.modality is not att.modality:
            raise ModalityMismatch(
                f"{att.path}: stored modality {vec.modality.value}, request says {att.modality.value}"
            )
        if vec.dim != want_dim:
            raise ShapeMismatch(f"{att.path}: stored dim {vec.dim}, config wants {want_dim}")
        return vec
    return encode_stub(Path(att.path).read_bytes(), att.modality, want_dim, seed)


def describe_inputs(
    req: UserRequest, cfg: TrainConfig | None = None, seed: int = 0
) -> list[dict]:
    """Encode every attachment and report (path, modality, dim, norm) in order."""
    cfg = cfg or default_pipeline_config()
    _validate_request(req)
    out = []
    for att in req.attachments:
        vec = _encode_attachment(att, cfg, seed)
        out.append(
            {
                "path": att.path,
                "modality": att.modality.value,
                "dim": vec.dim,
                "norm": float((vec.values**2).sum() ** 0.5),
            }
        )
    return out


def run(
    req: UserRequest,
    registry: ModelRegistry,
    backend,
    workspace: str | Path,
    cfg: TrainConfig | None = None,
    seed: int = 0,
    workers: int = 1,
    include_timings: bool = True,
) -> tuple[FinalResponse, PipelineTrace]:
    """Drive one request through every stage and write trace.json.

    Hard errors (empty instruction, missing attachment, empty meta)
    raise before anything is generated; invocation-validation failures
    degrade to a text-only response instead.  The projection model is
    built once per distinct cfg value per process (a small bounded memo)
    and shared read-only by every later request with an equal cfg.

    A stage's elapsed_ms runs from the end of the stage before it (for
    the first, from the workspace's creation) to the end of its own
    details, so the stages tile the call; the "degraded" marker reads 0.0."""
    cfg = cfg or default_pipeline_config()
    _validate_request(req)  # before the workspace is even created

    ws = Path(workspace)
    try:
        ws.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidArgument(f"cannot create workspace {ws}: {exc}") from None
    trace = PipelineTrace()
    last = time.perf_counter()

    def record(name: str, details: dict) -> None:
        nonlocal last
        now = time.perf_counter()
        trace.stages.append(StageRecord(name, details, (now - last) * 1000.0))
        last = now

    attachments = [{"path": a.path, "modality": a.modality.value} for a in req.attachments]
    record(
        "validate",
        {"instruction_bytes": len(req.instruction.encode("utf-8")), "attachments": attachments},
    )

    embeddings = [_encode_attachment(a, cfg, seed) for a in req.attachments]
    record("encode", {"dims": [v.dim for v in embeddings]})

    model = _shared_model(_config_key(cfg))
    tokens = [project(model.projections[v.modality], v) for v in embeddings]
    record("project", {"token_shapes": [list(t.shape) for t in tokens]})

    raw = backend.generate(req.instruction, tuple(a.modality for a in req.attachments))
    record("backend", {"backend": type(backend).__name__})

    meta, diags = parse_meta_response(raw, mode="lenient")
    record(
        "parse",
        {
            "text_bytes": len(meta.text.encode("utf-8")),
            "invocations": [{"model": v.model, "prompt": v.prompt} for v in meta.invocations],
            "warnings": [m for _, m in diags.warnings],
        },
    )

    issues = [str(i) for i in validate_invocations(meta, registry)]
    record("validate_invocations", {"issues": issues})

    if issues:
        response = FinalResponse(text=meta.text, diagnostics=tuple(issues))
        trace.stages.append(
            StageRecord("degraded", {"reason": "invocation validation failed"}, 0.0)
        )
        (ws / "manifest.json").write_text(manifest_json(response), encoding="utf-8")
    else:
        plan = route(meta, registry)
        items = [{"model": i.invocation.model, "backend": i.descriptor.name} for i in plan.items]
        record("route", {"items": items})

        response = execute_plan(plan, registry, ws, seed, workers=workers)
        record(
            "execute",
            {
                "artifacts": [a.path for a in response.artifacts],
                "failures": [f.error for f in response.failures],
            },
        )

    (ws / "trace.json").write_text(trace.to_json(include_timings), encoding="utf-8")
    return response, trace
