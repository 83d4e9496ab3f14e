"""End-to-end request pipeline.

encode -> project -> language backend -> lenient parse -> validate ->
route -> execute.  The language backend is pluggable; the scripted one
answers from an ordered rule table so whole-system behavior is
reproducible offline.  Invocation validation failures degrade the run
to a text-only response with diagnostics; they never execute partially.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

try:
    import fcntl
except ImportError:  # no flock here (Windows): runs commit to a workspace unlocked
    fcntl = None

from .backends import ScriptedBackend, ScriptedRule  # noqa: F401 (callers import both from here too)
from .errors import (
    AttachmentMissing,
    InstructionRequired,
    InvalidArgument,
    ModalityMismatch,
    ShapeMismatch,
)
from .files import replace_file
from .instruct import Attachment
from .media import modality_for_path
from .meta import has_lone_surrogate, parse_meta_response, validate_invocations
from .projection import (
    AlignmentModel,
    EmbeddingVector,
    encode_stub,
    init_model,
    load_embedding,
    project,
    trainable_arrays,
)
from .sizing import TrainConfig, default_pipeline_config
from .zoo import ARTIFACT_NAME, FinalResponse, ModelRegistry, execute_plan, manifest_json, route


@dataclass(frozen=True)
class UserRequest:
    instruction: str
    attachments: tuple[Attachment, ...] = ()


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


def _encode_attachment(att: Attachment, cfg: TrainConfig, seed: int) -> EmbeddingVector:
    """Check one attachment (its path, its file, the claimed modality and
    the extension), then encode its bytes, or load its .mvec and check the
    stored modality and dim against the request and cfg."""
    if has_lone_surrogate(att.path):
        raise InvalidArgument(f"attachment path {att.path!r} holds an unpaired surrogate")
    path = Path(att.path)
    if not path.is_file():  # a FIFO or a directory would block or fail the read
        if not path.exists():
            raise AttachmentMissing(att.path)
        raise InvalidArgument(f"attachment {att.path} is not a regular file")
    want_dim = cfg.d_enc.get(att.modality)
    if want_dim is None:
        raise ModalityMismatch(f"{att.path}: attachments cannot be {att.modality.value}")
    mvec = att.path.endswith(".mvec")  # checked against its stored header below
    if not mvec:
        inferred = modality_for_path(att.path)
        if inferred is None:
            raise ModalityMismatch(f"{att.path}: unrecognized extension")
        if inferred is not att.modality:
            raise ModalityMismatch(
                f"{att.path}: extension says {inferred.value}, request says {att.modality.value}"
            )
    try:
        if not mvec:
            return encode_stub(path.read_bytes(), att.modality, want_dim, seed)
        vec = load_embedding(att.path)
    except OSError as exc:
        raise InvalidArgument(f"cannot read attachment {att.path}: {exc}") from None
    if vec.modality is not att.modality:
        raise ModalityMismatch(
            f"{att.path}: stored modality {vec.modality.value}, request says {att.modality.value}"
        )
    if vec.dim != want_dim:
        raise ShapeMismatch(f"{att.path}: stored dim {vec.dim}, config wants {want_dim}")
    return vec


def _commit(ws: Path, response: FinalResponse, trace_json: str) -> None:
    """Write one run into ws while holding an exclusive flock on ws itself.
    The sweep deletes manifest.json first, then trace.json and every file
    named the way artifact_name names one (any other file stays); then
    come the artifacts, trace.json, and manifest.json last, by replace_file."""
    fd = os.open(ws, os.O_RDONLY) if fcntl else None
    try:
        if fcntl:
            fcntl.flock(fd, fcntl.LOCK_EX)
        for name in sorted(os.listdir(ws), key=lambda n: n != "manifest.json"):
            if name in ("manifest.json", "trace.json") or ARTIFACT_NAME.fullmatch(name):
                os.unlink(ws / name)
        for artifact in response.artifacts:
            (ws / artifact.path).write_bytes(artifact.data)
        (ws / "trace.json").write_text(trace_json, encoding="utf-8")
        replace_file(ws / "manifest.json", (manifest_json(response),))
    finally:
        if fd is not None:
            os.close(fd)  # and with it the lock


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
    """Drive one request through every stage and write its workspace.

    The instruction and the workspace path are checked, then each
    attachment is checked and encoded in one pass, in order, and the
    inputs are projected; a fault there raises before the workspace is
    created, and a cfg dim too large for numpy to allocate is
    InvalidArgument.  The workspace is created just before the backend
    is called (its creation counts toward the backend stage), so one that
    cannot be created costs no chat request.  If anything from its creation to its first write
    raises (the backend, the lenient parse, routing), the run removes
    the directories it created, deepest first, and re-raises; one that
    existed before the run, or is no longer empty, stays.  Then the plan
    runs (not when degraded), and _commit alone writes the workspace; an
    OSError there is InvalidArgument.
    Invocation-validation failures degrade to a text-only response.  The
    projection model is built once per distinct cfg value per process (a
    small bounded memo) and shared read-only by every later request with
    an equal cfg.

    A stage's elapsed_ms runs from the end of the stage before it (for
    the first, from the start of the call) to the end of its own
    details, so the stages tile the call; the "degraded" marker reads 0.0."""
    trace = PipelineTrace()
    last = time.perf_counter()

    def record(name: str, details: dict) -> None:
        nonlocal last
        now = time.perf_counter()
        trace.stages.append(StageRecord(name, details, (now - last) * 1000.0))
        last = now

    cfg = cfg or default_pipeline_config()
    if not req.instruction.strip():
        raise InstructionRequired("request instruction is empty")
    if has_lone_surrogate(req.instruction):
        raise InvalidArgument("instruction holds an unpaired surrogate")
    if has_lone_surrogate(str(workspace)):
        raise InvalidArgument(f"workspace {str(workspace)!r} holds an unpaired surrogate")
    attachments = [{"path": a.path, "modality": a.modality.value} for a in req.attachments]
    record(
        "validate",
        {"instruction_bytes": len(req.instruction.encode("utf-8")), "attachments": attachments},
    )

    try:
        embeddings = [_encode_attachment(a, cfg, seed) for a in req.attachments]
        record("encode", {"dims": [v.dim for v in embeddings]})
        model = _shared_model(_config_key(cfg))
        tokens = [project(model.projections[v.modality], v) for v in embeddings]
    except (ValueError, MemoryError) as exc:  # numpy refuses an array it cannot index or hold
        dims = {m.value: d for m, d in cfg.d_enc.items()}
        raise InvalidArgument(f"cannot allocate for d_enc {dims}, d_llm {cfg.d_llm}: {exc}") from None
    record("project", {"token_shapes": [list(t.shape) for t in tokens]})

    ws = Path(workspace)
    created = []  # the directories this run makes, deepest first
    path = ws
    while path != path.parent and not path.exists():
        created.append(path)
        path = path.parent
    try:
        try:
            ws.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidArgument(f"cannot create workspace {ws}: {exc}") from None
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
        if not issues:
            plan = route(meta, registry)
            items = [{"model": i.invocation.model, "backend": i.descriptor.name} for i in plan.items]
            record("route", {"items": items})
    except BaseException:
        for path in created:  # rmdir keeps a directory that is no longer empty
            with contextlib.suppress(OSError):
                path.rmdir()
        raise

    if issues:
        response = FinalResponse(text=meta.text, diagnostics=tuple(issues))
        trace.stages.append(StageRecord("degraded", {"reason": "invocation validation failed"}, 0.0))
    else:
        response = execute_plan(plan, registry, seed, workers=workers)
        artifacts = [a.path for a in response.artifacts]
        record("execute", {"artifacts": artifacts, "failures": [f.error for f in response.failures]})
    try:
        _commit(ws, response, trace.to_json(include_timings))
    except OSError as exc:
        raise InvalidArgument(f"cannot write workspace {ws}: {exc}") from None
    return response, trace
