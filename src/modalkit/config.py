"""Application config: one JSON file drives every CLI command.

Parse first, then validate everything and report all problems in one
ConfigError.  Input paths (rules, seeds, candidates, references, chat
fixtures) resolve relative to the config file so a config can travel
with its fixtures.  Output paths (the workspace) resolve against the
working directory, because the default config ships inside the package
and installs must stay read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
import json
import sys

from .chat import ChatClientConfig
from .errors import ConfigError, InvariantViolation
from .instruct import (
    DEFAULT_TYPE_MIX,
    Candidate,
    InstructionType,
    load_candidates,
    load_reference_lines,
    read_dataset,
)
from .media import EXTENSION_FOR_MODALITY
from .meta import GENERATABLE_MODALITIES, Modality, modality_for_kind
from .pipeline import ExternalBackend, default_pipeline_config, load_scripted_rules
from .projection import TrainConfig, uniform_enc_dims
from .zoo import ModelDescriptor, ModelRegistry, command_executor, mock_executor


def data_dir() -> Path:
    return Path(str(files("modalkit") / "data"))


def default_config_path() -> Path:
    return data_dir() / "default_config.json"


@dataclass
class RegistryEntry:
    name: str
    kind: str
    priority: int = 0
    backend: str = "mock"  # mock | command
    command: str | None = None


@dataclass
class InstructSettings:
    type_mix: dict[InstructionType, float]
    seeds_path: Path
    candidate_paths: dict[Modality, Path]
    references_path: Path
    seeds_per_query: int = 3
    candidates_per_query: int = 4
    references_per_query: int = 3


@dataclass
class AppConfig:
    seed: int
    workspace: Path
    registry: list[RegistryEntry]
    language_backend: str  # scripted | external
    backend_rules: Path
    train: TrainConfig
    pipeline: TrainConfig
    instruct: InstructSettings
    chat: ChatClientConfig | None


def load_app_config(path: str | Path | None = None) -> AppConfig:
    cfg_path = Path(path) if path is not None else default_config_path()
    try:
        doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {cfg_path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {cfg_path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {cfg_path} must be a JSON object")
    base = cfg_path.resolve().parent
    problems: list[str] = []

    def fail(msg: str) -> None:
        problems.append(msg)

    seed = _expect_int(doc.get("seed", 0), "seed", fail)
    workspace = Path(_expect_str(doc.get("workspace", "runs"), "workspace", fail))

    entries: list[RegistryEntry] = []
    raw_registry = doc.get("registry", [])
    if not isinstance(raw_registry, list) or not raw_registry:
        fail("registry must be a nonempty list")
        raw_registry = []
    for i, item in enumerate(raw_registry):
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            fail(f"registry[{i}] must be an object with name and kind")
            continue
        label, command = f"registry[{i}]", item.get("command")
        entry = RegistryEntry(
            name=_expect_str(item["name"], f"{label}.name", fail),
            kind=_expect_str(item["kind"], f"{label}.kind", fail),
            priority=_expect_int(item.get("priority", 0), f"{label}.priority", fail),
            backend=_expect_str(item.get("backend", "mock"), f"{label}.backend", fail),
            command=command if command is None else _expect_str(command, f"{label}.command", fail),
        )
        try:
            modality_for_kind(entry.kind)
        except InvariantViolation:
            fail(f"{label}.kind {entry.kind!r} is not a known generator kind")
        if entry.backend not in ("mock", "command"):
            fail(f"{label}.backend must be mock or command")
        if entry.backend == "command":
            if not entry.command:
                fail(f"{label} uses the command backend but has no command")
            else:
                entry.command = str(base / entry.command)
        entries.append(entry)

    language_backend = _expect_str(
        doc.get("language_backend", "scripted"), "language_backend", fail
    )
    if language_backend not in ("scripted", "external"):
        fail("language_backend must be scripted or external")
    rules = _expect_str(doc.get("backend_rules", "rules.json"), "backend_rules", fail)
    backend_rules = base / rules

    train = _parse_train(doc.get("train", {}), "train", fail)
    pipeline = _parse_pipeline(doc.get("pipeline", {}), seed, fail)
    instruct = _parse_instruct(doc.get("instruct", {}), base, fail)

    chat_cfg: ChatClientConfig | None = None
    raw_chat = doc.get("chat")
    if raw_chat is not None:
        if not isinstance(raw_chat, dict):
            fail("chat must be an object or null")
        else:
            fixture = raw_chat.get("fixture_path")
            if fixture is not None:
                fixture = _expect_str(fixture, "chat.fixture_path", fail)
            chat_cfg = ChatClientConfig(
                endpoint=_expect_str(raw_chat.get("endpoint", ""), "chat.endpoint", fail),
                model=_expect_str(raw_chat.get("model", "default"), "chat.model", fail),
                auth_env=_expect_str(
                    raw_chat.get("auth_env", "MODALKIT_API_TOKEN"), "chat.auth_env", fail
                ),
                timeout=_expect_float(raw_chat.get("timeout", 30.0), "chat.timeout", fail),
                max_retries=_expect_int(raw_chat.get("max_retries", 3), "chat.max_retries", fail),
                backoff_base=_expect_float(
                    raw_chat.get("backoff_base", 0.5), "chat.backoff_base", fail
                ),
                mode=_expect_str(raw_chat.get("mode", "replay"), "chat.mode", fail),
                fixture_path=str(base / fixture) if fixture else None,
            )
            try:
                chat_cfg.validate()
            except ConfigError as exc:
                fail(str(exc))

    if problems:
        raise ConfigError(f"config {cfg_path} is invalid:\n  " + "\n  ".join(problems))
    return AppConfig(
        seed=seed,
        workspace=workspace,
        registry=entries,
        language_backend=language_backend,
        backend_rules=backend_rules,
        train=train,
        pipeline=pipeline,
        instruct=instruct,
        chat=chat_cfg,
    )


def _expect_int(value, label: str, fail) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        fail(f"{label} must be an integer, got {value!r}")
        return 0
    return value


def _expect_float(value, label: str, fail) -> float:
    """A JSON number in the float range: bools, numeric strings, NaN and infinities fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        fail(f"{label} must be a finite number, got {value!r}")
        return 0.0
    return float(value)


def _expect_bool(value, label: str, fail) -> bool:
    if not isinstance(value, bool):
        fail(f"{label} must be true or false, got {value!r}")
        return False
    return value


def _expect_str(value, label: str, fail) -> str:
    if not isinstance(value, str):
        fail(f"{label} must be a string, got {value!r}")
        return ""
    return value


def _parse_enc_dims(raw, label: str, fail) -> dict[Modality, int]:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return uniform_enc_dims(raw)
    if isinstance(raw, dict):
        dims = {}
        for m in GENERATABLE_MODALITIES:
            dims[m] = _expect_int(raw.get(m.value, 0), f"{label}.{m.value}", fail)
        return dims
    fail(f"{label} must be an integer or an object keyed by modality")
    return uniform_enc_dims(1)


def _parse_train(raw, label: str, fail) -> TrainConfig:
    if not isinstance(raw, dict):
        fail(f"{label} must be an object")
        raw = {}
    cfg = TrainConfig(
        d_enc=_parse_enc_dims(raw.get("d_enc", 1024), f"{label}.d_enc", fail),
        d_llm=_expect_int(raw.get("d_llm", 4096), f"{label}.d_llm", fail),
        token_count=_expect_int(raw.get("token_count", 1), f"{label}.token_count", fail),
        bias=_expect_bool(raw.get("bias", False), f"{label}.bias", fail),
        rank=_expect_int(raw.get("rank", 32), f"{label}.rank", fail),
        alpha=_expect_float(raw.get("alpha", 16.0), f"{label}.alpha", fail),
        learning_rate=_expect_float(raw.get("learning_rate", 0.05), f"{label}.learning_rate", fail),
        steps=_expect_int(raw.get("steps", 200), f"{label}.steps", fail),
        seed=_expect_int(raw.get("seed", 0), f"{label}.seed", fail),
        loss=_expect_str(raw.get("loss", "mse"), f"{label}.loss", fail),
    )
    try:
        cfg.validate()
    except Exception as exc:  # collect, do not abort: report all problems at once
        fail(f"{label}: {exc}")
    return cfg


def _parse_pipeline(raw, seed: int, fail) -> TrainConfig:
    if not isinstance(raw, dict):
        fail("pipeline must be an object")
        raw = {}
    cfg = default_pipeline_config()
    if "d_enc" in raw:
        cfg.d_enc = _parse_enc_dims(raw["d_enc"], "pipeline.d_enc", fail)
    cfg.d_llm = _expect_int(raw.get("d_llm", cfg.d_llm), "pipeline.d_llm", fail)
    cfg.rank = _expect_int(raw.get("rank", cfg.rank), "pipeline.rank", fail)
    cfg.seed = seed
    try:
        cfg.validate()
    except Exception as exc:
        fail(f"pipeline: {exc}")
    return cfg


def _parse_instruct(raw, base: Path, fail) -> InstructSettings:
    if not isinstance(raw, dict):
        fail("instruct must be an object")
        raw = {}
    mix_raw = raw.get("type_mix", {t.value: w for t, w in DEFAULT_TYPE_MIX.items()})
    mix: dict[InstructionType, float] = {}
    if not isinstance(mix_raw, dict):
        fail("instruct.type_mix must be an object")
    else:
        for key, weight in mix_raw.items():
            try:
                kind = InstructionType(key)
            except ValueError:
                fail(f"instruct.type_mix has a bad entry: {key!r}: {weight!r}")
                continue
            mix[kind] = _expect_float(weight, f"instruct.type_mix.{key}", fail)
    candidates_raw = raw.get("candidates", {})
    candidate_paths = {}
    if not isinstance(candidates_raw, dict):
        fail("instruct.candidates must be an object keyed by modality")
        candidates_raw = {}
    for m in GENERATABLE_MODALITIES:
        name = candidates_raw.get(m.value, f"candidates_{m.value}.txt")
        candidate_paths[m] = base / _expect_str(name, f"instruct.candidates.{m.value}", fail)
    return InstructSettings(
        type_mix=mix or dict(DEFAULT_TYPE_MIX),
        seeds_path=base / _expect_str(raw.get("seeds", "seeds.jsonl"), "instruct.seeds", fail),
        candidate_paths=candidate_paths,
        references_path=base / _expect_str(
            raw.get("references", "references.txt"), "instruct.references", fail
        ),
        seeds_per_query=_expect_int(raw.get("seeds_per_query", 3), "instruct.seeds_per_query", fail),
        candidates_per_query=_expect_int(
            raw.get("candidates_per_query", 4), "instruct.candidates_per_query", fail
        ),
        references_per_query=_expect_int(
            raw.get("references_per_query", 3), "instruct.references_per_query", fail
        ),
    )


# --- constructors over a loaded config ---------------------------------------


def build_registry(app: AppConfig) -> ModelRegistry:
    registry = ModelRegistry()
    for entry in app.registry:
        modality = modality_for_kind(entry.kind)
        descriptor = ModelDescriptor(entry.name, entry.kind, modality, entry.priority)
        if entry.backend == "command":
            executor = command_executor(entry.command, EXTENSION_FOR_MODALITY[modality])
        else:
            executor = mock_executor(entry.kind)
        registry.register(descriptor, executor)
    return registry.finalize()


def build_language_backend(app: AppConfig, transport=None):
    if app.language_backend == "external":
        if app.chat is None:
            raise ConfigError("language_backend is external but the chat section is null")
        return ExternalBackend(app.chat, transport=transport)
    return load_scripted_rules(app.backend_rules)


def load_instruct_corpus(app: AppConfig):
    """Seeds, merged candidates, and references from the configured files;
    a file that cannot be read or decoded is a ConfigError naming it."""
    path = app.instruct.seeds_path
    try:
        seeds = read_dataset(path, mode="strict")
        candidates: list[Candidate] = []
        for m in GENERATABLE_MODALITIES:
            path = app.instruct.candidate_paths[m]
            candidates.extend(load_candidates(path, m))
        path = app.instruct.references_path
        references = load_reference_lines(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return seeds, candidates, references
