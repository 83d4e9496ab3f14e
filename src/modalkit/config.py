"""Application config: one JSON file drives every CLI command.

Parse first, then validate everything and report all problems in one
ConfigError.  A field's declared type picks its JSON check, and a field
the file omits keeps its dataclass default.  Input paths (rules, seeds,
candidates, references, chat fixtures) resolve relative to the config
file so a config can travel with its fixtures.  Output paths (the
workspace) resolve against the working directory, because the default
config ships inside the package and installs must stay read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib.resources import files
from pathlib import Path
import json
import sys

from .chat import ChatClientConfig
from .errors import ConfigError, MalformedLine, ModalkitError
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
from .pipeline import ExternalBackend, ScriptedBackend, ScriptedRule, default_pipeline_config
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

    def validate(self) -> None:
        modality_for_kind(self.kind)
        if self.backend not in ("mock", "command"):
            raise ConfigError("backend must be mock or command")
        if self.backend == "command" and not self.command:
            raise ConfigError("the command backend needs a command")


@dataclass
class InstructSettings:
    type_mix: dict[InstructionType, float]
    seeds_path: Path
    candidate_paths: dict[Modality, Path]
    references_path: Path
    seeds_per_query: int = 3
    candidates_per_query: int = 4
    references_per_query: int = 3

    def validate(self) -> None:
        for name in ("seeds_per_query", "candidates_per_query", "references_per_query"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


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


# The train section's own defaults: the paper-scale budget that
# `modalkit params` reports, where TrainConfig defaults to toy sizes.
TRAIN_DEFAULTS = {"d_enc": 1024, "d_llm": 4096, "rank": 32}


def load_app_config(path: str | Path | None = None) -> AppConfig:
    cfg_path = Path(path) if path is not None else default_config_path()
    doc = _read_json(cfg_path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {cfg_path} must be a JSON object")
    base = cfg_path.resolve().parent
    problems: list[str] = []
    fail = problems.append

    def top(key: str, kind: str, default):
        value = doc.get(key, default)
        return value if _check(value, kind, key, fail) else default

    seed = top("seed", "int", 0)
    if seed < 0:
        fail(f"seed must be >= 0, got {seed}")
        seed = 0
    workspace = Path(top("workspace", "str", "runs"))
    language_backend = top("language_backend", "str", "scripted")
    if language_backend not in ("scripted", "external"):
        fail("language_backend must be scripted or external")
    backend_rules = base / top("backend_rules", "str", "rules.json")

    entries: list[RegistryEntry] = []
    raw_registry = doc.get("registry", [])
    if not isinstance(raw_registry, list) or not raw_registry:
        fail("registry must be a nonempty list")
        raw_registry = []
    for i, item in enumerate(raw_registry):
        label = f"registry[{i}]"
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            fail(f"{label} must be an object with name and kind")
        elif (entry := _read_section(RegistryEntry, item, label, fail)) is not None:
            if entry.backend == "command":
                entry.command = str(base / entry.command)
            entries.append(entry)

    raw = {**TRAIN_DEFAULTS, **top("train", "dict", {})}
    d_enc = _parse_enc_dims(raw["d_enc"], "train.d_enc", fail)
    read = {key: raw[key] for key in ("d_llm", "token_count", "bias", "rank") if key in raw}
    train = _read_section(TrainConfig, read, "train", fail, d_enc=d_enc)

    raw = top("pipeline", "dict", {})
    given = vars(default_pipeline_config()) | {"seed": seed}
    if "d_enc" in raw:
        given["d_enc"] = _parse_enc_dims(raw["d_enc"], "pipeline.d_enc", fail)
    read = {"d_llm": raw["d_llm"]} if "d_llm" in raw else {}
    pipeline = _read_section(TrainConfig, read, "pipeline", fail, **given)

    instruct = _parse_instruct(top("instruct", "dict", {}), base, fail)

    chat_cfg = None
    raw = doc.get("chat")
    if raw is not None and not isinstance(raw, dict):
        fail("chat must be an object or null")
    elif raw is not None:
        chat_cfg = _read_section(ChatClientConfig, raw, "chat", fail)
        if chat_cfg is not None and chat_cfg.fixture_path:
            chat_cfg.fixture_path = str(base / chat_cfg.fixture_path)

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


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each type the reader knows: the test a JSON value must pass and the
# wording of the problem when it does not.  Floats accept JSON integers
# but not bools, numeric strings, NaN or the infinities.
_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (
        lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
        "a finite number",
    ),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def _check(value, kind: str, label: str, fail) -> bool:
    test, wording = _KINDS[kind]
    if test(value):
        return True
    fail(f"{label} must be {wording}, got {value!r}")
    return False


def _read_section(cls, raw: dict, label: str, fail, **given):
    """An instance of the dataclass cls from the JSON object raw that its
    own validate(), if it has one, accepts; None after a reported problem.

    A field whose declared type _KINDS knows is checked and taken from
    raw when raw names it; any other field comes from given, else keeps
    the default its dataclass declares."""
    values, ok = dict(given), True
    for f in fields(cls):
        if f.name in raw and f.type in _KINDS:
            value = raw[f.name]
            if _check(value, f.type, f"{label}.{f.name}", fail):
                values[f.name] = float(value) if f.type == "float" else value
            else:
                ok = False
    if not ok:
        return None
    section = cls(**values)
    try:
        if hasattr(section, "validate"):
            section.validate()
    except ModalkitError as exc:
        fail(f"{label}: {exc}")
        return None
    return section


def _parse_enc_dims(raw, label: str, fail) -> dict[Modality, int]:
    """One dim for every modality, or an object with one per modality.
    After a reported problem, dims of 1, so the rest still validates."""
    if isinstance(raw, dict):
        dims = {m: raw.get(m.value, 0) for m in GENERATABLE_MODALITIES}
        if all([_check(dim, "int", f"{label}.{m.value}", fail) for m, dim in dims.items()]):
            return dims
    elif _is_int(raw):
        return uniform_enc_dims(raw)
    else:
        fail(f"{label} must be an integer or an object keyed by modality")
    return uniform_enc_dims(1)


def _parse_instruct(raw: dict, base: Path, fail) -> InstructSettings | None:
    """The file names default to the bundled ones, resolved against base."""
    mix: dict[InstructionType, float] = {}
    mix_raw = raw.get("type_mix", {})
    if not _check(mix_raw, "dict", "instruct.type_mix", fail):
        mix_raw = {}
    for key, weight in mix_raw.items():
        try:
            kind = InstructionType(key)
        except ValueError:
            fail(f"instruct.type_mix has a bad entry: {key!r}: {weight!r}")
            continue
        if _check(weight, "float", f"instruct.type_mix.{key}", fail):
            mix[kind] = float(weight)

    def path(value, label: str) -> Path | None:
        return base / value if _check(value, "str", label, fail) else None

    candidates = raw.get("candidates", {})
    if not isinstance(candidates, dict):
        fail("instruct.candidates must be an object keyed by modality")
        candidates = {}
    names = {
        m: candidates.get(m.value, f"candidates_{m.value}.txt") for m in GENERATABLE_MODALITIES
    }
    return _read_section(
        InstructSettings,
        raw,
        "instruct",
        fail,
        type_mix=mix or dict(DEFAULT_TYPE_MIX),
        seeds_path=path(raw.get("seeds", "seeds.jsonl"), "instruct.seeds"),
        candidate_paths={m: path(n, f"instruct.candidates.{m.value}") for m, n in names.items()},
        references_path=path(raw.get("references", "references.txt"), "instruct.references"),
    )


def load_scripted_rules(path: str | Path) -> ScriptedBackend:
    """The scripted backend of a {"rules": [ScriptedRule objects]} file;
    every problem in it is reported in one ConfigError."""
    doc = _read_json(Path(path), "rules")
    if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
        raise ConfigError(f"rules file {path} must hold a rules list")
    problems: list[str] = []
    fail = problems.append
    rules, known = [], [m.value for m in Modality]
    for i, item in enumerate(doc["rules"]):
        label = f"rules[{i}]"
        if not isinstance(item, dict) or "respond" not in item:
            fail(f"{label} must be an object with a respond field")
            continue
        modalities = item.get("attachment_modalities")
        if isinstance(modalities, list) and all(m in known for m in modalities):
            modalities = tuple(Modality(m) for m in modalities)
        elif modalities is not None:
            names = ", ".join(known)
            fail(f"{label}.attachment_modalities must be a list of {names}, got {modalities!r}")
        rule = _read_section(ScriptedRule, item, label, fail, attachment_modalities=modalities)
        if rule is not None:
            rules.append(rule)
    if not problems:
        try:
            return ScriptedBackend(rules)
        except ConfigError as exc:
            fail(str(exc))
    raise ConfigError(f"rules file {path} is invalid:\n  " + "\n  ".join(problems))


# --- constructors over a loaded config ---------------------------------------


def build_registry(app: AppConfig) -> ModelRegistry:
    registry = ModelRegistry()
    for entry in app.registry:
        descriptor = ModelDescriptor(entry.name, entry.kind, entry.priority)
        if entry.backend == "command":
            extension = EXTENSION_FOR_MODALITY[descriptor.output_modality]
            executor = command_executor(entry.command, extension)
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
    a file that cannot be read or decoded, or a seeds line that is not a
    canonical pair, is a ConfigError naming the file."""
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
    except MalformedLine as exc:
        raise ConfigError(f"seeds file {path}: {exc}") from None
    return seeds, candidates, references
