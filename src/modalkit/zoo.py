"""Model zoo: registry, routing, and plan execution.

The registry maps backend names to executors behind the three generator
kinds.  Routing turns a validated meta-response into an ordered plan;
execution runs every plan item, isolates per-item failures, and writes
artifacts plus a manifest into a workspace directory.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import DuplicateName, InvariantViolation, RegistryFinalized, UnknownModelKind
from .media import EXTENSION_FOR_MODALITY, render_placeholder
from .meta import (
    GENERATABLE_MODALITIES,
    Invocation,
    MetaResponse,
    Modality,
    kind_for_modality,
    modality_for_kind,
)

# An executor turns (prompt, seed) into artifact bytes.
Executor = Callable[[str, int], bytes]

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class ModelDescriptor:
    name: str
    kind: str
    output_modality: Modality = field(init=False)  # derived from kind
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvariantViolation("backend name is empty")
        object.__setattr__(self, "output_modality", modality_for_kind(self.kind))


class ModelRegistry:
    """Name -> (descriptor, executor) table, immutable once finalized."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[ModelDescriptor, Executor]] = {}
        self._finalized = False

    @property
    def finalized(self) -> bool:
        return self._finalized

    def register(self, descriptor: ModelDescriptor, executor: Executor) -> None:
        if self._finalized:
            raise RegistryFinalized("cannot register after finalize()")
        if descriptor.name in self._entries:
            raise DuplicateName(descriptor.name)
        self._entries[descriptor.name] = (descriptor, executor)

    def finalize(self) -> "ModelRegistry":
        self._finalized = True
        return self

    def serves_kind(self, kind: str) -> bool:
        return any(d.kind == kind for d, _ in self._entries.values())

    def resolve(self, kind: str) -> ModelDescriptor:
        """Highest priority wins; ties break toward the lexicographically
        smaller name so resolution never depends on registration order."""
        candidates = [d for d, _ in self._entries.values() if d.kind == kind]
        if not candidates:
            raise UnknownModelKind(kind)
        return min(candidates, key=lambda d: (-d.priority, d.name))

    def executor_for(self, name: str) -> Executor:
        return self._entries[name][1]

    def descriptors(self) -> list[ModelDescriptor]:
        return [d for d, _ in self._entries.values()]


@dataclass(frozen=True)
class PlanItem:
    invocation: Invocation
    descriptor: ModelDescriptor


@dataclass(frozen=True)
class InvocationPlan:
    """Routed meta-response: one item per invocation, in order, plus the
    free text carried through untouched."""

    items: tuple[PlanItem, ...]
    text: str = ""


@dataclass(frozen=True)
class ArtifactRecord:
    index: int
    modality: Modality
    path: str  # file name, relative to the workspace
    model: str
    prompt: str


@dataclass(frozen=True)
class FailureRecord:
    index: int
    model: str
    prompt: str
    error: str


@dataclass(frozen=True)
class FinalResponse:
    text: str
    artifacts: tuple[ArtifactRecord, ...] = ()
    failures: tuple[FailureRecord, ...] = ()
    diagnostics: tuple[str, ...] = ()


def route(meta: MetaResponse, registry: ModelRegistry) -> InvocationPlan:
    if not registry.finalized:
        raise InvariantViolation("route requires a finalized registry")
    items = tuple(PlanItem(inv, registry.resolve(inv.model)) for inv in meta.invocations)
    return InvocationPlan(items, meta.text)


def artifact_name(index: int, kind: str, modality: Modality) -> str:
    return f"artifact_{index}_{kind}.{EXTENSION_FOR_MODALITY[modality]}"


# The names artifact_name makes: a plan index, then a kind and its extension.
_ARTIFACT_NAME = re.compile(
    r"artifact_(0|[1-9][0-9]*)_(%s)"
    % "|".join(
        re.escape(f"{kind_for_modality(m)}.{ext}") for m, ext in EXTENSION_FOR_MODALITY.items()
    )
)


def clear_artifacts(workspace: Path) -> None:
    """Delete every file in workspace named the way artifact_name names
    one, so a workspace never holds artifacts of an earlier run; any
    other file stays."""
    for entry in os.scandir(workspace):
        if _ARTIFACT_NAME.fullmatch(entry.name):
            os.unlink(entry.path)


def execute_plan(
    plan: InvocationPlan,
    registry: ModelRegistry,
    workspace: str | Path,
    seed: int,
    workers: int = 1,
) -> FinalResponse:
    """Run every plan item, replace the workspace's artifacts with this
    plan's, and write manifest.json.

    Item i runs with seed ^ i so repeated identical invocations in one
    plan still get distinct bytes.  A failing backend is recorded and the
    remaining items still run.  Items may run concurrently; the manifest
    always lists results in plan order.
    """
    ws = Path(workspace)
    ws.mkdir(parents=True, exist_ok=True)

    def run_item(pair: tuple[int, PlanItem]) -> tuple[int, bytes | None, str | None]:
        i, item = pair
        executor = registry.executor_for(item.descriptor.name)
        try:
            return i, executor(item.invocation.prompt, (seed ^ i) & _SEED_MASK), None
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            return i, None, f"{type(exc).__name__}: {exc}"

    indexed = list(enumerate(plan.items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_item, indexed))
    else:
        results = [run_item(p) for p in indexed]

    clear_artifacts(ws)
    artifacts: list[ArtifactRecord] = []
    failures: list[FailureRecord] = []
    for (i, item), (_, blob, err) in zip(indexed, results):
        inv, desc = item.invocation, item.descriptor
        if err is not None:
            failures.append(FailureRecord(i, inv.model, inv.prompt, f"BackendFailure: {err}"))
            continue
        name = artifact_name(i, inv.model, desc.output_modality)
        (ws / name).write_bytes(blob)
        artifacts.append(ArtifactRecord(i, desc.output_modality, name, desc.name, inv.prompt))

    response = FinalResponse(plan.text, tuple(artifacts), tuple(failures))
    (ws / "manifest.json").write_text(manifest_json(response), encoding="utf-8")
    return response


def manifest_json(response: FinalResponse) -> str:
    payload = {
        "text": response.text,
        "artifacts": [
            {
                "index": a.index,
                "modality": a.modality.value,
                "path": a.path,
                "model": a.model,
                "prompt": a.prompt,
            }
            for a in response.artifacts
        ],
        "failures": [
            {"index": f.index, "model": f.model, "prompt": f.prompt, "error": f.error}
            for f in response.failures
        ],
        "diagnostics": list(response.diagnostics),
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


# --- stock executors -------------------------------------------------------


def mock_executor(kind: str) -> Executor:
    """Deterministic placeholder renderer for one kind."""

    def run(prompt: str, seed: int) -> bytes:
        return render_placeholder(kind, prompt, seed)

    return run


def command_executor(command: str, suffix: str, timeout: float = 60.0) -> Executor:
    """Shell out to a user executable: argv = [command, prompt, seed, out_path].

    The executable must write the artifact to out_path; its bytes become
    the artifact."""

    def run(prompt: str, seed: int) -> bytes:
        with tempfile.NamedTemporaryFile(suffix="." + suffix, delete=False) as tmp:
            out_path = tmp.name
        try:
            proc = subprocess.run(
                [command, prompt, str(seed), out_path],
                capture_output=True,
                timeout=timeout,
                check=False,
            )
            if proc.returncode != 0:
                tail = proc.stderr.decode("utf-8", "replace").strip()[-200:]
                raise RuntimeError(f"command exited {proc.returncode}: {tail}")
            return Path(out_path).read_bytes()
        finally:
            Path(out_path).unlink(missing_ok=True)

    return run


def default_registry() -> ModelRegistry:
    """Three placeholder backends, one per generator kind, finalized."""
    reg = ModelRegistry()
    for modality in GENERATABLE_MODALITIES:
        kind = kind_for_modality(modality)
        desc = ModelDescriptor(f"placeholder-{modality.value}", kind)
        reg.register(desc, mock_executor(kind))
    return reg.finalize()
