"""Registry semantics, routing, and plan execution."""

from __future__ import annotations

import json
import os
import stat

import pytest

from conftest import CountingExecutor, counting_registry
from modalkit.errors import (
    DuplicateName,
    InvariantViolation,
    RegistryFinalized,
    UnknownModelKind,
)
from modalkit.meta import Invocation, MetaResponse, Modality
from modalkit.zoo import (
    ModelDescriptor,
    ModelRegistry,
    command_executor,
    default_registry,
    execute_plan,
    mock_executor,
    route,
)


def image_desc(name: str, priority: int = 0) -> ModelDescriptor:
    return ModelDescriptor(name, "text-to-image", priority)


def null_executor(prompt: str, seed: int) -> bytes:
    return b"x"


# --- registry -----------------------------------------------------------------


def test_register_one_entry():
    reg = ModelRegistry()
    reg.register(image_desc("mock-sd"), null_executor)
    assert [d.name for d in reg.descriptors()] == ["mock-sd"]
    assert reg.serves_kind("text-to-image")
    assert not reg.serves_kind("text-to-audio")


def test_duplicate_name_rejected():
    reg = ModelRegistry()
    reg.register(image_desc("mock-sd"), null_executor)
    with pytest.raises(DuplicateName):
        reg.register(image_desc("mock-sd"), null_executor)


def test_finalized_registry_is_immutable():
    reg = ModelRegistry()
    reg.register(image_desc("mock-sd"), null_executor)
    reg.finalize()
    with pytest.raises(RegistryFinalized):
        reg.register(image_desc("other"), null_executor)


def test_resolution_prefers_higher_priority():
    reg = ModelRegistry()
    reg.register(image_desc("low", priority=0), null_executor)
    reg.register(image_desc("high", priority=5), null_executor)
    assert reg.finalize().resolve("text-to-image").name == "high"


def test_resolution_tie_breaks_lexicographically():
    # Registration order must not matter.
    for order in (["beta", "alpha"], ["alpha", "beta"]):
        reg = ModelRegistry()
        for name in order:
            reg.register(image_desc(name, priority=3), null_executor)
        assert reg.finalize().resolve("text-to-image").name == "alpha"


def test_resolve_unknown_kind():
    reg = ModelRegistry()
    reg.register(image_desc("only-image"), null_executor)
    with pytest.raises(UnknownModelKind):
        reg.finalize().resolve("text-to-audio")


def test_descriptor_derives_modality_from_kind():
    assert ModelDescriptor("x", "text-to-audio").output_modality is Modality.AUDIO
    with pytest.raises(InvariantViolation):
        ModelDescriptor("bad", "text-to-smell")
    with pytest.raises(InvariantViolation):
        ModelDescriptor("", "text-to-image")


def test_default_registry_serves_all_kinds():
    reg = default_registry()
    assert reg.finalized
    for kind in ("text-to-image", "text-to-audio", "text-to-video"):
        assert reg.serves_kind(kind)


# --- routing ------------------------------------------------------------------


def test_route_empty_meta_gives_empty_plan():
    registry, _ = counting_registry()
    plan = route(MetaResponse("just text", ()), registry)
    assert plan.items == ()
    assert plan.text == "just text"


def test_route_cat_example_binds_image_backend():
    reg = ModelRegistry()
    reg.register(image_desc("mock-sd"), null_executor)
    meta = MetaResponse("", (Invocation("text-to-image", "A photo of a cat"),))
    plan = route(meta, reg.finalize())
    assert len(plan.items) == 1
    assert plan.items[0].descriptor.name == "mock-sd"
    assert plan.items[0].invocation.prompt == "A photo of a cat"


def test_route_preserves_order():
    registry, _ = counting_registry()
    meta = MetaResponse(
        "",
        (
            Invocation("text-to-image", "a"),
            Invocation("text-to-audio", "b"),
            Invocation("text-to-image", "c"),
        ),
    )
    plan = route(meta, registry)
    assert [i.invocation.model for i in plan.items] == [
        "text-to-image",
        "text-to-audio",
        "text-to-image",
    ]


def test_route_requires_finalized_registry():
    reg = ModelRegistry()
    reg.register(image_desc("mock-sd"), null_executor)
    with pytest.raises(InvariantViolation):
        route(MetaResponse("x", ()), reg)


def test_route_is_deterministic():
    registry, _ = counting_registry()
    meta = MetaResponse("", (Invocation("text-to-audio", "b"),))
    assert route(meta, registry) == route(meta, registry)


# --- execution ------------------------------------------------------------------


def test_execute_empty_plan(tmp_workspace):
    registry, _ = counting_registry()
    plan = route(MetaResponse("only text", ()), registry)
    response = execute_plan(plan, registry, tmp_workspace, seed=0)
    assert response.text == "only text"
    assert response.artifacts == () and response.failures == ()
    manifest = json.loads((tmp_workspace / "manifest.json").read_text())
    assert manifest["text"] == "only text"
    assert manifest["artifacts"] == []


def test_execute_single_image_seed7_deterministic(tmp_path):
    registry = default_registry()
    meta = MetaResponse("", (Invocation("text-to-image", "A photo of a cat"),))
    blobs = []
    for sub in ("one", "two"):
        ws = tmp_path / sub
        response = execute_plan(route(meta, registry), registry, ws, seed=7)
        ppms = sorted(p.name for p in ws.glob("*.ppm"))
        assert ppms == ["artifact_0_text-to-image.ppm"]
        assert [a.path for a in response.artifacts] == ppms
        blobs.append((ws / ppms[0]).read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].startswith(b"P6\n")


def test_execute_naming_rule(tmp_workspace):
    registry, _ = counting_registry()
    meta = MetaResponse(
        "", (Invocation("text-to-image", "a"), Invocation("text-to-audio", "b"))
    )
    response = execute_plan(route(meta, registry), registry, tmp_workspace, seed=0)
    assert [a.path for a in response.artifacts] == [
        "artifact_0_text-to-image.ppm",
        "artifact_1_text-to-audio.wav",
    ]
    for record in response.artifacts:
        assert (tmp_workspace / record.path).exists()


def test_execute_counts_calls_and_mixes_seed_per_index(tmp_workspace):
    registry, executors = counting_registry()
    meta = MetaResponse(
        "",
        (
            Invocation("text-to-image", "same"),
            Invocation("text-to-image", "same"),
            Invocation("text-to-audio", "other"),
        ),
    )
    execute_plan(route(meta, registry), registry, tmp_workspace, seed=40)
    image_calls = executors["text-to-image"].calls
    assert len(image_calls) == 2
    assert len(executors["text-to-audio"].calls) == 1
    # identical invocations still see distinct per-item seeds
    assert image_calls[0] == ("same", 40 ^ 0)
    assert image_calls[1] == ("same", 40 ^ 1)
    first = (tmp_workspace / "artifact_0_text-to-image.ppm").read_bytes()
    second = (tmp_workspace / "artifact_1_text-to-image.ppm").read_bytes()
    assert first != second


def test_execute_isolates_failures(tmp_workspace):
    reg = ModelRegistry()

    def boom(prompt: str, seed: int) -> bytes:
        raise RuntimeError("backend fell over")

    reg.register(ModelDescriptor("bad-image", "text-to-image"), boom)
    audio = CountingExecutor("text-to-audio")
    reg.register(ModelDescriptor("ok-audio", "text-to-audio"), audio)
    meta = MetaResponse(
        "", (Invocation("text-to-image", "a"), Invocation("text-to-audio", "b"))
    )
    response = execute_plan(route(meta, reg.finalize()), reg, tmp_workspace, seed=0)
    assert len(response.artifacts) == 1
    assert len(response.failures) == 1
    assert len(response.artifacts) + len(response.failures) == 2
    failure = response.failures[0]
    assert failure.index == 0
    assert "BackendFailure" in failure.error and "fell over" in failure.error
    assert audio.calls == [("b", 1)]
    assert response.artifacts[0].path == "artifact_1_text-to-audio.wav"
    manifest = json.loads((tmp_workspace / "manifest.json").read_text())
    assert len(manifest["failures"]) == 1


def test_execute_with_workers_matches_serial(tmp_path):
    registry = default_registry()
    meta = MetaResponse(
        "par",
        tuple(
            Invocation(kind, f"prompt {i}")
            for i, kind in enumerate(
                ["text-to-image", "text-to-audio", "text-to-video", "text-to-image"]
            )
        ),
    )
    serial_ws, par_ws = tmp_path / "serial", tmp_path / "parallel"
    serial = execute_plan(route(meta, registry), registry, serial_ws, seed=3, workers=1)
    parallel = execute_plan(route(meta, registry), registry, par_ws, seed=3, workers=4)
    assert [a.path for a in serial.artifacts] == [a.path for a in parallel.artifacts]
    for record in serial.artifacts:
        assert (serial_ws / record.path).read_bytes() == (par_ws / record.path).read_bytes()
    assert (serial_ws / "manifest.json").read_text() == (par_ws / "manifest.json").read_text()


def test_execute_plan_leaves_only_the_artifacts_its_manifest_lists(tmp_workspace):
    def boom(prompt: str, seed: int) -> bytes:
        raise RuntimeError("down")

    failing = ModelRegistry()
    failing.register(ModelDescriptor("bad-image", "text-to-image"), boom)
    tmp_workspace.mkdir()
    (tmp_workspace / "notes.txt").write_text("mine")
    lookalike = "artifact_0_text-to-image.png"  # not a name artifact_name makes
    (tmp_workspace / lookalike).write_bytes(b"keep")
    for registry, kinds in (
        (default_registry(), ["text-to-image", "text-to-audio"]),
        (failing.finalize(), ["text-to-image"]),
    ):
        meta = MetaResponse("", tuple(Invocation(kind, "p") for kind in kinds))
        execute_plan(route(meta, registry), registry, tmp_workspace, seed=0)
        manifest = json.loads((tmp_workspace / "manifest.json").read_text())
        listed = {a["path"] for a in manifest["artifacts"]}
        assert set(os.listdir(tmp_workspace)) == listed | {"notes.txt", lookalike, "manifest.json"}
    assert listed == set() and (tmp_workspace / lookalike).read_bytes() == b"keep"


def test_mock_executor_delegates_to_renderer():
    from modalkit.media import render_placeholder

    run = mock_executor("text-to-image")
    assert run("cat", 9) == render_placeholder("text-to-image", "cat", 9)


# --- command backend --------------------------------------------------------------


def write_script(path, body: str) -> str:
    path.write_text(body, encoding="utf-8")
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return str(path)


def test_command_executor_round_trip(tmp_path):
    script = write_script(
        tmp_path / "gen.sh",
        "#!/bin/sh\nprintf '%s:%s' \"$1\" \"$2\" > \"$3\"\n",
    )
    run = command_executor(script, "ppm")
    assert run("hello", 12) == b"hello:12"


def test_command_executor_failure_is_isolated(tmp_path, tmp_workspace):
    script = write_script(tmp_path / "bad.sh", "#!/bin/sh\necho nope >&2\nexit 3\n")
    reg = ModelRegistry()
    reg.register(
        ModelDescriptor("cmd-image", "text-to-image"),
        command_executor(script, "ppm"),
    )
    meta = MetaResponse("", (Invocation("text-to-image", "x"),))
    response = execute_plan(route(meta, reg.finalize()), reg, tmp_workspace, seed=0)
    assert response.artifacts == ()
    assert len(response.failures) == 1
    assert "exited 3" in response.failures[0].error
