"""Whole-pipeline behavior: staging, hard errors, degraded runs, artifacts."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import over_hostile_json
from test_golden_bytes import _load_script
from modalkit import chat, pipeline
from modalkit.backends import ExternalBackend, ScriptedBackend, ScriptedRule
from modalkit.config import load_scripted_rules
from modalkit.errors import (
    AttachmentMissing,
    BadMagic,
    ConfigError,
    EmptyMeta,
    InstructionRequired,
    InvalidArgument,
    ModalityMismatch,
    ShapeMismatch,
    TransportError,
)
from modalkit.instruct import Attachment
from modalkit.media import render_placeholder
from modalkit.meta import Modality
from modalkit.pipeline import PipelineTrace, StageRecord, UserRequest, run
from modalkit.projection import (
    MODALITY_CODES,
    encode_stub,
    init_model,
    trainable_arrays,
    write_embedding,
)
from modalkit.rng import SplitMix64, fnv1a64, mix64
from modalkit.sizing import TrainConfig, uniform_enc_dims
from modalkit.zoo import ModelDescriptor, ModelRegistry, default_registry

CAT_CANONICAL = (
    '{"text":"","invocations":[{"model":"text-to-image","prompt":"A photo of a cat"}]}'
)
TEXT_ONLY = '{"text":"Nothing to generate.","invocations":[]}'

SUCCESS_STAGES = [
    "validate",
    "encode",
    "project",
    "backend",
    "parse",
    "validate_invocations",
    "route",
    "execute",
]


def cat_backend() -> ScriptedBackend:
    return ScriptedBackend(
        [
            ScriptedRule(
                respond=CAT_CANONICAL,
                instruction_contains="image",
                attachment_modalities=(Modality.AUDIO,),
            ),
            ScriptedRule(respond=TEXT_ONLY),
        ]
    )


class Explosive:
    def generate(self, instruction, modalities):
        raise AssertionError("backend must not run")


def cat_request(tmp_path) -> UserRequest:
    wav = tmp_path / "cat_meowing.wav"
    wav.write_bytes(render_placeholder("text-to-audio", "a cat meowing", 0))
    return UserRequest(
        instruction="Generate an image of an animal based on the provided vocalization.",
        attachments=(Attachment(str(wav), Modality.AUDIO),),
    )


def test_cat_scenario_end_to_end(tmp_path):
    ws = tmp_path / "ws"
    response, trace = run(cat_request(tmp_path), default_registry(), cat_backend(), ws, seed=5)
    assert [a.path for a in response.artifacts] == ["artifact_0_text-to-image.ppm"]
    assert response.failures == () and response.diagnostics == ()
    assert [s.name for s in trace.stages] == SUCCESS_STAGES
    blob = (ws / "artifact_0_text-to-image.ppm").read_bytes()
    assert blob == render_placeholder("text-to-image", "A photo of a cat", 5 ^ 0)
    manifest = json.loads((ws / "manifest.json").read_text())
    assert manifest["artifacts"][0]["prompt"] == "A photo of a cat"
    assert (ws / "trace.json").exists()


def test_catch_all_rule_yields_text_only_run(tmp_path):
    wav = tmp_path / "x.wav"
    wav.write_bytes(b"RIFFdata")
    req = UserRequest("Just chat with me.", (Attachment(str(wav), Modality.AUDIO),))
    response, trace = run(req, default_registry(), cat_backend(), tmp_path / "ws")
    assert response.text == "Nothing to generate."
    assert response.artifacts == () and response.failures == ()
    assert [s.name for s in trace.stages] == SUCCESS_STAGES


def test_empty_instruction_raises_before_any_work(tmp_path):
    ws = tmp_path / "never"
    with pytest.raises(InstructionRequired):
        run(UserRequest("   "), default_registry(), Explosive(), ws)
    assert not ws.exists()


def test_missing_attachment_raises_without_workspace(tmp_path):
    ws = tmp_path / "never"
    req = UserRequest("Describe.", (Attachment(str(tmp_path / "ghost.wav"), Modality.AUDIO),))
    with pytest.raises(AttachmentMissing):
        run(req, default_registry(), cat_backend(), ws)
    assert not ws.exists()


def test_modality_extension_disagreement_raises(tmp_path):
    wav = tmp_path / "clip.wav"
    wav.write_bytes(b"x")
    req = UserRequest("Describe.", (Attachment(str(wav), Modality.IMAGE),))
    with pytest.raises(ModalityMismatch):
        run(req, default_registry(), cat_backend(), tmp_path / "ws")


def test_unrecognized_extension_raises(tmp_path):
    txt = tmp_path / "notes.txt"
    txt.write_text("hello")
    ws = tmp_path / "ws"
    req = UserRequest("Describe.", (Attachment(str(txt), Modality.IMAGE),))
    with pytest.raises(ModalityMismatch):
        run(req, default_registry(), cat_backend(), ws)
    assert not ws.exists()


def test_unserved_kind_degrades_to_text_only(tmp_path):
    ws = tmp_path / "ws"
    backend = ScriptedBackend(
        [
            ScriptedRule(
                respond='{"text":"trying","invocations":'
                '[{"model":"text-to-hologram","prompt":"x"}]}'
            )
        ]
    )
    response, trace = run(UserRequest("Go."), default_registry(), backend, ws)
    assert response.artifacts == () and response.failures == ()
    assert response.text == "trying"
    assert len(response.diagnostics) == 1 and "UnknownModelKind" in response.diagnostics[0]
    assert trace.stages[-1].name == "degraded"
    assert "route" not in [s.name for s in trace.stages]
    assert sorted(p.name for p in ws.iterdir()) == ["manifest.json", "trace.json"]
    manifest = json.loads((ws / "manifest.json").read_text())
    assert manifest["artifacts"] == [] and manifest["diagnostics"]


def test_backend_empty_reply_is_a_hard_error(tmp_path):
    backend = ScriptedBackend([ScriptedRule(respond='{"text":"","invocations":[]}')])
    with pytest.raises(EmptyMeta):
        run(UserRequest("Go."), default_registry(), backend, tmp_path / "ws")


def test_two_runs_are_bit_identical(tmp_path):
    req = cat_request(tmp_path)
    registry = default_registry()
    outs = []
    for name in ("one", "two"):
        ws = tmp_path / name
        response, trace = run(req, registry, cat_backend(), ws, seed=11)
        outs.append(
            (
                (ws / "manifest.json").read_bytes(),
                (ws / "artifact_0_text-to-image.ppm").read_bytes(),
                trace.to_json(include_timings=False),
                response,
            )
        )
    assert outs[0] == outs[1]


def test_plan_ordering_multiple_invocations(tmp_path):
    both = (
        '{"text":"two things","invocations":['
        '{"model":"text-to-audio","prompt":"rain"},'
        '{"model":"text-to-image","prompt":"a cloud"}]}'
    )
    backend = ScriptedBackend([ScriptedRule(respond=both)])
    ws = tmp_path / "ws"
    response, _ = run(UserRequest("Make both."), default_registry(), backend, ws, seed=3)
    assert [a.path for a in response.artifacts] == [
        "artifact_0_text-to-audio.wav",
        "artifact_1_text-to-image.ppm",
    ]
    assert (ws / "artifact_0_text-to-audio.wav").read_bytes() == render_placeholder(
        "text-to-audio", "rain", 3 ^ 0
    )
    assert (ws / "artifact_1_text-to-image.ppm").read_bytes() == render_placeholder(
        "text-to-image", "a cloud", 3 ^ 1
    )


# --- .mvec attachments and request faults -------------------------------------------


def _mvec(tmp_path, modality=Modality.IMAGE, dim=64, byte_at=None) -> str:
    """An .mvec file holding one encoded vector; byte_at=(offset, value) corrupts one header byte."""
    path = tmp_path / "emb.mvec"
    write_embedding(encode_stub(b"payload", modality, dim, seed=0), path)
    if byte_at is not None:
        blob = bytearray(path.read_bytes())
        offset, value = byte_at
        blob[offset] = value
        path.write_bytes(bytes(blob))
    return str(path)


def test_mvec_attachment_happy_path(tmp_path):
    req = UserRequest("Describe.", (Attachment(_mvec(tmp_path), Modality.IMAGE),))
    _, trace = run(req, default_registry(), cat_backend(), tmp_path / "ws")
    (encode,) = [s for s in trace.stages if s.name == "encode"]
    assert encode.details == {"dims": [64]}


def test_a_file_rewritten_at_the_same_size_and_mtime_encodes_its_new_bytes(tmp_path):
    # The attachment hash memo is keyed by content, so a rewrite that a
    # (path, size, mtime) key would miss still gives the new bytes' vector.
    cfg = TrainConfig(d_enc=uniform_enc_dims(16), d_llm=8, rank=2)
    path = tmp_path / "clip.wav"
    att = Attachment(str(path), Modality.AUDIO)
    encoded = []
    for data in (SplitMix64(1).bytes(3000), SplitMix64(2).bytes(3000)):
        path.write_bytes(data)
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        stream = SplitMix64(mix64(fnv1a64(data), MODALITY_CODES[Modality.AUDIO], 5))
        reference = np.array(stream.unit_floats(16))
        vec = pipeline._encode_attachment(att, cfg, 5)
        assert np.array_equal(vec.values, reference / np.linalg.norm(reference))
        encoded.append(vec.values)
    assert not np.array_equal(*encoded)


def test_mvec_modality_header_mismatch(tmp_path):
    ws = tmp_path / "ws"
    req = UserRequest("Describe.", (Attachment(_mvec(tmp_path, Modality.AUDIO), Modality.IMAGE),))
    with pytest.raises(ModalityMismatch):
        run(req, default_registry(), cat_backend(), ws)
    assert not ws.exists()


def test_mvec_dim_mismatch_vs_config(tmp_path):
    ws = tmp_path / "ws"
    req = UserRequest("Describe.", (Attachment(_mvec(tmp_path, dim=32), Modality.IMAGE),))
    with pytest.raises(ShapeMismatch):
        run(req, default_registry(), cat_backend(), ws)
    assert not ws.exists()


def _attach(path, modality: Modality) -> UserRequest:
    return UserRequest("Describe.", (Attachment(str(path), modality),))


def _fault_empty_instruction(tmp_path):
    return UserRequest("   "), InstructionRequired, "request instruction is empty"


def _fault_missing(tmp_path):
    path = tmp_path / "ghost.wav"
    return _attach(path, Modality.AUDIO), AttachmentMissing, str(path)


def _fault_directory(tmp_path):
    path = tmp_path / "dir.wav"
    path.mkdir()
    return _attach(path, Modality.AUDIO), InvalidArgument, f"attachment {path} is not a regular file"


def _fault_unknown_extension(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("hello")
    return _attach(path, Modality.IMAGE), ModalityMismatch, f"{path}: unrecognized extension"


def _fault_extension_disagrees(tmp_path):
    path = tmp_path / "clip.wav"
    path.write_bytes(b"x")
    return (
        _attach(path, Modality.IMAGE),
        ModalityMismatch,
        f"{path}: extension says audio, request says image",
    )


def _fault_text_modality(tmp_path):
    path = _mvec(tmp_path)
    return _attach(path, Modality.TEXT), ModalityMismatch, f"{path}: attachments cannot be text"


def _fault_mvec_magic(tmp_path):
    path = _mvec(tmp_path, byte_at=(0, ord("X")))
    return _attach(path, Modality.IMAGE), BadMagic, f"{path}: not an MVEC file"


def _fault_mvec_version(tmp_path):
    path = _mvec(tmp_path, byte_at=(4, 9))
    return _attach(path, Modality.IMAGE), BadMagic, f"{path}: unsupported version 9"


def _fault_mvec_modality(tmp_path):
    path = _mvec(tmp_path, Modality.AUDIO)
    return (
        _attach(path, Modality.IMAGE),
        ModalityMismatch,
        f"{path}: stored modality audio, request says image",
    )


def _fault_mvec_dim(tmp_path):
    path = _mvec(tmp_path, dim=32)
    return _attach(path, Modality.IMAGE), ShapeMismatch, f"{path}: stored dim 32, config wants 64"


def _fault_instruction_surrogate(tmp_path):
    req = UserRequest("caf\udcff")  # the byte 0xff, as a UTF-8 argv decodes it
    return req, InvalidArgument, "instruction holds an unpaired surrogate"


def _fault_path_surrogate(tmp_path):
    path = tmp_path / "snd\udcff.wav"  # a file named with the byte 0xff
    path.write_bytes(b"RIFFdata")
    return (
        _attach(path, Modality.AUDIO),
        InvalidArgument,
        f"attachment path {str(path)!r} holds an unpaired surrogate",
    )


REQUEST_FAULTS = {
    "empty-instruction": _fault_empty_instruction,
    "missing-file": _fault_missing,
    "directory": _fault_directory,
    "unknown-extension": _fault_unknown_extension,
    "extension-disagrees": _fault_extension_disagrees,
    "text-modality": _fault_text_modality,
    "mvec-bad-magic": _fault_mvec_magic,
    "mvec-bad-version": _fault_mvec_version,
    "mvec-stored-modality": _fault_mvec_modality,
    "mvec-stored-dim": _fault_mvec_dim,
    "instruction-surrogate": _fault_instruction_surrogate,
    "path-surrogate": _fault_path_surrogate,
}


def _workspace_bytes(ws):
    if not ws.exists():
        return None
    return {p.name: p.read_bytes() for p in ws.iterdir()}


@pytest.mark.parametrize(
    "fault, earlier_run",
    [(name, False) for name in REQUEST_FAULTS] + [("path-surrogate", True)],
    ids=[*REQUEST_FAULTS, "earlier-run-left-untouched"],
)
def test_a_request_fault_raises_before_the_workspace_is_touched(tmp_path, fault, earlier_run):
    ws = tmp_path / "ws"
    if earlier_run:
        run(cat_request(tmp_path), default_registry(), cat_backend(), ws, seed=5)
    before = _workspace_bytes(ws)
    assert bool(before) == earlier_run
    req, error, message = REQUEST_FAULTS[fault](tmp_path)
    with pytest.raises(error) as caught:
        run(req, default_registry(), Explosive(), ws)
    assert type(caught.value) is error and str(caught.value) == message
    assert _workspace_bytes(ws) == before


class Unreachable:
    def generate(self, instruction, modalities):
        raise TransportError("endpoint unreachable")


class WritesThenFails:
    """Leaves a file in the workspace, the way a user hook could, then fails."""

    def __init__(self, ws):
        self.ws = ws

    def generate(self, instruction, modalities):
        (self.ws / "notes.txt").write_text("kept")
        raise TransportError("endpoint unreachable")


# A fault after the workspace is created and before its first write.
FAILED_RUNS = {
    "empty-reply": (
        lambda ws: ScriptedBackend([ScriptedRule(respond='{"text":"","invocations":[]}')]),
        EmptyMeta,
    ),
    "backend-raises": (lambda ws: Unreachable(), TransportError),
}


@pytest.mark.parametrize("fault", list(FAILED_RUNS))
def test_a_failed_run_removes_the_directories_it_created(tmp_path, fault):
    make_backend, error = FAILED_RUNS[fault]
    ws = tmp_path / "a" / "b" / "ws"
    with pytest.raises(error):
        run(UserRequest("Go."), default_registry(), make_backend(ws), ws)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault", list(FAILED_RUNS))
def test_a_failed_run_leaves_an_earlier_runs_workspace_as_it_was(tmp_path, fault):
    make_backend, error = FAILED_RUNS[fault]
    ws = tmp_path / "ws"
    run(cat_request(tmp_path), default_registry(), cat_backend(), ws, seed=5)
    before = _workspace_bytes(ws)
    with pytest.raises(error):
        run(UserRequest("Go."), default_registry(), make_backend(ws), ws)
    assert _workspace_bytes(ws) == before


def test_a_failed_run_keeps_an_existing_parent_and_a_written_workspace(tmp_path):
    parent = tmp_path / "runs"
    parent.mkdir()
    with pytest.raises(EmptyMeta):
        run(UserRequest("Go."), default_registry(), FAILED_RUNS["empty-reply"][0](None), parent / "ws")
    assert parent.is_dir() and list(parent.iterdir()) == []
    ws = parent / "a" / "ws"
    with pytest.raises(TransportError):
        run(UserRequest("Go."), default_registry(), WritesThenFails(ws), ws)
    assert _workspace_bytes(ws) == {"notes.txt": b"kept"}


def test_an_attachments_faults_come_before_the_next_attachment(tmp_path):
    bad = _mvec(tmp_path, byte_at=(0, ord("X")))
    req = UserRequest(
        "Describe.",
        (Attachment(bad, Modality.IMAGE), Attachment(str(tmp_path / "ghost.wav"), Modality.AUDIO)),
    )
    with pytest.raises(BadMagic):
        run(req, default_registry(), Explosive(), tmp_path / "ws")


# --- backends ------------------------------------------------------------------------


def test_scripted_backend_requires_catch_all():
    with pytest.raises(ConfigError):
        ScriptedBackend([])
    with pytest.raises(ConfigError):
        ScriptedBackend([ScriptedRule(respond="x", instruction_contains="hi")])


def test_scripted_rule_matching_is_case_insensitive_and_subset():
    rule = ScriptedRule(
        respond="r",
        instruction_contains="IMAGE",
        attachment_modalities=(Modality.AUDIO,),
    )
    assert rule.matches("make an image please", (Modality.AUDIO, Modality.VIDEO))
    assert not rule.matches("make a picture", (Modality.AUDIO,))
    assert not rule.matches("make an image", (Modality.VIDEO,))


def test_load_scripted_rules_round_trip(tmp_path):
    doc = {
        "rules": [
            {
                "respond": CAT_CANONICAL,
                "instruction_contains": "image",
                "attachment_modalities": ["audio"],
            },
            {"respond": TEXT_ONLY},
        ]
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    backend = load_scripted_rules(path)
    assert backend.generate("an image please", (Modality.AUDIO,)) == CAT_CANONICAL
    assert backend.generate("hello", ()) == TEXT_ONLY


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[]",
        '{"rules": "nope"}',
        '{"rules": [{"respond": "x", "attachment_modalities": ["smell"]}]}',
        '{"rules": [{"instruction_contains": "x"}]}',
        '{"rules": [{"respond": "x", "instruction_contains": "hi"}]}',
    ],
)
def test_load_scripted_rules_rejects_bad_files(tmp_path, doc):
    path = tmp_path / "rules.json"
    path.write_text(doc)
    with pytest.raises(ConfigError):
        load_scripted_rules(path)


def test_external_backend_uses_injected_transport(tmp_path):
    sent = []

    class FakeTransport:
        def send(self, payload):
            sent.append(payload)
            return CAT_CANONICAL

    backend = ExternalBackend(chat.ChatClientConfig(), transport=FakeTransport())
    body = backend.generate("Make an image.", (Modality.AUDIO,))
    assert body == CAT_CANONICAL
    assert len(sent) == 1
    content = sent[0]["messages"][0]["content"]
    assert "Make an image." in content
    assert "Attachments: audio" in content
    ws = tmp_path / "ws"
    response, _ = run(UserRequest("Make an image."), default_registry(), backend, ws)
    assert [a.path for a in response.artifacts] == ["artifact_0_text-to-image.ppm"]


def test_trace_json_shape_with_and_without_timings():
    trace = PipelineTrace([StageRecord("validate", {"k": 1}, 1.234)])
    with_timings = json.loads(trace.to_json())
    assert with_timings["stages"][0]["elapsed_ms"] == 1.234
    without = json.loads(trace.to_json(include_timings=False))
    assert "elapsed_ms" not in without["stages"][0]
    assert without["stages"][0] == {"name": "validate", "details": {"k": 1}}


@over_hostile_json("text")
def test_load_scripted_rules_hostile_json_is_config_error(tmp_path, text):
    path = tmp_path / "rules.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_scripted_rules(path)


def _run_cat(tmp_path, name, cfg):
    ws = tmp_path / name
    req = cat_request(tmp_path)
    _, trace = run(req, default_registry(), cat_backend(), ws, cfg=cfg, seed=3, include_timings=False)
    return ws, trace


def test_model_is_built_once_per_config_and_runs_stay_identical(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "init_model", lambda cfg: calls.append(cfg) or init_model(cfg))
    cfg = TrainConfig(d_enc=uniform_enc_dims(64), d_llm=96, rank=4, seed=424242)
    first, _ = _run_cat(tmp_path, "one", cfg)
    equal = TrainConfig(d_enc=uniform_enc_dims(64), d_llm=96, rank=4, seed=424242)
    second, _ = _run_cat(tmp_path, "two", equal)
    assert len(calls) == 1  # an equal config value hits the memo
    for name in ("manifest.json", "trace.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_changing_d_llm_between_runs_changes_token_shapes(tmp_path):
    shapes = []
    for d_llm in (32, 48):
        cfg = TrainConfig(d_enc=uniform_enc_dims(64), d_llm=d_llm, rank=4)
        _, trace = _run_cat(tmp_path, f"d{d_llm}", cfg)
        (project_stage,) = [s for s in trace.stages if s.name == "project"]
        shapes.append(project_stage.details["token_shapes"])
    assert shapes == [[[1, 32]], [[1, 48]]]


def test_cached_model_arrays_are_read_only(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(pipeline, "init_model", lambda cfg: built.append(init_model(cfg)) or built[-1])
    _run_cat(tmp_path, "ws", TrainConfig(d_enc=uniform_enc_dims(64), d_llm=40, rank=4, seed=77))
    (model,) = built
    with pytest.raises(ValueError):
        model.projections[Modality.AUDIO].weight[0, 0] = 1.0
    for array in [array for _, array in trainable_arrays(model)] + [model.adaptor.base]:
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


def test_memo_key_covers_the_training_fields(tmp_path):
    # init_model validates every field, so a config that differs from a
    # cached one only in a training field must not reuse its model.
    _run_cat(tmp_path, "ok", TrainConfig(d_enc=uniform_enc_dims(64), d_llm=96, rank=4))
    bad = TrainConfig(d_enc=uniform_enc_dims(64), d_llm=96, rank=4, learning_rate=-1.0)
    with pytest.raises(InvalidArgument):
        _run_cat(tmp_path, "bad", bad)


class SlowBackend:
    """Sleeps before answering, so the backend stage has a known floor."""

    def __init__(self, inner, seconds: float) -> None:
        self._inner = inner
        self._seconds = seconds

    def generate(self, instruction, modalities):
        time.sleep(self._seconds)
        return self._inner.generate(instruction, modalities)


HOLOGRAM = '{"text":"trying","invocations":[{"model":"text-to-hologram","prompt":"x"}]}'


@pytest.mark.parametrize("degraded", [False, True])
def test_stage_timings_tile_the_call(tmp_path, degraded):
    inner = ScriptedBackend([ScriptedRule(respond=HOLOGRAM)]) if degraded else cat_backend()
    req, ws = cat_request(tmp_path), tmp_path / "ws"
    t0 = time.perf_counter()
    _, trace = run(req, default_registry(), SlowBackend(inner, 0.02), ws)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    elapsed = {s.name: s.elapsed_ms for s in trace.stages}
    assert len(elapsed) == len(trace.stages)
    assert all(ms >= 0 for ms in elapsed.values())
    assert sum(elapsed.values()) <= wall_ms
    assert elapsed["backend"] >= 19.0  # the sleep lands in its own stage
    if degraded:
        assert list(elapsed) == SUCCESS_STAGES[:6] + ["degraded"]
        assert elapsed["degraded"] == 0.0
    else:
        assert list(elapsed) == SUCCESS_STAGES
    written = json.loads((ws / "trace.json").read_text())["stages"]
    assert [s["elapsed_ms"] for s in written] == [round(s.elapsed_ms, 3) for s in trace.stages]


def test_a_workspace_holds_only_the_latest_runs_artifacts(tmp_path):
    def boom(prompt: str, seed: int) -> bytes:
        raise RuntimeError("down")

    failing = ModelRegistry()
    failing.register(ModelDescriptor("bad-image", "text-to-image"), boom)
    failing.finalize()
    image_and_audio = (
        '{"text":"","invocations":[{"model":"text-to-image","prompt":"a cat"},'
        '{"model":"text-to-audio","prompt":"a purr"}]}'
    )
    video = '{"text":"","invocations":[{"model":"text-to-video","prompt":"a cat running"}]}'
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "notes.txt").write_text("mine")
    lookalike = "artifact_0_text-to-image.png"  # not a name artifact_name makes
    (ws / lookalike).write_bytes(b"keep")
    kept = {"notes.txt", lookalike, "manifest.json", "trace.json"}
    counts = []
    for respond, registry in (
        (image_and_audio, default_registry()),
        (CAT_CANONICAL, failing),
        (video, default_registry()),
        (HOLOGRAM, default_registry()),
    ):
        backend = ScriptedBackend([ScriptedRule(respond=respond)])
        run(UserRequest("Go."), registry, backend, ws, include_timings=False)
        listed = {a["path"] for a in json.loads((ws / "manifest.json").read_text())["artifacts"]}
        assert set(p.name for p in ws.iterdir()) == listed | kept
        counts.append(len(listed))
    assert counts == [2, 0, 1, 0]
    assert (ws / "notes.txt").read_text() == "mine"
    assert (ws / lookalike).read_bytes() == b"keep"


@pytest.mark.parametrize("taken", ["artifact_0_text-to-image.ppm", "trace.json"])
def test_a_run_that_fails_after_the_sweep_leaves_no_manifest(tmp_path, taken):
    ws = tmp_path / "ws"
    run(cat_request(tmp_path), default_registry(), cat_backend(), ws, seed=5)
    (ws / taken).unlink()
    (ws / taken).mkdir()
    with pytest.raises(InvalidArgument) as caught:
        run(cat_request(tmp_path), default_registry(), cat_backend(), ws, seed=5)
    assert str(caught.value).startswith(f"cannot write workspace {ws}: ")
    assert not (ws / "manifest.json").exists()
    assert not (ws / "trace.json").is_file()


def test_demo_pipeline_script_runs_the_cat_scenario(tmp_path, monkeypatch, capsys):
    ws = tmp_path / "demo"
    monkeypatch.setattr("sys.argv", ["demo_pipeline.py", "--workspace", str(ws)])
    assert _load_script("demo_pipeline").main() == 0
    out = capsys.readouterr().out
    manifest, rest = out.split("workspace: ", 1)
    assert manifest == (ws / "manifest.json").read_text(encoding="utf-8")
    assert rest.splitlines() == [str(ws), "stages: " + " -> ".join(SUCCESS_STAGES)]
    assert sorted(os.listdir(ws)) == [
        "artifact_0_text-to-image.ppm",
        "cat_meowing.wav",
        "manifest.json",
        "trace.json",
    ]


def test_a_run_started_during_anothers_commit_leaves_one_whole_run(tmp_path, monkeypatch):
    """Run B starts while run A writes its manifest.  B runs on a second
    thread, joined with a timeout, since a B that waits for A's commit
    on A's own thread would never return."""
    eight = json.dumps({"text": "", "invocations": [{"model": "text-to-audio", "prompt": "p"}] * 8})
    ws = tmp_path / "ws"
    outcome = {}

    def run_b():
        backend = ScriptedBackend([ScriptedRule(respond=TEXT_ONLY)])
        outcome["b"] = run(UserRequest("B"), default_registry(), backend, ws, include_timings=False)

    original = pipeline.manifest_json
    second = threading.Thread(target=run_b)

    def manifest_json_starting_b(response):
        if second.ident is None:  # not started yet
            second.start()
            second.join(timeout=1.0)
        return original(response)

    monkeypatch.setattr(pipeline, "manifest_json", manifest_json_starting_b)
    backend = ScriptedBackend([ScriptedRule(respond=eight)])
    response_a, _ = run(UserRequest("A"), default_registry(), backend, ws, include_timings=False)
    second.join(timeout=30.0)
    assert not second.is_alive()
    assert len(response_a.artifacts) == 8
    response_b, trace_b = outcome["b"]
    assert (ws / "manifest.json").read_text(encoding="utf-8") == original(response_b)
    assert (ws / "trace.json").read_text(encoding="utf-8") == trace_b.to_json(False)
    assert sorted(p.name for p in ws.iterdir()) == ["manifest.json", "trace.json"]


def test_concurrent_runs_into_one_workspace_all_succeed_and_leave_one_whole_run(tmp_path):
    """Four threads, more than a 2-core machine runs at once, each run ten
    requests into one workspace, with a short switch interval to force
    interleavings."""
    ws = tmp_path / "ws"
    audio = {"model": "text-to-audio", "prompt": "p"}
    replies = [json.dumps({"text": f"t{k}", "invocations": [audio] * k}) for k in range(4)]
    results, errors = [], []

    def worker(respond):
        backend = ScriptedBackend([ScriptedRule(respond=respond)])
        try:
            for _ in range(10):
                request = UserRequest("Go.")
                results.append(run(request, default_registry(), backend, ws, include_timings=False))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(r,)) for r in replies]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 40
    committed = {pipeline.manifest_json(r): (trace, r) for r, trace in results}
    trace, response = committed[(ws / "manifest.json").read_text(encoding="utf-8")]
    assert (ws / "trace.json").read_text(encoding="utf-8") == trace.to_json(False)
    names = ["manifest.json", "trace.json", *(a.path for a in response.artifacts)]
    assert sorted(p.name for p in ws.iterdir()) == sorted(names)
    for artifact in response.artifacts:
        assert (ws / artifact.path).read_bytes() == artifact.data
