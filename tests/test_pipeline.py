"""Whole-pipeline behavior: staging, hard errors, degraded runs, artifacts."""

from __future__ import annotations

import json
import time

import pytest

from conftest import over_hostile_json
from modalkit import chat, pipeline
from modalkit.config import load_scripted_rules
from modalkit.errors import (
    AttachmentMissing,
    ConfigError,
    EmptyMeta,
    InstructionRequired,
    InvalidArgument,
    ModalityMismatch,
    ShapeMismatch,
)
from modalkit.instruct import Attachment
from modalkit.media import render_placeholder
from modalkit.meta import Modality
from modalkit.pipeline import (
    ExternalBackend,
    PipelineTrace,
    ScriptedBackend,
    ScriptedRule,
    StageRecord,
    UserRequest,
    describe_inputs,
    run,
)
from modalkit.projection import (
    TrainConfig,
    encode_stub,
    init_model,
    trainable_arrays,
    uniform_enc_dims,
    write_embedding,
)
from modalkit.zoo import default_registry

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

    class Explosive:
        def generate(self, instruction, modalities):
            raise AssertionError("backend must not run")

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
    req = UserRequest("Describe.", (Attachment(str(txt), Modality.IMAGE),))
    with pytest.raises(ModalityMismatch):
        describe_inputs(req)


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


# --- describe_inputs and .mvec attachments ----------------------------------------


def test_describe_inputs_order_and_purity(tmp_path):
    img = tmp_path / "a.png"
    img.write_bytes(b"img-bytes")
    wav = tmp_path / "b.wav"
    wav.write_bytes(b"wav-bytes")
    req = UserRequest(
        "Describe.",
        (
            Attachment(str(img), Modality.IMAGE),
            Attachment(str(wav), Modality.AUDIO),
            Attachment(str(img), Modality.IMAGE),
        ),
    )
    first = describe_inputs(req, seed=2)
    second = describe_inputs(req, seed=2)
    assert first == second
    assert [d["path"] for d in first] == [str(img), str(wav), str(img)]
    assert first[0] == first[2]
    assert all(abs(d["norm"] - 1.0) < 1e-6 for d in first)
    assert describe_inputs(UserRequest("Nothing attached.")) == []


def test_mvec_attachment_happy_path(tmp_path):
    vec = encode_stub(b"payload", Modality.IMAGE, 64, seed=0)
    path = tmp_path / "emb.mvec"
    write_embedding(vec, path)
    req = UserRequest("Describe.", (Attachment(str(path), Modality.IMAGE),))
    (report,) = describe_inputs(req)
    assert report["dim"] == 64 and report["modality"] == "image"


def test_mvec_modality_header_mismatch(tmp_path):
    vec = encode_stub(b"payload", Modality.AUDIO, 64, seed=0)
    path = tmp_path / "emb.mvec"
    write_embedding(vec, path)
    req = UserRequest("Describe.", (Attachment(str(path), Modality.IMAGE),))
    with pytest.raises(ModalityMismatch):
        describe_inputs(req)


def test_mvec_dim_mismatch_vs_config(tmp_path):
    vec = encode_stub(b"payload", Modality.IMAGE, 32, seed=0)
    path = tmp_path / "emb.mvec"
    write_embedding(vec, path)
    req = UserRequest("Describe.", (Attachment(str(path), Modality.IMAGE),))
    with pytest.raises(ShapeMismatch):
        describe_inputs(req)


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
    image_and_audio = (
        '{"text":"","invocations":[{"model":"text-to-image","prompt":"a cat"},'
        '{"model":"text-to-audio","prompt":"a purr"}]}'
    )
    video = '{"text":"","invocations":[{"model":"text-to-video","prompt":"a cat running"}]}'
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "notes.txt").write_text("mine")
    counts = []
    for respond in (image_and_audio, video, HOLOGRAM):
        backend = ScriptedBackend([ScriptedRule(respond=respond)])
        run(UserRequest("Go."), default_registry(), backend, ws, include_timings=False)
        listed = {a["path"] for a in json.loads((ws / "manifest.json").read_text())["artifacts"]}
        assert set(p.name for p in ws.iterdir()) == listed | {"notes.txt", "manifest.json", "trace.json"}
        counts.append(len(listed))
    assert counts == [2, 1, 0]
    assert (ws / "notes.txt").read_text() == "mine"
