"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints "CRITERION n: PASS/FAIL - <summary>" through the
capture-disabled channel so the verdicts always appear in the pytest
output, then fails loudly if the property does not hold.  Tolerances are
pinned in the assertions themselves.
"""

from __future__ import annotations

import contextlib
import json
import random
import time

import numpy as np
import pytest

from conftest import counting_registry, random_meta
from modalkit import chat
from modalkit.backends import ScriptedBackend, ScriptedRule
from modalkit.cli import main
from modalkit.config import build_language_backend, build_registry, load_app_config
from modalkit.errors import InstructionRequired, MetaError
from modalkit.instruct import (
    Attachment,
    Candidate,
    InstructionPair,
    InstructionType,
    QueryBundle,
    assemble_query,
    generate_pairs_llm,
    pair_to_json,
    template_generate,
    validate_pair,
)
from modalkit.media import EXTENSION_FOR_MODALITY, render_placeholder
from modalkit.meta import (
    GENERATABLE_MODALITIES,
    Invocation,
    Modality,
    modality_for_kind,
    parse_meta_response,
    serialize_meta_response,
)
from modalkit.pipeline import UserRequest, run
from modalkit.projection import (
    backward,
    encode_stub,
    gradient_check,
    init_model,
    lora_forward,
    make_learnable_dataset,
    random_check_instance,
    train_toy,
)
from modalkit.sizing import TrainConfig, param_count, uniform_enc_dims
from modalkit.zoo import default_registry, execute_plan, manifest_json, route

CAT_CANONICAL = (
    '{"text":"","invocations":[{"model":"text-to-image","prompt":"A photo of a cat"}]}'
)
CAT_TUPLE = '[("text-to-image", "A photo of a cat"), ]'


@contextlib.contextmanager
def criterion(capsys, number: int, description: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {description}")


def test_criterion_1_worked_example(capsys, tmp_path):
    with criterion(capsys, 1, "audio-in instruction yields the cat image invocation"):
        app = load_app_config(None)
        registry = build_registry(app)
        backend = build_language_backend(app)
        wav = tmp_path / "cat_meowing.wav"
        wav.write_bytes(render_placeholder("text-to-audio", "a cat meowing", 0))
        request = UserRequest(
            "Generate an image of an animal based on the provided vocalization.",
            (Attachment(str(wav), Modality.AUDIO),),
        )
        t0 = time.perf_counter()
        response, trace = run(
            request, registry, backend, tmp_path / "ws", cfg=app.pipeline, seed=app.seed
        )
        elapsed = time.perf_counter() - t0
        parse_stage = next(s for s in trace.stages if s.name == "parse")
        assert parse_stage.details["invocations"] == [
            {"model": "text-to-image", "prompt": "A photo of a cat"}
        ]
        assert [a.path for a in response.artifacts] == ["artifact_0_text-to-image.ppm"]
        assert response.failures == () and response.diagnostics == ()
        blob = (tmp_path / "ws" / "artifact_0_text-to-image.ppm").read_bytes()
        assert blob == render_placeholder("text-to-image", "A photo of a cat", app.seed)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_protocol_round_trip_and_fuzz(capsys):
    with criterion(capsys, 2, "10k round-trips hold and 10k mutations never crash"):
        rng = random.Random(20240817)
        t0 = time.perf_counter()
        pool = []
        for _ in range(10_000):
            meta = random_meta(rng)
            wire = serialize_meta_response(meta)
            parsed, diags = parse_meta_response(wire, mode="strict")
            assert parsed == meta
            assert not diags.warnings
            pool.append(wire)
        alphabet = "{}[]()\"',:\\ text-to-image\x00€"
        for _ in range(10_000):
            mutated = list(rng.choice(pool))
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(3)
                pos = rng.randrange(len(mutated) + (op == 1))
                if op == 0 and mutated:
                    mutated[min(pos, len(mutated) - 1)] = rng.choice(alphabet)
                elif op == 1:
                    mutated.insert(pos, rng.choice(alphabet))
                elif mutated:
                    del mutated[min(pos, len(mutated) - 1)]
            raw = "".join(mutated)
            for mode in ("strict", "lenient"):
                try:
                    parse_meta_response(raw, mode=mode)
                except MetaError:
                    pass  # rejection is fine; any other exception is a crash
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_3_tuple_form_equals_canonical(capsys):
    with criterion(capsys, 3, "verbatim tuple-form string matches its canonical JSON"):
        lenient, _ = parse_meta_response(CAT_TUPLE, mode="lenient")
        strict, _ = parse_meta_response(CAT_CANONICAL, mode="strict")
        assert lenient == strict
        assert lenient.invocations == (Invocation("text-to-image", "A photo of a cat"),)


def test_criterion_4_gradients_match_finite_differences(capsys):
    with criterion(capsys, 4, "analytic vs central-difference gradients < 1e-4 on 24 instances"):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(24):
            cfg, model, batch = random_check_instance(seed)
            assert cfg.d_llm <= 8 and cfg.rank <= 3
            assert all(d <= 8 for d in cfg.d_enc.values())
            report = gradient_check(model, batch, epsilon=1e-5)
            worst = max(worst, max(report.values()))
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_5_zero_up_block_is_transparent(capsys):
    with criterion(capsys, 5, "zero up-projection: adapted == base bitwise, grad(down) == 0"):
        cfg = TrainConfig(d_enc=uniform_enc_dims(6), d_llm=8, rank=3, alpha=12.0, seed=3)
        model = init_model(cfg)
        assert not model.adaptor.up.any()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=cfg.d_llm)
            adapted = lora_forward(model.adaptor, x)
            assert (adapted == model.adaptor.base @ x).all()
        batch = []
        for i, m in enumerate(GENERATABLE_MODALITIES):
            vec = encode_stub(bytes([i + 1]), m, cfg.d_enc[m], seed=0)
            batch.append((vec, rng.normal(size=(cfg.token_count, cfg.d_llm))))
        _, grads = backward(model, batch)
        assert (grads["lora.down"] == 0.0).all()
        assert grads["lora.up"].any()


def test_criterion_6_toy_training_converges_reproducibly(capsys):
    with criterion(capsys, 6, "seed-7 toy run: final < 0.1x initial, traces identical"):
        cfg = TrainConfig(
            d_enc=uniform_enc_dims(8),
            d_llm=12,
            rank=2,
            alpha=8.0,
            learning_rate=0.05,
            steps=200,
            seed=7,
        )
        dataset = make_learnable_dataset(cfg, n=24, seed=7)
        t0 = time.perf_counter()
        first = train_toy(cfg, dataset)
        second = train_toy(cfg, dataset)
        elapsed = time.perf_counter() - t0
        assert first.trace == second.trace
        assert len(first.trace) == cfg.steps + 1
        assert first.trace[-1] < 0.1 * first.trace[0], (
            f"loss went {first.trace[0]:.4f} -> {first.trace[-1]:.4f}"
        )
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_7_parameter_accounting(capsys):
    with criterion(capsys, 7, "param_count matches instrumented grads; CLI prints 12,845,056"):
        rng = random.Random(11)
        np_rng = np.random.default_rng(11)
        for _ in range(10):
            d_llm = rng.randint(2, 7)
            cfg = TrainConfig(
                d_enc={m: rng.randint(1, 6) for m in GENERATABLE_MODALITIES},
                d_llm=d_llm,
                token_count=rng.randint(1, 2),
                bias=rng.random() < 0.5,
                rank=rng.randint(1, min(3, d_llm)),
                seed=rng.randrange(1000),
            )
            model = init_model(cfg)
            batch = []
            for i, m in enumerate(GENERATABLE_MODALITIES):
                vec = encode_stub(bytes([i + 1]), m, cfg.d_enc[m], seed=1)
                batch.append((vec, np_rng.normal(size=(cfg.token_count, cfg.d_llm))))
            _, grads = backward(model, batch)
            assert sum(g.size for g in grads.values()) == param_count(cfg)
        assert main(["params"]) == 0
        assert "total 12845056 (12,845,056)" in capsys.readouterr().out


def test_criterion_8_routing_conservation_and_determinism(capsys):
    with criterion(capsys, 8, "1k plans conserve calls and order; reruns byte-identical"):
        registry, executors = counting_registry()
        rng = random.Random(99)
        metas = [random_meta(rng) for _ in range(1_000)]
        resample = set(range(0, 1_000, 20))  # 50 reruns
        stored: dict[int, tuple[str, list[bytes]]] = {}
        total_invocations = 0
        t0 = time.perf_counter()
        for i, meta in enumerate(metas):
            total_invocations += len(meta.invocations)
            response = execute_plan(route(meta, registry), registry, seed=i)
            assert len(response.artifacts) == len(meta.invocations)
            assert response.failures == ()
            assert [a.prompt for a in response.artifacts] == [
                v.prompt for v in meta.invocations
            ]
            expected_names = [
                f"artifact_{j}_{v.model}.{EXTENSION_FOR_MODALITY[modality_for_kind(v.model)]}"
                for j, v in enumerate(meta.invocations)
            ]
            assert [a.path for a in response.artifacts] == expected_names
            if i in resample:
                stored[i] = (manifest_json(response), [a.data for a in response.artifacts])
        calls_made = sum(len(ex.calls) for ex in executors.values())
        assert calls_made == total_invocations
        for i in resample:
            response = execute_plan(route(metas[i], registry), registry, seed=i)
            manifest, blobs = stored[i]
            assert manifest_json(response) == manifest
            assert [a.data for a in response.artifacts] == blobs
        placeholder = default_registry()
        for i in range(20):
            meta = random_meta(rng)
            pair = []
            for _ in range(2):
                response = execute_plan(route(meta, placeholder), placeholder, seed=i)
                blobs = [(a.path, a.data) for a in response.artifacts]
                pair.append((manifest_json(response), blobs))
            assert pair[0] == pair[1]
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_9_instruction_generation(capsys, monkeypatch, tmp_path):
    with criterion(capsys, 9, "10k template pairs valid, mix within 0.02, replay offline"):
        candidates = [
            Candidate("a cat meowing", Modality.AUDIO),
            Candidate("a foggy harbor", Modality.IMAGE),
            Candidate("waves on a beach", Modality.VIDEO),
        ]
        mix = {
            InstructionType.INPUT_ALIGN: 0.4,
            InstructionType.OUTPUT_ALIGN: 0.4,
            InstructionType.REASONING: 0.2,
        }
        t0 = time.perf_counter()
        pairs = template_generate(candidates, mix, seed=5, n=10_000)
        registry = default_registry()
        counts = {t: 0 for t in InstructionType}
        for pair in pairs:
            assert validate_pair(pair, registry) == []
            counts[pair.type] += 1
        for pair_type, weight in mix.items():
            freq = counts[pair_type] / 10_000
            assert abs(freq - weight) <= 0.02, f"{pair_type}: {freq}"

        def no_network(*args, **kwargs):
            raise AssertionError("replay mode touched the network")

        monkeypatch.setattr(chat, "_http_post", no_network)
        seed_pair = InstructionPair(
            "seed-0001",
            InstructionType.OUTPUT_ALIGN,
            "Generate an image of an animal based on the provided vocalization.",
            (Attachment("cat_meowing.wav", Modality.AUDIO),),
            (Invocation("text-to-image", "A photo of a cat"),),
        )
        bundle = QueryBundle(
            (seed_pair,), tuple(candidates), ("A photo of a cat",), InstructionType.OUTPUT_ALIGN
        )
        cfg = chat.ChatClientConfig(mode="replay", fixture_path=str(tmp_path / "fx.json"))
        body = "\n".join(pair_to_json(p) for p in template_generate(candidates, seed=8, n=3))
        payload = chat.chat_payload(cfg.model, assemble_query(bundle))
        chat.save_fixture({chat.request_fingerprint(payload): [body]}, tmp_path / "fx.json")
        got, report = generate_pairs_llm(cfg, bundle, n=3)
        assert len(got) == 3 and report.shortfall == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_10_failure_contract(capsys, tmp_path):
    with criterion(capsys, 10, "empty instruction raises pre-stage; unknown kind degrades"):
        calls = []

        class SentinelBackend:
            def generate(self, instruction, modalities):
                calls.append(instruction)
                return '{"text":"x","invocations":[]}'

        ws = tmp_path / "never"
        with pytest.raises(InstructionRequired):
            run(UserRequest(""), default_registry(), SentinelBackend(), ws)
        assert calls == []
        assert not ws.exists()

        backend = ScriptedBackend(
            [
                ScriptedRule(
                    respond='{"text":"cannot do that","invocations":'
                    '[{"model":"text-to-hologram","prompt":"x"}]}'
                )
            ]
        )
        ws2 = tmp_path / "degraded"
        response, trace = run(UserRequest("Go."), default_registry(), backend, ws2)
        assert response.text == "cannot do that"
        assert response.artifacts == ()
        assert response.diagnostics and "text-to-hologram" in response.diagnostics[0]
        assert trace.stages[-1].name == "degraded"
        manifest = json.loads((ws2 / "manifest.json").read_text())
        assert manifest["artifacts"] == []
