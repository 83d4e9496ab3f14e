"""Config loading: defaults, path resolution, and all-at-once error reporting."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import over_hostile_json
from modalkit.chat import ChatClientConfig
from modalkit.cli import main
from modalkit.config import (
    build_language_backend,
    build_registry,
    data_dir,
    load_app_config,
    load_instruct_corpus,
    load_scripted_rules,
)
from modalkit.errors import ConfigError
from modalkit.instruct import InstructionType
from modalkit.meta import GENERATABLE_MODALITIES, Modality


def minimal_doc(**overrides) -> dict:
    doc = {
        "registry": [{"name": "m-image", "kind": "text-to-image"}],
        "backend_rules": "rules.json",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_bundled_default_config_loads():
    app = load_app_config(None)
    assert app.seed == 0
    assert app.workspace == Path("runs")
    assert len(app.registry) == 3
    assert app.language_backend == "scripted"
    assert app.train.d_llm == 4096 and app.train.rank == 32
    assert app.pipeline.d_llm == 128 and app.pipeline.rank == 1
    assert isinstance(app.chat, ChatClientConfig) and app.chat.mode == "replay"
    assert Path(app.chat.fixture_path).exists()
    assert app.backend_rules == data_dir() / "rules.json"


def test_bundled_corpus_loads():
    app = load_app_config(None)
    seeds, candidates, references = load_instruct_corpus(app)
    assert seeds and candidates and references
    assert {c.modality for c in candidates} == set(GENERATABLE_MODALITIES)


def test_all_problems_reported_in_one_error(tmp_path):
    doc = minimal_doc(
        registry=[{"name": "x", "kind": "text-to-smell"}],
        language_backend="psychic",
        train={"rank": 0},
        seed="zero",
    )
    with pytest.raises(ConfigError) as excinfo:
        load_app_config(write_config(tmp_path, doc))
    message = str(excinfo.value)
    for fragment in ("text-to-smell", "language_backend", "train", "seed"):
        assert fragment in message, fragment


def test_negative_seed_is_reported_once_under_its_own_name(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        load_app_config(write_config(tmp_path, minimal_doc(seed=-1)))
    assert str(excinfo.value).splitlines()[1:] == ["  seed must be >= 0, got -1"]


def test_train_and_pipeline_read_only_their_sizes(tmp_path):
    # keys nothing reads are ignored like any other unknown key, whatever their value
    unread = {"alpha": "abc", "learning_rate": -1, "steps": -1, "seed": -1, "loss": 0}
    doc = minimal_doc(
        train={"d_llm": 8, "rank": 2, **unread}, pipeline={"d_llm": 8, "rank": 99, **unread}
    )
    app = load_app_config(write_config(tmp_path, doc))
    assert (app.train.d_llm, app.train.rank, app.pipeline.d_llm, app.pipeline.rank) == (8, 2, 8, 1)
    assert (app.train.alpha, app.train.steps, app.pipeline.seed) == (16.0, 100, 0)


def test_unreadable_and_nonobject_configs(tmp_path):
    with pytest.raises(ConfigError):
        load_app_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_app_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[]")
    with pytest.raises(ConfigError):
        load_app_config(arr)


def test_enc_dims_accept_scalar_or_per_modality(tmp_path):
    doc = minimal_doc(
        train={"d_enc": 16, "d_llm": 8, "rank": 2},
        pipeline={"d_enc": {"image": 4, "audio": 5, "video": 6}, "d_llm": 8, "rank": 2},
    )
    app = load_app_config(write_config(tmp_path, doc))
    assert app.train.d_enc == {m: 16 for m in GENERATABLE_MODALITIES}
    assert app.pipeline.d_enc == {
        Modality.IMAGE: 4,
        Modality.AUDIO: 5,
        Modality.VIDEO: 6,
    }


def test_input_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    path = sub / "config.json"
    path.write_text(json.dumps(minimal_doc(instruct={"seeds": "my_seeds.jsonl"})))
    app = load_app_config(path)
    assert app.backend_rules == sub / "rules.json"
    assert app.instruct.seeds_path == sub / "my_seeds.jsonl"
    # the workspace stays relative to the working directory, not the config
    assert not app.workspace.is_absolute()


def test_registry_priority_resolution(tmp_path):
    doc = minimal_doc(
        registry=[
            {"name": "cheap-image", "kind": "text-to-image", "priority": 0},
            {"name": "fancy-image", "kind": "text-to-image", "priority": 5},
        ]
    )
    app = load_app_config(write_config(tmp_path, doc))
    registry = build_registry(app)
    assert registry.resolve("text-to-image").name == "fancy-image"


def test_command_backend_requires_command(tmp_path):
    doc = minimal_doc(registry=[{"name": "x", "kind": "text-to-image", "backend": "command"}])
    with pytest.raises(ConfigError) as excinfo:
        load_app_config(write_config(tmp_path, doc))
    assert "command" in str(excinfo.value)


def test_external_backend_requires_chat_section(tmp_path):
    doc = minimal_doc(language_backend="external", chat=None)
    app = load_app_config(write_config(tmp_path, doc))
    assert app.chat is None
    with pytest.raises(ConfigError):
        build_language_backend(app)


def test_chat_section_validated_inside_config(tmp_path):
    doc = minimal_doc(chat={"mode": "record"})  # record needs endpoint + fixture
    with pytest.raises(ConfigError) as excinfo:
        load_app_config(write_config(tmp_path, doc))
    assert "chat mode" in str(excinfo.value)


def test_chat_fixture_path_resolves_against_config(tmp_path):
    doc = minimal_doc(chat={"mode": "replay", "fixture_path": "fx.json"})
    app = load_app_config(write_config(tmp_path, doc))
    assert app.chat.fixture_path == str(tmp_path / "fx.json")


@over_hostile_json("text")
def test_hostile_json_config_is_config_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_app_config(path)


_REPLAY = {"mode": "replay", "fixture_path": "fx.json"}


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"chat": dict(_REPLAY, timeout="abc")}, "chat.timeout must be a finite number, got 'abc'"),
        ({"chat": dict(_REPLAY, backoff_base="0.1")}, "chat.backoff_base must be a finite number, got '0.1'"),
        ({"chat": dict(_REPLAY, timeout=float("nan"))}, "chat.timeout must be a finite number, got nan"),
        ({"chat": dict(_REPLAY, backoff_base=10**400)}, "chat.backoff_base must be a finite number"),
        ({"chat": dict(_REPLAY, timeout=True)}, "chat.timeout must be a finite number, got True"),
        ({"chat": dict(_REPLAY, backoff_base=float("inf"))}, "chat.backoff_base must be a finite"),
        ({"train": {"bias": "false"}}, "train.bias must be true or false, got 'false'"),
        ({"chat": dict(_REPLAY, timeout=[1])}, "chat.timeout must be a finite number, got [1]"),
        ({"chat": dict(_REPLAY, backoff_base="x")}, "chat.backoff_base must be a finite number"),
        ({"chat": dict(_REPLAY, fixture_path=5)}, "chat.fixture_path must be a string, got 5"),
        (
            {"registry": [{"name": "x", "kind": "text-to-image", "backend": "command", "command": 5}]},
            "registry[0].command must be a string, got 5",
        ),
        (
            {"instruct": {"type_mix": {"reasoning": "0.2"}}},
            "instruct.type_mix.reasoning must be a finite number, got '0.2'",
        ),
        ({"workspace": ["a"]}, "workspace must be a string, got ['a']"),
        ({"registry": [{"name": 5, "kind": "text-to-image"}]}, "registry[0].name must be a string"),
        ({"registry": [{"name": "x", "kind": ["text-to-image"]}]}, "registry[0].kind must be a"),
        (
            {"registry": [{"name": "x", "kind": "text-to-image", "backend": None}]},
            "registry[0].backend must be a string, got None",
        ),
        ({"language_backend": 1}, "language_backend must be a string, got 1"),
        ({"backend_rules": ["r.json"]}, "backend_rules must be a string, got ['r.json']"),
        ({"chat": dict(_REPLAY, endpoint=5)}, "chat.endpoint must be a string, got 5"),
        ({"chat": dict(_REPLAY, model=None)}, "chat.model must be a string, got None"),
        ({"chat": dict(_REPLAY, auth_env=7)}, "chat.auth_env must be a string, got 7"),
        ({"chat": dict(_REPLAY, mode=["replay"])}, "chat.mode must be a string, got ['replay']"),
        ({"instruct": {"seeds": 5}}, "instruct.seeds must be a string, got 5"),
        ({"instruct": {"candidates": {"audio": 7}}}, "instruct.candidates.audio must be a string"),
        ({"instruct": {"references": None}}, "instruct.references must be a string, got None"),
        ({"chat": dict(_REPLAY, backoff_base=-0.5)}, "chat: backoff_base must be >= 0, got -0.5"),
    ],
)
def test_mistyped_fields_are_one_config_error(tmp_path, capsys, overrides, fragment):
    path = write_config(tmp_path, minimal_doc(**overrides))
    with pytest.raises(ConfigError) as excinfo:
        load_app_config(path)
    assert fragment in str(excinfo.value)
    assert main(["params", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError") and "Traceback" not in err


def test_typed_fields_accept_json_numbers_and_bools(tmp_path):
    doc = minimal_doc(
        train={"bias": True},
        chat=dict(_REPLAY, timeout=5, backoff_base=0),
    )
    app = load_app_config(write_config(tmp_path, doc))
    assert app.train.bias is True
    assert app.chat.timeout == 5.0 and isinstance(app.chat.timeout, float)
    assert app.chat.backoff_base == 0.0 and isinstance(app.chat.backoff_base, float)


def test_minimal_config_yields_todays_defaults(tmp_path):
    path = write_config(tmp_path, minimal_doc())
    app = load_app_config(path)
    assert (app.seed, app.workspace, app.language_backend) == (0, Path("runs"), "scripted")
    assert app.chat is None
    assert asdict(app.train) == {
        "d_enc": {m: 1024 for m in GENERATABLE_MODALITIES},
        "d_llm": 4096,
        "token_count": 1,
        "bias": False,
        "rank": 32,
        "alpha": 16.0,
        "learning_rate": 0.05,
        "steps": 100,
        "seed": 0,
    }
    pipeline_dims = {"d_enc": {m: 64 for m in GENERATABLE_MODALITIES}, "d_llm": 128, "rank": 1}
    assert asdict(app.pipeline) == {**asdict(app.train), **pipeline_dims}
    assert asdict(app.instruct) == {
        "type_mix": {
            InstructionType.INPUT_ALIGN: 0.4,
            InstructionType.OUTPUT_ALIGN: 0.4,
            InstructionType.REASONING: 0.2,
        },
        "seeds_path": tmp_path / "seeds.jsonl",
        "candidate_paths": {
            m: tmp_path / f"candidates_{m.value}.txt" for m in GENERATABLE_MODALITIES
        },
        "references_path": tmp_path / "references.txt",
        "seeds_per_query": 3,
        "candidates_per_query": 4,
        "references_per_query": 3,
    }
    # a chat section that names only its fixture keeps every other default
    app = load_app_config(write_config(tmp_path, minimal_doc(chat={"fixture_path": "fx.json"})))
    assert asdict(app.chat) == {
        "endpoint": "",
        "model": "default",
        "auth_env": "MODALKIT_API_TOKEN",
        "timeout": 30.0,
        "max_retries": 3,
        "backoff_base": 0.5,
        "mode": "replay",
        "fixture_path": str(tmp_path / "fx.json"),
    }


@pytest.mark.parametrize(
    "rule, fragment",
    [
        (
            {"respond": "x", "instruction_contains": 5},
            "rules[0].instruction_contains must be a string, got 5",
        ),
        (
            {"respond": "x", "attachment_modalities": 5},
            "rules[0].attachment_modalities must be a list of text, image, audio, video, got 5",
        ),
        ({"respond": {"a": 1}}, "rules[0].respond must be a string, got {'a': 1}"),
        (
            {"respond": "x", "attachment_modalities": "image"},
            "rules[0].attachment_modalities must be a list of text, image, audio, video, got 'image'",
        ),
    ],
)
def test_rule_file_defects_are_one_config_error(tmp_path, capsys, rule, fragment):
    rules = {"rules": [rule, {"respond": '{"text":"ok","invocations":[]}'}]}
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    path = write_config(tmp_path, minimal_doc())
    ws = tmp_path / "ws"
    argv = ["run", "--config", str(path), "--instruction", "Go.", "--workspace", str(ws)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and err.count("error:") == 1
    assert fragment in err and "Traceback" not in err
    assert not ws.exists()


def test_rule_file_reports_every_problem(tmp_path):
    rules = {
        "rules": [{"respond": 1}, {"instruction_contains": "x"}, {"respond": "x", "instruction_contains": 2}]
    }
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    with pytest.raises(ConfigError) as excinfo:
        load_scripted_rules(tmp_path / "rules.json")
    message = str(excinfo.value)
    for fragment in ("rules[0].respond", "rules[1] must be", "rules[2].instruction_contains"):
        assert fragment in message, fragment
