"""Config loading: defaults, path resolution, and all-at-once error reporting."""

from __future__ import annotations

import json
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
)
from modalkit.errors import ConfigError
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
    assert app.pipeline.d_llm == 128 and app.pipeline.rank == 4
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
        ({"train": {"alpha": "abc"}}, "train.alpha must be a finite number, got 'abc'"),
        ({"train": {"alpha": "0.1"}}, "train.alpha must be a finite number, got '0.1'"),
        ({"train": {"alpha": float("nan")}}, "train.alpha must be a finite number, got nan"),
        ({"train": {"alpha": 10**400}}, "train.alpha must be a finite number"),
        ({"train": {"alpha": True}}, "train.alpha must be a finite number, got True"),
        ({"train": {"learning_rate": float("inf")}}, "train.learning_rate must be a finite"),
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
        ({"train": {"loss": 0}}, "train.loss must be a string, got 0"),
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
        train={"alpha": 8, "learning_rate": 0.5, "bias": True},
        chat=dict(_REPLAY, timeout=5, backoff_base=0),
    )
    app = load_app_config(write_config(tmp_path, doc))
    assert app.train.alpha == 8.0 and isinstance(app.train.alpha, float)
    assert app.train.learning_rate == 0.5 and app.train.bias is True
    assert app.chat.timeout == 5.0 and app.chat.backoff_base == 0.0
