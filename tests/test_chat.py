"""Chat transport: fingerprints, record/replay, retries, token handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from conftest import over_hostile_json
from modalkit import chat
from modalkit.chat import (
    ChatClientConfig,
    HttpTransport,
    RecordTransport,
    ReplayTransport,
    build_transport,
    chat_payload,
    complete,
    load_fixture,
    request_fingerprint,
    save_fixture,
)
from modalkit.errors import ConfigError, FixtureMiss, TransportError


def replay_cfg(path) -> ChatClientConfig:
    return ChatClientConfig(mode="replay", fixture_path=str(path))


def test_payload_shape():
    assert chat_payload("m", "p") == {"model": "m", "messages": [{"role": "user", "content": "p"}]}


def test_fingerprint_ignores_key_order_but_not_content():
    a = {"model": "m", "messages": [{"role": "user", "content": "p"}]}
    b = {"messages": [{"content": "p", "role": "user"}], "model": "m"}
    assert request_fingerprint(a) == request_fingerprint(b)
    assert request_fingerprint(a) != request_fingerprint(chat_payload("m", "q"))


def test_fixture_round_trip(tmp_path):
    path = tmp_path / "fixture.json"
    responses = {"abc": ["one", "two"], "def": ["three"]}
    save_fixture(responses, path)
    assert load_fixture(path) == responses
    doc = json.loads(path.read_text())
    assert doc["version"] == 1


def test_replay_consumes_queue_in_order(tmp_path):
    path = tmp_path / "fixture.json"
    payload = chat_payload("m", "p")
    fp = request_fingerprint(payload)
    save_fixture({fp: ["first", "second"]}, path)
    transport = ReplayTransport(path)
    assert transport.send(payload) == "first"
    assert transport.send(payload) == "second"
    with pytest.raises(FixtureMiss):
        transport.send(payload)


def test_replay_misses_unknown_request(tmp_path):
    path = tmp_path / "fixture.json"
    save_fixture({}, path)
    with pytest.raises(FixtureMiss):
        ReplayTransport(path).send(chat_payload("m", "p"))


def test_bad_fixture_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_fixture(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_fixture(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"version": 1}')
    with pytest.raises(ConfigError):
        load_fixture(wrong)


@pytest.mark.parametrize(
    "responses", ["[]", '"text"', '{"key": "not a list"}', '{"key": {"body": "x"}}']
)
def test_fixture_responses_must_map_keys_to_lists(tmp_path, responses):
    path = tmp_path / "fixture.json"
    path.write_text('{"version": 1, "responses": %s}' % responses)
    with pytest.raises(ConfigError, match="responses must map"):
        load_fixture(path)


class FakeInner:
    def __init__(self, bodies):
        self.bodies = list(bodies)
        self.sent = []

    def send(self, payload):
        self.sent.append(payload)
        return self.bodies.pop(0)


def test_record_appends_to_fixture(tmp_path):
    path = tmp_path / "fixture.json"
    inner = FakeInner(["resp-1", "resp-2"])
    transport = RecordTransport(inner, path)
    payload = chat_payload("m", "p")
    assert transport.send(payload) == "resp-1"
    assert transport.send(payload) == "resp-2"
    recorded = load_fixture(path)
    assert recorded == {request_fingerprint(payload): ["resp-1", "resp-2"]}


def test_record_then_replay_round_trip(tmp_path):
    path = tmp_path / "fixture.json"
    payload = chat_payload("m", "p")
    RecordTransport(FakeInner(["hello"]), path).send(payload)
    assert ReplayTransport(path).send(payload) == "hello"


def test_http_transport_retries_then_succeeds(monkeypatch):
    attempts = []

    def flaky(url, headers, payload, timeout):
        attempts.append(url)
        if len(attempts) < 3:
            raise TransportError("boom")
        return "ok"

    monkeypatch.setattr(chat, "_http_post", flaky)
    cfg = ChatClientConfig(endpoint="http://x", mode="live", max_retries=3, backoff_base=0.0)
    assert HttpTransport(cfg, "tok").send(chat_payload("m", "p")) == "ok"
    assert len(attempts) == 3


def test_http_transport_gives_up_after_retries(monkeypatch):
    attempts = []

    def always_down(url, headers, payload, timeout):
        attempts.append(1)
        raise TransportError("down")

    monkeypatch.setattr(chat, "_http_post", always_down)
    cfg = ChatClientConfig(endpoint="http://x", mode="live", max_retries=2, backoff_base=0.0)
    with pytest.raises(TransportError):
        HttpTransport(cfg, "tok").send(chat_payload("m", "p"))
    assert len(attempts) == 3  # initial try plus two retries


def test_http_transport_sends_bearer_token(monkeypatch):
    seen = {}

    def capture(url, headers, payload, timeout):
        seen.update(headers)
        return "ok"

    monkeypatch.setattr(chat, "_http_post", capture)
    cfg = ChatClientConfig(endpoint="http://x", mode="live")
    HttpTransport(cfg, "secret-token").send(chat_payload("m", "p"))
    assert seen["Authorization"] == "Bearer secret-token"


def test_http_post_maps_request_errors_to_transport_error(monkeypatch):
    def refuse(*args, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "post", refuse)
    with pytest.raises(TransportError, match="ConnectionError: connection refused"):
        chat._http_post("http://x", {}, {}, 1.0)
    cfg = ChatClientConfig(endpoint="http://x", mode="live", max_retries=1, backoff_base=0.0)
    with pytest.raises(TransportError, match="gave up after 2 attempts"):
        HttpTransport(cfg, "tok").send(chat_payload("m", "p"))


class FakeResponse:
    def __init__(self, status_code: int) -> None:
        self.status_code = status_code
        self.text = "body"


@pytest.mark.parametrize(
    "status, attempts", [(400, 1), (401, 1), (404, 1), (429, 4), (500, 4), (503, 4)]
)
def test_http_transport_retries_only_throttling_and_server_errors(monkeypatch, status, attempts):
    posts, sleeps = [], []
    monkeypatch.setattr(requests, "post", lambda url, **kw: posts.append(url) or FakeResponse(status))
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    cfg = ChatClientConfig(endpoint="http://x", mode="live", max_retries=3)
    with pytest.raises(TransportError, match=f"endpoint returned {status}"):
        HttpTransport(cfg, "tok").send(chat_payload("m", "p"))
    assert len(posts) == attempts
    assert sleeps == [0.5 * 2**i for i in range(attempts - 1)]


def test_cli_import_does_not_load_requests():
    import modalkit

    env = dict(os.environ, PYTHONPATH=str(Path(modalkit.__file__).parents[1]))
    code = "import sys, modalkit.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_build_transport_replay_requires_existing_fixture(tmp_path):
    with pytest.raises(ConfigError):
        build_transport(replay_cfg(tmp_path / "missing.json"))


def test_build_transport_live_requires_token(monkeypatch):
    monkeypatch.delenv("MODALKIT_API_TOKEN", raising=False)
    called = []
    monkeypatch.setattr(chat, "_http_post", lambda *a, **k: called.append(1))
    cfg = ChatClientConfig(endpoint="http://x", mode="live")
    with pytest.raises(ConfigError) as excinfo:
        build_transport(cfg)
    assert "MODALKIT_API_TOKEN" in str(excinfo.value)
    assert called == []  # rejected before any network attempt


def test_build_transport_reads_named_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("OTHER_TOKEN_VAR", "tok123")
    cfg = ChatClientConfig(
        endpoint="http://x",
        mode="record",
        auth_env="OTHER_TOKEN_VAR",
        fixture_path=str(tmp_path / "f.json"),
    )
    transport = build_transport(cfg)
    assert isinstance(transport, RecordTransport)


def test_token_never_lands_in_fixture(monkeypatch, tmp_path):
    monkeypatch.setenv("MODALKIT_API_TOKEN", "super-secret-value")
    monkeypatch.setattr(chat, "_http_post", lambda *a, **k: "body text")
    path = tmp_path / "f.json"
    cfg = ChatClientConfig(endpoint="http://x", mode="record", fixture_path=str(path))
    build_transport(cfg).send(chat_payload("m", "p"))
    assert "super-secret-value" not in path.read_text()


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        ChatClientConfig(mode="telepathy").validate()
    with pytest.raises(ConfigError):
        ChatClientConfig(mode="replay", fixture_path=None).validate()
    with pytest.raises(ConfigError):
        ChatClientConfig(mode="live", endpoint="").validate()
    with pytest.raises(ConfigError):
        ChatClientConfig(mode="live", endpoint="http://x", max_retries=-1).validate()
    with pytest.raises(ConfigError):
        ChatClientConfig(mode="live", endpoint="http://x", timeout=0).validate()
    with pytest.raises(ConfigError, match="backoff_base must be >= 0"):
        ChatClientConfig(mode="live", endpoint="http://x", backoff_base=-0.5).validate()


class OneShot:
    def __init__(self, body):
        self.body = body

    def send(self, payload):
        return self.body


def test_complete_accepts_plain_text():
    cfg = ChatClientConfig()
    assert complete(OneShot("plain body"), cfg, "p") == "plain body"


def test_complete_unwraps_openai_envelope():
    body = json.dumps({"choices": [{"message": {"content": "inner text"}}]})
    assert complete(OneShot(body), ChatClientConfig(), "p") == "inner text"


def test_complete_unwraps_content_field():
    body = json.dumps({"content": "direct"})
    assert complete(OneShot(body), ChatClientConfig(), "p") == "direct"


def test_complete_passes_through_other_json():
    assert complete(OneShot("[1, 2]"), ChatClientConfig(), "p") == "[1, 2]"


@over_hostile_json("body")
def test_complete_passes_through_hostile_json(body):
    assert complete(OneShot(body), ChatClientConfig(), "p") == body


@pytest.mark.parametrize("body", ['{"choices": [1]}', '{"choices": [{"message": "hi"}]}'])
def test_complete_passes_through_malformed_envelopes(body):
    assert complete(OneShot(body), ChatClientConfig(), "p") == body


@over_hostile_json("text")
def test_hostile_fixture_is_config_error(tmp_path, text):
    path = tmp_path / "fixture.json"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_fixture(path)
