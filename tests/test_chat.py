"""Chat transport: fingerprints, record/replay, retries, token handling."""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import over_hostile_json, send_reply, serving_loopback
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


def _closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1/chat/completions"


def _truncated_body(handler) -> None:
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b"only ten b")


def _garbage_status_line(handler) -> None:
    handler.wfile.write(b"garbage\r\n\r\n")


def _stall(handler) -> None:
    handler.server.release.wait(10)


@pytest.mark.parametrize(
    "url, reply, retries, timeout, error",
    [
        ("closed-port", None, 1, 5.0, "URLError"),
        ("loopback", _stall, 0, 0.2, "TimeoutError"),  # the only row that waits, for 0.2 s
        ("loopback", _truncated_body, 1, 5.0, "IncompleteRead"),
        ("loopback", _garbage_status_line, 1, 5.0, "BadStatusLine"),
    ],
    ids=["closed-port", "timeout", "truncated-body", "bad-status-line"],
)
def test_http_post_maps_request_errors_to_transport_error(
    loopback, monkeypatch, url, reply, retries, timeout, error
):
    sleeps = []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    if reply is not None:
        loopback.reply = reply
    endpoint = {"closed-port": _closed_port_url(), "loopback": loopback.url()}.get(url, url)
    cfg = ChatClientConfig(endpoint=endpoint, mode="live", max_retries=retries, timeout=timeout)
    with pytest.raises(TransportError, match=f"gave up after {retries + 1} attempts: {error}: "):
        HttpTransport(cfg, "tok").send(chat_payload("m", "p"))
    assert len(loopback.seen) == (retries + 1 if reply is not None else 0)
    assert sleeps == [0.5 * 2**i for i in range(retries)]


@pytest.mark.parametrize(
    "endpoint, error",
    [
        ("127.0.0.1/v1/chat/completions", "ValueError: unknown url type"),
        ("http://[::1/v1", "ValueError: Invalid IPv6 URL"),
        ("http://127.0.0.1:abc/v1", "InvalidURL: nonnumeric port"),
    ],
    ids=["no-scheme", "bad-ipv6", "bad-port"],
)
def test_http_transport_does_not_retry_an_unparseable_url(monkeypatch, endpoint, error):
    # No attempt can succeed, so the first failure is final: no backoff.
    sleeps, attempts = [], []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    real_post = chat._http_post

    def counted(*args):
        attempts.append(args[0])
        return real_post(*args)

    monkeypatch.setattr(chat, "_http_post", counted)
    cfg = ChatClientConfig(endpoint=endpoint, mode="live", max_retries=3)
    with pytest.raises(TransportError, match=f"^{re.escape(error)}") as info:
        HttpTransport(cfg, "tok").send(chat_payload("m", "p"))
    assert not info.value.retryable
    assert attempts == [endpoint]
    assert sleeps == []


@pytest.mark.parametrize(
    "status, attempts",
    [
        (201, 1), (301, 1), (302, 1), (303, 1), (307, 1), (308, 1),
        (400, 1), (401, 1), (404, 1), (429, 4), (500, 4), (503, 4),
    ],
)
def test_http_transport_retries_only_throttling_and_server_errors(
    loopback, monkeypatch, status, attempts
):
    sleeps = []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    elsewhere = [("Location", loopback.url("/elsewhere"))]  # a followed redirect shows in seen
    loopback.reply = lambda handler: send_reply(handler, status, b"body", headers=elsewhere)
    cfg = ChatClientConfig(endpoint=loopback.url(), mode="live", max_retries=3)
    with pytest.raises(TransportError, match=f"endpoint returned {status}"):
        HttpTransport(cfg, "tok").send(chat_payload("m", "p"))
    assert [seen[:2] for seen in loopback.seen] == [("POST", "/v1/chat/completions")] * attempts
    assert sleeps == [0.5 * 2**i for i in range(attempts - 1)]


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
@pytest.mark.parametrize("target", ["other-server", "ftp", "file"])
def test_no_redirect_is_followed_so_the_token_stays_with_the_endpoint(loopback, status, target):
    with serving_loopback() as other:
        location = {
            "other-server": other.url(),
            "ftp": "ftp://127.0.0.1:9/x",
            "file": "file:///etc/hostname",
        }[target]
        elsewhere = [("Location", location)]
        loopback.reply = lambda handler: send_reply(handler, status, b"", headers=elsewhere)
        cfg = ChatClientConfig(endpoint=loopback.url(), mode="live")
        with pytest.raises(TransportError, match=f"^endpoint returned {status}$") as excinfo:
            HttpTransport(cfg, "secret-token").send(chat_payload("m", "p"))
    assert not excinfo.value.retryable
    assert len(loopback.seen) == 1
    assert other.seen == []


def test_live_exchange_posts_the_payload_and_returns_the_content(loopback):
    content = "Un chat 🐱 sur le canapé"
    envelope = json.dumps({"choices": [{"message": {"content": content}}]}, ensure_ascii=False)
    loopback.reply = lambda handler: send_reply(handler, 200, envelope.encode("utf-8"))
    cfg = ChatClientConfig(endpoint=loopback.url(), mode="live", model="m1")
    assert complete(HttpTransport(cfg, "secret-token"), cfg, "Décris ✓") == content
    [(method, path, headers, body)] = loopback.seen
    assert (method, path) == ("POST", "/v1/chat/completions")
    assert headers["Authorization"] == "Bearer secret-token"
    assert headers["Content-Type"] == "application/json"
    assert body == json.dumps(chat_payload("m1", "Décris ✓")).encode()


def test_http_post_decodes_any_body_as_utf8_with_replacement(loopback):
    body = "é".encode("utf-8") + b"\xff"
    loopback.reply = lambda handler: send_reply(handler, 200, body, "text/plain")
    assert chat._http_post(loopback.url(), {}, {}, 5.0) == "é\ufffd"


def test_record_over_loopback_then_replay(loopback, monkeypatch, tmp_path):
    monkeypatch.setenv("MODALKIT_API_TOKEN", "super-secret-value")
    bodies = iter([b"first", "zweite Antwort ✓".encode("utf-8")])
    loopback.reply = lambda handler: send_reply(handler, 200, next(bodies), "text/plain")
    path = tmp_path / "fixture.json"
    recorder = build_transport(
        ChatClientConfig(endpoint=loopback.url(), mode="record", fixture_path=str(path))
    )
    payloads = [chat_payload("m", "p"), chat_payload("m", "q")]
    sent = [recorder.send(payload) for payload in payloads]
    assert sent == ["first", "zweite Antwort ✓"]
    assert len(loopback.seen) == 2
    assert "super-secret-value" not in path.read_text(encoding="utf-8")
    replay = ReplayTransport(path)
    assert [replay.send(payload) for payload in payloads] == sent


def _package_env() -> dict:
    import modalkit

    return dict(os.environ, PYTHONPATH=str(Path(modalkit.__file__).parents[1]))


def test_live_exchange_runs_without_requests(loopback):
    loopback.reply = lambda handler: send_reply(handler, 200, b'{"content": "pong"}')
    code = (
        "import sys\n"
        "sys.modules['requests'] = None  # any import of it now fails\n"
        "from modalkit.chat import ChatClientConfig, HttpTransport, complete\n"
        f"cfg = ChatClientConfig(endpoint={loopback.url()!r}, mode='live')\n"
        "print(complete(HttpTransport(cfg, 'tok'), cfg, 'ping'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "pong\n", "")
    assert len(loopback.seen) == 1


def test_cli_import_does_not_load_requests():
    code = (
        "import sys, modalkit.cli; "
        "print([m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("mode", ["live", "record"])
@pytest.mark.parametrize(
    "endpoint", ["", "file:///etc/hostname", "ftp://127.0.0.1/x", "data:,hi", "127.0.0.1:8080/v1"]
)
def test_non_http_endpoint_is_config_error_before_any_request(
    monkeypatch, tmp_path, mode, endpoint
):
    monkeypatch.setenv("MODALKIT_API_TOKEN", "tok")
    called = []
    monkeypatch.setattr(chat, "_http_post", lambda *a, **k: called.append(1))
    cfg = ChatClientConfig(endpoint=endpoint, mode=mode, fixture_path=str(tmp_path / "f.json"))
    with pytest.raises(ConfigError, match=f"mode '{mode}' requires an http or https endpoint$"):
        build_transport(cfg)
    assert called == []


@pytest.mark.parametrize(
    "endpoint",
    ["http://[::1/v1", "http://127.0.0.1:99999/v1", "https://127.0.0.1:abc/v1", "http:///v1"],
)
@pytest.mark.parametrize("mode", ["live", "record"])
def test_config_rejects_an_endpoint_that_does_not_parse(endpoint, mode):
    cfg = ChatClientConfig(mode=mode, endpoint=endpoint, fixture_path="f.json")
    with pytest.raises(ConfigError, match="^chat endpoint "):
        cfg.validate()


def test_endpoint_scheme_is_case_insensitive():
    ChatClientConfig(mode="live", endpoint="HTTPS://api.example/v1").validate()


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
