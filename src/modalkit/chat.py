"""Chat-completion transport with record/replay.

Dataset generation talks to a remote completion endpoint.  To keep every
test and most workflows offline, the transport is swappable: live hits
the network, record wraps live and captures responses into a fixture
file, replay serves exclusively from the fixture.  Fixtures key the
recorded bodies by a fingerprint of the request payload; the auth token
travels only in headers and is never written anywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .errors import ConfigError, FixtureMiss, TransportError
from .files import replace_file

MODES = ("live", "record", "replay")
_HTTP_PREFIXES = ("http://", "https://")  # urllib would also open file:, ftp: and data: URLs


@dataclass
class ChatClientConfig:
    endpoint: str = ""
    model: str = "default"
    auth_env: str = "MODALKIT_API_TOKEN"
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5
    mode: str = "replay"
    fixture_path: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"chat mode must be one of {MODES}, got {self.mode!r}")
        if self.mode in ("record", "replay") and not self.fixture_path:
            raise ConfigError(f"chat mode {self.mode!r} requires fixture_path")
        if self.mode in ("live", "record"):
            if not self.endpoint.lower().startswith(_HTTP_PREFIXES):
                raise ConfigError(f"chat mode {self.mode!r} requires an http or https endpoint")
            try:
                parts = urlsplit(self.endpoint)
                parts.port  # raises unless the port is a number in 0-65535
            except ValueError as exc:
                raise ConfigError(f"chat endpoint {self.endpoint!r} does not parse: {exc}") from None
            if not parts.hostname:
                raise ConfigError(f"chat endpoint {self.endpoint!r} names no host")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")


def chat_payload(model: str, prompt: str) -> dict:
    return {"model": model, "messages": [{"role": "user", "content": prompt}]}


def request_fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _http_post(url: str, headers: dict, payload: dict, timeout: float) -> str:
    """The only network touchpoint in the package.  It follows no redirect."""
    # here, not at module top: only live and record modes load them
    from http.client import HTTPException, InvalidURL
    from urllib.error import HTTPError
    from urllib.request import HTTPRedirectHandler, Request, build_opener

    class NoRedirect(HTTPRedirectHandler):  # a 3xx then raises HTTPError with its status
        def redirect_request(self, *args):
            return None

    try:
        request = Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
        with build_opener(NoRedirect).open(request, timeout=timeout) as resp:
            status, body = resp.status, resp.read()
    except HTTPError as exc:
        exc.close()
        status = exc.code
    except (ValueError, InvalidURL) as exc:  # a URL or header that no retry can mend
        raise TransportError(f"{type(exc).__name__}: {exc}", retryable=False) from None
    except (OSError, HTTPException) as exc:
        raise TransportError(f"{type(exc).__name__}: {exc}") from None
    if status != 200:
        # only throttling and server errors may pass on a later attempt
        retryable = status == 429 or status >= 500
        raise TransportError(f"endpoint returned {status}", retryable=retryable)
    return body.decode("utf-8", errors="replace")  # JSON is UTF-8 (RFC 8259, section 8.1)


class HttpTransport:
    """Live transport with exponential backoff on a retryable failure."""

    def __init__(self, cfg: ChatClientConfig, token: str) -> None:
        self._cfg = cfg
        self._token = token

    def send(self, payload: dict) -> str:
        headers = {
            "Authorization": f"Bearer {self._token}",
            "Content-Type": "application/json",
        }
        last: Exception | None = None
        for attempt in range(self._cfg.max_retries + 1):
            try:
                return _http_post(self._cfg.endpoint, headers, payload, self._cfg.timeout)
            except TransportError as exc:
                if not exc.retryable:
                    raise
                last = exc
                if attempt < self._cfg.max_retries:
                    time.sleep(self._cfg.backoff_base * (2**attempt))
        raise TransportError(f"gave up after {self._cfg.max_retries + 1} attempts: {last}")


class RecordTransport:
    """Pass through to an inner transport, appending every response to the fixture."""

    def __init__(self, inner, fixture_path: str | Path) -> None:
        self._inner = inner
        self._path = Path(fixture_path)
        self._responses = load_fixture(self._path) if self._path.exists() else {}

    def send(self, payload: dict) -> str:
        body = self._inner.send(payload)
        self._responses.setdefault(request_fingerprint(payload), []).append(body)
        save_fixture(self._responses, self._path)
        return body


class ReplayTransport:
    """Serve recorded bodies in order; identical requests consume the queue."""

    def __init__(self, fixture_path: str | Path) -> None:
        self._queues = {k: list(v) for k, v in load_fixture(fixture_path).items()}

    def send(self, payload: dict) -> str:
        fp = request_fingerprint(payload)
        queue = self._queues.get(fp)
        if not queue:
            raise FixtureMiss(f"no recorded response for request {fp[:12]}")
        return queue.pop(0)


def load_fixture(path: str | Path) -> dict[str, list[str]]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read fixture {path}: {exc}") from None
    if not isinstance(doc, dict) or "responses" not in doc:
        raise ConfigError(f"fixture {path} is missing the responses table")
    table = doc["responses"]
    if not isinstance(table, dict) or not all(isinstance(v, list) for v in table.values()):
        raise ConfigError(f"fixture {path}: responses must map each request key to a list")
    return {k: [str(b) for b in v] for k, v in table.items()}


def save_fixture(responses: dict[str, list[str]], path: str | Path) -> None:
    doc = {"version": 1, "responses": responses}
    replace_file(path, (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False), "\n"))


def build_transport(cfg: ChatClientConfig):
    cfg.validate()
    if cfg.mode == "replay":
        if not Path(cfg.fixture_path).exists():
            raise ConfigError(f"replay fixture does not exist: {cfg.fixture_path}")
        return ReplayTransport(cfg.fixture_path)
    token = os.environ.get(cfg.auth_env, "")
    if not token:
        raise ConfigError(f"chat mode {cfg.mode!r} needs a token in ${cfg.auth_env}")
    live = HttpTransport(cfg, token)
    if cfg.mode == "record":
        return RecordTransport(live, cfg.fixture_path)
    return live


def complete(transport, cfg: ChatClientConfig, prompt: str) -> str:
    """Send one prompt, return the completion text.

    Bodies may be an OpenAI-style JSON envelope or plain text; both are
    accepted so fixtures can stay human-writable."""
    body = transport.send(chat_payload(cfg.model, prompt))
    try:
        doc = json.loads(body)
    except (ValueError, RecursionError):
        return body
    if not isinstance(doc, dict):
        return body
    choices = doc.get("choices")
    if isinstance(choices, list) and choices and isinstance(choices[0], dict):
        message = choices[0].get("message")
        if isinstance(message, dict) and isinstance(message.get("content"), str):
            return message["content"]
    content = doc.get("content")
    return content if isinstance(content, str) else body
