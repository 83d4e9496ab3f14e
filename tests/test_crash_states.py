"""Crash states of every writer that replaces a whole file, and of run's commit.

Each writer runs once with its mutating calls under a scratch root
recorded: files opened for writing, os.replace, os.unlink, os.chmod,
os.mkdir, os.rmdir and Path.write_bytes / write_text.  Then, for every
call k:

- the writer runs again from the same start with call k raising
  OSError, so its own cleanup runs, and the state it leaves must hold
  the writer's invariant;
- the state a crash just after call k leaves is rebuilt on a copy of
  the start by applying calls 1..k (a write whole, and a last write
  also cut to half), and must hold the same invariant.  A crash runs no
  cleanup, so a raised exception cannot stand in for it.

Calls are applied in program order.  Nothing is fsynced, so a power loss
on a file system that reorders unsynced writes can leave states these
tests do not build; see README.md.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
import shutil
from pathlib import Path

import pytest

from modalkit import chat, files, instruct, pipeline, zoo
from modalkit.backends import ScriptedBackend, ScriptedRule
from modalkit.errors import InvalidArgument
from modalkit.instruct import Candidate, template_generate, write_dataset
from modalkit.meta import Modality
from modalkit.pipeline import UserRequest, run
from modalkit.zoo import default_registry, manifest_json

# The argument each os call logs besides its path.
ARGUMENTS = {"replace": os.fspath, "chmod": lambda mode: mode}


class Recorder:
    """Logs each mutating call on a path under root, then makes it, except
    that the call numbered fail_at (from 0) raises OSError instead."""

    def __init__(self, root: Path, fail_at: int | None = None) -> None:
        self.root = str(root) + os.sep
        self.fail_at = fail_at
        self.calls: list[list] = []  # [op, path, argument]
        self._open: list | None = None  # a write whose bytes are still coming

    def log(self, op: str, path, arg=None) -> list | None:
        if not os.fspath(path).startswith(self.root):
            return None
        self.settle()
        self.calls.append([op, os.fspath(path), arg])
        if len(self.calls) - 1 == self.fail_at:
            raise OSError(errno.EIO, "injected failure", os.fspath(path))
        return self.calls[-1]

    def settle(self) -> None:
        """A file opened for writing holds all its bytes by the next call."""
        if self._open is not None:
            call, self._open = self._open, None
            call[2] = Path(call[1]).read_bytes()

    def install(self, mp: pytest.MonkeyPatch) -> None:
        def opener(file, mode="r", *args, **kwargs):
            if any(c in mode for c in "wxa+"):
                call = self.log("write", file)
                handle = builtins.open(file, mode, *args, **kwargs)
                self._open = call
                return handle
            return builtins.open(file, mode, *args, **kwargs)

        for module in (files, instruct, chat, pipeline, zoo):
            mp.setattr(module, "open", opener, raising=False)
        for op in ("replace", "unlink", "chmod", "mkdir", "rmdir"):
            mp.setattr(os, op, self._through(op, getattr(os, op)))
        write_bytes, write_text = Path.write_bytes, Path.write_text

        def path_write_bytes(path, data):
            self.log("write", path, bytes(data))
            return write_bytes(path, data)

        def path_write_text(path, data, encoding=None, errors=None, newline=None):
            self.log("write", path, data.encode(encoding or "utf-8"))
            return write_text(path, data, encoding, errors, newline)

        mp.setattr(Path, "write_bytes", path_write_bytes)
        mp.setattr(Path, "write_text", path_write_text)

    def _through(self, op: str, real):
        argument = ARGUMENTS.get(op)

        def call(path, *args, **kwargs):
            self.log(op, path, argument(*args) if argument else None)
            return real(path, *args, **kwargs)

        return call


def recorded(root: Path, write, fail_at: int | None = None):
    """(calls, write's result, the exception it raised) for write(root)."""
    rec = Recorder(root, fail_at)
    out = err = None
    with pytest.MonkeyPatch.context() as mp:
        rec.install(mp)
        try:
            out = write(root)
        except Exception as exc:  # noqa: BLE001 - the caller checks its type
            err = exc
        rec.settle()
    return rec.calls, out, err


def replay(calls: list[list], root: Path, start: Path, dest: Path, half: bool) -> None:
    """dest = start after calls (made under root), the last one's file cut to half."""
    shutil.copytree(start, dest)

    def moved(path: str) -> str:
        return str(dest / os.path.relpath(path, root))

    for j, (op, path, arg) in enumerate(calls):
        if op == "write":
            data = arg[: len(arg) // 2] if half and j == len(calls) - 1 else arg
            Path(moved(path)).write_bytes(data)
        elif op == "replace":
            os.replace(moved(path), moved(arg))
        elif op == "unlink":
            os.unlink(moved(path))
        elif op == "chmod":
            os.chmod(moved(path), arg)
        elif op == "mkdir":
            os.makedirs(moved(path), exist_ok=True)
        elif op == "rmdir":
            os.rmdir(moved(path))


def every_state(tmp_path: Path, build, write, raises):
    """Run write once from the start that build(dir) makes, and once per
    recorded call with that call failing.  Returns write's result and
    (label, dir) for every failed run's end state and every crash state."""
    start, live = tmp_path / "start", tmp_path / "live"
    start.mkdir()
    build(start)
    shutil.copytree(start, live)
    calls, out, err = recorded(live, write)
    assert err is None and calls
    states = []
    for k, (op, _, _) in enumerate(calls):
        failed = tmp_path / f"fail{k}"
        shutil.copytree(start, failed)
        _, _, err = recorded(failed, write, fail_at=k)
        if op != "mkdir":  # Path.mkdir(exist_ok=True) takes any error on a directory as "exists"
            assert isinstance(err, raises), f"call {k} ({op}) failing gave {err!r}"
        leftovers = list(failed.rglob("*.tmp"))
        assert leftovers == [], f"call {k} ({op}) failing left {leftovers}"
        states.append((f"call {k} ({op}) fails", failed))
    for k in range(len(calls) + 1):
        for half in (False, True) if k and calls[k - 1][0] == "write" else (False,):
            dest = tmp_path / f"crash{k}{'half' if half else ''}"
            replay(calls[:k], live, start, dest, half)
            states.append((f"crash after {k} calls{', half written' if half else ''}", dest))
    return out, states


# --- write_dataset ----------------------------------------------------------------


CANDIDATES = [
    Candidate("a cat meowing", Modality.AUDIO),
    Candidate("a foggy harbor", Modality.IMAGE),
    Candidate("waves on a beach", Modality.VIDEO),
]


@pytest.mark.parametrize("old", [None, b'{"old": true}\n'], ids=["new-file", "over-a-file"])
def test_a_dataset_holds_its_old_bytes_or_all_its_new_ones(tmp_path, old):
    pairs = template_generate(CANDIDATES, seed=4, n=40)

    def build(root):
        if old is not None:
            (root / "d.jsonl").write_bytes(old)
            os.chmod(root / "d.jsonl", 0o640)

    def write(root):
        return write_dataset(pairs, root / "d.jsonl")

    out, states = every_state(tmp_path, build, write, OSError)
    assert out == len(pairs)
    new = (tmp_path / "live" / "d.jsonl").read_bytes()
    for label, state in states:
        target = state / "d.jsonl"
        held = target.read_bytes() if target.exists() else None
        assert held in (old, new), label
        if held is not None and old is not None:
            assert os.stat(target).st_mode & 0o777 == 0o640, label


# --- save_fixture -----------------------------------------------------------------


@pytest.mark.parametrize("old", [None, {"k1": ["first"]}], ids=["new-file", "over-a-file"])
def test_a_fixture_always_loads(tmp_path, old):
    new = {"k1": ["first", "second é"], "k2": ["x" * 500]}

    def build(root):
        if old is not None:
            chat.save_fixture(old, root / "fx.json")

    def write(root):
        chat.save_fixture(new, root / "fx.json")

    _, states = every_state(tmp_path, build, write, OSError)
    for label, state in states:
        fixture = state / "fx.json"
        if old is None and not fixture.exists():
            continue
        assert chat.load_fixture(fixture) in (old, new), label


# --- pipeline.run's commit ----------------------------------------------------------


EARLIER = (
    '{"text":"before","invocations":[{"model":"text-to-image","prompt":"a cat"},'
    '{"model":"text-to-audio","prompt":"a purr"},{"model":"text-to-video","prompt":"a run"}]}'
)
LATER = (
    '{"text":"after","invocations":[{"model":"text-to-audio","prompt":"a bark"},'
    '{"model":"text-to-image","prompt":"a dog"}]}'
)


def _run(root: Path, respond: str):
    backend = ScriptedBackend([ScriptedRule(respond=respond)])
    return run(UserRequest("Go."), default_registry(), backend, root / "ws", include_timings=False)


def _committed(response, trace) -> tuple[str, tuple[str, dict[str, bytes]]]:
    """A run's manifest text, and the trace text and artifacts it commits."""
    blobs = {a.path: a.data for a in response.artifacts}
    return manifest_json(response), (trace.to_json(False), blobs)


@pytest.mark.parametrize("earlier", [True, False], ids=["over-a-run", "new-workspace"])
def test_a_manifest_on_disk_describes_the_files_beside_it(tmp_path, earlier):
    runs = {}

    def build(root):
        if earlier:
            manifest, committed = _committed(*_run(root, EARLIER))
            runs[manifest] = committed
            (root / "ws" / "notes.txt").write_text("mine")

    (response, trace), states = every_state(
        tmp_path, build, lambda root: _run(root, LATER), InvalidArgument
    )
    manifest, committed = _committed(response, trace)
    runs[manifest] = committed
    assert len(response.artifacts) == 2 and len(runs) == 1 + earlier
    assert (tmp_path / "live" / "ws" / "manifest.json").read_text(encoding="utf-8") == manifest
    for label, state in states:
        ws = state / "ws"
        if earlier:
            assert (ws / "notes.txt").read_text() == "mine", label
        if not (ws / "manifest.json").exists():
            continue
        text = (ws / "manifest.json").read_text(encoding="utf-8")
        listed = [a["path"] for a in json.loads(text)["artifacts"]]
        assert text in runs, label
        trace_text, blobs = runs[text]
        assert sorted(blobs) == sorted(listed), label
        assert (ws / "trace.json").read_text(encoding="utf-8") == trace_text, label
        for name, data in blobs.items():
            assert (ws / name).read_bytes() == data, f"{label}: {name}"


def test_replace_file_holds_the_only_rename_in_src():
    src = Path(files.__file__).parent
    renaming = [p.name for p in src.glob("*.py") if "os.replace(" in p.read_text(encoding="utf-8")]
    assert renaming == ["files.py"]
