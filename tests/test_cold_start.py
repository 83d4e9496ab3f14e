"""The package surface loads lazily, and the language-only commands never
import numpy: parse-meta, validate-dataset, generate-instructions (both
modes) and params, plus the set-up the benchmark times in a fresh
interpreter.  numpy is already loaded in the test process, so each
command runs in a subprocess that reports what it imported."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modalkit
from modalkit.config import default_config_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NUMERIC = ("numpy", "modalkit.pipeline", "modalkit.projection", "modalkit.rng")

# Runs one CLI command, then prints its exit code and which numeric
# modules it loaded as the last line of stdout.
PROBE = (
    "import sys\n"
    "from modalkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(code, [m for m in {NUMERIC!r} if m in sys.modules])\n"
)


def _python(code: str, *args: str, stdin: str = "") -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, input=stdin, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _dataset(tmp_path: Path) -> Path:
    """Two canonical lines and one two-key line, which only lenient mode recovers."""
    out = tmp_path / "pairs.jsonl"
    _python(PROBE, "generate-instructions", "--n", "2", "--out", str(out))
    with out.open("a", encoding="utf-8") as fh:
        fh.write('{"instruction": ["Draw the cat.", "cat.png"] "invocation": [("text-to-image", "a cat"), ]}\n')
    return out


COMMANDS = {
    "parse-meta": (["parse-meta", "--mode", "lenient"], 0),
    "validate-dataset-strict": (["validate-dataset", "--in", "{dataset}"], 1),
    "validate-dataset-lenient": (["validate-dataset", "--in", "{dataset}", "--mode", "lenient"], 0),
    "generate-template": (["generate-instructions", "--n", "20", "--out", "{out}"], 0),
    "generate-llm": (["generate-instructions", "--mode", "llm", "--n", "3", "--out", "{out}"], 0),
    "params": (["params"], 0),
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_language_only_command_loads_no_numpy(tmp_path, name):
    argv, want_code = COMMANDS[name]
    paths = {"dataset": _dataset(tmp_path) if "{dataset}" in argv else "", "out": tmp_path / "o.jsonl"}
    argv = [arg.format(**paths) for arg in argv]
    meta = '{"text": "ok", "invocations": [{"model": "text-to-image", "prompt": "a cat"}]}'
    last = _python(PROBE, *argv, stdin=meta)[-1]
    assert last == f"{want_code} []"


def _setup_code() -> str:
    """perfbench/run.py's SETUP_CODE, read without importing the harness."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]:
            return node.value.value
    raise AssertionError("perfbench/run.py has no SETUP_CODE")


def test_benchmark_setup_loads_no_numpy():
    code = _setup_code() + f"print([m for m in {NUMERIC!r} if m in sys.modules])\n"
    lines = _python(code, str(SRC), str(default_config_path()))
    assert float(lines[0]) > 0 and lines[1] == "[]"


def test_import_modalkit_loads_no_numpy():
    code = f"import sys, modalkit\nprint([m for m in {NUMERIC!r} if m in sys.modules])\n"
    assert _python(code) == ["[]"]


def test_run_and_gradcheck_still_load_numpy(tmp_path):
    ws = tmp_path / "ws"
    run = ["run", "--instruction", "Generate an image of a cat", "--workspace", str(ws)]
    assert _python(PROBE, *run)[-1] == f"0 {list(NUMERIC)}"
    last = _python(PROBE, "gradcheck", "--trials", "1")[-1]
    assert last == "0 ['numpy', 'modalkit.projection', 'modalkit.rng']"


# --- the lazy package surface ------------------------------------------------------


@pytest.mark.parametrize("name", modalkit.__all__)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(modalkit, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from modalkit import *", namespace)
    assert set(modalkit.__all__) <= namespace.keys()
    assert set(modalkit.__all__) <= set(dir(modalkit))
    assert "__version__" in dir(modalkit)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        modalkit.no_such_name
    assert not hasattr(modalkit, "_SOURCE")
