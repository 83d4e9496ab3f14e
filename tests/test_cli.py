"""CLI behavior: in-process main(argv), exit codes, stdout/stderr contracts."""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import HOSTILE_JSON, tamper_backward
from modalkit import chat
from modalkit.cli import main
from modalkit.config import data_dir
from modalkit.instruct import Candidate, template_generate, write_dataset
from modalkit.media import render_placeholder
from modalkit.meta import Modality

CAT_CANONICAL = (
    '{"text":"","invocations":[{"model":"text-to-image","prompt":"A photo of a cat"}]}'
)
CAT_TUPLE = '[("text-to-image", "A photo of a cat"), ]'
PAPER_TWO_KEY_LINE = (
    '{"instruction": ["Generate an image of an animal based on the provided '
    'vocalization.", "cat_meowing.wav", ] '
    '"invocation": [("text-to-image", "A photo of a cat"), ]}'
)


def feed_stdin(monkeypatch, text: str) -> None:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


# --- usage errors -----------------------------------------------------------------


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["parse-meta", "--bogus"])
    assert excinfo.value.code == 2


# --- parse-meta -------------------------------------------------------------------


def test_parse_meta_strict_idempotent(monkeypatch, capsys):
    feed_stdin(monkeypatch, CAT_CANONICAL)
    assert main(["parse-meta", "--mode", "strict"]) == 0
    out, err = capsys.readouterr()
    assert out == CAT_CANONICAL + "\n"
    assert err == ""


def test_parse_meta_lenient_recovers_tuple_list(monkeypatch, capsys):
    feed_stdin(monkeypatch, CAT_TUPLE)
    assert main(["parse-meta", "--mode", "lenient"]) == 0
    out, err = capsys.readouterr()
    assert out == CAT_CANONICAL + "\n"
    assert "warning:" in err


def test_parse_meta_reads_file(tmp_path, capsys):
    src = tmp_path / "meta.txt"
    src.write_text(CAT_TUPLE)
    assert main(["parse-meta", "--mode", "lenient", "--file", str(src)]) == 0
    assert capsys.readouterr().out == CAT_CANONICAL + "\n"


def test_parse_meta_empty_input_exit_2(monkeypatch, capsys):
    feed_stdin(monkeypatch, "")
    assert main(["parse-meta"]) == 2
    assert "error: EmptyMeta" in capsys.readouterr().err


def test_parse_meta_strict_rejects_tuple_list(monkeypatch, capsys):
    feed_stdin(monkeypatch, CAT_TUPLE)
    assert main(["parse-meta", "--mode", "strict"]) == 2
    assert "error: MalformedMeta" in capsys.readouterr().err


# --- generate-instructions ---------------------------------------------------------


def test_generate_template_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["generate-instructions", "--n", "100", "--seed", "7", "--out", str(a)]) == 0
    first_out = capsys.readouterr().out
    assert main(["generate-instructions", "--n", "100", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 100
    assert f"wrote 100 pairs to {a}" in first_out
    assert "input_align" in first_out


def test_generate_n_zero_exit_2(tmp_path, capsys):
    assert main(["generate-instructions", "--n", "0", "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "error: InvalidArgument" in capsys.readouterr().err


def test_generate_llm_within_fixture_budget(tmp_path, capsys):
    out = tmp_path / "llm.jsonl"
    code = main(["generate-instructions", "--mode", "llm", "--n", "15", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "shortfall=0" in stdout
    assert len(out.read_text().splitlines()) == 15


def test_generate_llm_beyond_fixture_is_shortfall(tmp_path, capsys):
    out = tmp_path / "llm.jsonl"
    code = main(["generate-instructions", "--mode", "llm", "--n", "16", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "shortfall=1" in stdout
    assert len(out.read_text().splitlines()) == 15


def _bundled_config_copy(tmp_path: Path) -> Path:
    """The bundled config and every file it names, copied into tmp_path."""
    for src in data_dir().iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    return tmp_path / "default_config.json"


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}\n"], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("name", ["seeds.jsonl", "candidates_audio.txt", "references.txt"])
def test_generate_unreadable_corpus_file_exit_2(tmp_path, capsys, name, content):
    config = _bundled_config_copy(tmp_path)
    target = tmp_path / name
    if content is None:
        target.unlink()
    else:
        target.write_bytes(content)
    code = main(["generate-instructions", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: ConfigError: cannot read {target}: ")
    assert err.count("\n") == 1


def test_generate_out_is_a_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["generate-instructions", "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidArgument: cannot write {out}: ")
    assert err.count("\n") == 1


def _count_replay_requests(monkeypatch) -> list:
    sent = []
    original = chat.ReplayTransport.send

    def send(self, payload):
        sent.append(payload)
        return original(self, payload)

    monkeypatch.setattr(chat.ReplayTransport, "send", send)
    return sent


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_generate_llm_rejects_unwritable_out_before_any_request(
    tmp_path, capsys, monkeypatch, where
):
    sent = _count_replay_requests(monkeypatch)
    out = tmp_path / "taken"
    if where == "directory":
        out.mkdir()
    else:
        out = out / "pairs.jsonl"
    assert main(["generate-instructions", "--mode", "llm", "--n", "3", "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith(f"error: InvalidArgument: cannot write {out}: ")
    assert err.count("\n") == 1 and out_text == ""
    assert sent == []


def test_generate_llm_failure_leaves_existing_out_untouched(tmp_path, capsys):
    fixture = tmp_path / "empty_fixture.json"
    fixture.write_text(json.dumps({"version": 1, "responses": {}}))
    config = _bundled_config_copy(tmp_path)
    doc = json.loads(config.read_text())
    doc["chat"]["fixture_path"] = fixture.name
    config.write_text(json.dumps(doc))
    out = tmp_path / "pairs.jsonl"
    out.write_text("keep me\n")
    argv = ["generate-instructions", "--config", str(config), "--mode", "llm", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: FixtureMiss: ")
    assert out.read_text() == "keep me\n"


def test_generate_bad_seeds_line_names_the_seeds_file(tmp_path, capsys):
    config = _bundled_config_copy(tmp_path)
    seeds = tmp_path / "seeds.jsonl"
    lineno = len(seeds.read_text().splitlines()) + 1
    seeds.write_text(seeds.read_text() + "{broken\n")
    code = main(["generate-instructions", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: ConfigError: seeds file {seeds}: line {lineno}: not valid JSON")
    assert err.count("\n") == 1


# --- validate-dataset ---------------------------------------------------------------


def sample_dataset(tmp_path, n=5):
    path = tmp_path / "pairs.jsonl"
    candidates = [
        Candidate("a cat meowing", Modality.AUDIO),
        Candidate("a foggy harbor", Modality.IMAGE),
    ]
    write_dataset(template_generate(candidates, seed=3, n=n), path)
    return path


def test_validate_dataset_clean(tmp_path, capsys):
    path = sample_dataset(tmp_path)
    assert main(["validate-dataset", "--in", str(path)]) == 0
    assert "checked 5 pairs, 0 invalid" in capsys.readouterr().out


def test_validate_dataset_reports_bad_line(tmp_path, capsys):
    path = sample_dataset(tmp_path, n=1)
    path.write_text(path.read_text() + "{oops\n")
    assert main(["validate-dataset", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert "line 2:" in out
    assert "checked 1 pairs, 1 invalid" in out


def test_validate_dataset_duplicate_ids(tmp_path, capsys):
    path = sample_dataset(tmp_path, n=1)
    path.write_text(path.read_text() * 2)
    assert main(["validate-dataset", "--in", str(path)]) == 1
    assert "duplicate id" in capsys.readouterr().out


def test_validate_dataset_lenient_accepts_two_key_form(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    path.write_text(PAPER_TWO_KEY_LINE + "\n")
    assert main(["validate-dataset", "--in", str(path), "--mode", "lenient"]) == 0
    assert "checked 1 pairs, 0 invalid" in capsys.readouterr().out
    assert main(["validate-dataset", "--in", str(path), "--mode", "strict"]) == 1


@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_validate_dataset_counts_unpaired_surrogate_invalid(tmp_path, capsys, mode):
    path = tmp_path / "surrogate.jsonl"
    line = {
        "id": "s1",
        "type": "input_align",
        "instruction": "\ud800",
        "attachments": [],
        "invocations": [],
        "response_text": "text",
    }
    path.write_text(json.dumps(line) + "\n")
    assert main(["validate-dataset", "--in", str(path), "--mode", mode]) == 1
    out = capsys.readouterr().out
    assert out.startswith("line 1: ") and out.endswith("checked 0 pairs, 1 invalid\n")
    if mode == "strict":
        assert "instruction holds an unpaired surrogate" in out


# --- exit contract on hostile input ------------------------------------------------

@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("command", ["parse-meta", "validate-dataset"])
def test_non_utf8_file_is_a_one_line_error(tmp_path, capsys, command, mode):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'\xff\xfe{"text":"x","invocations":[]}\n')
    flag = "--file" if command == "parse-meta" else "--in"
    code = main([command, "--mode", mode, flag, str(path)])
    out, err = capsys.readouterr()
    if command == "parse-meta":
        assert code == 2
        assert err.startswith("error: InvalidArgument: cannot read") and err.count("\n") == 1
    else:  # the dataset validator reports the line and goes on
        assert code == 1
        assert out == "line 1: not valid UTF-8\nchecked 0 pairs, 1 invalid\n"


@pytest.mark.parametrize("command", ["parse-meta", "validate-dataset"])
def test_missing_input_file_is_a_usage_error(tmp_path, capsys, command):
    flag = "--file" if command == "parse-meta" else "--in"
    assert main([command, flag, str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: InvalidArgument: cannot read")


_NESTINGS = [("[", "]"), ('{"a": ', "}"), ('{"text": "", "invocations": [', "]}")]

st_deep = st.builds(
    lambda nesting, depth, closed: nesting[0] * depth + (nesting[1] * depth if closed else ""),
    st.sampled_from(_NESTINGS),
    st.integers(1, 20_000),
    st.booleans(),
)


@given(
    st.one_of(
        st.text(max_size=300).map(str.encode),
        st_deep.map(str.encode),
        st.sampled_from([t.encode() for t in HOSTILE_JSON.values()]),
        st.binary(max_size=300),
    )
)
@settings(max_examples=40, deadline=None)
def test_parse_and_validate_exit_0_1_2_on_any_text(data):
    """Run in-process, so an exception escaping main (what the console
    script would print as a traceback) fails the test.  Stdin gets the
    bytes as a UTF-8 locale in UTF-8 mode decodes them (surrogateescape)."""
    err = io.StringIO()
    text = data.decode("utf-8", "surrogateescape")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(data)
        for mode in ("strict", "lenient"):
            for argv, stdin in (
                (["parse-meta", "--mode", mode], text),
                (["parse-meta", "--mode", mode, "--file", str(path)], ""),
                (["validate-dataset", "--in", str(path), "--mode", mode], ""),
            ):
                saved, sys.stdin = sys.stdin, io.StringIO(stdin)
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(err):
                        code = main(argv)
                finally:
                    sys.stdin = saved
                assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


# --- run ----------------------------------------------------------------------------


def test_run_cat_scenario(tmp_path, capsys):
    wav = tmp_path / "cat_meowing.wav"
    wav.write_bytes(render_placeholder("text-to-audio", "a cat meowing", 0))
    ws = tmp_path / "ws"
    code = main(
        [
            "run",
            "--instruction",
            "Generate an image of an animal based on the provided vocalization.",
            "--attach",
            str(wav),
            "--workspace",
            str(ws),
        ]
    )
    out, err = capsys.readouterr()
    assert code == 0, err
    manifest = json.loads(out)
    assert [a["path"] for a in manifest["artifacts"]] == ["artifact_0_text-to-image.ppm"]
    assert (ws / "artifact_0_text-to-image.ppm").exists()
    assert (ws / "trace.json").exists()


def test_run_missing_attachment_exit_2(tmp_path, capsys):
    code = main(
        [
            "run",
            "--instruction",
            "Describe.",
            "--attach",
            str(tmp_path / "ghost.wav"),
            "--workspace",
            str(tmp_path / "ws"),
        ]
    )
    assert code == 2
    assert "error: AttachmentMissing" in capsys.readouterr().err


def test_run_empty_instruction_exit_2(tmp_path, capsys):
    code = main(["run", "--workspace", str(tmp_path / "ws")])
    assert code == 2
    assert "error: InstructionRequired" in capsys.readouterr().err


def test_run_uninferrable_attachment_exit_2(tmp_path, capsys):
    notes = tmp_path / "notes.txt"
    notes.write_text("x")
    code = main(
        ["run", "--instruction", "Go.", "--attach", str(notes), "--workspace", str(tmp_path / "ws")]
    )
    assert code == 2
    assert "error: InvalidArgument" in capsys.readouterr().err


def test_run_workspace_is_a_file_exit_2(tmp_path, capsys):
    ws = tmp_path / "taken"
    ws.write_text("x")
    assert main(["run", "--instruction", "Go.", "--workspace", str(ws)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidArgument: cannot create workspace {ws}: ")
    assert err.count("\n") == 1
    assert ws.read_text() == "x"


def test_run_directory_attachment_exit_2_before_workspace(tmp_path, capsys):
    folder = tmp_path / "dir.wav"
    folder.mkdir()
    ws = tmp_path / "ws"
    argv = ["run", "--instruction", "Go.", "--attach", str(folder), "--workspace", str(ws)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: InvalidArgument: attachment {folder} is not a regular file\n"
    assert not ws.exists()


def test_run_unreadable_attachment_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    wav = tmp_path / "cat.wav"
    wav.write_bytes(render_placeholder("text-to-audio", "a cat meowing", 0))

    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", refuse)
    ws = tmp_path / "ws"
    argv = ["run", "--instruction", "Go.", "--attach", str(wav), "--workspace", str(ws)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidArgument: cannot read attachment {wav}: ")
    assert err.count("\n") == 1


def test_run_degraded_exit_1(tmp_path, capsys):
    rules = {
        "rules": [
            {"respond": '{"text":"t","invocations":[{"model":"text-to-hologram","prompt":"x"}]}'}
        ]
    }
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    config = {
        "registry": [{"name": "m-image", "kind": "text-to-image"}],
        "backend_rules": "rules.json",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(
        [
            "run",
            "--config",
            str(cfg_path),
            "--instruction",
            "Go.",
            "--workspace",
            str(tmp_path / "ws"),
        ]
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert "degraded" in err
    manifest = json.loads(out)
    assert manifest["artifacts"] == [] and manifest["diagnostics"]


# --- gradcheck and params ------------------------------------------------------------


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "worst" in out and "trial 0:" in out


def test_gradcheck_detects_tampered_gradients(capsys, monkeypatch):
    tamper_backward(monkeypatch, 1e-3)
    assert main(["gradcheck", "--trials", "2"]) == 1
    worst = capsys.readouterr().out.splitlines()[-1].split()
    assert worst[0] == "worst" and float(worst[1]) > 1e-3


def test_gradcheck_zero_trials_exit_2(capsys):
    assert main(["gradcheck", "--trials", "0"]) == 2
    assert "error: InvalidArgument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, argv, fragment",
    [
        (
            {"seed": -1},
            ["run", "--instruction", "Go.", "--workspace", "ws"],
            "is invalid:\n  seed must be >= 0, got -1\n",
        ),
        (
            {"instruct": {"seeds_per_query": -1}},
            ["generate-instructions", "--mode", "llm", "--out", "pairs.jsonl"],
            "instruct: seeds_per_query must be >= 0, got -1",
        ),
        (None, ["gradcheck", "--seed", "-1"], "InvalidArgument: --seed must be >= 0, got -1"),
        (None, ["gradcheck", "--epsilon", "0"], "--epsilon must be a finite number > 0, got 0.0"),
        (None, ["gradcheck", "--epsilon", "nan"], "--epsilon must be a finite number > 0, got nan"),
        (None, ["gradcheck", "--threshold", "nan"], "--threshold must be a finite number > 0, got nan"),
        (None, ["gradcheck", "--threshold", "inf"], "--threshold must be a finite number > 0, got inf"),
        (None, ["gradcheck", "--threshold", "0"], "--threshold must be a finite number > 0, got 0.0"),
        (None, ["gradcheck", "--threshold", "-1"], "--threshold must be a finite number > 0, got -1.0"),
        (
            None,
            ["run", "--seed", "-1", "--instruction", "Go.", "--workspace", "ws"],
            "InvalidArgument: --seed must be >= 0, got -1",
        ),
        (
            None,
            ["generate-instructions", "--seed", "-7", "--out", "pairs.jsonl"],
            "InvalidArgument: --seed must be >= 0, got -7",
        ),
    ],
)
def test_out_of_range_numbers_exit_2(tmp_path, capsys, monkeypatch, overrides, argv, fragment):
    monkeypatch.chdir(tmp_path)
    if overrides is not None:
        config = _bundled_config_copy(tmp_path)
        doc = json.loads(config.read_text())
        for key, value in overrides.items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        config.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1
    assert fragment in err and "Traceback" not in err


def test_params_default_budget(capsys):
    assert main(["params"]) == 0
    assert capsys.readouterr().out == (
        "proj.audio 4194304\n"
        "proj.image 4194304\n"
        "proj.video 4194304\n"
        "lora 262144\n"
        "total 12845056 (12,845,056)\n"
    )


# The train and pipeline sections of the bundled config before they lost
# the keys nothing reads; a config copied from it must keep working.
OLD_TRAIN_AND_PIPELINE = {
    "train": {
        "d_enc": 1024,
        "d_llm": 4096,
        "token_count": 1,
        "bias": False,
        "rank": 32,
        "alpha": 16.0,
        "learning_rate": 0.05,
        "steps": 200,
        "seed": 7,
        "loss": "mse",
    },
    "pipeline": {"d_enc": 64, "d_llm": 128, "rank": 4},
}


def test_params_same_for_a_config_naming_unread_keys(tmp_path, capsys):
    assert main(["params"]) == 0
    bundled = capsys.readouterr().out
    config = _bundled_config_copy(tmp_path)
    doc = json.loads(config.read_text())
    config.write_text(json.dumps({**doc, **OLD_TRAIN_AND_PIPELINE}))
    assert main(["params", "--config", str(config)]) == 0
    assert capsys.readouterr().out == bundled


def test_run_with_a_tiny_pipeline_d_llm(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = _bundled_config_copy(tmp_path)
    doc = json.loads(config.read_text())
    doc["pipeline"]["d_llm"] = 2
    config.write_text(json.dumps(doc))
    wav = tmp_path / "cat.wav"
    wav.write_bytes(b"\x01" * 64)
    argv = ["run", "--config", str(config), "--instruction", "Make an image.", "--attach", str(wav)]
    assert main([*argv, "--workspace", "ws"]) == 0
    capsys.readouterr()
    stages = json.loads((tmp_path / "ws" / "trace.json").read_text())["stages"]
    (project,) = [s for s in stages if s["name"] == "project"]
    assert project["details"] == {"token_shapes": [[1, 2]]}


def test_params_toy_config(tmp_path, capsys):
    config = {
        "registry": [{"name": "m-image", "kind": "text-to-image"}],
        "train": {"d_enc": 32, "d_llm": 64, "rank": 4},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["params", "--config", str(cfg_path)]) == 0
    assert "total 6656 (6,656)" in capsys.readouterr().out


def test_params_invalid_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{broken")
    assert main(["params", "--config", str(cfg_path)]) == 2
    assert "error: ConfigError" in capsys.readouterr().err
