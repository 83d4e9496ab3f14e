"""Instruction pairs: validation, JSONL, query assembly, both generators."""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import re
import stat
import threading
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import over_hostile_json, reference_pair_json
from modalkit import chat
from modalkit.errors import (
    EmptyBundle,
    FixtureMiss,
    InsufficientCandidates,
    InvalidArgument,
    MalformedLine,
)
from modalkit.instruct import (
    Attachment,
    Candidate,
    InstructionPair,
    InstructionType,
    QueryBundle,
    assemble_query,
    build_bundle,
    generate_pairs_llm,
    load_candidates,
    load_reference_lines,
    pair_from_json,
    pair_to_json,
    read_dataset,
    template_generate,
    validate_pair,
    write_dataset,
)
from modalkit.meta import Invocation, Modality
from modalkit.zoo import ModelDescriptor, ModelRegistry

CAT_PAIR = InstructionPair(
    id="seed-0001",
    type=InstructionType.OUTPUT_ALIGN,
    instruction="Generate an image of an animal based on the provided vocalization.",
    attachments=(Attachment("cat_meowing.wav", Modality.AUDIO),),
    invocations=(Invocation("text-to-image", "A photo of a cat"),),
    response_text=None,
)

# The older two-key shape, exactly as a dataset line would carry it.
PAPER_TWO_KEY_LINE = (
    '{"instruction": ["Generate an image of an animal based on the provided '
    'vocalization.", "cat_meowing.wav", ] '
    '"invocation": [("text-to-image", "A photo of a cat"), ]}'
)


def caption_pair(pair_id: str = "p1") -> InstructionPair:
    return InstructionPair(
        id=pair_id,
        type=InstructionType.INPUT_ALIGN,
        instruction="Describe the given image.",
        attachments=(Attachment("sunset.png", Modality.IMAGE),),
        response_text="The image shows a sunset.",
    )


# --- validate_pair ------------------------------------------------------------


def test_cat_pair_is_valid():
    assert validate_pair(CAT_PAIR) == []


def test_empty_instruction_flagged():
    pair = InstructionPair("x", InstructionType.INPUT_ALIGN, "  ", response_text="t")
    codes = [i.code for i in validate_pair(pair)]
    assert "InstructionRequired" in codes


def test_output_align_needs_invocation():
    pair = InstructionPair("x", InstructionType.OUTPUT_ALIGN, "Make an image.")
    assert [i.code for i in validate_pair(pair)] == ["MissingInvocation"]


def test_non_output_types_must_not_invoke():
    pair = InstructionPair(
        "x",
        InstructionType.REASONING,
        "Why?",
        invocations=(Invocation("text-to-image", "p"),),
        response_text="Because.",
    )
    assert [i.code for i in validate_pair(pair)] == ["UnexpectedInvocation"]


def test_non_output_types_need_response_text():
    pair = InstructionPair("x", InstructionType.INPUT_ALIGN, "Describe.")
    assert [i.code for i in validate_pair(pair)] == ["MissingResponseText"]


@pytest.mark.parametrize("path", ["", "uploads/", "a\nb", "\x00"])
def test_bad_attachment_paths_flagged(path):
    pair = InstructionPair(
        "x",
        InstructionType.INPUT_ALIGN,
        "Describe.",
        attachments=(Attachment(path, Modality.IMAGE),),
        response_text="t",
    )
    assert "DanglingAttachment" in [i.code for i in validate_pair(pair)]


def test_text_attachment_modality_flagged():
    pair = InstructionPair(
        "x",
        InstructionType.INPUT_ALIGN,
        "Describe.",
        attachments=(Attachment("doc.png", Modality.TEXT),),
        response_text="t",
    )
    assert "BadAttachmentModality" in [i.code for i in validate_pair(pair)]


def test_unserved_model_kind_flagged():
    registry = ModelRegistry()
    registry.register(
        ModelDescriptor("img-only", "text-to-image"), lambda p, s: b""
    )
    registry.finalize()
    pair = InstructionPair(
        "x",
        InstructionType.OUTPUT_ALIGN,
        "Make audio.",
        invocations=(Invocation("text-to-audio", "rain"),),
    )
    assert [i.code for i in validate_pair(pair, registry)] == ["UnknownModelKind"]


def test_prompt_length_bounds_flagged():
    for prompt, code in [("", "EmptyPrompt"), ("y" * 2049, "PromptTooLong")]:
        pair = InstructionPair(
            "x",
            InstructionType.OUTPUT_ALIGN,
            "Make.",
            invocations=(Invocation("text-to-image", prompt),),
        )
        assert code in [i.code for i in validate_pair(pair)]


def test_invocation_issues_match_validate_invocations():
    pair = InstructionPair(
        "x",
        InstructionType.OUTPUT_ALIGN,
        "Make.",
        invocations=(Invocation("text-to-audio", ""), Invocation("text-to-hologram", "y" * 2049)),
    )
    assert [str(i) for i in validate_pair(pair)] == [
        "EmptyPrompt@0: prompt is empty",
        "PromptTooLong@1: prompt is 2049 bytes, cap 2048",
        "UnknownModelKind@1: no backend serves 'text-to-hologram'",
    ]


# --- JSONL -----------------------------------------------------------------------


def st_pair() -> st.SearchStrategy[InstructionPair]:
    ident = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
    )
    modality = st.sampled_from([Modality.IMAGE, Modality.AUDIO, Modality.VIDEO])
    attachment = st.builds(
        Attachment, st.text(min_size=1, max_size=20), modality
    )
    invocation = st.builds(
        Invocation,
        st.sampled_from(["text-to-image", "text-to-audio", "text-to-video"]),
        st.text(min_size=1, max_size=30),
    )
    return st.builds(
        InstructionPair,
        id=ident,
        type=st.sampled_from(list(InstructionType)),
        instruction=st.text(max_size=40),
        attachments=st.lists(attachment, max_size=2).map(tuple),
        invocations=st.lists(invocation, max_size=2).map(tuple),
        response_text=st.one_of(st.none(), st.text(max_size=30)),
    )


@given(st.lists(st_pair(), max_size=8))
@settings(max_examples=60)
def test_dataset_round_trip(tmp_path_factory, pairs):
    # ensure unique ids so write_dataset accepts the list
    unique = {}
    for i, pair in enumerate(pairs):
        unique[f"{pair.id}-{i}"] = pair
    pairs = [
        InstructionPair(
            pid, p.type, p.instruction, p.attachments, p.invocations, p.response_text
        )
        for pid, p in unique.items()
    ]
    path = tmp_path_factory.mktemp("ds") / "pairs.jsonl"
    write_dataset(pairs, path)
    assert read_dataset(path, mode="strict") == pairs


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset([], path)
    assert path.read_text() == ""
    assert read_dataset(path) == []


def test_read_dataset_refuses_an_unknown_mode(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="unknown read mode 'bogus'"):
        read_dataset(path, mode="bogus")


def test_write_rejects_duplicate_ids(tmp_path):
    with pytest.raises(InvalidArgument):
        write_dataset([caption_pair("same"), caption_pair("same")], tmp_path / "x.jsonl")


# A text field that json.dumps would write as a number, a list or null makes
# a line that read_dataset rejects, so writing such a pair is refused.
NON_STRING_TEXT = {
    "id": (dataclasses.replace(caption_pair(), id=5), "pair 5: id must be a string, not int"),
    "id_unhashable": (
        dataclasses.replace(caption_pair(), id=["x"]),
        "pair ['x']: id must be a string, not list",
    ),
    "instruction": (
        dataclasses.replace(caption_pair(), instruction=None),
        "pair 'p1': instruction must be a string, not NoneType",
    ),
    "attachment_path": (
        dataclasses.replace(caption_pair(), attachments=(Attachment(7, Modality.IMAGE),)),
        "pair 'p1': attachment path must be a string, not int",
    ),
    "invocation_model": (
        dataclasses.replace(CAT_PAIR, invocations=(Invocation(["text-to-image"], "a cat"),)),
        "pair 'seed-0001': invocation model must be a string, not list",
    ),
    "invocation_prompt": (
        dataclasses.replace(CAT_PAIR, invocations=(Invocation("text-to-image", b"a cat"),)),
        "pair 'seed-0001': invocation prompt must be a string, not bytes",
    ),
    "response_text": (
        dataclasses.replace(caption_pair(), response_text=5),
        "pair 'p1': response_text must be a string, not int",
    ),
}


@pytest.mark.parametrize("pair,message", list(NON_STRING_TEXT.values()), ids=list(NON_STRING_TEXT))
def test_write_rejects_non_string_text_and_leaves_no_file(tmp_path, pair, message):
    with pytest.raises(InvalidArgument) as excinfo:
        pair_to_json(pair)
    assert str(excinfo.value) == message
    path = tmp_path / "x.jsonl"
    with pytest.raises(InvalidArgument, match=re.escape(message)):
        write_dataset([caption_pair("first"), pair, caption_pair("last")], path)
    assert not path.exists()


class _Unformattable:
    def __format__(self, spec):
        raise TypeError("cannot format this")


def test_pair_to_json_passes_on_a_type_error_that_no_text_field_explains():
    # every text field is a string, so this is not the caller's InvalidArgument
    pair = dataclasses.replace(CAT_PAIR, type=types.SimpleNamespace(value=_Unformattable()))
    with pytest.raises(TypeError, match="cannot format this"):
        pair_to_json(pair)


def test_write_lone_surrogate_leaves_no_file(tmp_path):
    path = tmp_path / "x.jsonl"
    bad = dataclasses.replace(caption_pair("bad"), response_text="\ud800")
    with pytest.raises(UnicodeEncodeError):
        write_dataset([caption_pair("first"), bad], path)
    assert not path.exists()


@pytest.mark.parametrize(
    "bad, error",
    [
        (dataclasses.replace(caption_pair("bad"), instruction="\ud800"), UnicodeEncodeError),
        (caption_pair("first"), InvalidArgument),
    ],
    ids=["surrogate", "duplicate-id"],
)
def test_a_failed_write_leaves_an_existing_dataset_as_it_was(tmp_path, bad, error):
    path = tmp_path / "x.jsonl"
    write_dataset([caption_pair("first")], path)
    before = path.read_bytes()
    with pytest.raises(error):
        write_dataset([caption_pair("first"), bad], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["x.jsonl"]


def test_a_write_that_cannot_be_committed_leaves_the_dataset_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "x.jsonl"
    write_dataset([caption_pair("first")], path)
    before = path.read_bytes()

    def disk_full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="No space left"):
        write_dataset([caption_pair("second")], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["x.jsonl"]


def test_write_goes_through_a_symlink_at_the_target(tmp_path):
    real = tmp_path / "data" / "pairs.jsonl"
    real.parent.mkdir()
    real.write_text("old\n")
    link = tmp_path / "pairs.jsonl"
    link.symlink_to(real)
    write_dataset([caption_pair("first")], link)
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == pair_to_json(caption_pair("first")) + "\n"
    assert os.listdir(real.parent) == ["pairs.jsonl"]


def test_a_rewrite_keeps_the_datasets_mode(tmp_path):
    path = tmp_path / "x.jsonl"
    write_dataset([caption_pair("first")], path)
    os.chmod(path, 0o600)
    write_dataset([caption_pair("second")], path)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert path.read_text(encoding="utf-8") == pair_to_json(caption_pair("second")) + "\n"


def test_write_to_a_fifo_streams_into_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_dataset([caption_pair("first")], fifo)
    reader.join(timeout=10)
    assert received == [(pair_to_json(caption_pair("first")) + "\n").encode()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_pair_json_is_single_canonical_line():
    line = pair_to_json(CAT_PAIR)
    assert "\n" not in line
    obj = json.loads(line)
    assert list(obj) == ["id", "type", "instruction", "attachments", "invocations", "response_text"]
    assert obj["attachments"] == [{"path": "cat_meowing.wav", "modality": "audio"}]
    assert obj["invocations"] == [{"model": "text-to-image", "prompt": "A photo of a cat"}]
    assert obj["response_text"] is None


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not json", "not valid JSON"),
        ("[1]", "not a JSON object"),
        ('{"id":"x"}', "keys must be exactly"),
        (
            '{"id":"","type":"reasoning","instruction":"i","attachments":[],'
            '"invocations":[],"response_text":"r"}',
            "id must be",
        ),
        (
            '{"id":"x","type":"mystery","instruction":"i","attachments":[],'
            '"invocations":[],"response_text":"r"}',
            "unknown pair type",
        ),
        (
            '{"id":"x","type":"reasoning","instruction":"i","attachments":'
            '[{"path":"p","modality":"smell"}],"invocations":[],"response_text":"r"}',
            "unknown modality",
        ),
        (
            '{"id":"x","type":"output_align","instruction":"i","attachments":[],'
            '"invocations":[{"model":"image","prompt":"p"}],"response_text":null}',
            "not text-to-",
        ),
    ],
)
def test_pair_from_json_reports_reason(line, fragment):
    with pytest.raises(MalformedLine) as excinfo:
        pair_from_json(line, lineno=7)
    assert excinfo.value.lineno == 7
    assert fragment in excinfo.value.reason


# Characters the JSON encoder escapes or passes through specially: quotes,
# backslashes, control characters, the JavaScript line separators, astral
# characters and lone surrogates.
_ODD_CHARS = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x08", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001f431"]
    + ["\ud800", "\udfff", "é"]
)
_st_odd_text = st.text(alphabet=st.one_of(st.characters(), _ODD_CHARS), max_size=12)


@given(
    st.builds(
        InstructionPair,
        id=_st_odd_text,
        type=st.sampled_from(list(InstructionType)),
        instruction=_st_odd_text,
        attachments=st.lists(
            st.builds(Attachment, _st_odd_text, st.sampled_from(list(Modality))), max_size=3
        ).map(tuple),
        invocations=st.lists(st.builds(Invocation, _st_odd_text, _st_odd_text), max_size=3).map(
            tuple
        ),
        response_text=st.one_of(st.none(), _st_odd_text),
    )
)
@settings(max_examples=300)
def test_pair_to_json_matches_json_dumps(pair):
    assert pair_to_json(pair) == reference_pair_json(pair)


def _edited(edit, ensure_ascii: bool = True) -> str:
    """CAT_PAIR's canonical line after edit(obj) changes the decoded object."""
    obj = json.loads(pair_to_json(CAT_PAIR))
    edit(obj)
    return json.dumps(obj, ensure_ascii=ensure_ascii)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(obj):
        for step in path:
            obj = obj[step]
        obj[key] = value

    return edit


def _drop(*path_and_key):
    *path, key = path_and_key

    def edit(obj):
        for step in path:
            obj = obj[step]
        del obj[key]

    return edit


def _both(first, second):
    def edit(obj):
        first(obj)
        second(obj)

    return edit


KEYS_REASON = (
    "keys must be exactly "
    "['attachments', 'id', 'instruction', 'invocations', 'response_text', 'type']"
)
ATTACHMENT_REASON = "attachment must be an object with path and modality"
INVOCATION_REASON = "invocation must be an object with model and prompt"

# name -> (line, the exact MalformedLine reason, or the pair an accepted line decodes to)
PAIR_FROM_JSON_OUTCOMES = {
    "canonical": (pair_to_json(CAT_PAIR), CAT_PAIR),
    "type_list": (_edited(_set("type", [])), "unknown pair type []"),
    "type_object": (_edited(_set("type", {})), "unknown pair type {}"),
    "type_null": (_edited(_set("type", None)), "unknown pair type None"),
    "type_true": (_edited(_set("type", True)), "unknown pair type True"),
    "type_int": (_edited(_set("type", 1)), "unknown pair type 1"),
    "type_wrong_case": (_edited(_set("type", "Output_Align")), "unknown pair type 'Output_Align'"),
    "modality_list": (_edited(_set("attachments", 0, "modality", [])), "unknown modality []"),
    "modality_null": (_edited(_set("attachments", 0, "modality", None)), "unknown modality None"),
    "missing_key": (_edited(_drop("response_text")), KEYS_REASON),
    "extra_key": (_edited(_set("extra", 1)), KEYS_REASON),
    "attachment_missing_key": (_edited(_drop("attachments", 0, "modality")), ATTACHMENT_REASON),
    "attachment_extra_key": (_edited(_set("attachments", 0, "size", 3)), ATTACHMENT_REASON),
    "invocation_missing_key": (_edited(_drop("invocations", 0, "prompt")), INVOCATION_REASON),
    "invocation_extra_key": (_edited(_set("invocations", 0, "seed", 3)), INVOCATION_REASON),
    "attachments_object": (
        _edited(_set("attachments", {"path": "a.png"})),
        "attachments must be a list",
    ),
    "attachments_null": (_edited(_set("attachments", None)), "attachments must be a list"),
    "invocations_string": (
        _edited(_set("invocations", "text-to-image")),
        "invocations must be a list",
    ),
    "attachment_int": (_edited(_set("attachments", [5])), ATTACHMENT_REASON),
    "attachment_list": (_edited(_set("attachments", [["a.png", "image"]])), ATTACHMENT_REASON),
    "invocation_string": (_edited(_set("invocations", ["text-to-image"])), INVOCATION_REASON),
    "model_int": (
        _edited(_set("invocations", 0, "model", 5)),
        "invocation model 5 is not text-to-<modality>",
    ),
    "model_null": (
        _edited(_set("invocations", 0, "model", None)),
        "invocation model None is not text-to-<modality>",
    ),
    "prompt_empty": (
        _edited(_set("invocations", 0, "prompt", "")),
        "invocation prompt must be a nonempty string",
    ),
    "prompt_int": (
        _edited(_set("invocations", 0, "prompt", 3)),
        "invocation prompt must be a nonempty string",
    ),
    "response_text_int": (
        _edited(_set("response_text", 5)),
        "response_text must be a string or null",
    ),
    "response_text_list": (
        _edited(_set("response_text", ["x"])),
        "response_text must be a string or null",
    ),
    "id_int": (_edited(_set("id", 5)), "id must be a nonempty string"),
    "id_empty": (_edited(_set("id", "")), "id must be a nonempty string"),
    "instruction_null": (_edited(_set("instruction", None)), "instruction must be a string"),
    "path_int": (_edited(_set("attachments", 0, "path", 7)), "attachment path must be a string"),
    "surrogate_id": (_edited(_set("id", "x\ud800")), "id holds an unpaired surrogate"),
    "surrogate_instruction": (
        _edited(_set("instruction", "\udfff")),
        "instruction holds an unpaired surrogate",
    ),
    "surrogate_path": (
        _edited(_set("attachments", 0, "path", "a\ud800.wav")),
        "attachment path holds an unpaired surrogate",
    ),
    "surrogate_response_text": (
        _edited(_set("response_text", "\ud800")),
        "response_text holds an unpaired surrogate",
    ),
    "surrogate_prompt": (
        _edited(_set("invocations", 0, "prompt", "\ud800")),
        dataclasses.replace(CAT_PAIR, invocations=(Invocation("text-to-image", "\ud800"),)),
    ),
    "raw_surrogate_id": (
        _edited(_set("id", "\ud800"), ensure_ascii=False),
        "id holds an unpaired surrogate",
    ),
    "top_level_array": ("[" + pair_to_json(CAT_PAIR) + "]", "line is not a JSON object"),
    "top_level_string": ('"pair"', "line is not a JSON object"),
    "top_level_null": ("null", "line is not a JSON object"),
    # the checks run in a fixed order; the first failing one is reported
    "keys_before_type": (
        _edited(_both(_set("type", []), _drop("id"))),
        KEYS_REASON,
    ),
    "type_before_id": (_edited(_both(_set("type", []), _set("id", 5))), "unknown pair type []"),
    "id_before_attachments": (
        _edited(_both(_set("id", ""), _set("attachments", None))),
        "id must be a nonempty string",
    ),
    "attachments_before_invocations": (
        _edited(_both(_set("attachments", [5]), _set("invocations", None))),
        ATTACHMENT_REASON,
    ),
    "modality_before_path": (
        _edited(
            _both(_set("attachments", 0, "modality", "smell"), _set("attachments", 0, "path", 7))
        ),
        "unknown modality 'smell'",
    ),
    "invocations_before_response_text": (
        _edited(_both(_set("invocations", 0, "prompt", ""), _set("response_text", 5))),
        "invocation prompt must be a nonempty string",
    ),
    "response_text_before_surrogates": (
        _edited(_both(_set("id", "\ud800"), _set("response_text", 5))),
        "response_text must be a string or null",
    ),
}


@pytest.mark.parametrize(
    "line,outcome", list(PAIR_FROM_JSON_OUTCOMES.values()), ids=list(PAIR_FROM_JSON_OUTCOMES)
)
def test_pair_from_json_outcome_table(line, outcome):
    if isinstance(outcome, InstructionPair):
        assert pair_from_json(line, lineno=3) == outcome
        return
    with pytest.raises(MalformedLine) as excinfo:
        pair_from_json(line, lineno=3)
    assert excinfo.value.lineno == 3
    assert excinfo.value.reason == outcome


@over_hostile_json("line")
def test_pair_from_json_hostile_json_is_malformed_line(line):
    with pytest.raises(MalformedLine) as excinfo:
        pair_from_json(line, lineno=7)
    assert excinfo.value.lineno == 7
    assert excinfo.value.reason.startswith("not valid JSON: ")


def test_lenient_read_recovers_paper_two_key_line(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(pair_to_json(caption_pair()) + "\n" + PAPER_TWO_KEY_LINE + "\n")
    with pytest.raises(MalformedLine):
        read_dataset(path, mode="strict")
    pairs = read_dataset(path, mode="lenient")
    assert len(pairs) == 2
    recovered = pairs[1]
    assert recovered.type is InstructionType.OUTPUT_ALIGN
    assert recovered.instruction == CAT_PAIR.instruction
    assert recovered.attachments == (Attachment("cat_meowing.wav", Modality.AUDIO),)
    assert recovered.invocations == (Invocation("text-to-image", "A photo of a cat"),)
    assert validate_pair(recovered) == []


def test_lenient_read_still_rejects_hopeless_lines(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text("total garbage\n")
    with pytest.raises(MalformedLine) as excinfo:
        read_dataset(path, mode="lenient")
    assert excinfo.value.lineno == 1


def test_strict_read_reports_line_numbers(tmp_path):
    path = tmp_path / "oneoff.jsonl"
    path.write_text(pair_to_json(caption_pair()) + "\n\nbroken\n")
    with pytest.raises(MalformedLine) as excinfo:
        read_dataset(path, mode="strict")
    assert excinfo.value.lineno == 3  # blank lines keep their numbering


SURROGATE_FIELDS = ["id", "instruction", "attachment path", "response_text"]


def _with_lone_surrogate(field: str, ensure_ascii: bool = True) -> str:
    obj = json.loads(pair_to_json(caption_pair()))
    if field == "attachment path":
        obj["attachments"][0]["path"] = "sun\ud800set.png"
    else:
        obj[field] = "\ud800"
    # ensure_ascii writes the surrogate as a \ud800 escape, otherwise as the raw code point
    return json.dumps(obj, ensure_ascii=ensure_ascii)


@pytest.mark.parametrize("field", SURROGATE_FIELDS)
def test_strict_read_rejects_unpaired_surrogates(tmp_path, field):
    path = tmp_path / "surrogate.jsonl"
    path.write_text(pair_to_json(CAT_PAIR) + "\n" + _with_lone_surrogate(field) + "\n")
    with pytest.raises(MalformedLine) as excinfo:
        read_dataset(path, mode="strict")
    assert excinfo.value.lineno == 2
    assert excinfo.value.reason == f"{field} holds an unpaired surrogate"


@pytest.mark.parametrize("field", SURROGATE_FIELDS)
def test_pair_from_json_rejects_raw_surrogates(field):
    with pytest.raises(MalformedLine, match=f"{field} holds an unpaired surrogate"):
        pair_from_json(_with_lone_surrogate(field, ensure_ascii=False))


def test_prompt_surrogate_stays_a_validation_issue():
    obj = json.loads(pair_to_json(CAT_PAIR))
    obj["invocations"][0]["prompt"] = "\ud800"
    pair = pair_from_json(json.dumps(obj))
    assert [i.code for i in validate_pair(pair)] == ["UnpairedSurrogate"]


# --- query assembly -----------------------------------------------------------------


def small_bundle(target=InstructionType.OUTPUT_ALIGN) -> QueryBundle:
    return QueryBundle(
        seeds=(CAT_PAIR,),
        candidates=(
            Candidate("a dog barking", Modality.AUDIO),
            Candidate("a red bicycle", Modality.IMAGE),
        ),
        references=("A photo of a corgi",),
        target_type=target,
    )


def test_assemble_query_sections_and_verbatim_seed():
    text = assemble_query(small_bundle())
    for header in ("SEEDS:", "CANDIDATES:", "REFERENCES:"):
        assert text.count(header) == 1
    assert pair_to_json(CAT_PAIR) in text
    assert "A photo of a cat" in text
    assert text.index("SEEDS:") < text.index("CANDIDATES:") < text.index("REFERENCES:")
    assert "one JSON object per line" in text


def test_assemble_query_is_deterministic():
    assert assemble_query(small_bundle()) == assemble_query(small_bundle())


def test_assemble_query_empty_bundle_rules():
    bundle = small_bundle()
    with pytest.raises(EmptyBundle):
        assemble_query(
            QueryBundle((), bundle.candidates, bundle.references, bundle.target_type)
        )
    with pytest.raises(EmptyBundle):
        assemble_query(QueryBundle(bundle.seeds, (), bundle.references, bundle.target_type))
    with pytest.raises(EmptyBundle):
        assemble_query(
            QueryBundle(bundle.seeds, bundle.candidates, (), InstructionType.OUTPUT_ALIGN)
        )
    # references may be empty for non-output targets
    text = assemble_query(
        QueryBundle(bundle.seeds, bundle.candidates, (), InstructionType.INPUT_ALIGN)
    )
    assert "REFERENCES:" in text


def test_build_bundle_samples_deterministically():
    seeds = [caption_pair(f"s{i}") for i in range(6)]
    candidates = [Candidate(f"thing {i}", Modality.IMAGE) for i in range(9)]
    references = [f"A photo of thing {i}" for i in range(5)]
    first = build_bundle(seeds, candidates, references, InstructionType.OUTPUT_ALIGN, 4, 3, 4, 3)
    second = build_bundle(seeds, candidates, references, InstructionType.OUTPUT_ALIGN, 4, 3, 4, 3)
    assert first == second
    assert len(first.seeds) == 3 and len(first.candidates) == 4 and len(first.references) == 3
    shifted = build_bundle(seeds, candidates, references, InstructionType.OUTPUT_ALIGN, 5, 3, 4, 3)
    assert shifted != first


def test_build_bundle_caps_at_pool_size():
    bundle = build_bundle(
        [caption_pair()],
        [Candidate("one thing", Modality.IMAGE)],
        [],
        InstructionType.INPUT_ALIGN,
        0,
        3,
        4,
        3,
    )
    assert len(bundle.seeds) == 1 and len(bundle.candidates) == 1 and bundle.references == ()
    with pytest.raises(EmptyBundle):
        build_bundle([], [], [], InstructionType.INPUT_ALIGN, 0, 3, 4, 3)


@pytest.mark.parametrize("counts", [(-1, 4, 3), (3, -1, 3), (3, 4, -1)])
def test_build_bundle_rejects_negative_counts(counts):
    seeds = [caption_pair()]
    candidates = [Candidate("one thing", Modality.IMAGE)]
    with pytest.raises(InvalidArgument, match="must be >= 0, got -1"):
        build_bundle(seeds, candidates, ["A thing"], InstructionType.OUTPUT_ALIGN, 0, *counts)


# --- template generator ---------------------------------------------------------------


def test_template_n_zero_is_empty():
    assert template_generate([Candidate("x", Modality.IMAGE)], n=0) == []


def test_template_requires_candidates_and_sane_mix():
    with pytest.raises(InsufficientCandidates):
        template_generate([], n=1)
    with pytest.raises(InvalidArgument):
        template_generate([Candidate("x", Modality.IMAGE)], type_mix={}, n=1)
    with pytest.raises(InvalidArgument):
        template_generate(
            [Candidate("x", Modality.IMAGE)],
            type_mix={InstructionType.REASONING: -1.0},
            n=1,
        )
    with pytest.raises(InvalidArgument):
        template_generate([Candidate("x", Modality.IMAGE)], n=-1)


def test_template_deterministic_bytes():
    candidates = [
        Candidate("a cat meowing", Modality.AUDIO),
        Candidate("a quiet street", Modality.IMAGE),
    ]
    first = "\n".join(pair_to_json(p) for p in template_generate(candidates, seed=42, n=50))
    second = "\n".join(pair_to_json(p) for p in template_generate(candidates, seed=42, n=50))
    assert first == second
    other = "\n".join(pair_to_json(p) for p in template_generate(candidates, seed=43, n=50))
    assert first != other


def test_template_output_align_cat_example():
    # Pick a seed whose single draw lands on an image target so the frozen
    # wording is stable.
    candidates = [Candidate("a cat meowing", Modality.AUDIO)]
    mix = {InstructionType.OUTPUT_ALIGN: 1.0}
    for seed in range(20):
        (pair,) = template_generate(candidates, mix, seed=seed, n=1)
        if pair.invocations[0].model == "text-to-image":
            break
    else:
        pytest.fail("no seed in range produced an image target")
    assert pair.instruction == "Generate an image based on the provided audio."
    assert pair.invocations[0].prompt == "A photo of a cat meowing"
    assert "cat" in pair.invocations[0].prompt
    assert pair.attachments[0].modality is Modality.AUDIO


def test_template_pairs_all_validate():
    candidates = [
        Candidate("a cat meowing", Modality.AUDIO),
        Candidate("a foggy harbor", Modality.IMAGE),
        Candidate("waves on a beach", Modality.VIDEO),
    ]
    pairs = template_generate(candidates, seed=9, n=300)
    assert len(pairs) == 300
    assert len({p.id for p in pairs}) == 300
    for pair in pairs:
        assert validate_pair(pair) == [], pair
    # output_align never targets its source modality
    for pair in pairs:
        if pair.type is InstructionType.OUTPUT_ALIGN:
            source = pair.attachments[0].modality
            target = pair.invocations[0].model.split("-")[-1]
            assert target != source.value


class _IndexCounter(list):
    """A candidate list that counts reads by index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = collections.Counter()

    def __getitem__(self, index):
        self.reads[index] += 1
        return super().__getitem__(index)


def test_template_expands_each_drawn_candidate_once():
    few = _IndexCounter(
        [Candidate(f"thing {i}", m) for i, m in enumerate([Modality.IMAGE, Modality.AUDIO] * 2)]
    )
    pairs = template_generate(few, seed=4, n=2_000)
    assert sorted(few.reads) == [0, 1, 2, 3]
    assert set(few.reads.values()) == {1}
    by_path = {}
    for pair in pairs:
        assert by_path.setdefault(pair.attachments[0].path, pair.attachments) is pair.attachments
    # A huge list costs only the candidates a small n draws.
    many = _IndexCounter([Candidate(f"thing {i}", Modality.VIDEO) for i in range(100_000)])
    assert len(template_generate(many, seed=4, n=5)) == 5
    assert sum(many.reads.values()) <= 5


def test_template_type_mix_converges():
    mix = {
        InstructionType.INPUT_ALIGN: 0.5,
        InstructionType.OUTPUT_ALIGN: 0.3,
        InstructionType.REASONING: 0.2,
    }
    pairs = template_generate(
        [Candidate("a lighthouse", Modality.IMAGE)], mix, seed=17, n=10_000
    )
    counts = collections.Counter(p.type for p in pairs)
    for pair_type, weight in mix.items():
        assert abs(counts[pair_type] / 10_000 - weight) <= 0.02


# --- llm generator ---------------------------------------------------------------------


def llm_cfg(tmp_path) -> chat.ChatClientConfig:
    return chat.ChatClientConfig(mode="replay", fixture_path=str(tmp_path / "fixture.json"))


def fixture_for_query(cfg, bundle, bodies, path) -> None:
    payload = chat.chat_payload(cfg.model, assemble_query(bundle))
    chat.save_fixture({chat.request_fingerprint(payload): list(bodies)}, path)


def valid_line(pair_id: str) -> str:
    return pair_to_json(
        InstructionPair(
            pair_id,
            InstructionType.OUTPUT_ALIGN,
            "Generate an image based on the provided audio.",
            (Attachment("dog_barking.wav", Modality.AUDIO),),
            (Invocation("text-to-image", "A photo of a dog"),),
            None,
        )
    )


def test_llm_replay_three_valid_one_malformed(tmp_path):
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    body = "\n".join([valid_line("a"), "{broken", valid_line("b"), valid_line("c")])
    fixture_for_query(cfg, bundle, [body], tmp_path / "fixture.json")
    pairs, report = generate_pairs_llm(cfg, bundle, n=3)
    assert [p.id for p in pairs] == ["a", "b", "c"]
    assert len(report.rejected) == 1
    assert report.rejected[0].lineno == 2
    assert report.shortfall == 0
    assert report.requests_issued == 1


def test_llm_reply_lines_past_n_are_skipped_not_rejected(tmp_path):
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    body = "\n".join([valid_line("a"), valid_line("b"), valid_line("c"), "{broken"])
    fixture_for_query(cfg, bundle, [body], tmp_path / "fixture.json")
    pairs, report = generate_pairs_llm(cfg, bundle, n=2)
    assert [p.id for p in pairs] == ["a", "b"]
    assert report.rejected == [] and report.shortfall == 0 and report.requests_issued == 1


def test_llm_rejects_invalid_pairs_not_just_malformed(tmp_path):
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    bad_pair = pair_to_json(
        InstructionPair("bad", InstructionType.OUTPUT_ALIGN, "Make something.")
    )
    body = "\n".join([valid_line("a"), bad_pair, valid_line("b")])
    fixture_for_query(cfg, bundle, [body], tmp_path / "fixture.json")
    pairs, report = generate_pairs_llm(cfg, bundle, n=2)
    assert [p.id for p in pairs] == ["a", "b"]
    assert "MissingInvocation" in report.rejected[0].reason


def test_llm_duplicate_ids_rejected_across_responses(tmp_path):
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    fixture_for_query(
        cfg, bundle, [valid_line("same"), valid_line("same")], tmp_path / "fixture.json"
    )
    pairs, report = generate_pairs_llm(cfg, bundle, n=2)
    assert [p.id for p in pairs] == ["same"]
    assert report.shortfall == 1
    assert any("duplicate id" in r.reason for r in report.rejected)


def test_llm_n_zero_rejected(tmp_path):
    with pytest.raises(InvalidArgument):
        generate_pairs_llm(llm_cfg(tmp_path), small_bundle(), n=0)


def test_llm_live_without_token_fails_before_network(monkeypatch, tmp_path):
    monkeypatch.delenv("MODALKIT_API_TOKEN", raising=False)
    calls = []
    monkeypatch.setattr(chat, "_http_post", lambda *a, **k: calls.append(1))
    cfg = chat.ChatClientConfig(endpoint="http://x", mode="live")
    from modalkit.errors import ConfigError

    with pytest.raises(ConfigError):
        generate_pairs_llm(cfg, small_bundle(), n=1)
    assert calls == []


def test_llm_first_request_fixture_miss_raises(tmp_path):
    cfg = llm_cfg(tmp_path)
    chat.save_fixture({}, tmp_path / "fixture.json")
    with pytest.raises(FixtureMiss):
        generate_pairs_llm(cfg, small_bundle(), n=1)


def test_llm_exhausted_fixture_becomes_shortfall(tmp_path):
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    fixture_for_query(cfg, bundle, [valid_line("only")], tmp_path / "fixture.json")
    pairs, report = generate_pairs_llm(cfg, bundle, n=3)
    assert [p.id for p in pairs] == ["only"]
    assert report.shortfall == 2
    assert report.requests_issued == 1
    assert "shortfall=2" in report.summary()


def test_llm_request_budget_capped_at_n(tmp_path):
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    fixture_for_query(cfg, bundle, ["junk"] * 10, tmp_path / "fixture.json")
    pairs, report = generate_pairs_llm(cfg, bundle, n=2)
    assert pairs == []
    assert report.requests_issued == 2
    assert report.shortfall == 2


def test_llm_replay_makes_no_network_calls(monkeypatch, tmp_path):
    def no_network(*args, **kwargs):
        raise AssertionError("network touched in replay mode")

    monkeypatch.setattr(chat, "_http_post", no_network)
    cfg = llm_cfg(tmp_path)
    bundle = small_bundle()
    fixture_for_query(cfg, bundle, [valid_line("a")], tmp_path / "fixture.json")
    pairs, _ = generate_pairs_llm(cfg, bundle, n=1)
    assert len(pairs) == 1


# --- bundled corpus loaders ---------------------------------------------------------


def test_load_candidates_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a cat\n\n# comment\n  a dog  \n")
    got = load_candidates(path, Modality.IMAGE)
    assert [c.description for c in got] == ["a cat", "a dog"]
    assert all(c.modality is Modality.IMAGE for c in got)


def test_load_reference_lines(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("# style guide\nA photo of a cat\n\nA video of rain\n")
    assert load_reference_lines(path) == ["A photo of a cat", "A video of rain"]
