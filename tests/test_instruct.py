"""Instruction pairs: validation, JSONL, query assembly, both generators."""

from __future__ import annotations

import collections
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import over_hostile_json
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
        ModelDescriptor("img-only", "text-to-image", Modality.IMAGE), lambda p, s: b""
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


def test_write_rejects_duplicate_ids(tmp_path):
    with pytest.raises(InvalidArgument):
        write_dataset([caption_pair("same"), caption_pair("same")], tmp_path / "x.jsonl")


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
    first = build_bundle(seeds, candidates, references, InstructionType.OUTPUT_ALIGN, seed=4)
    second = build_bundle(seeds, candidates, references, InstructionType.OUTPUT_ALIGN, seed=4)
    assert first == second
    assert len(first.seeds) == 3 and len(first.candidates) == 4 and len(first.references) == 3
    shifted = build_bundle(seeds, candidates, references, InstructionType.OUTPUT_ALIGN, seed=5)
    assert shifted != first


def test_build_bundle_caps_at_pool_size():
    bundle = build_bundle(
        [caption_pair()],
        [Candidate("one thing", Modality.IMAGE)],
        [],
        InstructionType.INPUT_ALIGN,
        seed=0,
    )
    assert len(bundle.seeds) == 1 and len(bundle.candidates) == 1 and bundle.references == ()
    with pytest.raises(EmptyBundle):
        build_bundle([], [], [], InstructionType.INPUT_ALIGN, seed=0)


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
