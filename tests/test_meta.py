"""Wire protocol: canonical serialization, strict/lenient parsing, validation."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import counting_registry, over_hostile_json, random_meta, st_meta
from modalkit.errors import EmptyMeta, InvariantViolation, MalformedMeta, MetaError, PromptTooLong
from modalkit.meta import (
    GENERATABLE_MODALITIES,
    Invocation,
    MetaResponse,
    Modality,
    kind_for_modality,
    modality_for_kind,
    parse_meta_response,
    serialize_meta_response,
    validate_invocations,
)

CAT_CANONICAL = '{"text":"","invocations":[{"model":"text-to-image","prompt":"A photo of a cat"}]}'
CAT_TUPLE = '[("text-to-image", "A photo of a cat"), ]'
CAT_META = MetaResponse("", (Invocation("text-to-image", "A photo of a cat"),))


# --- frozen examples -------------------------------------------------------


def test_strict_parses_cat_canonical():
    meta, diags = parse_meta_response(CAT_CANONICAL, mode="strict")
    assert meta == CAT_META
    assert diags.mode == "strict"
    assert diags.warnings == ()


def test_lenient_text_only_passthrough():
    meta, diags = parse_meta_response("Hello, how can I help?", mode="lenient")
    assert meta == MetaResponse("Hello, how can I help?", ())
    assert diags.warnings == ()


def test_lenient_recovers_tuple_style_with_one_warning():
    meta, diags = parse_meta_response(CAT_TUPLE, mode="lenient")
    assert meta == CAT_META
    assert len(diags.warnings) == 1


def test_serialize_minimal_case():
    assert serialize_meta_response(MetaResponse("hi", ())) == '{"text":"hi","invocations":[]}'


def test_serialize_cat_meta_matches_canonical_string():
    assert serialize_meta_response(CAT_META) == CAT_CANONICAL


def test_serializer_output_independent_oracle():
    # Assemble the expected bytes by hand, not via the implementation's
    # dump call, for a two-invocation case.
    meta = MetaResponse(
        "two",
        (Invocation("text-to-audio", "rain"), Invocation("text-to-video", "waves")),
    )
    expected = (
        '{"text":"two","invocations":['
        '{"model":"text-to-audio","prompt":"rain"},'
        '{"model":"text-to-video","prompt":"waves"}]}'
    )
    assert serialize_meta_response(meta) == expected


def test_serialize_rejects_invalid_objects():
    with pytest.raises(InvariantViolation):
        serialize_meta_response(MetaResponse("", ()))
    with pytest.raises(InvariantViolation):
        serialize_meta_response(MetaResponse("x", (Invocation("image", "p"),)))
    with pytest.raises(InvariantViolation):
        serialize_meta_response(MetaResponse("x", (Invocation("text-to-image", ""),)))


def test_kinds_map_to_modalities_and_back_and_no_kind_produces_text():
    for m in GENERATABLE_MODALITIES:
        assert modality_for_kind(kind_for_modality(m)) is m
    with pytest.raises(InvariantViolation, match="no generator kind produces text"):
        kind_for_modality(Modality.TEXT)


# --- strict-mode rejection -------------------------------------------------


@pytest.mark.parametrize(
    "raw",
    [
        "not json at all",
        "[]",
        '"just a string"',
        '{"text":"x"}',
        '{"text":"x","invocations":[],"extra":1}',
        '{"text":1,"invocations":[]}',
        '{"text":"x","invocations":{}}',
        '{"text":"x","invocations":[{"model":"text-to-image"}]}',
        '{"text":"x","invocations":[{"model":"image","prompt":"p"}]}',
        '{"text":"x","invocations":[{"model":"text-to-image","prompt":3}]}',
        '{"text":"x","invocations":[{"model":"text-to-image","prompt":""}]}',
        '{"text":"x","invocations":[]} trailing',
    ],
)
def test_strict_rejects_non_canonical(raw):
    with pytest.raises(MalformedMeta):
        parse_meta_response(raw, mode="strict")


def test_empty_meta_is_its_own_error():
    with pytest.raises(EmptyMeta):
        parse_meta_response('{"text":"","invocations":[]}', mode="strict")
    with pytest.raises(EmptyMeta):
        parse_meta_response("", mode="strict")
    with pytest.raises(EmptyMeta):
        parse_meta_response("   \n", mode="lenient")


def test_prompt_cap_is_2048_bytes_both_modes():
    ok = '{"text":"","invocations":[{"model":"text-to-image","prompt":"%s"}]}' % ("a" * 2048)
    meta, _ = parse_meta_response(ok, mode="strict")
    assert len(meta.invocations[0].prompt.encode()) == 2048
    too_long = ok.replace('"a' , '"aa', 1)  # 2049 ascii bytes
    for mode in ("strict", "lenient"):
        with pytest.raises(PromptTooLong):
            parse_meta_response(too_long, mode=mode)


def test_prompt_cap_counts_bytes_not_characters():
    # 683 three-byte characters = 2049 bytes from 683 characters
    prompt = "€" * 683
    raw = json.dumps({"text": "", "invocations": [{"model": "text-to-image", "prompt": prompt}]})
    with pytest.raises(PromptTooLong):
        parse_meta_response(raw, mode="strict")


def test_unknown_parse_mode_rejected():
    with pytest.raises(ValueError):
        parse_meta_response("x", mode="fuzzy")


# --- lenient recovery ------------------------------------------------------


def test_lenient_recovers_tuple_list_inside_prose():
    raw = 'Sure! Here you go: [("text-to-audio", "rain on glass")] enjoy.'
    meta, diags = parse_meta_response(raw, mode="lenient")
    assert meta.invocations == (Invocation("text-to-audio", "rain on glass"),)
    assert meta.text == "Sure! Here you go:  enjoy."
    assert len(diags.warnings) == 1


def test_lenient_multiple_tuple_lists_in_textual_order():
    raw = (
        'first [("text-to-image", "one")] middle '
        '[("text-to-video", "two"), ("text-to-audio", "three")] end'
    )
    meta, diags = parse_meta_response(raw, mode="lenient")
    assert [v.prompt for v in meta.invocations] == ["one", "two", "three"]
    assert meta.text == "first  middle  end"
    assert len(diags.warnings) == 3
    offsets = [off for off, _ in diags.warnings]
    assert offsets == sorted(offsets)


def test_lenient_tuple_single_quotes_and_escapes():
    raw = "[('text-to-image', 'it\\'s a \"cat\"')]"
    meta, _ = parse_meta_response(raw, mode="lenient")
    assert meta.invocations == (Invocation("text-to-image", 'it\'s a "cat"'),)


def test_lenient_leaves_ordinary_bracket_lists_alone():
    raw = "options are [1, 2, 3] and [('alpha', 'beta')] neither is an invocation"
    meta, diags = parse_meta_response(raw, mode="lenient")
    assert meta.invocations == ()
    assert meta.text == raw
    assert diags.warnings == ()


def test_lenient_trailing_comma_inside_pair():
    raw = '[("text-to-image", "A photo of a cat",), ]'
    meta, _ = parse_meta_response(raw, mode="lenient")
    assert meta == CAT_META


def test_lenient_json_object_recovery_drops_bad_records():
    raw = json.dumps(
        {
            "text": "kept",
            "invocations": [
                {"model": "text-to-image", "prompt": "ok"},
                {"model": "submarine", "prompt": "dropped"},
                {"model": "text-to-audio", "prompt": ""},
                "not even an object",
            ],
            "note": "extra key",
        }
    )
    meta, diags = parse_meta_response(raw, mode="lenient")
    assert meta.text == "kept"
    assert meta.invocations == (Invocation("text-to-image", "ok"),)
    assert len(diags.warnings) >= 3


def test_lenient_json_missing_fields_warns():
    meta, diags = parse_meta_response('{"text": "only text here"}', mode="lenient")
    assert meta == MetaResponse("only text here", ())
    assert any("invocations" in msg for _, msg in diags.warnings)


def test_lenient_empty_after_recovery_is_empty_meta():
    with pytest.raises(EmptyMeta):
        parse_meta_response('{"invocations": []}', mode="lenient")


def test_lenient_tuple_prompt_too_long_still_raises():
    raw = '[("text-to-image", "%s")]' % ("x" * 2049)
    with pytest.raises(PromptTooLong):
        parse_meta_response(raw, mode="lenient")


def test_hologram_is_syntactically_fine_semantically_unknown():
    # The closed set is a validation concern, not a parse concern.
    raw = '{"text":"","invocations":[{"model":"text-to-hologram","prompt":"x"}]}'
    meta, _ = parse_meta_response(raw, mode="strict")
    registry, _ = counting_registry()
    issues = validate_invocations(meta, registry)
    assert [str(i) for i in issues] == ["UnknownModelKind@0: no backend serves 'text-to-hologram'"]


# --- validate_invocations ----------------------------------------------------


def test_validate_ok_for_cat_with_image_backend():
    registry, _ = counting_registry()
    assert validate_invocations(CAT_META, registry) == []


def test_validate_flags_middle_empty_prompt_only():
    meta = MetaResponse(
        "",
        (
            Invocation("text-to-image", "a"),
            Invocation("text-to-image", ""),
            Invocation("text-to-image", "c"),
        ),
    )
    registry, _ = counting_registry()
    issues = validate_invocations(meta, registry)
    assert [(i.code, i.index) for i in issues] == [("EmptyPrompt", 1)]


def test_validate_flags_prompt_over_cap():
    meta = MetaResponse("", (Invocation("text-to-image", "y" * 2049),))
    registry, _ = counting_registry()
    assert [i.code for i in validate_invocations(meta, registry)] == ["PromptTooLong"]


# --- properties ---------------------------------------------------------------


@given(st_meta())
def test_round_trip_strict(meta):
    parsed, diags = parse_meta_response(serialize_meta_response(meta), mode="strict")
    assert parsed == meta
    assert diags.warnings == ()


@given(st_meta())
def test_strict_subset_of_lenient(meta):
    raw = serialize_meta_response(meta)
    strict_meta, _ = parse_meta_response(raw, mode="strict")
    lenient_meta, lenient_diags = parse_meta_response(raw, mode="lenient")
    assert lenient_meta == strict_meta
    assert lenient_diags.warnings == ()


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_lenient_never_crashes_and_canonicalization_is_idempotent(raw):
    try:
        meta, _ = parse_meta_response(raw, mode="lenient")
    except MetaError:
        return
    once = serialize_meta_response(meta)
    again, _ = parse_meta_response(once, mode="strict")
    assert serialize_meta_response(again) == once


def test_order_preservation_bulk():
    rng = random.Random(20240817)
    for _ in range(300):
        meta = random_meta(rng)
        raw = serialize_meta_response(meta)
        parsed, _ = parse_meta_response(raw, mode="lenient")
        assert [v.model for v in parsed.invocations] == [v.model for v in meta.invocations]
        assert [v.prompt for v in parsed.invocations] == [v.prompt for v in meta.invocations]


def test_parsing_is_pure():
    raw = 'text [("text-to-image", "x")] more'
    assert parse_meta_response(raw, "lenient") == parse_meta_response(raw, "lenient")


@over_hostile_json("raw")
def test_hostile_json_is_malformed_not_a_crash(raw):
    with pytest.raises(MalformedMeta):
        parse_meta_response(raw, mode="strict")
    meta, diags = parse_meta_response(raw, mode="lenient")
    assert meta == MetaResponse(raw, ())
    assert diags.warnings == ()
