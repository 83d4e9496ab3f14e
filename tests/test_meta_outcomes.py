"""Pinned outcome of every strict and lenient parse branch.

Each row is one input and what parse_meta_response makes of it: either
the exception type, or the canonical serialization plus the exact
(byte offset, warning) list.  Lenient warnings land in trace.json and
validation messages in manifest.json, so their wording is pinned too.
A property compares strict parsing, lenient parsing and serialization of
generated objects with up to three faults against the frozen reader in
meta_parser_reference.py.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import meta_parser_reference as reference
from conftest import counting_registry
from modalkit.errors import EmptyMeta, InvariantViolation, MalformedMeta, PromptTooLong
from modalkit.meta import (
    Invocation,
    MetaResponse,
    Modality,
    parse_meta_response,
    serialize_meta_response,
    validate_invocations,
)
from modalkit.zoo import ModelDescriptor, ModelRegistry


def _obj(text="t", invocations=(), **extra) -> str:
    return json.dumps({"text": text, "invocations": list(invocations), **extra})


def _inv(model="text-to-image", prompt="p", **extra) -> dict:
    return {"model": model, "prompt": prompt, **extra}


CAP_PROMPT = "a" * 2048
LONG_PROMPT = "a" * 2049
LONG_EURO = "€" * 683  # 2049 bytes
LONE = "\ud800"  # a surrogate with no partner: UTF-8 cannot encode it

STRICT = [
    ("", EmptyMeta),
    (" \n\t", EmptyMeta),
    ("not json", MalformedMeta),
    ('{"text":"x","invocations":[]} trailing', MalformedMeta),
    ("[]", MalformedMeta),
    ('"text"', MalformedMeta),
    ("42", MalformedMeta),
    ('{"text":"x"}', MalformedMeta),
    ('{"invocations":[]}', MalformedMeta),
    (_obj(extra=1), MalformedMeta),
    (_obj(text=5), MalformedMeta),
    ('{"text":"x","invocations":{}}', MalformedMeta),
    (_obj(invocations=["s"]), MalformedMeta),
    (_obj(invocations=[{"model": "text-to-image"}]), MalformedMeta),
    (_obj(invocations=[_inv(seed=1)]), MalformedMeta),
    (_obj(invocations=[_inv(model="image")]), MalformedMeta),
    (_obj(invocations=[_inv(model=7)]), MalformedMeta),
    (_obj(invocations=[_inv(prompt=3)]), MalformedMeta),
    (_obj(invocations=[_inv(prompt="")]), MalformedMeta),
    (_obj(invocations=[_inv(prompt=LONG_PROMPT)]), PromptTooLong),
    (_obj(invocations=[_inv(prompt=LONG_EURO)]), PromptTooLong),
    (_obj(invocations=[_inv(prompt=LONG_PROMPT), _inv(model="image")]), PromptTooLong),
    (_obj(invocations=[_inv(model="image"), _inv(prompt=LONG_PROMPT)]), MalformedMeta),
    (_obj(text=""), EmptyMeta),
    ('{"text":"","invocations":[{"model":"text-to-image","prompt":"\\ud800"}]}', MalformedMeta),
    ('{"text":"\\ud800","invocations":[]}', MalformedMeta),
    ('{"text":"%s","invocations":[]}' % LONE, MalformedMeta),
    ('{"text":"\\ud83d\\ude00","invocations":[]}', ('{"text":"\U0001f600","invocations":[]}', [])),
    (
        '{"text":"hi","invocations":[{"model":"text-to-image","prompt":"café"}]}',
        ('{"text":"hi","invocations":[{"model":"text-to-image","prompt":"café"}]}', []),
    ),
    (
        _obj(text="", invocations=[_inv(prompt=CAP_PROMPT)]),
        (_obj(text="", invocations=[_inv(prompt=CAP_PROMPT)]).replace(" ", ""), []),
    ),
    (
        '{"invocations": [], "text": "reordered"}',
        ('{"text":"reordered","invocations":[]}', []),
    ),
    (
        _obj(text="", invocations=[_inv(model="text-to-hologram")]),
        ('{"text":"","invocations":[{"model":"text-to-hologram","prompt":"p"}]}', []),
    ),
]

TUPLES = (
    'café [("text-to-audio", "rain")] then '
    '[("text-to-video", "waves"), ("text-to-image", "sky",)] end'
)

LENIENT = [
    ("", EmptyMeta),
    ("   \n", EmptyMeta),
    (_obj(text=""), EmptyMeta),
    ('{"invocations": []}', EmptyMeta),
    (_obj(text="", invocations=["s", _inv(prompt="")]), EmptyMeta),
    ('[("text-to-image", "")]', EmptyMeta),
    (_obj(invocations=[_inv(prompt=LONG_PROMPT)]), PromptTooLong),
    (_obj(invocations=[_inv(seed=1, prompt=LONG_PROMPT)]), PromptTooLong),
    (_obj(text=5, invocations=[_inv(prompt=LONG_EURO)]), PromptTooLong),
    ('say [("text-to-image", "%s")]' % LONG_PROMPT, PromptTooLong),
    ('hi %s [("text-to-image", "x")]' % LONE, MalformedMeta),
    ('{"text":"%s","invocations":[]}' % LONE, EmptyMeta),
    (_obj(text=LONE), EmptyMeta),
    (
        _obj(text=LONE, invocations=[_inv()]),
        (
            '{"text":"","invocations":[{"model":"text-to-image","prompt":"p"}]}',
            [(0, "text field holds an unpaired surrogate, dropped")],
        ),
    ),
    (
        _obj(invocations=[_inv(prompt=LONE), _inv(prompt="ok")]),
        (
            '{"text":"t","invocations":[{"model":"text-to-image","prompt":"ok"}]}',
            [(0, "invocation 0 has no usable prompt, dropped")],
        ),
    ),
    (
        '{"text":"hi","invocations":[]}',
        ('{"text":"hi","invocations":[]}', []),
    ),
    ("plain words", ('{"text":"plain words","invocations":[]}', [])),
    ("  padded  ", ('{"text":"padded","invocations":[]}', [])),
    ("[1, 2]", ('{"text":"[1, 2]","invocations":[]}', [])),
    ('"quoted"', ('{"text":"\\"quoted\\"","invocations":[]}', [])),
    ("42", ('{"text":"42","invocations":[]}', [])),
    ("{broken", ('{"text":"{broken","invocations":[]}', [])),
    (
        "see [('alpha', 'beta')] here",
        ('{"text":"see [(\'alpha\', \'beta\')] here","invocations":[]}', []),
    ),
    (
        TUPLES,
        (
            '{"text":"café  then  end","invocations":['
            '{"model":"text-to-audio","prompt":"rain"},'
            '{"model":"text-to-video","prompt":"waves"},'
            '{"model":"text-to-image","prompt":"sky"}]}',
            [
                (6, "recovered tuple-style invocation ('text-to-audio')"),
                (39, "recovered tuple-style invocation ('text-to-video')"),
                (39, "recovered tuple-style invocation ('text-to-image')"),
            ],
        ),
    ),
    (
        'x [("text-to-image", ""), ("text-to-audio", "ok")]',
        (
            '{"text":"x","invocations":[{"model":"text-to-audio","prompt":"ok"}]}',
            [
                (2, "tuple record for 'text-to-image' has an empty prompt, dropped"),
                (2, "recovered tuple-style invocation ('text-to-audio')"),
            ],
        ),
    ),
    (
        "[('text-to-image', 'it\\'s \"q\"\\n')]",
        (
            '{"text":"","invocations":[{"model":"text-to-image","prompt":"it\'s \\"q\\"\\n"}]}',
            [(0, "recovered tuple-style invocation ('text-to-image')")],
        ),
    ),
    (
        _obj(text=5, invocations=[_inv()]),
        (
            '{"text":"","invocations":[{"model":"text-to-image","prompt":"p"}]}',
            [(0, "text field is not a string, dropped (int)")],
        ),
    ),
    (
        '{"text": "only"}',
        (
            '{"text":"only","invocations":[]}',
            [(0, "invocations field missing, treated as empty")],
        ),
    ),
    (
        json.dumps({"invocations": [_inv()]}),
        (
            '{"text":"","invocations":[{"model":"text-to-image","prompt":"p"}]}',
            [(0, "text field missing, treated as empty")],
        ),
    ),
    (
        '{"text": "t", "invocations": {"model": "text-to-image"}}',
        ('{"text":"t","invocations":[]}', [(0, "invocations field is not a list, dropped")]),
    ),
    (
        _obj(
            invocations=[
                "str",
                3,
                _inv(model="picture"),
                {"prompt": "p"},
                _inv(model="text-to-audio", prompt=""),
                _inv(model="text-to-audio", prompt=7),
                _inv(model="text-to-video", prompt="v", seed=1),
            ],
            note=1,
            extra=2,
        ),
        (
            '{"text":"t","invocations":[{"model":"text-to-video","prompt":"v"}]}',
            [
                (0, "invocation 0 is not an object, dropped"),
                (0, "invocation 1 is not an object, dropped"),
                (0, "invocation 2 has no usable model kind, dropped"),
                (0, "invocation 3 has no usable model kind, dropped"),
                (0, "invocation 4 has no usable prompt, dropped"),
                (0, "invocation 5 has no usable prompt, dropped"),
                (0, "invocation 6 carries extra keys, ignored"),
                (0, "unexpected top-level keys ignored: ['extra', 'note']"),
            ],
        ),
    ),
    (
        _obj(invocations=[_inv(model="image"), _inv(prompt=CAP_PROMPT)]),
        (
            '{"text":"t","invocations":[{"model":"text-to-image","prompt":"%s"}]}' % CAP_PROMPT,
            [(0, "invocation 0 has no usable model kind, dropped")],
        ),
    ),
]


def _outcome(raw: str, mode: str):
    try:
        meta, diags = parse_meta_response(raw, mode=mode)
    except Exception as exc:  # the table pins the exception type
        return type(exc)
    assert diags.mode == mode
    return serialize_meta_response(meta), list(diags.warnings)


@pytest.mark.parametrize("raw, expected", STRICT)
def test_strict_outcome(raw, expected):
    assert _outcome(raw, "strict") == expected


@pytest.mark.parametrize("raw, expected", LENIENT)
def test_lenient_outcome(raw, expected):
    assert _outcome(raw, "lenient") == expected


@pytest.mark.parametrize("raw, expected", [row for row in STRICT if isinstance(row[1], tuple)])
def test_lenient_agrees_with_strict_on_canonical_input(raw, expected):
    assert _outcome(raw, "lenient") == expected


@pytest.mark.parametrize(
    "raw",
    [row[0] for row in STRICT if row[1] in (EmptyMeta, PromptTooLong)],
)
def test_lenient_keeps_strict_hard_errors(raw):
    assert _outcome(raw, "lenient") is _outcome(raw, "strict")


@pytest.mark.parametrize(
    "raw, message",
    [
        (_obj(invocations=[_inv(prompt=LONE)]), "invocation 0 prompt holds an unpaired surrogate"),
        (_obj(text=LONE), "text holds an unpaired surrogate"),
    ],
)
def test_strict_surrogate_messages(raw, message):
    with pytest.raises(MalformedMeta, match=message):
        parse_meta_response(raw, mode="strict")


@pytest.mark.parametrize(
    "meta",
    [MetaResponse(LONE), MetaResponse("t", (Invocation("text-to-image", "a" + LONE),))],
)
def test_serialize_rejects_unpaired_surrogates(meta):
    with pytest.raises(InvariantViolation, match="unpaired surrogate"):
        serialize_meta_response(meta)


def _image_only_registry() -> ModelRegistry:
    registry = ModelRegistry()
    registry.register(
        ModelDescriptor("img", "text-to-image", Modality.IMAGE), lambda prompt, seed: b""
    )
    return registry.finalize()


@pytest.mark.parametrize(
    "invocations, registry, expected",
    [
        ([("text-to-image", "ok")], "all", []),
        ([("text-to-image", "")], "all", ["EmptyPrompt@0: prompt is empty"]),
        ([("text-to-image", 3)], "all", ["EmptyPrompt@0: prompt is empty"]),
        (
            [("text-to-image", "ok"), ("text-to-audio", LONG_PROMPT)],
            "all",
            ["PromptTooLong@1: prompt is 2049 bytes, cap 2048"],
        ),
        ([("text-to-video", LONG_EURO)], "all", ["PromptTooLong@0: prompt is 2049 bytes, cap 2048"]),
        ([("text-to-image", LONE)], "all", ["UnpairedSurrogate@0: prompt holds an unpaired surrogate"]),
        (
            [("text-to-hologram", "x")],
            "all",
            ["UnknownModelKind@0: no backend serves 'text-to-hologram'"],
        ),
        (
            [("text-to-audio", "x"), ("text-to-image", "y")],
            "image",
            ["UnknownModelKind@0: no backend serves 'text-to-audio'"],
        ),
        (
            [("text-to-audio", ""), ("text-to-hologram", LONG_PROMPT)],
            "all",
            [
                "EmptyPrompt@0: prompt is empty",
                "PromptTooLong@1: prompt is 2049 bytes, cap 2048",
                "UnknownModelKind@1: no backend serves 'text-to-hologram'",
            ],
        ),
    ],
)
def test_validate_invocations_messages(invocations, registry, expected):
    reg = counting_registry()[0] if registry == "all" else _image_only_registry()
    meta = MetaResponse("", tuple(Invocation(m, p) for m, p in invocations))
    assert [str(i) for i in validate_invocations(meta, reg)] == expected


# --- differential property against the frozen reader ----------------------------

MISSING = object()  # the key is left out

KINDS = ("text-to-image", "text-to-audio", "text-to-video")
GOOD_TEXTS = ("t", "héllo €", "\U0001f600")
GOOD_PROMPTS = ("p", "café", CAP_PROMPT, "€" * 682 + "aa")  # the last two are 2048 bytes
FAULTS = {
    "text": (MISSING, 5, None, [], "", LONE, "x\udc00y", "héllo €"),
    "invocations": (MISSING, None, {"model": "text-to-image", "prompt": "p"}, "s", []),
    "item": ("s", 3, None, [], ["text-to-image", "p"]),
    # text-to-hologram is well formed but served by no backend
    "model": (MISSING, 7, None, ["text-to-image"], "image", "Text-to-image", "text-to-hologram"),
    "prompt": (MISSING, 3, None, "", CAP_PROMPT, LONG_PROMPT, LONG_EURO, "a" + LONE),
}


def _put(d: dict, key: str, value) -> None:
    if value is MISSING:
        d.pop(key, None)
    else:
        d[key] = value


@st.composite
def faulty_objects(draw) -> dict:
    """A canonical object with 0-3 items, then 0-3 faults applied to it."""
    items = [
        {"model": draw(st.sampled_from(KINDS)), "prompt": draw(st.sampled_from(GOOD_PROMPTS))}
        for _ in range(draw(st.integers(0, 3)))
    ]
    obj = {"text": draw(st.sampled_from(GOOD_TEXTS)), "invocations": items}
    for fault in draw(st.lists(st.sampled_from([*FAULTS, "top key", "item key"]), max_size=3)):
        if fault in ("text", "invocations"):
            _put(obj, fault, draw(st.sampled_from(FAULTS[fault])))
        elif fault == "top key":
            obj[draw(st.sampled_from(["note", "extra"]))] = 1
        elif isinstance(obj.get("invocations"), list) and obj["invocations"]:
            i = draw(st.integers(0, len(obj["invocations"]) - 1))
            item = obj["invocations"][i]
            if fault == "item":
                obj["invocations"][i] = draw(st.sampled_from(FAULTS["item"]))
            elif fault == "item key" and isinstance(item, dict):
                item["seed"] = 1
            elif isinstance(item, dict):
                _put(item, fault, draw(st.sampled_from(FAULTS[fault])))
    return obj


def _as_meta(obj: dict) -> MetaResponse:
    """The in-memory object serialize_meta_response sees for obj.  An item
    with extra keys becomes a plain dict with model and prompt, which
    passes every check but the one that it is an Invocation."""

    def member(item):
        if not isinstance(item, dict):
            return item
        model, prompt = item.get("model"), item.get("prompt")
        if item.keys() <= {"model", "prompt"}:
            return Invocation(model, prompt)
        return {"model": model, "prompt": prompt}

    items = obj.get("invocations")
    return MetaResponse(
        obj.get("text", ""), tuple(member(item) for item in (items if isinstance(items, list) else []))
    )


def _result(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type
        return type(exc)


@settings(max_examples=2000, deadline=None)
@given(faulty_objects())
def test_object_reader_matches_frozen_reference(obj):
    raw = json.dumps(obj)  # lone surrogates travel as \\udxxx escapes
    decoded = json.loads(raw)
    assert _result(parse_meta_response, raw, "lenient") == _result(
        reference.parse_lenient_object, decoded
    )
    strict = _result(parse_meta_response, raw, "strict")
    assert (strict[0] if isinstance(strict, tuple) else strict) == _result(
        reference.from_object, decoded
    )
    meta = _as_meta(decoded)
    assert _result(serialize_meta_response, meta) == _result(
        reference.serialize_meta_response, meta
    )
