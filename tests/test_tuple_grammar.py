"""The tuple-list grammar: pinned outcomes plus a differential property.

scan_tuple_lists finds the [("text-to-x", "prompt"), ] lists that lenient
parsing recovers from prose, and the two-key dataset recovery reads its
["instruction", "file", ] string list with the same quoted literals.
The rows pin edge cases of that grammar; the property compares both
against the frozen scanner in tuple_scanner_reference.py on generated
text and on hostile inputs, each of which must finish within a second.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import tuple_scanner_reference as reference
from modalkit.errors import MalformedLine
from modalkit.instruct import Attachment, _recover_two_key
from modalkit.meta import Invocation, Modality, scan_tuple_lists

IMG = "text-to-image"
INNER = "[('text-to-image', 'inner')]"

SCAN = [
    # whitespace is space, tab, CR and LF only
    ('[ \t\r\n( \t"text-to-image" ,\n"p"\r) \n]', [(0, 34, [(IMG, "p")])]),
    ('[(\f"text-to-image", "p")]', []),
    ('[("text-to-image",\v"p")]', []),
    ('[("text-to-image",\xa0"p")]', []),
    ('[("text-to-image", "p")\xa0]', []),
    # escapes: \\ \' \" \n \t decode, any other \x stays two characters
    (r'[("text-to-image", "a\\b\"c\'d\ne\tf\qg")]', [(0, 42, [(IMG, "a\\b\"c'd\ne\tf\\qg")])]),
    (r"[('text-to-image', 'a\\b\"c\'d\ne\tf\qg')]", [(0, 42, [(IMG, "a\\b\"c'd\ne\tf\\qg")])]),
    ('[("text-to-image", "a\\\nb")]', [(0, 27, [(IMG, "a\\\nb")])]),
    ("[('text-to-image', \"it's\")]", [(0, 27, [(IMG, "it's")])]),
    ('[("text-to-image", \'say "hi"\')]', [(0, 31, [(IMG, 'say "hi"')])]),
    ('[("text-to-image", "p\\")]', []),
    ('[("text-to-image", "p\\', []),
    # trailing commas: one inside the pair, one after the last pair
    ('[("text-to-image", "p",)]', [(0, 25, [(IMG, "p")])]),
    ('[("text-to-image", "p"),]', [(0, 25, [(IMG, "p")])]),
    ('[("text-to-image", "p" , ) , ]', [(0, 30, [(IMG, "p")])]),
    ('[("text-to-image", "p"),,]', []),
    ('[("text-to-image", "p",,)]', []),
    ('[,("text-to-image", "p")]', []),
    ('[("text-to-image",, "p")]', []),
    ('[("text-to-image", "p") ("text-to-audio", "q")]', []),
    ("[]", []),
    ("[ , ]", []),
    # every model must be a kind, or the whole list stays prose
    ('[("text-to-image", "a"), ("Text-to-image", "b")]', []),
    # a rejected list resumes the scan at its start + 1, inside its own prompt
    ('[("chat", "see %s")]' % INNER, [(15, 43, [(IMG, "inner")])]),
    # an accepted list resumes at its end, so the list inside its prompt stays text
    ('[("text-to-audio", "%s")]' % INNER, [(0, 51, [("text-to-audio", INNER)])]),
    (
        '[("text-to-image","a")][("text-to-audio","b")]',
        [(0, 23, [(IMG, "a")]), (23, 46, [("text-to-audio", "b")])],
    ),
]


@pytest.mark.parametrize("raw, expected", SCAN)
def test_scan_outcome(raw, expected):
    assert list(scan_tuple_lists(raw)) == expected


TAIL = ' "invocation": [("text-to-image", "A cat")]}'

TWO_KEY = [
    ('{"instruction": ["a", "b"', "instruction list never closes"),
    ('{"instruction": ["a", ', "instruction list never closes"),
    ('{"instruction": [', "instruction list never closes"),
    ('{"instruction": ["a", 5]' + TAIL, "instruction list holds a non-string"),
    ('{"instruction": ["a", "b', "instruction list holds a non-string"),
    ('{"instruction": ["a",, "b"]' + TAIL, "instruction list holds a non-string"),
    ('{"instruction": ["a",\f"b"]' + TAIL, "instruction list holds a non-string"),
    ('{"instruction": [\xa0"a"]' + TAIL, "instruction list holds a non-string"),
    ('{"instruction": [ ]' + TAIL, "instruction list is empty"),
    (
        '{"instruction": ["Make a picture" "cat.wav"]' + TAIL,
        ("Make a picture", [("cat.wav", Modality.AUDIO)], [(IMG, "A cat")]),
    ),
    (
        '{"instruction": [\'it\\\'s "x"\\q\',\t"a.png"\n,]' + TAIL,
        ('it\'s "x"\\q', [("a.png", Modality.IMAGE)], [(IMG, "A cat")]),
    ),
    # the whole line is scanned, so a list inside the instruction string counts
    (
        '{"instruction": ["say %s"]}' % INNER,
        ("say %s" % INNER, [], [(IMG, "inner")]),
    ),
]


def _two_key(recover, line: str):
    try:
        pair = recover(line, 3)
    except MalformedLine as exc:
        assert exc.lineno == 3
        return exc.reason
    return pair


@pytest.mark.parametrize("line, expected", TWO_KEY)
def test_two_key_outcome(line, expected):
    got = _two_key(_recover_two_key, line)
    if isinstance(expected, str):
        assert got == expected
        return
    instruction, attachments, invocations = expected
    assert got.instruction == instruction
    assert got.attachments == tuple(Attachment(p, m) for p, m in attachments)
    assert got.invocations == tuple(Invocation(m, p) for m, p in invocations)


TOKENS = [
    "[", "]", "(", ")", ",", '"', "'", "\\", " ", "\t", "\r", "\n", "\f", "\v", "\xa0",
    "x", "text-to-image", "text-to-", '"text-to-audio"', "'p'", "'a.png'", '\\"', "\\'",
    "\\n", "\\\\", '("text-to-video", "v")', '"instruction": [', '[("chat", "%s")]' % INNER,
    '[("text-to-image", "a\\\nb")]',
]  # fmt: skip
BODY = [
    "a", "a.wav", "\\", "\\n", "\\t", "\\'", '\\"', "\\\\", "\\q", "\\\n", "\n", "'", '"',
    "[(", INNER, '[("text-to-video", "in")]',
]  # fmt: skip
WS = ["", " ", "\t\n", "\r", " ", "\f", "\xa0"]  # the last two are not whitespace
KINDS = ['"text-to-image"', "'text-to-audio'", '"text-to-video"', '"chat"']


def _text(rng) -> str:
    """A string list's head, then tokens, literals, pairs and lists, each
    with a chance of a stray character, a missing comma or a non-whitespace gap."""

    def sep() -> str:
        return rng.choice(WS) + rng.choice([",", ",", ",", ""]) + rng.choice(WS)

    def lit() -> str:
        quote = rng.choice("\"'")
        return quote + "".join(rng.choices(BODY, k=rng.randint(0, 3))) + quote

    def pair() -> str:
        return f"({rng.choice(WS)}{rng.choice(KINDS)}{sep()}{lit()}{sep()})"

    def tuple_list() -> str:
        return "[" + rng.choice(WS) + "".join(pair() + sep() for _ in range(rng.randint(0, 3))) + "]"

    strings = "".join(lit() + sep() for _ in range(rng.randint(0, 3))) + rng.choice(["]", ""])
    pieces = [lambda: rng.choice(TOKENS), lit, pair, tuple_list]
    return strings + "".join(rng.choice(pieces)() for _ in range(rng.randint(0, 6)))


HOSTILE = [
    "[" * 100_000,
    "[(" * 50_000,
    '[("x' * 50_000,
    '[("' + "\\" * 100_001,
]


# A seed drives a plain Random: drawing each choice through hypothesis
# costs about 5 ms an example, so this finds rare shapes faster.
@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**64 - 1).map(lambda seed: _text(random.Random(seed))))
@example(HOSTILE[0])
@example(HOSTILE[1])
@example(HOSTILE[2])
@example(HOSTILE[3])
def test_grammar_matches_frozen_scanner(raw):
    started = time.perf_counter()
    scanned = list(scan_tuple_lists(raw))
    lines = [raw, '{"instruction": [' + raw]
    recovered = [_two_key(_recover_two_key, line) for line in lines]
    assert time.perf_counter() - started < 1.0
    assert scanned == list(reference.scan_tuple_lists(raw))
    assert recovered == [_two_key(reference.recover_two_key, line) for line in lines]
