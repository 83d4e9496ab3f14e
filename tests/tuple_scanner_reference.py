"""Frozen character-by-character tuple-list scanner, the reference for the
grammar in modalkit.meta.

This is the index-passing scanner modalkit used before the grammar was
written as regular patterns, kept verbatim so a property can check that
the patterns accept, reject and decode exactly what it did.  Do not
"fix" it: a difference between the two is a change of the wire format.
"""

from __future__ import annotations

import re

from modalkit.errors import MalformedLine
from modalkit.instruct import Attachment, InstructionPair, InstructionType
from modalkit.media import modality_for_path
from modalkit.meta import MODEL_KIND_RE, Invocation


def scan_tuple_lists(raw: str):
    i = 0
    n = len(raw)
    while i < n:
        if raw[i] != "[":
            i += 1
            continue
        parsed = _parse_tuple_list(raw, i)
        if parsed is None:
            i += 1
            continue
        records, end = parsed
        if all(MODEL_KIND_RE.fullmatch(model) for model, _ in records):
            yield i, end, records
            i = end
        else:
            i += 1


def skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] in " \t\r\n":
        i += 1
    return i


_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t"}


def parse_quoted(s: str, i: int) -> tuple[str, int] | None:
    if i >= len(s) or s[i] not in "'\"":
        return None
    quote = s[i]
    i += 1
    out: list[str] = []
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            out.append(_ESCAPES.get(s[i + 1], "\\" + s[i + 1]))
            i += 2
            continue
        if c == quote:
            return "".join(out), i + 1
        out.append(c)
        i += 1
    return None


def _parse_pair(s: str, i: int) -> tuple[tuple[str, str], int] | None:
    if i >= len(s) or s[i] != "(":
        return None
    i = skip_ws(s, i + 1)
    first = parse_quoted(s, i)
    if first is None:
        return None
    model, i = first
    i = skip_ws(s, i)
    if i >= len(s) or s[i] != ",":
        return None
    i = skip_ws(s, i + 1)
    second = parse_quoted(s, i)
    if second is None:
        return None
    prompt, i = second
    i = skip_ws(s, i)
    if i < len(s) and s[i] == ",":
        i = skip_ws(s, i + 1)
    if i >= len(s) or s[i] != ")":
        return None
    return (model, prompt), i + 1


def _parse_tuple_list(s: str, i: int) -> tuple[list[tuple[str, str]], int] | None:
    if s[i] != "[":
        return None
    i = skip_ws(s, i + 1)
    records: list[tuple[str, str]] = []
    while True:
        pair = _parse_pair(s, i)
        if pair is None:
            break
        record, i = pair
        records.append(record)
        i = skip_ws(s, i)
        if i < len(s) and s[i] == ",":
            i = skip_ws(s, i + 1)
            continue
        break
    if not records:
        return None
    if i >= len(s) or s[i] != "]":
        return None
    return records, i + 1


_TWO_KEY_INSTRUCTION_RE = re.compile(r'"instruction"\s*:\s*\[')


def recover_two_key(line: str, lineno: int) -> InstructionPair:
    m = _TWO_KEY_INSTRUCTION_RE.search(line)
    if m is None:
        raise MalformedLine(lineno, "no canonical object and no instruction list")
    strings, _ = _read_string_list(line, m.end() - 1, lineno)
    if not strings:
        raise MalformedLine(lineno, "instruction list is empty")
    instruction, filenames = strings[0], strings[1:]
    attachments = []
    for name in filenames:
        modality = modality_for_path(name)
        if modality is None:
            raise MalformedLine(lineno, f"cannot infer modality for attachment {name!r}")
        attachments.append(Attachment(name, modality))
    invocations = []
    for _, _, records in scan_tuple_lists(line):
        for model, prompt in records:
            if not prompt:
                raise MalformedLine(lineno, "recovered invocation has an empty prompt")
            invocations.append(Invocation(model, prompt))
    if not invocations:
        raise MalformedLine(lineno, "two-key line carries no invocation tuples")
    return InstructionPair(
        f"recovered-{lineno:04d}",
        InstructionType.OUTPUT_ALIGN,
        instruction,
        tuple(attachments),
        tuple(invocations),
        None,
    )


def _read_string_list(s: str, start: int, lineno: int) -> tuple[list[str], int]:
    i = skip_ws(s, start + 1)
    out: list[str] = []
    while i < len(s) and s[i] != "]":
        got = parse_quoted(s, i)
        if got is None:
            raise MalformedLine(lineno, "instruction list holds a non-string")
        value, i = got
        out.append(value)
        i = skip_ws(s, i)
        if i < len(s) and s[i] == ",":
            i = skip_ws(s, i + 1)
    if i >= len(s):
        raise MalformedLine(lineno, "instruction list never closes")
    return out, i + 1
