"""Frozen meta-response object reader, the reference for the one in
modalkit.meta.

This is the code modalkit used while the object-shape rules were written
out three times: the strict reader (_from_object), the lenient recovery
(_recover_json_object, reached through the dict branch of lenient
parsing) and serialize_meta_response with Invocation.violations.  It is
kept verbatim so a property can check that strict parsing, lenient
parsing and serialization accept, drop, warn about and reject exactly
what they did.  Do not "fix" it: a difference between the two is a
change of the wire format or of the warnings that land in trace.json.
"""

from __future__ import annotations

import json

from modalkit.errors import EmptyMeta, InvariantViolation, MalformedMeta, PromptTooLong
from modalkit.meta import (
    MODEL_KIND_RE,
    Invocation,
    MetaResponse,
    ParseDiagnostics,
    ValidationIssue,
    check_prompt,
    has_lone_surrogate,
)


def violations(inv: Invocation) -> list[str]:
    """Invocation.violations, as a function of the invocation."""
    out = []
    if not isinstance(inv.model, str) or not MODEL_KIND_RE.fullmatch(inv.model):
        out.append(f"model does not look like text-to-<modality>: {inv.model!r}")
    if not isinstance(inv.prompt, str):
        out.append("prompt is not a string")
    elif (issue := check_prompt(inv.prompt)) is not None:
        out.append(issue.message)
    return out


def serialize_meta_response(meta: MetaResponse) -> str:
    problems = []
    if not isinstance(meta.text, str):
        problems.append("text is not a string")
    elif has_lone_surrogate(meta.text):
        problems.append("text holds an unpaired surrogate")
    for i, inv in enumerate(meta.invocations):
        if not isinstance(inv, Invocation):
            problems.append(f"invocation {i} is not an Invocation")
            continue
        problems.extend(f"invocation {i}: {p}" for p in violations(inv))
    if not problems and meta.text == "" and not meta.invocations:
        problems.append("meta-response has no text and no invocations")
    if problems:
        raise InvariantViolation("; ".join(problems))
    payload = {
        "text": meta.text,
        "invocations": [{"model": v.model, "prompt": v.prompt} for v in meta.invocations],
    }
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def _prompt_issue(prompt, where: str) -> ValidationIssue | None:
    issue = check_prompt(prompt)
    if issue is not None and issue.code == "PromptTooLong":
        raise PromptTooLong(f"{where} {issue.message}")
    return issue


def from_object(obj) -> MetaResponse:
    """Strict parsing of a decoded object (_from_object)."""
    if not isinstance(obj, dict):
        raise MalformedMeta("top level is not a JSON object")
    if set(obj.keys()) != {"text", "invocations"}:
        raise MalformedMeta(f"keys must be exactly text and invocations, got {sorted(obj)}")
    text = obj["text"]
    if not isinstance(text, str):
        raise MalformedMeta("text is not a string")
    if has_lone_surrogate(text):
        raise MalformedMeta("text holds an unpaired surrogate")
    items = obj["invocations"]
    if not isinstance(items, list):
        raise MalformedMeta("invocations is not a list")
    invocations = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or set(item.keys()) != {"model", "prompt"}:
            raise MalformedMeta(f"invocation {i} must be an object with model and prompt")
        model, prompt = item["model"], item["prompt"]
        if not isinstance(model, str) or not MODEL_KIND_RE.fullmatch(model):
            raise MalformedMeta(f"invocation {i} model is not text-to-<modality>: {model!r}")
        if not isinstance(prompt, str):
            raise MalformedMeta(f"invocation {i} prompt is not a string")
        if (issue := _prompt_issue(prompt, f"invocation {i}")) is not None:
            raise MalformedMeta(f"invocation {i} {issue.message}")
        invocations.append(Invocation(model, prompt))
    if text == "" and not invocations:
        raise EmptyMeta("no text and no invocations")
    return MetaResponse(text, tuple(invocations))


def parse_lenient_object(obj: dict) -> tuple[MetaResponse, ParseDiagnostics]:
    """The dict branch of lenient parsing."""
    try:
        return from_object(obj), ParseDiagnostics("lenient")
    except MalformedMeta:
        return recover_json_object(obj)


def recover_json_object(obj: dict) -> tuple[MetaResponse, ParseDiagnostics]:
    """_recover_json_object."""
    warnings: list[tuple[int, str]] = []
    text = obj.get("text", "")
    if not isinstance(text, str):
        warnings.append((0, f"text field is not a string, dropped ({type(text).__name__})"))
        text = ""
    elif "text" not in obj:
        warnings.append((0, "text field missing, treated as empty"))
    elif has_lone_surrogate(text):
        warnings.append((0, "text field holds an unpaired surrogate, dropped"))
        text = ""
    items = obj.get("invocations")
    invocations: list[Invocation] = []
    if items is None:
        warnings.append((0, "invocations field missing, treated as empty"))
    elif not isinstance(items, list):
        warnings.append((0, "invocations field is not a list, dropped"))
    else:
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                warnings.append((0, f"invocation {i} is not an object, dropped"))
                continue
            model, prompt = item.get("model"), item.get("prompt")
            if not isinstance(model, str) or not MODEL_KIND_RE.fullmatch(model):
                warnings.append((0, f"invocation {i} has no usable model kind, dropped"))
                continue
            if _prompt_issue(prompt, f"invocation {i}") is not None:
                warnings.append((0, f"invocation {i} has no usable prompt, dropped"))
                continue
            if set(item.keys()) != {"model", "prompt"}:
                warnings.append((0, f"invocation {i} carries extra keys, ignored"))
            invocations.append(Invocation(model, prompt))
    extra = set(obj.keys()) - {"text", "invocations"}
    if extra:
        warnings.append((0, f"unexpected top-level keys ignored: {sorted(extra)}"))
    if text == "" and not invocations:
        raise EmptyMeta("JSON object yielded no text and no invocations")
    return MetaResponse(text, tuple(invocations)), ParseDiagnostics("lenient", tuple(warnings))
