"""Rebuild the bundled replay fixture for llm-mode generation.

The fixture keys recorded response bodies by a fingerprint of the exact
request the default config would send, so it must be regenerated
whenever the bundled seeds, candidates, references, query template, or
default config change.  Run from the repository root:

    python3 scripts/make_chat_fixture.py
"""

from __future__ import annotations

from modalkit.chat import chat_payload, request_fingerprint, save_fixture
from modalkit.config import data_dir, load_app_config, load_instruct_corpus
from modalkit.instruct import (
    InstructionType,
    assemble_query,
    build_bundle,
    pair_to_json,
    template_generate,
)

BODIES_PER_TARGET = 3
PAIRS_PER_BODY = 5


def build_responses() -> dict[str, list[str]]:
    """The fixture's responses table: request fingerprint -> bodies."""
    app = load_app_config(None)
    seeds, candidates, references = load_instruct_corpus(app)
    responses: dict[str, list[str]] = {}
    for target in InstructionType:
        bundle = build_bundle(
            seeds,
            candidates,
            references,
            target,
            app.seed,
            app.instruct.seeds_per_query,
            app.instruct.candidates_per_query,
            app.instruct.references_per_query,
        )
        fp = request_fingerprint(chat_payload(app.chat.model, assemble_query(bundle)))
        bodies = []
        for b in range(BODIES_PER_TARGET):
            pairs = template_generate(
                candidates,
                {target: 1.0},
                seed=app.seed + b,
                n=PAIRS_PER_BODY,
                id_prefix=f"rec-{target.value}-{b}",
            )
            bodies.append("\n".join(pair_to_json(p) for p in pairs))
        responses[fp] = bodies
    return responses


def main() -> int:
    responses = build_responses()
    out = data_dir() / "chat_fixture.json"
    save_fixture(responses, out)
    print(f"wrote {out} ({len(responses)} request keys)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
