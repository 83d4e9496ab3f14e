"""modalkit: a desk-scale multi-modal agent pipeline.

Attachments are encoded and projected into a language model's token
space, a language backend answers with a structured meta-response, and
a registry of text-to-x generators turns the requested invocations into
artifacts on disk.  Everything runs offline and deterministically.

Public names load on first use (PEP 562), so `import modalkit` and the
language-only commands never import numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_SOURCES = {
    "Candidate": "instruct",
    "EmbeddingVector": "projection",
    "FinalResponse": "zoo",
    "InstructionPair": "instruct",
    "InstructionType": "instruct",
    "Invocation": "meta",
    "InvocationPlan": "zoo",
    "LinearProjection": "projection",
    "LoraAdaptor": "projection",
    "MetaResponse": "meta",
    "Modality": "meta",
    "ModalkitError": "errors",
    "ModelDescriptor": "zoo",
    "ModelRegistry": "zoo",
    "QueryBundle": "instruct",
    "ScriptedBackend": "backends",
    "ScriptedRule": "backends",
    "TrainConfig": "sizing",
    "UserRequest": "pipeline",
    "alignment_loss": "projection",
    "assemble_query": "instruct",
    "backward": "projection",
    "default_registry": "zoo",
    "encode_stub": "projection",
    "execute_plan": "zoo",
    "generate_pairs_llm": "instruct",
    "gradient_check": "projection",
    "load_embedding": "projection",
    "lora_forward": "projection",
    "param_count": "sizing",
    "parse_meta_response": "meta",
    "project": "projection",
    "read_dataset": "instruct",
    "render_placeholder": "media",
    "route": "zoo",
    "run": "pipeline",
    "serialize_meta_response": "meta",
    "template_generate": "instruct",
    "train_toy": "projection",
    "validate_invocations": "meta",
    "validate_pair": "instruct",
    "write_dataset": "instruct",
    "write_embedding": "projection",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
