"""modalkit: a desk-scale multi-modal agent pipeline.

Attachments are encoded and projected into a language model's token
space, a language backend answers with a structured meta-response, and
a registry of text-to-x generators turns the requested invocations into
artifacts on disk.  Everything runs offline and deterministically.
"""

from .errors import ModalkitError
from .meta import (
    Invocation,
    MetaResponse,
    Modality,
    parse_meta_response,
    serialize_meta_response,
    validate_invocations,
)
from .zoo import (
    FinalResponse,
    InvocationPlan,
    ModelDescriptor,
    ModelRegistry,
    default_registry,
    execute_plan,
    route,
)
from .media import render_placeholder
from .projection import (
    EmbeddingVector,
    LinearProjection,
    LoraAdaptor,
    TrainConfig,
    alignment_loss,
    backward,
    encode_stub,
    gradient_check,
    load_embedding,
    lora_forward,
    param_count,
    project,
    train_toy,
    write_embedding,
)
from .instruct import (
    Candidate,
    InstructionPair,
    InstructionType,
    QueryBundle,
    assemble_query,
    generate_pairs_llm,
    read_dataset,
    template_generate,
    validate_pair,
    write_dataset,
)
from .pipeline import ScriptedBackend, ScriptedRule, UserRequest, run

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "EmbeddingVector",
    "FinalResponse",
    "InstructionPair",
    "InstructionType",
    "Invocation",
    "InvocationPlan",
    "LinearProjection",
    "LoraAdaptor",
    "MetaResponse",
    "Modality",
    "ModalkitError",
    "ModelDescriptor",
    "ModelRegistry",
    "QueryBundle",
    "ScriptedBackend",
    "ScriptedRule",
    "TrainConfig",
    "UserRequest",
    "alignment_loss",
    "assemble_query",
    "backward",
    "default_registry",
    "encode_stub",
    "execute_plan",
    "generate_pairs_llm",
    "gradient_check",
    "load_embedding",
    "lora_forward",
    "param_count",
    "parse_meta_response",
    "project",
    "read_dataset",
    "render_placeholder",
    "route",
    "run",
    "serialize_meta_response",
    "template_generate",
    "train_toy",
    "validate_invocations",
    "validate_pair",
    "write_dataset",
    "write_embedding",
]
