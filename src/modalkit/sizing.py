"""Model sizes and the parameter budget they imply.

TrainConfig names every dimension of the alignment model; param_blocks
counts its trainable scalars.  Nothing here computes with numpy, so
config loading and `modalkit params` never import it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument
from .meta import GENERATABLE_MODALITIES, Modality


@dataclass
class TrainConfig:
    d_enc: dict[Modality, int]
    d_llm: int
    token_count: int = 1
    bias: bool = False
    rank: int = 4
    alpha: float = 16.0
    learning_rate: float = 0.05
    steps: int = 100
    seed: int = 0

    def validate(self) -> None:
        for m in GENERATABLE_MODALITIES:
            if m not in self.d_enc:
                raise InvalidArgument(f"d_enc missing modality {m.value}")
            if self.d_enc[m] < 1:
                raise InvalidArgument(f"d_enc[{m.value}] must be >= 1")
        if self.d_llm < 1:
            raise InvalidArgument("d_llm must be >= 1")
        if self.token_count < 1:
            raise InvalidArgument("token_count must be >= 1")
        if self.rank < 1:
            raise InvalidArgument(f"rank must be >= 1, got {self.rank}")
        if self.rank > self.d_llm:
            raise InvalidArgument(f"rank {self.rank} exceeds d_llm {self.d_llm}")
        if self.alpha <= 0:
            raise InvalidArgument("alpha must be positive")
        if self.learning_rate < 0:
            raise InvalidArgument("learning_rate must be >= 0")
        if self.steps < 0:
            raise InvalidArgument("steps must be >= 0")
        if self.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {self.seed}")


def uniform_enc_dims(dim: int) -> dict[Modality, int]:
    return {m: dim for m in GENERATABLE_MODALITIES}


def default_pipeline_config() -> TrainConfig:
    # Small dims: the pipeline only needs the projection path to be real,
    # not expensive.  run never applies the adaptor, so its rank is the smallest valid one.
    return TrainConfig(d_enc=uniform_enc_dims(64), d_llm=128, rank=1)


def param_blocks(cfg: TrainConfig) -> dict[str, int]:
    """Trainable scalars per block: one projection per modality, in name
    order, each with its bias if any, then the LoRA adaptor pair."""
    cfg.validate()
    rows = cfg.token_count * cfg.d_llm
    modalities = sorted(GENERATABLE_MODALITIES, key=lambda m: m.value)
    blocks = {f"proj.{m.value}": rows * (cfg.d_enc[m] + int(cfg.bias)) for m in modalities}
    blocks["lora"] = 2 * cfg.rank * cfg.d_llm
    return blocks


def param_count(cfg: TrainConfig) -> int:
    """Trainable scalars: three projections plus the adaptor pair."""
    return sum(param_blocks(cfg).values())
