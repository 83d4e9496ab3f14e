"""Input-side numerics: embeddings, projection layers, LoRA, toy training.

Float64 throughout.  The encoder here is a stub: a seeded hash of the
raw bytes, not a learned network, but it has the right interface (unit
vector per modality) so the projection stack and its gradients can be
exercised end to end.  Gradients are written out analytically; tests
check them against central finite differences.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DimMismatch,
    DivergenceDetected,
    EmptyInput,
    InvalidArgument,
    ModalityMismatch,
    NotNormalized,
    ShapeMismatch,
)
from .meta import GENERATABLE_MODALITIES, Modality
from .rng import SplitMix64, fnv1a64, mix64

NORM_TOL = 1e-6  # construction-time unit-norm tolerance
FILE_NORM_TOL = 1e-3  # repairable drift in stored float32 vectors

MVEC_MAGIC = b"MVEC"
MVEC_VERSION = 1

MODALITY_CODES = {Modality.IMAGE: 0, Modality.AUDIO: 1, Modality.VIDEO: 2}
_CODE_MODALITIES = {v: k for k, v in MODALITY_CODES.items()}


@dataclass(eq=False)
class EmbeddingVector:
    """Unit-norm encoder output for one attachment."""

    modality: Modality
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ShapeMismatch(f"embedding must be a nonempty 1-D vector, got {self.values.shape}")
        norm = float(np.linalg.norm(self.values))
        if not np.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:
            raise NotNormalized(f"norm {norm} is outside 1 +/- {NORM_TOL}")

    @property
    def dim(self) -> int:
        return int(self.values.size)


def encode_stub(data: bytes, modality: Modality, dim: int, seed: int) -> EmbeddingVector:
    """Deterministic stand-in encoder: bytes -> unit vector.

    Same (data, modality, dim, seed) always gives the same vector;
    distinct inputs land nearly orthogonal at realistic dims.
    """
    if len(data) == 0:
        raise EmptyInput("cannot encode zero bytes")
    if dim < 1:
        raise InvalidArgument(f"dim must be >= 1, got {dim}")
    if modality not in MODALITY_CODES:
        raise InvalidArgument(f"no encoder for modality {modality}")
    stream = SplitMix64(mix64(fnv1a64(data), MODALITY_CODES[modality], seed))
    while True:
        vec = np.array(stream.unit_floats(dim), dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm > 1e-9:
            return EmbeddingVector(modality, vec / norm)


def write_embedding(vec: EmbeddingVector, path: str | Path) -> None:
    """MVEC container: magic, version u8, modality u8, dim u32 LE, float32 LE values."""
    header = MVEC_MAGIC + struct.pack(
        "<BBI", MVEC_VERSION, MODALITY_CODES[vec.modality], vec.dim
    )
    Path(path).write_bytes(header + vec.values.astype("<f4").tobytes())


def load_embedding(path: str | Path) -> EmbeddingVector:
    blob = Path(path).read_bytes()
    if len(blob) < 10 or blob[:4] != MVEC_MAGIC:
        raise BadMagic(f"{path}: not an MVEC file")
    version, code, dim = struct.unpack("<BBI", blob[4:10])
    if version != MVEC_VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    if code not in _CODE_MODALITIES:
        raise BadMagic(f"{path}: unknown modality code {code}")
    payload = blob[10:]
    if len(payload) != 4 * dim:
        raise DimMismatch(f"{path}: header says {dim} values, payload holds {len(payload)} bytes")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    norm = float(np.linalg.norm(values))
    if not np.isfinite(norm) or abs(norm - 1.0) > FILE_NORM_TOL:
        raise NotNormalized(f"{path}: stored norm {norm} is outside 1 +/- {FILE_NORM_TOL}")
    return EmbeddingVector(_CODE_MODALITIES[code], values / norm)


# --- layers -----------------------------------------------------------------


@dataclass
class LinearProjection:
    """Maps one encoder space into token_count rows of the language space.

    weight is (token_count * d_llm, d_enc); row block j feeds token j.
    """

    modality: Modality
    weight: np.ndarray
    bias: np.ndarray | None = None
    token_count: int = 1

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeMismatch(f"weight must be 2-D, got {self.weight.shape}")
        if self.token_count < 1 or self.weight.shape[0] % self.token_count != 0:
            raise ShapeMismatch(
                f"weight rows {self.weight.shape[0]} not divisible by token_count {self.token_count}"
            )
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weight.shape[0],):
                raise ShapeMismatch(f"bias shape {self.bias.shape} does not match weight rows")

    @property
    def d_enc(self) -> int:
        return int(self.weight.shape[1])

    @property
    def d_llm(self) -> int:
        return int(self.weight.shape[0] // self.token_count)


def project(proj: LinearProjection, vec: EmbeddingVector) -> np.ndarray:
    """Embedding -> (token_count, d_llm) token matrix."""
    if vec.modality is not proj.modality:
        raise ModalityMismatch(f"projection is for {proj.modality}, embedding is {vec.modality}")
    if vec.dim != proj.d_enc:
        raise ShapeMismatch(f"projection expects dim {proj.d_enc}, embedding has {vec.dim}")
    flat = proj.weight @ vec.values
    if proj.bias is not None:
        flat = flat + proj.bias
    return flat.reshape(proj.token_count, proj.d_llm)


@dataclass
class LoraAdaptor:
    """Square base matrix plus a rank-r update; only the update trains."""

    base: np.ndarray  # (d, d), frozen
    down: np.ndarray  # (r, d), the usual A; its row count is the rank
    up: np.ndarray  # (d, r), the usual B, zero at init
    alpha: float

    def __post_init__(self) -> None:
        self.base = np.asarray(self.base, dtype=np.float64)
        self.down = np.asarray(self.down, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        d = self.base.shape[0] if self.base.ndim == 2 else -1
        if self.base.ndim != 2 or self.base.shape != (d, d):
            raise ShapeMismatch(f"base must be square, got {self.base.shape}")
        if self.down.ndim != 2:
            raise ShapeMismatch(f"down must be 2-D, got {self.down.shape}")
        if self.rank < 1 or self.rank > d:
            raise InvalidArgument(f"rank must be in [1, {d}], got {self.rank}")
        if self.alpha <= 0:
            raise InvalidArgument(f"alpha must be positive, got {self.alpha}")
        if self.down.shape != (self.rank, d) or self.up.shape != (d, self.rank):
            raise ShapeMismatch(
                f"adaptor shapes {self.down.shape}/{self.up.shape} do not fit d={d}, r={self.rank}"
            )

    @property
    def dim(self) -> int:
        return int(self.base.shape[0])

    @property
    def rank(self) -> int:
        return int(self.down.shape[0])

    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_weight(self) -> np.ndarray:
        return self.base + self.scaling() * (self.up @ self.down)


def lora_forward(adaptor: LoraAdaptor, x: np.ndarray) -> np.ndarray:
    """y = base @ x + (alpha/rank) * up @ (down @ x); x is a d-vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (adaptor.dim,):
        raise ShapeMismatch(f"x must have shape ({adaptor.dim},), got {x.shape}")
    return adaptor.base @ x + adaptor.scaling() * (adaptor.up @ (adaptor.down @ x))


def alignment_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


# --- model bundle and training ----------------------------------------------


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


@dataclass
class AlignmentModel:
    """Everything that trains: one projection per modality plus the adaptor."""

    projections: dict[Modality, LinearProjection]
    adaptor: LoraAdaptor


def init_model(cfg: TrainConfig) -> AlignmentModel:
    """Seeded init.  Draw order is fixed: projections by modality order,
    then base, then down; changing it would silently change every run."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    projections = {}
    for m in GENERATABLE_MODALITIES:
        rows = cfg.token_count * cfg.d_llm
        weight = rng.normal(0.0, 0.1, size=(rows, cfg.d_enc[m]))
        bias = np.zeros(rows) if cfg.bias else None
        projections[m] = LinearProjection(m, weight, bias, cfg.token_count)
    # Scaled orthogonal base: one singular value everywhere keeps the toy
    # objective well conditioned, so short plain-GD runs actually converge.
    gauss = rng.normal(size=(cfg.d_llm, cfg.d_llm))
    q, _ = np.linalg.qr(gauss)
    base = 4.0 * q
    down = rng.normal(0.0, 0.02, size=(cfg.rank, cfg.d_llm))
    up = np.zeros((cfg.d_llm, cfg.rank))
    return AlignmentModel(projections, LoraAdaptor(base, down, up, cfg.alpha))


def model_forward(model: AlignmentModel, vec: EmbeddingVector) -> np.ndarray:
    """Projection then adapted base, row by row: (token_count, d_llm)."""
    tokens = project(model.projections[vec.modality], vec)
    return tokens @ model.adaptor.effective_weight().T


Batch = list[tuple[EmbeddingVector, np.ndarray]]


def trainable_arrays(model: AlignmentModel) -> list[tuple[str, np.ndarray]]:
    """Live references to every trainable array, in a fixed order.
    The adaptor base is frozen and deliberately absent."""
    out: list[tuple[str, np.ndarray]] = []
    for m in GENERATABLE_MODALITIES:
        proj = model.projections[m]
        out.append((f"proj.{m.value}.weight", proj.weight))
        if proj.bias is not None:
            out.append((f"proj.{m.value}.bias", proj.bias))
    out.append(("lora.down", model.adaptor.down))
    out.append(("lora.up", model.adaptor.up))
    return out


def batch_loss(model: AlignmentModel, batch: Batch) -> float:
    if not batch:
        raise InvalidArgument("batch is empty")
    return float(np.mean([alignment_loss(model_forward(model, v), t) for v, t in batch]))


def backward(model: AlignmentModel, batch: Batch) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch and exact gradients for every trainable array.

    Chain, per sample: tokens H = Wv (+b) reshaped (k, d_llm); output
    Y = H Weff^T with Weff = base + s * up @ down; loss = mean((Y - T)^2).
    """
    if not batch:
        raise InvalidArgument("batch is empty")
    adaptor = model.adaptor
    s = adaptor.scaling()
    w_eff = adaptor.effective_weight()
    n = len(batch)

    grads: dict[str, np.ndarray] = {}
    for key, arr in trainable_arrays(model):
        grads[key] = np.zeros_like(arr)

    total_loss = 0.0
    g_weff = np.zeros_like(w_eff)
    for vec, target in batch:
        proj = model.projections[vec.modality]
        tokens = project(proj, vec)  # (k, d_llm)
        pred = tokens @ w_eff.T
        target = np.asarray(target, dtype=np.float64)
        if pred.shape != target.shape:
            raise ShapeMismatch(f"target shape {target.shape} does not match {pred.shape}")
        resid = pred - target
        total_loss += float(np.mean(resid * resid))
        # d loss / d pred, including both mean normalizations
        g_pred = (2.0 / (n * resid.size)) * resid
        g_weff += g_pred.T @ tokens
        g_tokens = g_pred @ w_eff  # (k, d_llm)
        g_flat = g_tokens.reshape(-1)
        grads[f"proj.{vec.modality.value}.weight"] += np.outer(g_flat, vec.values)
        if proj.bias is not None:
            grads[f"proj.{vec.modality.value}.bias"] += g_flat

    grads["lora.up"] += s * (g_weff @ adaptor.down.T)
    grads["lora.down"] += s * (adaptor.up.T @ g_weff)
    return total_loss / n, grads


def gradient_check(model: AlignmentModel, batch: Batch, epsilon: float = 1e-5) -> dict[str, float]:
    """Max relative error between backward() and central differences,
    per trainable array."""
    _, analytic = backward(model, batch)
    report: dict[str, float] = {}
    for key, arr in trainable_arrays(model):
        worst = 0.0
        flat = arr.reshape(-1)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + epsilon
            up = batch_loss(model, batch)
            flat[i] = kept - epsilon
            down = batch_loss(model, batch)
            flat[i] = kept
            numeric = (up - down) / (2.0 * epsilon)
            a = float(analytic[key].reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        report[key] = worst
    return report


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


@dataclass
class TrainResult:
    model: AlignmentModel
    trace: list[float]  # loss before each step, then the final loss


def train_toy(cfg: TrainConfig, dataset: Batch) -> TrainResult:
    """Plain full-batch gradient descent, deterministic for a given seed."""
    cfg.validate()
    if not dataset:
        raise InvalidArgument("dataset is empty")
    model = init_model(cfg)
    frozen_base = model.adaptor.base.copy()
    trace: list[float] = []
    for _ in range(cfg.steps):
        loss, grads = backward(model, dataset)
        if not np.isfinite(loss):
            raise DivergenceDetected(f"loss became {loss}")
        trace.append(loss)
        for key, arr in trainable_arrays(model):
            arr -= cfg.learning_rate * grads[key]
    final = batch_loss(model, dataset)
    if not np.isfinite(final):
        raise DivergenceDetected(f"loss became {final}")
    trace.append(final)
    assert np.array_equal(model.adaptor.base, frozen_base)
    return TrainResult(model, trace)


def export_trace_csv(trace: list[float], path: str | Path) -> None:
    lines = ["step,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_check_instance(
    seed: int, dim_cap: int = 8, rank_cap: int = 3, samples: int = 6
) -> tuple[TrainConfig, AlignmentModel, Batch]:
    """A small random model plus batch for gradient checking.

    Dims stay tiny so central differences over every scalar are cheap;
    the batch always covers all three modalities."""
    rng = np.random.default_rng(seed)
    d_llm = int(rng.integers(2, dim_cap + 1))
    cfg = TrainConfig(
        d_enc={m: int(rng.integers(2, dim_cap + 1)) for m in GENERATABLE_MODALITIES},
        d_llm=d_llm,
        token_count=int(rng.integers(1, 3)),
        bias=bool(rng.integers(0, 2)),
        rank=int(rng.integers(1, min(rank_cap, d_llm) + 1)),
        alpha=float(rng.uniform(0.5, 4.0)),
        seed=seed,
    )
    model = init_model(cfg)
    # Move the adaptor off its zero init so every parameter sees a
    # generic point, not the B=0 special case.
    model.adaptor.up += rng.normal(0.0, 0.3, size=model.adaptor.up.shape)
    model.adaptor.down += rng.normal(0.0, 0.3, size=model.adaptor.down.shape)
    batch: Batch = []
    for i in range(max(samples, len(GENERATABLE_MODALITIES))):
        modality = GENERATABLE_MODALITIES[i % len(GENERATABLE_MODALITIES)]
        raw = rng.normal(size=cfg.d_enc[modality])
        vec = EmbeddingVector(modality, raw / np.linalg.norm(raw))
        target = rng.normal(size=(cfg.token_count, cfg.d_llm))
        batch.append((vec, target))
    return cfg, model, batch


def make_learnable_dataset(cfg: TrainConfig, n: int, seed: int) -> Batch:
    """Targets produced by a hidden teacher that shares the frozen base,
    so gradient descent from cfg.seed can actually reach a low loss.

    Inputs cycle through the standard basis of each encoder space; that
    keeps the per-modality design matrix near identity, which together
    with the orthogonal base gives a single, predictable decay rate."""
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    student = init_model(cfg)
    rng = np.random.default_rng(seed)
    teacher = {
        m: rng.normal(0.0, 0.6, size=student.projections[m].weight.shape)
        for m in GENERATABLE_MODALITIES
    }
    base_t = student.adaptor.base.T
    batch: Batch = []
    for i in range(n):
        modality = GENERATABLE_MODALITIES[i % len(GENERATABLE_MODALITIES)]
        d = cfg.d_enc[modality]
        values = np.zeros(d)
        values[(i // len(GENERATABLE_MODALITIES)) % d] = 1.0
        vec = EmbeddingVector(modality, values)
        tokens = (teacher[modality] @ values).reshape(cfg.token_count, cfg.d_llm)
        batch.append((vec, tokens @ base_t))
    return batch
