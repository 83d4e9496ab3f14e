"""Numerics: embeddings, MVEC files, projections, LoRA, gradients, training."""

from __future__ import annotations

import itertools
import struct

import numpy as np
import pytest

from conftest import tamper_backward
from modalkit.errors import (
    BadMagic,
    DimMismatch,
    DivergenceDetected,
    EmptyInput,
    InvalidArgument,
    ModalityMismatch,
    NotNormalized,
    ShapeMismatch,
)
from modalkit.meta import GENERATABLE_MODALITIES, Modality
from modalkit.projection import (
    AlignmentModel,
    EmbeddingVector,
    LinearProjection,
    LoraAdaptor,
    TrainConfig,
    alignment_loss,
    backward,
    batch_loss,
    encode_stub,
    export_trace_csv,
    gradient_check,
    init_model,
    load_embedding,
    lora_forward,
    make_learnable_dataset,
    model_forward,
    param_count,
    project,
    random_check_instance,
    train_toy,
    trainable_arrays,
    uniform_enc_dims,
    write_embedding,
)


def unit(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr / np.linalg.norm(arr)


# --- EmbeddingVector / encode_stub -------------------------------------------


def test_embedding_requires_unit_norm():
    EmbeddingVector(Modality.IMAGE, [1.0, 0.0])
    with pytest.raises(NotNormalized):
        EmbeddingVector(Modality.IMAGE, [1.0, 1.0])
    with pytest.raises(ShapeMismatch):
        EmbeddingVector(Modality.IMAGE, [[1.0, 0.0]])
    with pytest.raises(ShapeMismatch):
        EmbeddingVector(Modality.IMAGE, [])


def test_encode_stub_purity_and_norm():
    a = encode_stub(b"payload", Modality.AUDIO, 32, seed=5)
    b = encode_stub(b"payload", Modality.AUDIO, 32, seed=5)
    assert np.array_equal(a.values, b.values)
    assert abs(np.linalg.norm(a.values) - 1.0) <= 1e-6
    assert a.modality is Modality.AUDIO and a.dim == 32


def test_encode_stub_distinguishes_inputs():
    base = encode_stub(b"payload", Modality.AUDIO, 32, seed=5).values
    assert not np.array_equal(base, encode_stub(b"payloae", Modality.AUDIO, 32, 5).values)
    assert not np.array_equal(base, encode_stub(b"payload", Modality.VIDEO, 32, 5).values)
    assert not np.array_equal(base, encode_stub(b"payload", Modality.AUDIO, 32, 6).values)


def test_encode_stub_rejects_bad_args():
    with pytest.raises(EmptyInput):
        encode_stub(b"", Modality.IMAGE, 8, 0)
    with pytest.raises(InvalidArgument):
        encode_stub(b"x", Modality.IMAGE, 0, 0)
    with pytest.raises(InvalidArgument):
        encode_stub(b"x", Modality.TEXT, 8, 0)


def test_encode_stub_outputs_spread_out():
    # 100 random inputs at dim 256: nearly all pairs should be close to
    # orthogonal.
    rng = np.random.default_rng(0)
    vectors = [
        encode_stub(rng.bytes(16), Modality.IMAGE, 256, seed=0).values for _ in range(100)
    ]
    cosines = [
        abs(float(np.dot(a, b))) for a, b in itertools.combinations(vectors, 2)
    ]
    close_pairs = sum(1 for c in cosines if c >= 0.5)
    assert close_pairs <= len(cosines) * 0.01


# --- MVEC files -----------------------------------------------------------------


def test_mvec_round_trip_exact_for_float32_exact_vector(tmp_path):
    path = tmp_path / "v.mvec"
    vec = EmbeddingVector(Modality.AUDIO, [1.0, 0.0, 0.0, 0.0])
    write_embedding(vec, path)
    loaded = load_embedding(path)
    assert loaded.modality is Modality.AUDIO
    assert np.array_equal(loaded.values, vec.values)


def test_mvec_round_trip_dyadic_exact(tmp_path):
    path = tmp_path / "v.mvec"
    vec = EmbeddingVector(Modality.VIDEO, [0.5, -0.5, 0.5, 0.5])
    write_embedding(vec, path)
    assert np.array_equal(load_embedding(path).values, vec.values)


def test_mvec_round_trip_general_within_f32(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(10):
        vec = EmbeddingVector(Modality.IMAGE, unit(rng.normal(size=17)))
        path = tmp_path / f"v{i}.mvec"
        write_embedding(vec, path)
        loaded = load_embedding(path)
        assert abs(np.linalg.norm(loaded.values) - 1.0) <= 1e-6
        assert np.max(np.abs(loaded.values - vec.values)) < 1e-6


def test_mvec_header_layout(tmp_path):
    path = tmp_path / "v.mvec"
    write_embedding(EmbeddingVector(Modality.AUDIO, [0.5, 0.5, 0.5, 0.5]), path)
    blob = path.read_bytes()
    # magic, version=1, modality code audio=1, dim=4, then 4 little-endian f32
    assert blob[:4] == b"MVEC"
    version, code, dim = struct.unpack("<BBI", blob[4:10])
    assert (version, code, dim) == (1, 1, 4)
    assert len(blob) == 10 + 4 * 4
    assert struct.unpack("<4f", blob[10:]) == (0.5, 0.5, 0.5, 0.5)


def test_mvec_bad_magic(tmp_path):
    path = tmp_path / "v.mvec"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(BadMagic):
        load_embedding(path)
    path.write_bytes(b"MV")
    with pytest.raises(BadMagic):
        load_embedding(path)


def test_mvec_bad_version_and_code(tmp_path):
    path = tmp_path / "v.mvec"
    path.write_bytes(b"MVEC" + struct.pack("<BBI", 9, 0, 1) + struct.pack("<f", 1.0))
    with pytest.raises(BadMagic):
        load_embedding(path)
    path.write_bytes(b"MVEC" + struct.pack("<BBI", 1, 7, 1) + struct.pack("<f", 1.0))
    with pytest.raises(BadMagic):
        load_embedding(path)


def test_mvec_dim_mismatch(tmp_path):
    path = tmp_path / "v.mvec"
    path.write_bytes(b"MVEC" + struct.pack("<BBI", 1, 0, 3) + struct.pack("<2f", 1.0, 0.0))
    with pytest.raises(DimMismatch):
        load_embedding(path)


def test_mvec_not_normalized_beyond_repair(tmp_path):
    path = tmp_path / "v.mvec"
    path.write_bytes(b"MVEC" + struct.pack("<BBI", 1, 0, 2) + struct.pack("<2f", 1.5, 0.0))
    with pytest.raises(NotNormalized):
        load_embedding(path)


def test_mvec_small_drift_is_repaired(tmp_path):
    path = tmp_path / "v.mvec"
    path.write_bytes(b"MVEC" + struct.pack("<BBI", 1, 0, 2) + struct.pack("<2f", 1.0005, 0.0))
    loaded = load_embedding(path)
    assert abs(np.linalg.norm(loaded.values) - 1.0) <= 1e-9


# --- project ----------------------------------------------------------------------


def test_project_identity_weight():
    vec = EmbeddingVector(Modality.IMAGE, unit(np.arange(1.0, 7.0)))
    proj = LinearProjection(Modality.IMAGE, np.eye(6))
    out = project(proj, vec)
    assert out.shape == (1, 6)
    assert np.array_equal(out[0], vec.values)


def test_project_zero_weight_bias_broadcast():
    vec = EmbeddingVector(Modality.IMAGE, [1.0, 0.0, 0.0])
    proj = LinearProjection(Modality.IMAGE, np.zeros((4, 3)), bias=np.full(4, 2.5))
    assert np.array_equal(project(proj, vec), np.full((1, 4), 2.5))


def test_project_matches_brute_force_loops():
    rng = np.random.default_rng(11)
    weight = rng.normal(size=(16, 8))
    vec = EmbeddingVector(Modality.VIDEO, unit(rng.normal(size=8)))
    out = project(LinearProjection(Modality.VIDEO, weight), vec)
    expected = [
        sum(weight[r, c] * vec.values[c] for c in range(8)) for r in range(16)
    ]
    assert np.allclose(out.reshape(-1), expected, rtol=0, atol=1e-12)


def test_project_token_blocks():
    rng = np.random.default_rng(2)
    weight = rng.normal(size=(6, 4))  # k=2 tokens of d_llm=3
    vec = EmbeddingVector(Modality.IMAGE, unit(rng.normal(size=4)))
    out = project(LinearProjection(Modality.IMAGE, weight, token_count=2), vec)
    assert out.shape == (2, 3)
    flat = weight @ vec.values
    assert np.array_equal(out[0], flat[:3])
    assert np.array_equal(out[1], flat[3:])


def test_project_mismatches():
    vec = EmbeddingVector(Modality.IMAGE, [1.0, 0.0, 0.0])
    with pytest.raises(ModalityMismatch):
        project(LinearProjection(Modality.AUDIO, np.eye(3)), vec)
    with pytest.raises(ShapeMismatch):
        project(LinearProjection(Modality.IMAGE, np.eye(4)), vec)
    with pytest.raises(ShapeMismatch):
        LinearProjection(Modality.IMAGE, np.zeros((5, 3)), token_count=2)
    with pytest.raises(ShapeMismatch):
        LinearProjection(Modality.IMAGE, np.zeros((4, 3)), bias=np.zeros(3))


# --- LoRA ---------------------------------------------------------------------------


def test_lora_zero_up_is_transparent_bitwise():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(6, 6))
    adaptor = LoraAdaptor(base, rng.normal(size=(2, 6)), np.zeros((6, 2)), alpha=8.0)
    for _ in range(20):
        x = rng.normal(size=6)
        assert np.array_equal(lora_forward(adaptor, x), base @ x)


def test_lora_worked_example():
    adaptor = LoraAdaptor(
        np.zeros((2, 2)),
        np.array([[1.0, 0.0]]),
        np.array([[2.0], [3.0]]),
        alpha=1.0,
    )
    assert np.array_equal(lora_forward(adaptor, np.array([1.0, 1.0])), np.array([2.0, 3.0]))


def test_lora_linearity():
    rng = np.random.default_rng(5)
    adaptor = LoraAdaptor(
        rng.normal(size=(5, 5)),
        rng.normal(size=(2, 5)),
        rng.normal(size=(5, 2)),
        alpha=3.0,
    )
    x = rng.normal(size=5)
    once, twice = lora_forward(adaptor, x), lora_forward(adaptor, 2.0 * x)
    assert np.max(np.abs(twice - 2.0 * once)) <= 1e-12 * np.max(np.abs(twice))


def test_lora_matches_effective_weight():
    rng = np.random.default_rng(6)
    adaptor = LoraAdaptor(
        rng.normal(size=(4, 4)),
        rng.normal(size=(3, 4)),
        rng.normal(size=(4, 3)),
        alpha=2.0,
    )
    x = rng.normal(size=4)
    assert np.allclose(lora_forward(adaptor, x), adaptor.effective_weight() @ x, atol=1e-12)


def test_lora_shape_checks():
    assert LoraAdaptor(np.eye(3), np.zeros((2, 3)), np.zeros((3, 2)), 1.0).rank == 2
    with pytest.raises(ShapeMismatch):
        LoraAdaptor(np.zeros((3, 2)), np.zeros((1, 3)), np.zeros((3, 1)), 1.0)
    with pytest.raises(ShapeMismatch):
        LoraAdaptor(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 1)), 1.0)
    with pytest.raises(InvalidArgument):
        LoraAdaptor(np.zeros((3, 3)), np.zeros((4, 3)), np.zeros((3, 4)), 1.0)
    with pytest.raises(InvalidArgument):
        LoraAdaptor(np.zeros((3, 3)), np.zeros((0, 3)), np.zeros((3, 0)), 1.0)
    with pytest.raises(InvalidArgument):
        LoraAdaptor(np.zeros((3, 3)), np.zeros((1, 3)), np.zeros((3, 1)), 0.0)
    with pytest.raises(ShapeMismatch):
        LoraAdaptor(np.zeros((3, 3)), np.zeros((1, 3)), np.zeros((3, 2)), 1.0)
    with pytest.raises(ShapeMismatch):
        LoraAdaptor(np.zeros((3, 3)), np.zeros((1, 2)), np.zeros((3, 1)), 1.0)
    with pytest.raises(ShapeMismatch):
        lora_forward(
            LoraAdaptor(np.eye(3), np.zeros((1, 3)), np.zeros((3, 1)), 1.0),
            np.zeros(4),
        )


# --- loss -----------------------------------------------------------------------------


def test_alignment_loss_zero_iff_equal():
    pred = np.arange(6.0).reshape(2, 3)
    assert alignment_loss(pred, pred.copy()) == 0.0
    assert alignment_loss(pred, pred + 1.0) == 1.0


def test_alignment_loss_matches_brute_sum():
    rng = np.random.default_rng(7)
    pred, target = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    brute = sum(
        (pred[i, j] - target[i, j]) ** 2 for i in range(3) for j in range(4)
    ) / 12.0
    assert abs(alignment_loss(pred, target) - brute) <= 1e-12


def test_alignment_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        alignment_loss(np.zeros((2, 2)), np.zeros((2, 3)))


# --- gradients -----------------------------------------------------------------------


def finite_difference_grads(model: AlignmentModel, batch, epsilon: float = 1e-6):
    """Independent central-difference oracle over every trainable scalar."""
    grads = {}
    for key, arr in trainable_arrays(model):
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + epsilon
            up = batch_loss(model, batch)
            flat[i] = kept - epsilon
            down = batch_loss(model, batch)
            flat[i] = kept
            gflat[i] = (up - down) / (2.0 * epsilon)
        grads[key] = grad
    return grads


def pinned_instance():
    """The documented check case: d_enc=5, d_llm=7, r=2, all modalities."""
    cfg = TrainConfig(d_enc=uniform_enc_dims(5), d_llm=7, rank=2, alpha=2.0, seed=13)
    model = init_model(cfg)
    rng = np.random.default_rng(99)
    model.adaptor.up += rng.normal(0.0, 0.2, size=model.adaptor.up.shape)
    batch = []
    for i in range(6):
        modality = GENERATABLE_MODALITIES[i % 3]
        batch.append(
            (
                EmbeddingVector(modality, unit(rng.normal(size=5))),
                rng.normal(size=(1, 7)),
            )
        )
    return model, batch


def test_backward_matches_independent_fd_oracle():
    model, batch = pinned_instance()
    loss, analytic = backward(model, batch)
    assert abs(loss - batch_loss(model, batch)) <= 1e-12
    numeric = finite_difference_grads(model, batch)
    assert set(analytic) == set(numeric)
    for key in analytic:
        denom = np.maximum(np.abs(analytic[key]), np.abs(numeric[key]))
        rel = np.abs(analytic[key] - numeric[key]) / np.maximum(denom, 1e-6)
        assert float(rel.max()) < 1e-4, key


def test_backward_zero_up_means_zero_down_gradient():
    cfg = TrainConfig(d_enc=uniform_enc_dims(4), d_llm=5, rank=2, seed=0)
    model = init_model(cfg)  # up starts at zero
    rng = np.random.default_rng(1)
    batch = [
        (EmbeddingVector(m, unit(rng.normal(size=4))), rng.normal(size=(1, 5)))
        for m in GENERATABLE_MODALITIES
    ]
    _, grads = backward(model, batch)
    assert np.array_equal(grads["lora.down"], np.zeros_like(model.adaptor.down))
    assert not np.array_equal(grads["lora.up"], np.zeros_like(model.adaptor.up))


def test_backward_zero_residual_means_zero_gradients():
    model, batch = pinned_instance()
    perfect = [(vec, model_forward(model, vec)) for vec, _ in batch]
    loss, grads = backward(model, perfect)
    assert loss == 0.0
    for key, grad in grads.items():
        assert np.array_equal(grad, np.zeros_like(grad)), key


def test_backward_requires_nonempty_batch():
    model, _ = pinned_instance()
    with pytest.raises(InvalidArgument):
        backward(model, [])
    with pytest.raises(InvalidArgument):
        batch_loss(model, [])


def test_gradient_check_agrees_with_oracle_and_catches_tampering(monkeypatch):
    model, batch = pinned_instance()
    clean = gradient_check(model, batch)
    assert max(clean.values()) < 1e-4
    tamper_backward(monkeypatch, 1e-2)
    tampered = gradient_check(model, batch)
    assert max(tampered.values()) > 1e-3


def test_random_check_instances_cover_modalities():
    for seed in range(5):
        cfg, model, batch = random_check_instance(seed)
        assert cfg.d_llm <= 8 and cfg.rank <= 3
        assert {vec.modality for vec, _ in batch} == set(GENERATABLE_MODALITIES)
        report = gradient_check(model, batch)
        assert set(report) == {key for key, _ in trainable_arrays(model)}


# --- parameter accounting ---------------------------------------------------------------


def test_param_count_documented_values():
    toy = TrainConfig(d_enc=uniform_enc_dims(32), d_llm=64, rank=4)
    assert param_count(toy) == 3 * (64 * 32) + 2 * 4 * 64 == 6656
    full = TrainConfig(d_enc=uniform_enc_dims(1024), d_llm=4096, rank=32)
    assert param_count(full) == 3 * 4096 * 1024 + 2 * 32 * 4096 == 12_845_056


def test_param_count_includes_bias_and_tokens():
    cfg = TrainConfig(d_enc=uniform_enc_dims(3), d_llm=4, token_count=2, bias=True, rank=1)
    # per modality: k*d_llm*d_enc + k*d_llm = 24 + 8; lora: 2*1*4
    assert param_count(cfg) == 3 * (24 + 8) + 8


def test_param_count_rejects_zero_rank():
    with pytest.raises(InvalidArgument):
        param_count(TrainConfig(d_enc=uniform_enc_dims(4), d_llm=4, rank=0))


def test_param_count_equals_gradient_receiving_scalars():
    for seed in range(6):
        cfg, model, batch = random_check_instance(seed, dim_cap=6)
        _, grads = backward(model, batch)
        instrumented = sum(g.size for g in grads.values())
        assert instrumented == param_count(cfg)


# --- training ----------------------------------------------------------------------------


def toy_cfg(**overrides) -> TrainConfig:
    fields = dict(
        d_enc=uniform_enc_dims(8),
        d_llm=12,
        rank=2,
        alpha=8.0,
        learning_rate=0.05,
        steps=40,
        seed=7,
    )
    fields.update(overrides)
    return TrainConfig(**fields)


def test_train_learnable_dataset_converges():
    cfg = toy_cfg(steps=200)
    dataset = make_learnable_dataset(cfg, 24, seed=7)
    result = train_toy(cfg, dataset)
    assert len(result.trace) == cfg.steps + 1
    assert result.trace[-1] < 0.1 * result.trace[0]


def test_train_zero_learning_rate_is_constant():
    cfg = toy_cfg(learning_rate=0.0, steps=10)
    dataset = make_learnable_dataset(cfg, 6, seed=1)
    trace = train_toy(cfg, dataset).trace
    assert len(set(trace)) == 1


def test_train_is_deterministic():
    cfg = toy_cfg(steps=25)
    dataset = make_learnable_dataset(cfg, 9, seed=3)
    first = train_toy(cfg, dataset).trace
    second = train_toy(cfg, dataset).trace
    assert first == second


def test_train_keeps_base_frozen():
    cfg = toy_cfg(steps=15)
    dataset = make_learnable_dataset(cfg, 6, seed=2)
    result = train_toy(cfg, dataset)
    assert np.array_equal(result.model.adaptor.base, init_model(cfg).adaptor.base)


def test_train_detects_divergence():
    cfg = toy_cfg(learning_rate=1e6, steps=50)
    dataset = make_learnable_dataset(cfg, 6, seed=4)
    # the run is expected to overflow on its way to the non-finite check
    with np.errstate(all="ignore"), pytest.raises(DivergenceDetected):
        train_toy(cfg, dataset)


def test_train_rejects_empty_dataset():
    with pytest.raises(InvalidArgument):
        train_toy(toy_cfg(), [])


def test_export_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    export_trace_csv([1.0, 0.5, 0.25], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1:] == ["0,1.0", "1,0.5", "2,0.25"]


def test_train_config_validation():
    with pytest.raises(InvalidArgument):
        TrainConfig(d_enc={Modality.IMAGE: 4}, d_llm=4).validate()
    with pytest.raises(InvalidArgument):
        TrainConfig(d_enc=uniform_enc_dims(4), d_llm=4, rank=9).validate()
