"""Numerics: embeddings, MVEC files, projections, LoRA, gradients, training."""

from __future__ import annotations

import itertools
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import training_reference as reference
from conftest import oracle_fnv1a64, tamper_backward
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
from modalkit import projection
from modalkit.meta import GENERATABLE_MODALITIES, Modality
from modalkit.rng import SplitMix64
from modalkit.projection import (
    AlignmentModel,
    EmbeddingVector,
    LinearProjection,
    LoraAdaptor,
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
    project,
    random_check_instance,
    train_toy,
    trainable_arrays,
    write_embedding,
)
from modalkit.sizing import TrainConfig, param_count, uniform_enc_dims


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


# --- the attachment hash memo -------------------------------------------------


@pytest.fixture
def empty_memo(monkeypatch) -> dict:
    monkeypatch.setattr(projection, "_fnv_memo", {})
    return projection._fnv_memo


def test_fnv_memo_hit_returns_the_hash_without_hashing_again(empty_memo, monkeypatch):
    data = SplitMix64(9).bytes(5000)
    first = encode_stub(data, Modality.IMAGE, 16, seed=0)
    assert list(empty_memo.values()) == [oracle_fnv1a64(data)]

    def refuse(_data):
        raise AssertionError("a memoized content was hashed again")

    monkeypatch.setattr(projection, "fnv1a64", refuse)
    assert projection._memo_fnv1a64(data) == oracle_fnv1a64(data)
    again = encode_stub(data, Modality.IMAGE, 16, seed=0)
    assert np.array_equal(first.values, again.values)


def test_fnv_memo_never_grows_past_its_bound(empty_memo):
    bound = projection._FNV_MEMO_MAX
    for i in range(2 * bound + 1):
        data = i.to_bytes(4, "little")
        assert projection._memo_fnv1a64(data) == oracle_fnv1a64(data)
        assert 1 <= len(empty_memo) <= bound


def test_fnv_memo_holds_its_bound_and_values_under_threads(empty_memo, monkeypatch):
    # A small bound makes every thread fill and empty the memo often.
    monkeypatch.setattr(projection, "_FNV_MEMO_MAX", 8)
    inputs = [i.to_bytes(2, "little") for i in range(64)]
    expected = {data: oracle_fnv1a64(data) for data in inputs}
    wrong, sizes = [], []

    def work(offset: int) -> None:
        for j in range(3000):
            data = inputs[(offset + j) % len(inputs)]
            if projection._memo_fnv1a64(data) != expected[data]:
                wrong.append(data)
            sizes.append(len(empty_memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(sizes) == 6 * 3000 and max(sizes) <= 8


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
    with pytest.raises(ShapeMismatch, match="weight must be 2-D"):
        LinearProjection(Modality.IMAGE, np.zeros(3))
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


def test_gradient_check_reports_inf_for_one_nan_gradient_entry(monkeypatch):
    # max() drops NaN, so this entry once left lora.up reading about 1e-7.
    model, batch = pinned_instance()
    real = projection.backward

    def backward(model, batch):
        loss, grads = real(model, batch)
        grads["lora.up"][0, 0] = np.nan
        return loss, grads

    monkeypatch.setattr(projection, "backward", backward)
    report = gradient_check(model, batch)
    assert report["lora.up"] == np.inf
    assert all(np.isfinite(v) for k, v in report.items() if k != "lora.up")


def test_gradient_check_reports_inf_for_a_non_finite_loss():
    # A NaN target makes both the analytic and the numeric side NaN.
    model, batch = pinned_instance()
    vec, target = batch[0]
    batch[0] = (vec, np.full_like(target, np.nan))
    report = gradient_check(model, batch)
    assert set(report.values()) == {np.inf}


@pytest.mark.parametrize("epsilon", [0.0, -1e-5, np.nan, np.inf])
def test_gradient_check_rejects_bad_epsilon(epsilon):
    # 0.0 once raised a bare ZeroDivisionError and NaN reported all zeros.
    model, batch = pinned_instance()
    with pytest.raises(InvalidArgument, match="epsilon must be a finite number > 0"):
        gradient_check(model, batch, epsilon=epsilon)


def test_random_check_instances_cover_modalities():
    for seed in range(5):
        cfg, model, batch = random_check_instance(seed)
        assert cfg.d_llm <= 8 and cfg.rank <= 3
        assert {vec.modality for vec, _ in batch} == set(GENERATABLE_MODALITIES)
        report = gradient_check(model, batch)
        assert set(report) == {key for key, _ in trainable_arrays(model)}


# --- the per-sample reference ----------------------------------------------------------


def assert_matches_reference(model, batch):
    assert batch_loss(model, batch) == reference.batch_loss(model, batch)
    loss, grads = backward(model, batch)
    ref_loss, ref_grads = reference.backward(model, batch)
    assert loss == ref_loss
    assert list(grads) == list(ref_grads)
    for key, grad in grads.items():
        assert grad.shape == ref_grads[key].shape, key
        # the bytes, so the sign of every zero must agree too
        assert grad.tobytes() == ref_grads[key].tobytes(), key
    for vec, _ in batch:
        assert np.array_equal(model_forward(model, vec), reference.model_forward(model, vec))


# Seeds 0 and 8 build a model without bias, 2 and 4 one with bias (4 also
# has two tokens per input).  Batch indices cycle image, audio, video, so
# picks [0, 3] hold only images.
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 12),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=12),
)
@example(seed=0, samples=1, picks=[1])  # one sample, no bias
@example(seed=2, samples=1, picks=[2])  # one sample, bias
@example(seed=4, samples=6, picks=[0, 3])  # a batch missing two modalities
@example(seed=8, samples=12, picks=list(range(12)))  # n >= 8, no bias
@example(seed=4, samples=12, picks=[5, 1, 9, 0, 0, 7, 2, 11, 3])  # n >= 8, out of order, bias
def test_stacked_training_math_matches_per_sample_reference(seed, samples, picks):
    _, model, batch = random_check_instance(seed, samples=samples)
    assert_matches_reference(model, [batch[i % len(batch)] for i in picks])


def test_single_scalar_shapes_match_reference():
    # With d_llm = d_enc = 1 every per-sample gradient is one number, the
    # shape where a numpy sum over the batch axis turns pairwise.
    cfg = TrainConfig(d_enc=uniform_enc_dims(1), d_llm=1, rank=1, bias=True, seed=3)
    model = init_model(cfg)
    model.adaptor.up += 0.7
    rng = np.random.default_rng(5)
    batch = []
    for i in range(40):
        vec = EmbeddingVector(GENERATABLE_MODALITIES[i % 2], [rng.choice([-1.0, 1.0])])
        batch.append((vec, rng.normal(size=(1, 1))))
    assert_matches_reference(model, batch)


def test_training_errors_match_reference():
    _, model, batch = random_check_instance(3, samples=6)
    vec, target = batch[4]
    wrong_target = batch[:4] + [(vec, target[:, :-1])] + batch[5:]
    longer = EmbeddingVector(vec.modality, np.ones(vec.dim + 1) / np.sqrt(vec.dim + 1))
    wrong_dim = batch[:2] + [(longer, target)]
    for bad in (wrong_target, wrong_dim):
        for fn in (batch_loss, backward, reference.batch_loss, reference.backward):
            with pytest.raises(ShapeMismatch):
                fn(model, bad)


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


def test_train_detects_divergence_after_the_last_step():
    # one step: its own loss is finite, and the update overflows the final loss
    cfg = toy_cfg(learning_rate=1e200, steps=1)
    dataset = make_learnable_dataset(cfg, 6, seed=4)
    with np.errstate(all="ignore"), pytest.raises(DivergenceDetected, match="^loss became nan$"):
        train_toy(cfg, dataset)


def test_train_rejects_empty_dataset():
    with pytest.raises(InvalidArgument):
        train_toy(toy_cfg(), [])


def test_train_benchmark_config_final_loss_is_pinned():
    # The train_gradcheck benchmark's train_toy call, pinned exactly.
    cfg = TrainConfig(
        d_enc=uniform_enc_dims(32), d_llm=64, rank=4, alpha=8.0, learning_rate=0.05, steps=100, seed=7
    )
    result = train_toy(cfg, make_learnable_dataset(cfg, n=48, seed=7))
    assert result.trace[-1] == 3.5104372753349367


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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"d_enc": {**uniform_enc_dims(4), Modality.AUDIO: 0}}, r"d_enc\[audio\] must be >= 1"),
        ({"d_llm": 0}, "d_llm must be >= 1"),
        ({"token_count": 0}, "token_count must be >= 1"),
        ({"rank": 0}, "rank must be >= 1, got 0"),
        ({"alpha": 0.0}, "alpha must be positive"),
        ({"learning_rate": -0.1}, "learning_rate must be >= 0"),
        ({"steps": -1}, "steps must be >= 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_train_config_refuses_each_field(overrides, message):
    fields = {"d_enc": uniform_enc_dims(4), "d_llm": 4, "rank": 2, **overrides}
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        TrainConfig(**fields).validate()


def test_make_learnable_dataset_refuses_no_samples():
    with pytest.raises(InvalidArgument, match="n must be >= 1"):
        make_learnable_dataset(toy_cfg(), 0, seed=0)
