"""Frozen per-sample training math, the reference for modalkit.projection.

This is the code modalkit used while batch_loss and backward walked the
batch one sample at a time and model_forward rebuilt the effective
weight for every sample.  It is kept verbatim so a property can check
that the stacked, per-modality code gives exactly the same loss and
exactly the same gradient arrays, bit for bit.  Do not "fix" it: a
difference between the two changes every training trace and every
gradcheck line.
"""

from __future__ import annotations

import numpy as np

from modalkit.errors import InvalidArgument, ShapeMismatch
from modalkit.projection import (
    AlignmentModel,
    EmbeddingVector,
    alignment_loss,
    project,
    trainable_arrays,
)

Batch = list[tuple[EmbeddingVector, np.ndarray]]


def model_forward(model: AlignmentModel, vec: EmbeddingVector) -> np.ndarray:
    """Projection then adapted base, row by row: (token_count, d_llm)."""
    tokens = project(model.projections[vec.modality], vec)
    return tokens @ model.adaptor.effective_weight().T


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
