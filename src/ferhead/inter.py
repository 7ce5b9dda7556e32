"""Relation modeling across latents: messages, pairwise weights, aggregation.

Each gated feature is encoded into a relation message by its own bias-free
linear map plus ReLU. Messages form the nodes of a complete undirected graph
whose edge weights are tanh of the pairwise Euclidean distance (distances are
positive, so tanh maps them into [0, 1)); the diagonal is pinned to zero so
no message enhances itself. Aggregating neighbor messages under these weights
gives the graph-side feature, which is blended with the direct gated feature
and summed across latents into the final expression feature.

The distance is computed as sqrt(sum((a-b)^2) + EPS): the true norm has no
gradient at coincident messages, and the epsilon keeps the weights
differentiable everywhere. The weights are a differentiable function of the
messages; gradients flow through them into the encoder weights and upstream.

The squared distances come from a loop over the M(M-1)/2 message pairs, one
(..., D) difference per pair, so no (N, M, M, D) difference tensor is ever
built: memory stays O(N*M*D) and each entry is bitwise the sum a broadcast
difference would give.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .numerics import relu

EPS_NORM = 1e-12


def encode_messages(features: np.ndarray, message_weights: np.ndarray) -> np.ndarray:
    """Message bank for one sample: messages[j] = relu(W[j].T @ features[j])."""
    F = np.asarray(features, dtype=np.float64)
    W = np.asarray(message_weights, dtype=np.float64)
    if F.ndim != 2 or W.ndim != 3 or W.shape[:2] != (F.shape[0], F.shape[1]):
        raise ContractViolation(
            f"encode_messages shape mismatch: weights {W.shape}, features {F.shape}"
        )
    return relu(np.einsum("mde,md->me", W, F))


def encode_messages_batch(feature_batch: np.ndarray, message_weights: np.ndarray) -> np.ndarray:
    """Message banks for a batch: (N, M, D) -> (N, M, D)."""
    F = np.asarray(feature_batch, dtype=np.float64)
    W = np.asarray(message_weights, dtype=np.float64)
    if F.ndim != 3 or W.ndim != 3 or W.shape[:2] != F.shape[1:]:
        raise ContractViolation(
            f"encode_messages_batch shape mismatch: weights {W.shape}, batch {F.shape}"
        )
    pre = np.matmul(F.transpose(1, 0, 2), W).transpose(1, 0, 2)
    return relu(pre)


def pairwise_relation(messages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stabilized pairwise distances and relation weights of message banks.

    (..., M, D) -> two (..., M, M) arrays. Distances are sqrt(sq + EPS_NORM),
    so the diagonal holds sqrt(EPS_NORM); weights are tanh of them, except
    that coincident messages (squared distance exactly 0, the diagonal
    included) weigh exactly 0.
    """
    M = messages.shape[-2]
    sq = np.zeros(messages.shape[:-1] + (M,))
    for j in range(M):
        for m in range(j + 1, M):
            d = messages[..., j, :] - messages[..., m, :]
            sq[..., j, m] = sq[..., m, j] = np.sum(d * d, axis=-1)
    distances = np.sqrt(sq + EPS_NORM)
    omega = np.tanh(distances)
    omega[sq == 0.0] = 0.0
    return distances, omega


def relation_weights(messages: np.ndarray) -> np.ndarray:
    """Pairwise relation weight matrix: tanh(distance) off-diagonal, 0 on it.

    Symmetric with entries in [0, 1) by construction. Coincident messages
    (squared distance exactly 0) map to exactly 0: the epsilon floor exists
    only to keep the norm differentiable, and letting it leak tanh(sqrt(eps))
    into the weights would break the identical-messages-give-zero contract.
    Accepts a single (M, D) bank or a batched (N, M, D) stack.
    """
    g = np.asarray(messages, dtype=np.float64)
    if g.ndim not in (2, 3) or g.shape[-2] < 1:
        raise ContractViolation(f"relation_weights needs (M, D) or (N, M, D), got {g.shape}")
    return pairwise_relation(g)[1]


def aggregate(messages: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Graph-aggregated features: out[j] = sum_m omega[j, m] * messages[m]."""
    g = np.asarray(messages, dtype=np.float64)
    w = np.asarray(omega, dtype=np.float64)
    if g.shape[:-1] != w.shape[:-1] or w.shape[-1] != g.shape[-2]:
        raise ContractViolation(
            f"aggregate shape mismatch: messages {g.shape}, weights {w.shape}"
        )
    return np.matmul(w, g)


def mix(features: np.ndarray, aggregated: np.ndarray, ratio: float) -> np.ndarray:
    """Blend the direct and graph-aggregated features: ratio*f + (1-ratio)*fhat."""
    if not 0.0 <= ratio <= 1.0:
        raise ContractViolation(f"mix ratio must lie in [0, 1], got {ratio}")
    F = np.asarray(features, dtype=np.float64)
    A = np.asarray(aggregated, dtype=np.float64)
    if F.shape != A.shape:
        raise ContractViolation(f"mix shape mismatch: {F.shape} vs {A.shape}")
    return ratio * F + (1.0 - ratio) * A


def reconstruct(mixed: np.ndarray) -> np.ndarray:
    """Expression feature: sum of the blended features over the M latents."""
    Y = np.asarray(mixed, dtype=np.float64)
    if Y.ndim not in (2, 3) or Y.shape[-2] < 1:
        raise ContractViolation(f"reconstruct needs (M, D) or (N, M, D), got {Y.shape}")
    return Y.sum(axis=-2)
