"""Relation modeling across latents: the pairwise relation weights.

Each gated feature is encoded into a relation message by its own bias-free
linear map plus ReLU. Messages form the nodes of a complete undirected graph
whose edge weights are tanh of the pairwise Euclidean distance (distances are
positive, so tanh maps them into [0, 1) in exact arithmetic; numpy's float32
tanh returns exactly 1.0 from a distance of 10, which at paper defaults
every off-diagonal pair exceeds, because importance weights near D/2 scale
the latents before the message map); the diagonal is pinned to zero so no
message enhances itself. Aggregating neighbor messages under these weights
gives the graph-side feature, which is blended with the direct gated feature
and summed across latents into the final expression feature. The encoding
and that sum run in `head.forward`, which forms it from the weights' column
sums without any per-latent aggregation; this module computes the weights.

The distance is computed as sqrt(sum((a-b)^2) + EPS): the true norm has no
gradient at coincident messages, and the epsilon keeps the weights
differentiable everywhere. The weights are a differentiable function of the
messages; gradients flow through them into the encoder weights and upstream.

The squared distances come from a loop over the M(M-1)/2 message pairs.
Each pair's difference is formed directly into one (..., D) scratch, then
squared and summed by one dot-product call (np.vecdot), so no (N, M, M, D)
difference tensor is built and the scratch is O(N*D). Float32 distances are
within 2^-21 relative of the float64 formula on the same messages, float64
ones within 4 ulp. The squares come from differences, not from norms
(|a|^2 + |b|^2 - 2a.b), so nothing cancels: coincident messages square to
exactly 0, and messages one ulp apart keep a positive weight.
"""

from __future__ import annotations

import numpy as np

from .numerics import empty_aligned

EPS_NORM = 1e-12


def pairwise_relation(
    messages: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stabilized pairwise distances and relation weights of message banks.

    (..., M, D) -> two (..., M, M) arrays, written into out=(distances,
    omega) if given. Distances are sqrt(sq + EPS_NORM), so the diagonal
    holds sqrt(EPS_NORM); weights are tanh of them, except that coincident
    messages (squared distance exactly 0, the diagonal included) weigh
    exactly 0.
    """
    M = messages.shape[-2]
    if out is None:
        shape = messages.shape[:-1] + (M,)
        out = (np.empty(shape, messages.dtype), np.empty(shape, messages.dtype))
    distances, omega = out
    sq = distances  # the squared distances, until their roots replace them
    idx = np.arange(M)
    sq[..., idx, idx] = 0.0
    d = empty_aligned(messages.shape[:-2] + messages.shape[-1:], messages.dtype)
    latent = [messages[..., j, :] for j in range(M)]
    for j in range(M):
        for m in range(j + 1, M):
            np.subtract(latent[j], latent[m], out=d)
            sq[..., m, j] = np.vecdot(d, d, out=sq[..., j, m])
    coincident = sq == 0.0
    sq += EPS_NORM
    np.sqrt(sq, out=distances)
    np.tanh(distances, out=omega)
    omega[coincident] = 0.0
    return distances, omega

