"""Feature decomposition: the latent centers and the compactness loss.

Each of the M decomposition matrices projects the input through a bias-free
linear map followed by ReLU; that stage runs in `head.forward`, as one GEMM
over all M latents. The latent features are regularized toward rule-updated
running centers by a compactness loss; the centers live outside the gradient
graph and move toward batch means by a fixed rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass
class LatentCenters:
    """Running centers of the M latent features, one D-vector each.

    Centers are updated by rule only (never by the optimizer): each update
    moves them toward the batch mean of the corresponding latent feature by
    `rate`. Zero-initialized so the first batch pulls them to data scale.
    """

    centers: np.ndarray  # (M, D)

    @classmethod
    def zeros(cls, n_latents: int, latent_dim: int) -> "LatentCenters":
        return cls(np.zeros((n_latents, latent_dim)))

    def update(self, latent_batch: np.ndarray, rate: float) -> None:
        """One mini-batch step: c_j -= rate * mean_i(c_j - l_ij).

        Mutates the centers; callers must serialize this with the optimizer
        step (one update per step, after the gradient step).
        """
        latent_batch = _checked_batch(latent_batch, self, "center update")
        self.centers -= rate * (self.centers - latent_batch.mean(axis=0))


def _checked_batch(latent_batch, centers: LatentCenters, what: str) -> np.ndarray:
    latent_batch = np.asarray(latent_batch)
    if latent_batch.ndim != 3 or latent_batch.shape[0] < 1:
        raise ContractViolation(f"{what} needs a non-empty (N, M, D) batch")
    if latent_batch.shape[1:] != centers.centers.shape:
        raise ContractViolation(
            f"{what} shape mismatch: batch {latent_batch.shape}, "
            f"centers {centers.centers.shape}"
        )
    return latent_batch


def compactness_loss(latent_batch: np.ndarray, centers: LatentCenters) -> float:
    """Mean over the batch of the summed squared distances to the centers.

    (1/N) sum_i sum_j ||l_ij - c_j||^2. Centers receive no gradient.
    """
    latent_batch = _checked_batch(latent_batch, centers, "compactness_loss")
    diff = latent_batch - centers.centers[None, :, :]
    return float(np.sum(diff * diff) / latent_batch.shape[0])


def compactness_grad(latent_batch: np.ndarray, centers: LatentCenters) -> np.ndarray:
    """d(compactness)/d(latents): (2/N)(l_ij - c_j), shape (N, M, D)."""
    latent_batch = np.asarray(latent_batch)
    return 2.0 / latent_batch.shape[0] * (latent_batch - centers.centers[None, :, :])
