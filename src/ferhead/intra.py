"""Regularizers of the per-latent importance weights.

Each latent feature passes through its own sigmoid gate; the L1 norm of the
gate vector (a plain sum, since sigmoid outputs are positive) is that
latent's scalar importance weight, which scales the latent. Those stages run
in `head.forward`. Here, a distribution loss pulls each sample's weight
vector toward a rule-updated center for its class, and a balance loss pulls
the batch-mean weight vector toward the uniform vector 1/M.

Note the deliberate scale mismatch in the balance loss: the weights live in
[0, D) (sum of D sigmoids) while the target coordinates are 1/M. The formula
is implemented verbatim; normalizing the mean vector first is a plausible
alternative reading that is intentionally not applied. Finding, not a change:
over the 40-epoch paper-default run (seed 0) no coordinate of any step's
batch-mean vector falls below 9.7, against 1/M = 0.11, so the loss is
sum(mean) - 1 and its subgradient is the constant +1 vector: a one-signed L1
pull of lambda_balance/N on each of a sample's weights, shrinking them all
alike rather than balancing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass
class ClassCenters:
    """Running per-class centers of the intra-weight vectors, one M-vector each.

    Same rule-update convention as the latent centers: gradient-free,
    zero-initialized, moved toward the class means present in the batch.
    """

    centers: np.ndarray  # (K, M)

    @classmethod
    def zeros(cls, n_classes: int, n_latents: int) -> "ClassCenters":
        return cls(np.zeros((n_classes, n_latents)))

    def update(self, weight_batch: np.ndarray, labels: np.ndarray, rate: float) -> None:
        """Move each class center present in the batch toward its class mean by `rate`.

        Classes absent from the batch are left untouched rather than
        regularized toward stale statistics.
        """
        weight_batch = np.asarray(weight_batch)
        if weight_batch.ndim != 2 or weight_batch.shape[0] < 1:
            raise ContractViolation("class center update needs a non-empty (N, M) batch")
        K = self.centers.shape[0]
        means = per_class_mean_weights(weight_batch, labels, K)
        present = np.bincount(labels, minlength=K) > 0
        self.centers[present] += rate * (means[present] - self.centers[present])


def check_labels(labels: np.ndarray, n_classes: int, n_samples: int) -> None:
    if labels.shape != (n_samples,):
        raise ContractViolation(
            f"labels shape {labels.shape} does not match batch size {n_samples}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ContractViolation(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def distribution_loss(
    weight_batch: np.ndarray, labels: np.ndarray, centers: ClassCenters
) -> float:
    """(1/N) sum_i ||w_i - center[label_i]||^2; gradient flows to w_i only."""
    weight_batch = np.asarray(weight_batch)
    labels = np.asarray(labels)
    if weight_batch.ndim != 2 or weight_batch.shape[0] < 1:
        raise ContractViolation("distribution_loss needs a non-empty (N, M) batch")
    check_labels(labels, centers.centers.shape[0], weight_batch.shape[0])
    diff = weight_batch - centers.centers[labels]
    return float(np.sum(diff * diff) / weight_batch.shape[0])


def distribution_grad(
    weight_batch: np.ndarray, labels: np.ndarray, centers: ClassCenters
) -> np.ndarray:
    """d(distribution)/d(weights): (2/N)(w_i - center[label_i]), shape (N, M)."""
    weight_batch = np.asarray(weight_batch)
    labels = np.asarray(labels)
    return 2.0 / weight_batch.shape[0] * (weight_batch - centers.centers[labels])


def mean_weights(weight_batch: np.ndarray) -> np.ndarray:
    """Batch-mean intra-weight vector, shape (M,)."""
    weight_batch = np.asarray(weight_batch)
    if weight_batch.ndim != 2 or weight_batch.shape[0] < 1:
        raise ContractViolation("mean_weights needs a non-empty (N, M) batch")
    return weight_batch.mean(axis=0)


def uniform_target(n_latents: int, dtype=np.float64) -> np.ndarray:
    """The uniform weight vector [1/M, ..., 1/M]."""
    return np.full(n_latents, 1.0 / n_latents, dtype=dtype)


def balance_loss(mean_w: np.ndarray) -> float:
    """L1 distance between the batch-mean weight vector and the uniform target."""
    mean_w = np.asarray(mean_w)
    return float(np.abs(mean_w - uniform_target(mean_w.shape[0], mean_w.dtype)).sum())


def balance_sign(mean_w: np.ndarray) -> np.ndarray:
    """Subgradient of the balance loss w.r.t. the mean vector: sign, 0 at ties.

    Each sample's weight vector receives this divided by N (the mean carries
    a 1/N factor per sample).
    """
    mean_w = np.asarray(mean_w)
    return np.sign(mean_w - uniform_target(mean_w.shape[0], mean_w.dtype))


def per_class_mean_weights(
    weight_batch: np.ndarray, labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Mean intra-weight vector per class, shape (K, M), in the batch's dtype;
    absent classes get zeros."""
    weight_batch = np.asarray(weight_batch)
    labels = np.asarray(labels)
    check_labels(labels, n_classes, weight_batch.shape[0])
    out = np.zeros((n_classes, weight_batch.shape[1]), dtype=weight_batch.dtype)
    # the classes present, found without np.unique, which would import
    # numpy.ma (through np.ma.is_masked) on its first call
    for k in np.flatnonzero(np.bincount(labels, minlength=n_classes)):
        out[k] = weight_batch[labels == k].mean(axis=0)
    return out
