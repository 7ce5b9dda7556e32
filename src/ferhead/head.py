"""The full classification head: forward pass, joint loss, analytic backward.

Pipeline per sample (all linear maps bias-free):

  x (P,)                      basic feature
  L[j]  = relu(Wd[j].T x)     M latent features            (decomposition)
  A[j]  = sigmoid(Ws[j].T L[j])   gate vectors             (intra relation)
  w[j]  = sum(A[j])           scalar importance weights
  F[j]  = w[j] * L[j]         gated features
  G[j]  = relu(We[j].T F[j])  relation messages            (inter relation)
  omega = tanh(pairdist(G)),  zero diagonal
  Fh[j] = sum_m omega[j,m] G[m]
  Y[j]  = mix*F[j] + (1-mix)*Fh[j]
  y     = sum_j Y[j]          expression feature
  logits = Wcls.T y

Joint loss: cls + lc*compact + lb*balance + ld*distribution, with cls the
batch mean of stable cross-entropy. The backward pass below accumulates the
exact reverse-mode gradient of the joint loss through every stage; the two
center banks are rule-updated and receive no gradient by construction.

All loss terms carrying a 1/N batch factor inject it at their gradient
source; the balance term is a batch-level statistic, so its per-sample
gradient carries the same 1/N explicitly (documented to avoid double
counting when reducing per-sample contributions).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import inter
from .decomposition import LatentCenters, compactness_grad, compactness_loss
from .errors import ContractViolation, TrainingError
from .intra import (
    ClassCenters,
    balance_loss,
    balance_sign,
    distribution_grad,
    distribution_loss,
    mean_weights,
)
from .numerics import (
    SplitMix64,
    init_param_stack,
    init_params,
    relu,
    sigmoid,
)


@dataclass
class HeadConfig:
    """Dimensions, loss weights, and the blend/center-update knobs."""

    input_dim: int = 512       # basic feature size P
    latent_dim: int = 128      # latent/expression feature size D
    n_latents: int = 9         # number of latent features M
    n_classes: int = 7         # expression classes K
    lambda_compact: float = 1e-4
    lambda_balance: float = 1.0
    lambda_distribution: float = 1e-4
    mix_ratio: float = 0.5     # share of the gated feature in the blend
    center_rate: float = 0.5   # rule-update rate for both center banks

    def validate(self) -> None:
        for name in ("input_dim", "latent_dim", "n_latents", "n_classes"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lambda_compact", "lambda_balance", "lambda_distribution"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ContractViolation(f"mix_ratio must lie in [0, 1], got {self.mix_ratio}")
        if not 0.0 < self.center_rate <= 1.0:
            raise ContractViolation(f"center_rate must lie in (0, 1], got {self.center_rate}")


@dataclass
class ParamGroups:
    """The four trainable weight groups; also used for gradients and moments.

    decomp (M, P, D), gate (M, D, D), message (M, D, D), classifier (D, K).
    Iteration order is fixed and is part of the checkpoint format.
    """

    decomp: np.ndarray
    gate: np.ndarray
    message: np.ndarray
    classifier: np.ndarray

    def items(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def zeros_like(self) -> "ParamGroups":
        return ParamGroups(**{name: np.zeros_like(arr) for name, arr in self.items()})

    def copy(self) -> "ParamGroups":
        return ParamGroups(**{name: arr.copy() for name, arr in self.items()})

    def to_vector(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.items()])

    def from_vector(self, vec: np.ndarray) -> "ParamGroups":
        out = {}
        offset = 0
        for name, arr in self.items():
            out[name] = vec[offset : offset + arr.size].reshape(arr.shape).copy()
            offset += arr.size
        if offset != vec.size:
            raise ContractViolation(
                f"vector length {vec.size} does not match parameter count {offset}"
            )
        return ParamGroups(**out)

    def raise_if_not_finite(self, context: str) -> None:
        for name, arr in self.items():
            flat = arr.reshape(-1)
            # a finite sum of squares proves every entry finite; only a sum
            # that overflowed or met a NaN or inf needs the entry-wise scan
            with np.errstate(over="ignore"):
                if np.isfinite(np.dot(flat, flat)):
                    continue
            if not np.all(np.isfinite(arr)):
                raise TrainingError(f"non-finite values in {name} {context}")


def init_model_params(cfg: HeadConfig, rng: SplitMix64) -> ParamGroups:
    """Kaiming-uniform initialization of all four groups, in fixed rng order."""
    cfg.validate()
    P, D, M, K = cfg.input_dim, cfg.latent_dim, cfg.n_latents, cfg.n_classes
    return ParamGroups(
        decomp=init_param_stack(M, (P, D), rng),
        gate=init_param_stack(M, (D, D), rng),
        message=init_param_stack(M, (D, D), rng),
        classifier=init_params((D, K), rng),
    )


@dataclass
class Centers:
    """Both rule-updated center banks (gradient-free)."""

    latent: LatentCenters
    by_class: ClassCenters

    @classmethod
    def zeros(cls, cfg: HeadConfig) -> "Centers":
        return cls(
            latent=LatentCenters.zeros(cfg.n_latents, cfg.latent_dim, cfg.center_rate),
            by_class=ClassCenters.zeros(cfg.n_classes, cfg.n_latents, cfg.center_rate),
        )


@dataclass
class ForwardCache:
    """Every intermediate of the batched forward pass, kept for backward."""

    inputs: np.ndarray        # (N, P)
    pre_latent: np.ndarray    # (N, M, D) before relu
    latents: np.ndarray       # (N, M, D)
    gates: np.ndarray         # (N, M, D) sigmoid outputs
    weights: np.ndarray       # (N, M) importance weights
    scaled: np.ndarray        # (N, M, D) gated features
    pre_message: np.ndarray   # (N, M, D) before relu
    messages: np.ndarray      # (N, M, D)
    distances: np.ndarray     # (N, M, M) stabilized pairwise norms
    omega: np.ndarray         # (N, M, M) relation weights, zero diagonal
    aggregated: np.ndarray    # (N, M, D)
    mixed: np.ndarray         # (N, M, D)
    feature: np.ndarray       # (N, D) expression features
    logits: np.ndarray        # (N, K)


@dataclass
class LossBreakdown:
    """The four component losses and their weighted total."""

    cls: float
    compact: float
    balance: float
    distribution: float
    total: float


def joint_loss(
    cls: float, compact: float, balance: float, distribution: float, cfg: HeadConfig
) -> LossBreakdown:
    """Assemble the weighted total from precomputed component losses."""
    total = (
        cls
        + cfg.lambda_compact * compact
        + cfg.lambda_balance * balance
        + cfg.lambda_distribution * distribution
    )
    return LossBreakdown(cls, compact, balance, distribution, total)


def empty_cache(N: int, cfg: HeadConfig) -> ForwardCache:
    """Uninitialized buffers for a forward pass over N rows.

    pre_latent, gates, weights, pre_message and messages are views of
    latent-major memory ((M, N, ...) arrays with the first two axes
    swapped), so each per-latent matmul writes, and the pair loop reads,
    contiguous (N, D) slabs; the other arrays are row-major. The loss terms
    and center updates sum these arrays in memory order, so the layouts are
    part of the bits that training produces.
    """
    M, P, D, K = cfg.n_latents, cfg.input_dim, cfg.latent_dim, cfg.n_classes

    def rows(*shape: int) -> np.ndarray:
        return np.empty((N, *shape))

    def by_latent(*shape: int) -> np.ndarray:
        return np.empty((M, N, *shape)).swapaxes(0, 1)

    return ForwardCache(
        inputs=rows(P),
        pre_latent=by_latent(D),
        latents=rows(M, D),
        gates=by_latent(D),
        weights=by_latent(),
        scaled=rows(M, D),
        pre_message=by_latent(D),
        messages=by_latent(D),
        distances=rows(M, M),
        omega=rows(M, M),
        aggregated=rows(M, D),
        mixed=rows(M, D),
        feature=rows(D),
        logits=rows(K),
    )


def forward(
    X: np.ndarray,
    params: ParamGroups,
    cfg: HeadConfig,
    out: ForwardCache | None = None,
) -> ForwardCache:
    """Vectorized batch forward pass; returns all intermediates.

    Every intermediate is written into the arrays of `out`, which is
    overwritten and returned, so a caller that passes its previous cache
    back in must first copy whatever it keeps from it. When `out` is None
    or sized for another row count, a new cache from `empty_cache` is
    used. `inputs` refers to X itself, not a copy.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.input_dim:
        raise ContractViolation(
            f"forward expects (N, {cfg.input_dim}) inputs, got {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ContractViolation("forward inputs contain non-finite values")
    N = X.shape[0]
    c = out if out is not None and len(out.logits) == N else empty_cache(N, cfg)
    c.inputs = X
    r = cfg.mix_ratio

    def by_latent(a: np.ndarray) -> np.ndarray:
        return a.swapaxes(0, 1)  # (N, M, D) -> (M, N, D)

    np.matmul(X, params.decomp, out=by_latent(c.pre_latent))
    relu(c.pre_latent, out=c.latents)

    np.matmul(by_latent(c.latents), params.gate, out=by_latent(c.gates))
    sigmoid(c.gates, out=c.gates)
    np.sum(c.gates, axis=2, out=c.weights)
    np.multiply(c.weights[:, :, None], c.latents, out=c.scaled)

    np.matmul(by_latent(c.scaled), params.message, out=by_latent(c.pre_message))
    relu(c.pre_message, out=c.messages)

    inter.pairwise_relation(c.messages, out=(c.distances, c.omega))

    np.matmul(c.omega, c.messages, out=c.aggregated)
    # mixed = r*scaled + (1-r)*aggregated, one latent at a time so that the
    # (N, D) feature buffer, written only afterwards, holds the r*scaled term
    for mixed, scaled, aggregated in zip(
        by_latent(c.mixed), by_latent(c.scaled), by_latent(c.aggregated)
    ):
        np.multiply(scaled, r, out=c.feature)
        np.multiply(aggregated, 1.0 - r, out=mixed)
        mixed += c.feature
    np.sum(c.mixed, axis=1, out=c.feature)
    np.matmul(c.feature, params.classifier, out=c.logits)
    return c


def epn_logits(feature: np.ndarray, classifier: np.ndarray) -> np.ndarray:
    """Class logits from an expression feature: classifier.T @ y, no bias.

    Accepts a single (D,) feature or a batched (N, D) stack.
    """
    y = np.asarray(feature, dtype=np.float64)
    W = np.asarray(classifier, dtype=np.float64)
    if W.ndim != 2 or y.shape[-1] != W.shape[0]:
        raise ContractViolation(
            f"epn_logits shape mismatch: feature {y.shape}, classifier {W.shape}"
        )
    return y @ W


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-shifted)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Stable -log softmax(logits)[label] for one sample."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ContractViolation(f"cross_entropy expects a logit vector, got {z.shape}")
    if not 0 <= label < z.shape[0]:
        raise ContractViolation(f"label {label} out of range [0, {z.shape[0]})")
    shifted = z - z.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean stable cross-entropy over the batch."""
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= z.shape[1]):
        raise ContractViolation(
            f"labels must lie in [0, {z.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(z.shape[0]), labels]
    return float(np.mean(log_norm - picked))


def compute_losses(
    cache: ForwardCache, labels: np.ndarray, centers: Centers, cfg: HeadConfig
) -> LossBreakdown:
    """All four component losses plus the weighted total for one batch."""
    cls = batch_cross_entropy(cache.logits, labels)
    compact = compactness_loss(cache.latents, centers.latent)
    balance = balance_loss(mean_weights(cache.weights))
    distribution = distribution_loss(cache.weights, labels, centers.by_class)
    return joint_loss(cls, compact, balance, distribution, cfg)


def _chain_backward(
    cache: ForwardCache,
    dlogits: np.ndarray,
    dlatents_extra: np.ndarray,
    dweights_extra: np.ndarray,
    params: ParamGroups,
    cfg: HeadConfig,
) -> ParamGroups:
    """Reverse accumulation through the head for given upstream gradients.

    dlogits carries the classification-loss gradient (already scaled by any
    batch factor); dlatents_extra and dweights_extra inject the regularizer
    gradients at the latent and importance-weight nodes respectively.
    """
    mix_ratio = cfg.mix_ratio

    # classifier: logits = y @ Wcls
    g_classifier = cache.feature.T @ dlogits
    dfeature = dlogits @ params.classifier.T

    # reconstruct: y = sum_j mixed[j]  ->  every j gets dfeature
    # mix: mixed = r*F + (1-r)*Fhat
    dmixed = np.broadcast_to(dfeature[:, None, :], cache.mixed.shape)
    dscaled = mix_ratio * dmixed
    daggregated = (1.0 - mix_ratio) * dmixed

    # aggregate: Fhat[j] = sum_m omega[j, m] G[m]
    domega = np.matmul(daggregated, cache.messages.transpose(0, 2, 1))
    dmessages = np.matmul(cache.omega.transpose(0, 2, 1), daggregated)

    # relation weights: omega = tanh(R) off-diagonal, constant 0 on it
    dR = domega * (1.0 - cache.omega * cache.omega)
    idx = np.arange(dR.shape[1])
    dR[:, idx, idx] = 0.0
    dS = dR / (2.0 * cache.distances)  # R = sqrt(S + eps) > 0 everywhere
    # S[j, m] = ||G[j] - G[m]||^2; fold gradients of ordered pairs together
    dsym = dS + dS.transpose(0, 2, 1)
    dmessages += 2.0 * (
        dsym.sum(axis=2)[:, :, None] * cache.messages - np.matmul(dsym, cache.messages)
    )

    # messages: G = relu(We.T F), per latent
    dpre_message = dmessages * (cache.pre_message > 0.0)
    g_message = np.matmul(
        cache.scaled.transpose(1, 2, 0), dpre_message.transpose(1, 0, 2)
    )
    dscaled += np.matmul(
        dpre_message.transpose(1, 0, 2), params.message.transpose(0, 2, 1)
    ).transpose(1, 0, 2)

    # scale: F = w[:, :, None] * L
    dweights = np.einsum("nmd,nmd->nm", dscaled, cache.latents) + dweights_extra
    dlatents = cache.weights[:, :, None] * dscaled

    # importance weights: w = sum_d A; gates: A = sigmoid(Ws.T L)
    dgates = dweights[:, :, None] * (cache.gates * (1.0 - cache.gates))
    g_gate = np.matmul(cache.latents.transpose(1, 2, 0), dgates.transpose(1, 0, 2))
    dlatents += np.matmul(
        dgates.transpose(1, 0, 2), params.gate.transpose(0, 2, 1)
    ).transpose(1, 0, 2)

    dlatents += dlatents_extra

    # decomposition: L = relu(Wd.T x)
    dpre_latent = dlatents * (cache.pre_latent > 0.0)
    g_decomp = np.matmul(cache.inputs.T, dpre_latent.transpose(1, 0, 2))

    return ParamGroups(
        decomp=g_decomp, gate=g_gate, message=g_message, classifier=g_classifier
    )


def backward(
    cache: ForwardCache,
    labels: np.ndarray,
    params: ParamGroups,
    centers: Centers,
    cfg: HeadConfig,
    cls_weight: float = 1.0,
) -> tuple[ParamGroups, LossBreakdown]:
    """Gradient of the joint loss w.r.t. every parameter group, plus losses.

    cls_weight scales the classification term (1.0 in training; the
    verification harness uses it to isolate individual loss terms). The
    whole batch goes through one reverse pass, so the per-sample
    contributions are reduced inside the matrix kernels.
    """
    labels = np.asarray(labels)
    N = cache.logits.shape[0]
    if labels.shape != (N,):
        raise ContractViolation(f"labels shape {labels.shape} does not match batch {N}")

    breakdown = compute_losses(cache, labels, centers, cfg)
    for term, value in (
        ("classification", breakdown.cls),
        ("compactness", breakdown.compact),
        ("balance", breakdown.balance),
        ("distribution", breakdown.distribution),
    ):
        if not np.isfinite(value):
            raise TrainingError(f"non-finite {term} loss: {value}")

    probs = softmax(cache.logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(N), labels] = 1.0
    dlogits = (cls_weight / N) * (probs - onehot)

    dlatents_extra = cfg.lambda_compact * compactness_grad(cache.latents, centers.latent)
    dweights_extra = cfg.lambda_distribution * distribution_grad(
        cache.weights, labels, centers.by_class
    )
    # balance is a batch statistic: each sample's weight vector carries 1/N
    dweights_extra = dweights_extra + (cfg.lambda_balance / N) * balance_sign(
        mean_weights(cache.weights)
    )

    grads = _chain_backward(cache, dlogits, dlatents_extra, dweights_extra, params, cfg)

    grads.raise_if_not_finite(
        f"gradient (losses: cls={breakdown.cls:.6g}, compact={breakdown.compact:.6g}, "
        f"balance={breakdown.balance:.6g}, distribution={breakdown.distribution:.6g})"
    )
    return grads, breakdown
