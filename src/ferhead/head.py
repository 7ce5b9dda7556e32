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
  y     = sum_j Y[j]          expression feature, computed as
        = mix*sum_j F[j] + (1-mix)*sum_m c[m] G[m],  c[m] = sum_j omega[j,m]
  logits = Wcls.T y

Joint loss: cls + lc*compact + lb*balance + ld*distribution, with cls the
batch mean of stable cross-entropy. The backward pass below accumulates the
exact reverse-mode gradient of the joint loss through every stage; the two
center banks are rule-updated and receive no gradient by construction.

Every stage computes in the parameters' dtype: training and evaluation hold
float32 groups (see `training.COMPUTE_DTYPE`), while the oracles that check
this module run it on float64 groups.

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
    check_labels,
    distribution_grad,
    distribution_loss,
    mean_weights,
)
from .numerics import (
    SplitMix64,
    empty_aligned,
    init_param_stack,
    init_params,
    relu,
    sigmoid,
)

# `backward` runs its reverse pass on upstream gradients multiplied by
# GRAD_SCALE and returns the four groups divided by it, as loss scaling does
# in mixed-precision training (Micikevicius et al., ICLR 2018).
# A power of two changes no bits of an intermediate that stays normal, and in
# float32 it lifts out of the subnormal range the small gradients that would
# otherwise take the CPU's slow path. Over the 40-epoch paper-default run
# (seed 0), the intermediates that the scale reaches held 2.57M subnormal
# entries unscaled; 2^16 left 17, 2^19 one and 2^20 none, with a largest
# scaled magnitude of 1.1e8 (seed 1: 2^18 left 58, 2^20 none). The
# compactness gradient is subnormal by itself where a latent center has
# decayed toward zero, which no scale of the gradient reaches. An
# intermediate above 3.4e38 / 2^20 ≈ 3.2e32 in true units now overflows,
# and `adam_step` raises the non-finite-gradient TrainingError for it.
GRAD_SCALE = 2.0**20


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
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ContractViolation(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ContractViolation(f"mix_ratio must lie in [0, 1], got {self.mix_ratio}")
        if not 0.0 < self.center_rate <= 1.0:
            raise ContractViolation(f"center_rate must lie in (0, 1], got {self.center_rate}")


@dataclass
class ParamGroups:
    """The four trainable weight groups; also used for gradients and moments.

    decomp (M, P, D), gate (M, D, D), message (M, D, D), classifier (D, K).
    Iteration order is fixed and is part of the checkpoint format.

    Every group is stored in one dense layout, on construction and on every
    later assignment: an array already in it is kept as is, any other is
    copied into it. decomp lives in (P, M, D) memory, so `decomp_matrix()`
    is a (P, M*D) view and forward and backward run the decomposition as one
    GEMM each. Its shape stays (M, P, D), so `decomp[j]` is latent j's map,
    as in the naive reference; checkpoints store it in its (P, M, D) memory
    order. The other groups are C-contiguous. So two groups of the same shape
    ravel in memory order (`ravel(order="K")`) to views whose entries line
    up, which is how `adam_step` and `raise_if_not_finite` walk them without
    copying; `to_vector` and `from_vector` use the C order of the logical
    shapes.
    """

    decomp: np.ndarray
    gate: np.ndarray
    message: np.ndarray
    classifier: np.ndarray

    def __setattr__(self, name: str, arr: np.ndarray) -> None:
        if name != "decomp":
            arr = np.ascontiguousarray(arr)
        elif not arr.transpose(1, 0, 2).flags.c_contiguous:
            M, P, D = arr.shape
            native = np.empty((P, M, D), dtype=arr.dtype).transpose(1, 0, 2)
            native[...] = arr
            arr = native
        super().__setattr__(name, arr)

    def items(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    @property
    def dtype(self) -> np.dtype:
        """The dtype that forward, backward and adam_step compute in."""
        return np.result_type(*(arr for _, arr in self.items()))

    def astype(self, dtype) -> "ParamGroups":
        """The groups cast to `dtype` in their layout; a group already in it is kept.

        An entry that is not finite in `dtype`, a finite float64 beyond the
        float32 range included, raises TrainingError naming its group.
        """
        with np.errstate(over="ignore"):
            cast = ParamGroups(
                **{name: arr.astype(dtype, order="K", copy=False) for name, arr in self.items()}
            )
        cast.raise_if_not_finite(f"in {np.dtype(dtype)}")
        return cast

    def decomp_matrix(self) -> np.ndarray:
        """decomp as one (P, M*D) matrix whose column block j is decomp[j]."""
        M, P, D = self.decomp.shape
        return self.decomp.transpose(1, 0, 2).reshape(P, M * D)

    def zeros_like(self) -> "ParamGroups":
        return ParamGroups(**{name: np.zeros_like(arr) for name, arr in self.items()})

    def copy(self) -> "ParamGroups":
        return ParamGroups(**{name: arr.copy(order="K") for name, arr in self.items()})

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
            flat = arr.ravel(order="K")  # a view; reshape(-1) would copy decomp
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
            latent=LatentCenters.zeros(cfg.n_latents, cfg.latent_dim),
            by_class=ClassCenters.zeros(cfg.n_classes, cfg.n_latents),
        )


@dataclass
class ForwardCache:
    """The intermediates of the batched forward pass that backward reads (each
    ReLU runs in place; no per-latent aggregation or blend is formed)."""

    inputs: np.ndarray        # (N, P)
    latents: np.ndarray       # (N, M, D) after relu
    gates: np.ndarray         # (N, M, D) sigmoid outputs
    weights: np.ndarray       # (N, M) importance weights
    scaled: np.ndarray        # (N, M, D) gated features
    messages: np.ndarray      # (N, M, D) after relu
    distances: np.ndarray     # (N, M, M) stabilized pairwise norms
    omega: np.ndarray         # (N, M, M) relation weights, zero diagonal
    feature: np.ndarray       # (N, D) expression features
    logits: np.ndarray        # (N, K)


@dataclass
class LossBreakdown:
    """The weighted total and the four losses; the training log's loss_* columns."""

    total: float
    cls: float
    compact: float
    balance: float
    distribution: float


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
    return LossBreakdown(
        total=total, cls=cls, compact=compact, balance=balance, distribution=distribution
    )


def empty_cache(N: int, cfg: HeadConfig, dtype) -> ForwardCache:
    """Uninitialized `dtype` buffers for a forward pass over N rows.

    gates, weights and messages are views of latent-major memory ((M, N,
    ...) arrays with the first two axes swapped), so each per-latent matmul
    writes, and the pair loop reads, contiguous (N, D) slabs. The other
    arrays are row-major; latents are, so that the decomposition writes
    them as one (N, M*D) GEMM result. The loss terms and center updates sum
    these arrays in memory order, so the layouts are part of the bits that
    training produces.

    Every buffer comes from `empty_aligned`, so each starts on a 64-byte
    cache line: most forward stages write their result out of place, and
    numpy's element-wise loops write an aligned destination in about half
    the time (see there). The four (N, M, D) arrays are the rows of one
    (4, N*M*D) allocation, each reshaped to the layout above; at paper
    dimensions each row is a whole number of lines, so every row starts on
    one too. numpy asks the kernel for transparent huge pages
    (madvise(MADV_HUGEPAGE)) only on blocks of 4 MiB or more: the one block
    of a 256-row evaluation in float32 (4.7 MB) gets 2 MiB pages, while that
    of a 64-row training batch (1.18 MB), allocated once per epoch, faults
    in 4 KiB pages. On a kernel without transparent huge pages the block
    faults in like separate arrays.
    """
    M, P, D, K = cfg.n_latents, cfg.input_dim, cfg.latent_dim, cfg.n_classes
    block = iter(empty_aligned((4, N * M * D), dtype))

    def rows(*shape: int) -> np.ndarray:
        return empty_aligned((N, *shape), dtype)

    def by_latent(*shape: int) -> np.ndarray:
        return empty_aligned((M, N, *shape), dtype).swapaxes(0, 1)

    def rows_in_block() -> np.ndarray:
        return next(block).reshape(N, M, D)

    def by_latent_in_block() -> np.ndarray:
        return next(block).reshape(M, N, D).swapaxes(0, 1)

    return ForwardCache(
        inputs=rows(P),
        latents=rows_in_block(),
        gates=by_latent_in_block(),
        weights=by_latent(),
        scaled=rows_in_block(),
        messages=by_latent_in_block(),
        distances=rows(M, M),
        omega=rows(M, M),
        feature=rows(D),
        logits=rows(K),
    )


def forward(
    X: np.ndarray,
    params: ParamGroups,
    cfg: HeadConfig,
    out: ForwardCache | None = None,
) -> ForwardCache:
    """Vectorized batch forward pass in the parameters' dtype; returns what backward reads.

    Every intermediate is written into the arrays of `out`, which are
    overwritten, so a caller that passes its previous cache back in must
    first copy whatever it keeps from it. An `out` of exactly N = len(X)
    rows is returned itself. An `out` with more rows serves X through a new
    ForwardCache of views of its first N rows, which is returned, so a
    ragged last batch needs no cache of its own; each latent-major view
    still holds contiguous (N, D) slabs. When `out` is None or has fewer
    rows, a new cache from `empty_cache` is used.
    `inputs` is X narrowed (or copied) to the parameters' dtype. A
    non-finite X is a ContractViolation; a finite X that overflows that
    dtype (beyond ±3.4e38 in float32) is a TrainingError, as a non-finite
    loss is.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != cfg.input_dim:
        raise ContractViolation(
            f"forward expects (N, {cfg.input_dim}) inputs, got {X.shape}"
        )
    N = X.shape[0]
    dtype = params.dtype
    if out is None or len(out.logits) < N:
        c = empty_cache(N, cfg, dtype)
    elif len(out.logits) > N:
        c = ForwardCache(**{f.name: getattr(out, f.name)[:N] for f in fields(out)})
    else:
        c = out
    with np.errstate(over="ignore"):
        np.copyto(c.inputs, X)
    if not np.all(np.isfinite(c.inputs)):
        if not np.all(np.isfinite(X)):
            raise ContractViolation("forward inputs contain non-finite values")
        raise TrainingError(f"forward inputs overflow {dtype}")
    X = c.inputs
    r = cfg.mix_ratio

    def by_latent(a: np.ndarray) -> np.ndarray:
        return a.swapaxes(0, 1)  # (N, M, D) -> (M, N, D)

    np.matmul(X, params.decomp_matrix(), out=c.latents.reshape(N, -1))
    relu(c.latents, out=c.latents)

    np.matmul(by_latent(c.latents), params.gate, out=by_latent(c.gates))
    sigmoid(c.gates, out=c.gates)
    np.sum(c.gates, axis=2, out=c.weights)
    np.multiply(c.weights[:, :, None], c.latents, out=c.scaled)

    np.matmul(by_latent(c.scaled), params.message, out=by_latent(c.messages))
    relu(c.messages, out=c.messages)

    inter.pairwise_relation(c.messages, out=(c.distances, c.omega))

    # y = sum_j (r*F[j] + (1-r)*sum_m omega[j,m] G[m])
    #   = r*sum_j F[j] + sum_m (1-r)*c[m]*G[m],  with c[m] = sum_j omega[j,m]
    np.sum(c.scaled, axis=1, out=c.feature)
    c.feature *= r
    message_weights = (1.0 - r) * c.omega.sum(axis=1)
    c.feature += np.einsum("nm,nmd->nd", message_weights, c.messages)
    np.matmul(c.feature, params.classifier, out=c.logits)
    return c


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-shifted)."""
    z = np.asarray(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean stable cross-entropy over the batch."""
    z = np.asarray(logits)
    labels = np.asarray(labels)
    check_labels(labels, z.shape[1], z.shape[0])
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


def backward(
    cache: ForwardCache,
    labels: np.ndarray,
    params: ParamGroups,
    centers: Centers,
    cfg: HeadConfig,
    cls_weight: float = 1.0,
    out: ParamGroups | None = None,
) -> tuple[ParamGroups, LossBreakdown]:
    """Gradient of the joint loss w.r.t. every parameter group, plus losses.

    cls_weight scales the classification term (1.0 in training; the
    verification harness uses it to isolate individual loss terms). The
    whole batch goes through one reverse pass, so the per-sample
    contributions are reduced inside the matrix kernels.

    Like `forward`'s cache, `out` is a previous call's gradients to be
    overwritten: the returned groups are written into its arrays, which
    saves a fresh 4.7 MB decomp gradient per training step at paper
    dimensions. When `out` is None, new arrays are returned.

    The reverse pass runs in units of 1/GRAD_SCALE (see there) and the
    returned groups are in true units, bitwise those of the same pass with
    GRAD_SCALE 1.0 wherever that pass stays normal. Labels that do not
    match the batch are a ContractViolation, raised by `compute_losses`. A
    non-finite loss raises TrainingError; `adam_step` checks the gradient.
    """
    labels = np.asarray(labels)
    N = cache.logits.shape[0]
    mix_ratio = cfg.mix_ratio

    breakdown = compute_losses(cache, labels, centers, cfg)
    for term in fields(LossBreakdown)[1:]:
        value = getattr(breakdown, term.name)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite {term.name} loss: {value}")

    if out is None:
        out = params.zeros_like()

    probs = softmax(cache.logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(N), labels] = 1.0
    dlogits = (cls_weight / N) * (probs - onehot)
    # float32 makes the probabilities of logits more than 87 below the row's
    # maximum subnormal, and every product they reach in the reverse pass
    # then takes the CPU's slow path: a paper-default epoch had 7% of its
    # dlogits entries subnormal, and its message-stage matmuls ran 3-4x
    # slower. Such entries are flushed to zero, as flush-to-zero hardware
    # modes do: through Adam, a gradient entry below 1.2e-38 moves its
    # parameter by less than 1e-33.
    dlogits[np.abs(dlogits) < np.finfo(dlogits.dtype).tiny] = 0.0
    # the reverse pass runs in units of 1/GRAD_SCALE: the (N, K) and (N, M)
    # injections are scaled in place, the (N, M, D) one through its factor
    dlogits *= GRAD_SCALE

    # The groups come back to true units where that is cheapest. decomp and
    # classifier are each one GEMM over an (N, P) or (N, D) cache operand, so
    # those operands are scaled down instead, and every product is exactly
    # the one the unscaled pass forms (2^-20 times a float32 of magnitude
    # 2^-106 or more is exact). Only gate and message, 1.2 MB of the 3.5 MB
    # of gradients, whose operands are (N, M, D), are multiplied in place.

    # classifier: logits = y @ Wcls
    np.matmul((cache.feature * (1.0 / GRAD_SCALE)).T, dlogits, out=out.classifier)
    dfeature = dlogits @ params.classifier.T

    # reconstruct: y = r*sum_j F[j] + (1-r)*sum_m c[m]*G[m], c[m] = sum_j omega[j, m];
    # every F[j] gets r*dfeature, every G[m] (1-r)*c[m]*dfeature, and every
    # omega[j, m] (1-r)*(G[m] . dfeature), the same for each j
    dscaled = mix_ratio * np.broadcast_to(dfeature[:, None, :], cache.scaled.shape)
    message_weights = (1.0 - mix_ratio) * cache.omega.sum(axis=1)
    dmessages = message_weights[:, :, None] * dfeature[:, None, :]
    domega = (1.0 - mix_ratio) * np.einsum("nmd,nd->nm", cache.messages, dfeature)

    # relation weights: omega = tanh(R) off-diagonal, constant 0 on it
    dR = domega[:, None, :] * (1.0 - cache.omega * cache.omega)
    idx = np.arange(dR.shape[1])
    dR[:, idx, idx] = 0.0
    dS = dR / (2.0 * cache.distances)  # R = sqrt(S + eps) > 0 everywhere
    # S[j, m] = ||G[j] - G[m]||^2; fold gradients of ordered pairs together
    dsym = dS + dS.transpose(0, 2, 1)
    dmessages += 2.0 * (
        dsym.sum(axis=2)[:, :, None] * cache.messages - np.matmul(dsym, cache.messages)
    )

    # messages: G = relu(We.T F), per latent
    dpre_message = dmessages * (cache.messages > 0.0)
    np.matmul(
        cache.scaled.transpose(1, 2, 0), dpre_message.transpose(1, 0, 2),
        out=out.message,
    )
    dscaled += np.matmul(
        dpre_message.transpose(1, 0, 2), params.message.transpose(0, 2, 1)
    ).transpose(1, 0, 2)

    # scale: F = w[:, :, None] * L; the distribution and balance gradients
    # enter at w (balance is a batch statistic: each sample's weight vector
    # carries 1/N)
    dweights_reg = cfg.lambda_distribution * distribution_grad(
        cache.weights, labels, centers.by_class
    ) + (cfg.lambda_balance / N) * balance_sign(mean_weights(cache.weights))
    dweights_reg *= GRAD_SCALE
    dweights = np.einsum("nmd,nmd->nm", dscaled, cache.latents) + dweights_reg
    dlatents = cache.weights[:, :, None] * dscaled

    # importance weights: w = sum_d A; gates: A = sigmoid(Ws.T L)
    dgates = dweights[:, :, None] * (cache.gates * (1.0 - cache.gates))
    np.matmul(
        cache.latents.transpose(1, 2, 0), dgates.transpose(1, 0, 2), out=out.gate
    )
    dlatents += np.matmul(
        dgates.transpose(1, 0, 2), params.gate.transpose(0, 2, 1)
    ).transpose(1, 0, 2)

    dlatents += (cfg.lambda_compact * GRAD_SCALE) * compactness_grad(
        cache.latents, centers.latent
    )

    # decomposition: L = relu(Wd.T x), one (P, M*D) GEMM into decomp's memory
    M, D = dlatents.shape[1:]
    dpre_latent = dlatents * (cache.latents > 0.0)
    np.matmul(
        (cache.inputs * (1.0 / GRAD_SCALE)).T, dpre_latent.reshape(N, M * D),
        out=out.decomp_matrix(),
    )
    for arr in (out.gate, out.message):
        arr *= 1.0 / GRAD_SCALE
    return out, breakdown
