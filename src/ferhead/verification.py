"""Finite-difference verification of the analytic backward pass.

Each check builds a random desk-scale instance, computes the analytic
gradient for one objective (a single loss term in isolation, or the joint
loss), and compares it against central finite differences of the same
objective evaluated through the forward pass only. The two routes share no
differentiation code.

Instances are drawn with small-magnitude parameters and validated to sit
away from the non-smooth points of the head (ReLU kinks, coincident
messages, balance-loss sign flips); instances that land too close are
redrawn from a derived seed. Per parameter group the reported error is

    max|analytic - fd| / max(max|analytic|, max|fd|, 1e-12)

which stays meaningful when a group's gradient is uniformly tiny.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import ContractViolation, OracleError
from .head import Centers, HeadConfig, ParamGroups, backward, compute_losses, forward
from .numerics import SplitMix64, finite_diff_grad

# mode -> (cls_weight, lambda_compact, lambda_balance, lambda_distribution);
# isolated terms use unit weight for well-conditioned differences, and the
# joint mode weighs them with the HeadConfig default lambdas.
MODE_WEIGHTS = {
    "classification": (1.0, 0.0, 0.0, 0.0),
    "compactness": (0.0, 1.0, 0.0, 0.0),
    "balance": (0.0, 0.0, 1.0, 0.0),
    "distribution": (0.0, 0.0, 0.0, 1.0),
    "joint": (
        1.0,
        HeadConfig.lambda_compact,
        HeadConfig.lambda_balance,
        HeadConfig.lambda_distribution,
    ),
}
LOSS_MODES = tuple(MODE_WEIGHTS)

# the instance: dimensions P, D, M, K, rows, the distance every non-smooth
# point keeps, and the draws tried per seed
INPUT_DIM, LATENT_DIM, N_LATENTS, N_CLASSES = 16, 8, 3, 4
BATCH = 5
MARGIN = 1e-3
MAX_ATTEMPTS = 100


@dataclass
class CheckInstance:
    inputs: np.ndarray
    labels: np.ndarray
    params: ParamGroups
    centers: Centers
    cfg: HeadConfig


def build_instance(seed: int) -> CheckInstance:
    """Random instance with all non-smooth points at least MARGIN away."""
    cfg = HeadConfig(
        input_dim=INPUT_DIM, latent_dim=LATENT_DIM, n_latents=N_LATENTS, n_classes=N_CLASSES
    )
    for attempt in range(MAX_ATTEMPTS):
        rng = SplitMix64((seed * 0x9E3779B9 + attempt * 0x100000001B3) & (2**64 - 1))
        params = ParamGroups(
            decomp=rng.uniform(-0.1, 0.1, (N_LATENTS, INPUT_DIM, LATENT_DIM)),
            gate=rng.uniform(-0.1, 0.1, (N_LATENTS, LATENT_DIM, LATENT_DIM)),
            message=rng.uniform(-0.1, 0.1, (N_LATENTS, LATENT_DIM, LATENT_DIM)),
            classifier=rng.uniform(-0.1, 0.1, (LATENT_DIM, N_CLASSES)),
        )
        X = rng.uniform(-1.0, 1.0, (BATCH, INPUT_DIM))
        labels = np.array([rng.randint_below(N_CLASSES) for _ in range(BATCH)])
        centers = Centers.zeros(cfg)
        centers.latent.centers[...] = rng.uniform(-0.1, 0.1, centers.latent.centers.shape)
        centers.by_class.centers[...] = rng.uniform(
            0.0, LATENT_DIM / 2.0, centers.by_class.centers.shape
        )
        inst = CheckInstance(X, labels, params, centers, cfg)
        if _well_separated(inst):
            return inst
    raise OracleError(f"no kink-free instance found for seed {seed}")


def _well_separated(inst: CheckInstance) -> bool:
    cache = forward(inst.inputs, inst.params, inst.cfg)
    if np.abs(inst.inputs @ inst.params.decomp_matrix()).min() < MARGIN:
        return False
    pre_message = np.matmul(cache.scaled.swapaxes(0, 1), inst.params.message)
    if np.abs(pre_message).min() < MARGIN:
        return False
    m = inst.cfg.n_latents
    off_diag = ~np.eye(m, dtype=bool)
    if cache.distances[:, off_diag].min() < 10 * MARGIN:
        return False
    wbar = cache.weights.mean(axis=0)
    if np.abs(wbar - 1.0 / m).min() < MARGIN:
        return False
    return True


def _component_losses(theta: np.ndarray, inst: CheckInstance) -> np.ndarray:
    params = inst.params.from_vector(theta)
    cache = forward(inst.inputs, params, inst.cfg)
    losses = compute_losses(cache, inst.labels, inst.centers, inst.cfg)
    return np.array(astuple(losses)[1:])  # the four components, without the total


def fd_component_grads(inst: CheckInstance) -> np.ndarray:
    """Central-difference gradients of all four loss components at once.

    Returns an array of shape (4, n_params): one coordinate sweep serves
    every loss mode.
    """
    return finite_diff_grad(
        lambda theta: _component_losses(theta, inst), inst.params.to_vector(), 1e-5
    )


def group_errors(analytic: ParamGroups, fd_vector: np.ndarray) -> dict[str, float]:
    """Per-group relative error between analytic and finite-difference gradients."""
    fd = analytic.from_vector(fd_vector)
    errors = {}
    for name, a in analytic.items():
        f = getattr(fd, name)
        scale = max(np.abs(a).max(), np.abs(f).max(), 1e-12)
        errors[name] = float(np.abs(a - f).max() / scale)
    return errors


def check_instance(inst: CheckInstance) -> dict[str, dict[str, float]]:
    """Per-mode, per-group relative errors for one instance."""
    fd_components = fd_component_grads(inst)
    cache = forward(inst.inputs, inst.params, inst.cfg)
    results: dict[str, dict[str, float]] = {}
    for mode, weights in MODE_WEIGHTS.items():
        cls_w, l_compact, l_balance, l_dist = weights
        mode_cfg = replace(
            inst.cfg,
            lambda_compact=l_compact,
            lambda_balance=l_balance,
            lambda_distribution=l_dist,
        )
        analytic, _ = backward(
            cache, inst.labels, inst.params, inst.centers, mode_cfg, cls_weight=cls_w
        )
        # in component order: a reordered sum can change the printed digits
        fd_vec = sum(w * f for w, f in zip(weights, fd_components))
        results[mode] = group_errors(analytic, fd_vec)
    return results


def run_suite(
    seeds: range, tolerance: float = 1e-4
) -> tuple[dict[str, float], dict[str, str], bool]:
    """Gradient check over many seeded instances.

    An empty `seeds`, or a tolerance that is not a finite number > 0, is an
    error raised before any instance runs.

    Returns (worst error per group, worst mode per group, passed).
    """
    if len(seeds) == 0:
        raise ContractViolation(f"gradient check needs at least one instance, got {seeds}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ContractViolation(
            f"gradient check tolerance must be a finite number > 0, got {tolerance}"
        )
    worst: dict[str, float] = {}
    worst_mode: dict[str, str] = {}
    for seed in seeds:
        inst = build_instance(seed)
        results = check_instance(inst)
        for mode, errors in results.items():
            for group, err in errors.items():
                previous = worst.get(group, -1.0)  # a NaN error is kept as the worst
                if err > previous or (math.isnan(err) and not math.isnan(previous)):
                    worst[group] = err
                    worst_mode[group] = f"{mode} (seed {seed})"
    passed = all(err < tolerance for err in worst.values())
    return worst, worst_mode, passed
