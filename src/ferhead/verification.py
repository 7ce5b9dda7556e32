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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, OracleError
from .head import (
    Centers,
    HeadConfig,
    ParamGroups,
    backward,
    compute_losses,
    forward,
)
from .numerics import SplitMix64, finite_diff_grad

LOSS_MODES = ("classification", "compactness", "balance", "distribution", "joint")

# (cls_weight, lambda_compact, lambda_balance, lambda_distribution) per mode;
# isolated terms use unit weight for well-conditioned differences.
def _mode_weights(mode: str, joint: HeadConfig) -> tuple[float, float, float, float]:
    table = {
        "classification": (1.0, 0.0, 0.0, 0.0),
        "compactness": (0.0, 1.0, 0.0, 0.0),
        "balance": (0.0, 0.0, 1.0, 0.0),
        "distribution": (0.0, 0.0, 0.0, 1.0),
        "joint": (
            1.0,
            joint.lambda_compact,
            joint.lambda_balance,
            joint.lambda_distribution,
        ),
    }
    return table[mode]


@dataclass
class CheckInstance:
    inputs: np.ndarray
    labels: np.ndarray
    params: ParamGroups
    centers: Centers
    cfg: HeadConfig


def build_instance(
    seed: int,
    input_dim: int = 16,
    latent_dim: int = 8,
    n_latents: int = 3,
    n_classes: int = 4,
    batch: int = 5,
    margin: float = 1e-3,
    max_attempts: int = 100,
) -> CheckInstance:
    """Random instance with all non-smooth points at least `margin` away."""
    cfg = HeadConfig(
        input_dim=input_dim,
        latent_dim=latent_dim,
        n_latents=n_latents,
        n_classes=n_classes,
    )
    for attempt in range(max_attempts):
        rng = SplitMix64((seed * 0x9E3779B9 + attempt * 0x100000001B3) & (2**64 - 1))
        params = ParamGroups(
            decomp=rng.uniform(-0.1, 0.1, (n_latents, input_dim, latent_dim)),
            gate=rng.uniform(-0.1, 0.1, (n_latents, latent_dim, latent_dim)),
            message=rng.uniform(-0.1, 0.1, (n_latents, latent_dim, latent_dim)),
            classifier=rng.uniform(-0.1, 0.1, (latent_dim, n_classes)),
        )
        X = rng.uniform(-1.0, 1.0, (batch, input_dim))
        labels = np.array([rng.randint_below(n_classes) for _ in range(batch)])
        centers = Centers.zeros(cfg)
        centers.latent.centers[...] = rng.uniform(-0.1, 0.1, centers.latent.centers.shape)
        centers.by_class.centers[...] = rng.uniform(
            0.0, latent_dim / 2.0, centers.by_class.centers.shape
        )
        inst = CheckInstance(X, labels, params, centers, cfg)
        if _well_separated(inst, margin):
            return inst
    raise OracleError(f"no kink-free instance found for seed {seed}")


def _well_separated(inst: CheckInstance, margin: float) -> bool:
    cache = forward(inst.inputs, inst.params, inst.cfg)
    if np.abs(inst.inputs @ inst.params.decomp_matrix()).min() < margin:
        return False
    pre_message = np.matmul(cache.scaled.swapaxes(0, 1), inst.params.message)
    if np.abs(pre_message).min() < margin:
        return False
    m = inst.cfg.n_latents
    off_diag = ~np.eye(m, dtype=bool)
    if cache.distances[:, off_diag].min() < 10 * margin:
        return False
    wbar = cache.weights.mean(axis=0)
    if np.abs(wbar - 1.0 / m).min() < margin:
        return False
    return True


def _component_losses(theta: np.ndarray, inst: CheckInstance) -> np.ndarray:
    params = inst.params.from_vector(theta)
    cache = forward(inst.inputs, params, inst.cfg)
    losses = compute_losses(cache, inst.labels, inst.centers, inst.cfg)
    return np.array([losses.cls, losses.compact, losses.balance, losses.distribution])


def fd_component_grads(inst: CheckInstance, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradients of all four loss components at once.

    Returns an array of shape (4, n_params): one coordinate sweep serves
    every loss mode.
    """
    return finite_diff_grad(
        lambda theta: _component_losses(theta, inst), inst.params.to_vector(), h
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


def check_instance(
    inst: CheckInstance, inject_sign_bug: str | None = None
) -> dict[str, dict[str, float]]:
    """Per-mode, per-group relative errors for one instance.

    The joint mode weighs the terms with the HeadConfig default lambdas.
    inject_sign_bug flips the named group's analytic gradient — a negative
    control that must make the check fail loudly for that group.
    """
    fd_components = fd_component_grads(inst)
    cache = forward(inst.inputs, inst.params, inst.cfg)
    results: dict[str, dict[str, float]] = {}
    for mode in LOSS_MODES:
        cls_w, l_compact, l_balance, l_dist = _mode_weights(mode, HeadConfig())
        mode_cfg = replace(
            inst.cfg,
            lambda_compact=l_compact,
            lambda_balance=l_balance,
            lambda_distribution=l_dist,
        )
        analytic, _ = backward(
            cache, inst.labels, inst.params, inst.centers, mode_cfg, cls_weight=cls_w
        )
        if inject_sign_bug is not None:
            setattr(analytic, inject_sign_bug, -getattr(analytic, inject_sign_bug))
        fd_vec = (
            cls_w * fd_components[0]
            + l_compact * fd_components[1]
            + l_balance * fd_components[2]
            + l_dist * fd_components[3]
        )
        results[mode] = group_errors(analytic, fd_vec)
    return results


def run_suite(
    seeds: range, tolerance: float = 1e-4, inject_sign_bug: str | None = None
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
        results = check_instance(inst, inject_sign_bug=inject_sign_bug)
        for mode, errors in results.items():
            for group, err in errors.items():
                previous = worst.get(group, -1.0)  # a NaN error is kept as the worst
                if err > previous or (math.isnan(err) and not math.isnan(previous)):
                    worst[group] = err
                    worst_mode[group] = f"{mode} (seed {seed})"
    passed = all(err < tolerance for err in worst.values())
    return worst, worst_mode, passed
