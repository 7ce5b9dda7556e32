"""head.forward on crafted weight groups, for the per-stage unit tests.

Each stage test checks one field of the forward cache (latents, gates,
weights, scaled, messages, distances, omega, feature, logits) against a loop
helper or a hand-computed value. The cache keeps no pre-activation (the
latent map is checked after its relu) and no per-latent aggregation or
blend: those stages are checked through `feature`, their sum over latents,
which at mix_ratio 0 is the summed aggregation and at mix_ratio 1 the summed
gated features. A test fixes the weight groups its case needs; the others
are drawn from a seeded standard normal.
"""

import numpy as np

from ferhead.head import HeadConfig, ParamGroups, forward


def stage_forward(
    X, n_latents, latent_dim, n_classes=3, input_dim=None, mix_ratio=0.5, seed=0, **groups
):
    """Forward cache of the (N, P) rows X; input_dim defaults to X's width."""
    X = np.asarray(X, dtype=np.float64)
    cfg = HeadConfig(
        input_dim=X.shape[1] if input_dim is None else input_dim,
        latent_dim=latent_dim,
        n_latents=n_latents,
        n_classes=n_classes,
        mix_ratio=mix_ratio,
    )
    M, P, D, K = n_latents, cfg.input_dim, latent_dim, n_classes
    rng = np.random.default_rng(seed)
    shapes = {"decomp": (M, P, D), "gate": (M, D, D), "message": (M, D, D), "classifier": (D, K)}
    drawn = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    drawn.update({name: np.asarray(arr, dtype=np.float64) for name, arr in groups.items()})
    return forward(X, ParamGroups(**drawn), cfg)
