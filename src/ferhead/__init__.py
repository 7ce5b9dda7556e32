"""Facial-expression classification head with analytic training.

Decomposes backbone features into action-aware latent features, weights them
by gated importance, relates them over a complete message graph, and
reconstructs an expression feature for a bias-free linear classifier. Four
losses (cross-entropy, compactness, balance, distribution) train the head
end-to-end with a hand-written reverse-mode backward pass that is verified
against finite differences.
"""

from .datasets import FeatureDataset, SynthSpec, generate, load_bin, load_csv, make_synth_spec, save_bin, save_csv
from .head import (
    Centers,
    ForwardCache,
    HeadConfig,
    LossBreakdown,
    ParamGroups,
    backward,
    cross_entropy,
    epn_logits,
    forward,
    init_model_params,
    joint_loss,
    softmax,
)
from .numerics import SplitMix64, activation, finite_diff_grad, init_params, linear_forward
from .training import (
    AdamState,
    EpochSummary,
    EvalReport,
    Schedule,
    TrainerState,
    adam_step,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
)

__version__ = "0.1.0"
