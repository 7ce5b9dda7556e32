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
    forward,
    init_model_params,
    joint_loss,
    softmax,
)
from .numerics import SplitMix64, finite_diff_grad, init_params
from .training import (
    AdamState,
    EvalReport,
    Schedule,
    TrainerState,
    adam_step,
    evaluate,
    load_params,
    save_checkpoint,
    train_epoch,
)

__version__ = "0.1.0"
