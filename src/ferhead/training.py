"""Adam with step decay, the epoch loop with center updates, and evaluation.

Per optimizer step, in this order: forward, backward, Adam update, then both
center-bank updates using the latent features and importance weights cached
by the forward pass (one forward per batch; centers see pre-step features,
the usual center-loss convention). Batches are drawn by a seeded
Fisher-Yates shuffle each epoch; a final partial batch is kept and its
losses use its true size.
"""

from __future__ import annotations

import contextlib
import os
import struct
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .datasets import FeatureDataset
from .decomposition import LatentCenters
from .errors import ContractViolation, DataFormatError, TrainingError
from .intra import ClassCenters
from .head import (
    Centers,
    HeadConfig,
    LossBreakdown,
    ParamGroups,
    backward,
    forward,
)
from .numerics import SplitMix64

ADAM_BETA1 = 0.500
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of adam_step. Four float64 blocks (g, m, v, theta) plus
# two scratch blocks take 1.5 MB, which fits in L2; 4k to 32k ran alike.
ADAM_BLOCK = 32768

# Rows per forward call in evaluate and inspect. Every block after the first
# is written into the first block's cache; at paper dimensions 256 rows take
# about 19 MB of buffers. Freshly allocated blocks of this size are handed
# back to the OS when freed and fault their pages in again on the next
# block; with reuse, 256 rows ran as fast as 512 and 128 on 7000 rows, at
# a lower peak than 512.
EVAL_BLOCK_ROWS = 256


@dataclass
class Schedule:
    """Step-decay learning-rate schedule.

    The rate starts at base_lr and is multiplied by `factor` once for each
    boundary that the epoch index has reached: "after E epochs" means the
    decay applies from epoch index >= E.
    """

    base_lr: float = 1e-4
    decay_epochs: tuple[int, ...] = (10, 18, 25, 32)
    factor: float = 0.1
    total_epochs: int = 40
    batch_size: int = 64

    def validate(self) -> None:
        if self.base_lr <= 0 or self.batch_size < 1 or self.total_epochs < 1:
            raise ContractViolation(f"invalid schedule: {self}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ContractViolation("decay epochs must be strictly increasing")
        if self.decay_epochs and self.decay_epochs[-1] >= self.total_epochs:
            raise ContractViolation(
                f"decay epochs {self.decay_epochs} must be < total_epochs {self.total_epochs}"
            )

    def lr_at(self, epoch: int) -> float:
        if not 0 <= epoch < self.total_epochs:
            raise ContractViolation(
                f"epoch {epoch} out of range [0, {self.total_epochs})"
            )
        decays = sum(1 for boundary in self.decay_epochs if boundary <= epoch)
        return self.base_lr * self.factor**decays


@dataclass
class AdamState:
    """Bias-corrected Adam moments for every parameter group."""

    first: ParamGroups
    second: ParamGroups
    step_count: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def zeros(cls, params: ParamGroups) -> "AdamState":
        return cls(first=params.zeros_like(), second=params.zeros_like())


def adam_step(
    params: ParamGroups, grads: ParamGroups, state: AdamState, lr: float
) -> None:
    """One in-place bias-corrected Adam update, over cache-sized blocks.

    Per group, the update is
    theta -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps), after
    m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g*g. Each group
    is raveled and walked in blocks of ADAM_BLOCK elements, and every block
    runs the whole update before the next block starts, so its g, m, v and
    theta stay in cache across all fourteen operations instead of each
    operation making its own pass over the group. Inside a block the
    operations are those of the formula in the same order, written into two
    block-sized scratch arrays; every one of them is correctly rounded and
    element-wise, so the result is bitwise equal to the whole-array formula.

    Groups are raveled in memory order, so a parameter and its two moments
    must be contiguous and share one layout (a ParamGroups gives them that);
    a gradient in another layout is first copied into the parameter's.
    """
    grads.raise_if_not_finite("passed to adam_step")
    for name, theta in params.items():
        # the blocks are views of the raveled arrays; a copy would drop the update
        if not _is_dense(theta) or any(
            getattr(group, name).strides != theta.strides
            for group in (state.first, state.second)
        ):
            raise ContractViolation(
                f"adam_step updates {name} in place: the parameter and both moments "
                "must be contiguous in one shared memory layout"
            )
    state.step_count += 1
    t = state.step_count
    beta1, beta2, eps = state.beta1, state.beta2, state.eps
    correct1 = 1.0 - beta1**t
    correct2 = 1.0 - beta2**t
    scratch1 = np.empty(ADAM_BLOCK)
    scratch2 = np.empty(ADAM_BLOCK)
    for name, theta in params.items():
        g = getattr(grads, name)
        if g.strides != theta.strides:  # copy it into theta's memory order
            g, given = np.empty_like(theta), g
            g[...] = given
        g = g.ravel(order="K")
        m = getattr(state.first, name).ravel(order="K")
        v = getattr(state.second, name).ravel(order="K")
        p = theta.ravel(order="K")
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], p[lo:hi]
            t1, t2 = scratch1[: pb.size], scratch2[: pb.size]
            mb *= beta1
            np.multiply(gb, 1.0 - beta1, out=t1)
            mb += t1
            vb *= beta2
            np.multiply(gb, gb, out=t1)
            t1 *= 1.0 - beta2
            vb += t1
            np.divide(mb, correct1, out=t1)
            t1 *= lr
            np.divide(vb, correct2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += eps
            t1 /= t2
            pb -= t1
    params.raise_if_not_finite("after adam_step")


def _is_dense(arr: np.ndarray) -> bool:
    """True when arr's entries fill one contiguous block, in some axis order."""
    return arr.transpose(np.argsort(arr.strides)[::-1]).flags.c_contiguous


@dataclass
class TrainerState:
    """Everything that evolves during training (checkpointable)."""

    params: ParamGroups
    centers: Centers
    adam: AdamState
    rng: SplitMix64


@dataclass
class EpochSummary:
    """Mean losses over the epoch's batches plus end-of-epoch train accuracy."""

    losses: LossBreakdown
    accuracy: float


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (K, K) counts, rows = true class
    per_class_accuracy: np.ndarray  # (K,)


def forward_in_blocks(X: np.ndarray, params: ParamGroups, cfg: HeadConfig, *picks):
    """Run `forward` over EVAL_BLOCK_ROWS-row blocks of X, keeping only `picks`.

    Each pick maps a block's ForwardCache to an array with one leading entry
    per row; the result holds one array per pick, concatenated over the
    blocks, so X needs at least one row. Every block is written into the
    same cache, so each pick's array is copied before the next block runs
    (a pick may return a view such as `cache.weights`). Only one block's
    cache is alive at a time, so the peak memory is O(EVAL_BLOCK_ROWS) plus
    whatever the picks keep.
    """
    kept = [[] for _ in picks]
    cache = None
    for start in range(0, len(X), EVAL_BLOCK_ROWS):
        block = X[start : start + EVAL_BLOCK_ROWS]
        if len(block) < EVAL_BLOCK_ROWS:
            cache = None  # free the full-size buffers before the ragged block's
        cache = forward(block, params, cfg, out=cache)
        for parts, pick in zip(kept, picks):
            parts.append(pick(cache).copy())
    return [np.concatenate(parts) for parts in kept]


def evaluate(params: ParamGroups, cfg: HeadConfig, data: FeatureDataset) -> EvalReport:
    """Argmax-of-logits evaluation; mutates nothing.

    The forward pass runs over blocks of EVAL_BLOCK_ROWS rows and keeps only
    each block's predicted classes, so the peak memory is O(block), not
    O(len(data)). np.argmax breaks ties toward the lowest class index, so
    predictions are deterministic.
    """
    if len(data) < 1:
        raise ContractViolation("evaluate needs a non-empty dataset")
    (predictions,) = forward_in_blocks(
        data.features, params, cfg, lambda cache: np.argmax(cache.logits, axis=1)
    )
    K = cfg.n_classes
    confusion = np.zeros((K, K), dtype=np.int64)
    np.add.at(confusion, (data.labels, predictions), 1)
    totals = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion), totals, out=np.zeros(K, dtype=np.float64), where=totals > 0
    )
    accuracy = float(np.trace(confusion) / len(data))
    return EvalReport(accuracy=accuracy, confusion=confusion, per_class_accuracy=per_class)


def train_epoch(
    state: TrainerState,
    data: FeatureDataset,
    cfg: HeadConfig,
    schedule: Schedule,
    epoch: int,
) -> EpochSummary:
    """One pass over the shuffled dataset; returns the epoch summary.

    Each batch takes one batched `forward` and one `backward` call. Given
    the same state and data, the result is bitwise reproducible on the same
    machine with the same BLAS thread count.

    The summary's loss components are means over the epoch's batches
    (weighted by batch size); its accuracy is a full evaluation pass on
    `data` with the end-of-epoch parameters, so it matches a subsequent
    `evaluate` call exactly.
    """
    n = len(data)
    if n < 1:
        raise ContractViolation("train_epoch needs a non-empty dataset")
    if schedule.batch_size > n:
        raise ContractViolation(
            f"batch size {schedule.batch_size} exceeds dataset size {n}"
        )
    lr = schedule.lr_at(epoch)
    order = state.rng.permutation(n)
    sums = np.zeros(5)
    cache = grads = None
    for start in range(0, n, schedule.batch_size):
        batch_idx = order[start : start + schedule.batch_size]
        X = data.features[batch_idx]
        labels = data.labels[batch_idx]
        try:
            cache = forward(X, state.params, cfg, out=cache)
            grads, losses = backward(
                cache, labels, state.params, state.centers, cfg, out=grads
            )
        except TrainingError as err:
            raise TrainingError(
                f"epoch {epoch}, batch starting at {start}: {err}"
            ) from err
        adam_step(state.params, grads, state.adam, lr)
        state.centers.latent.update(cache.latents)
        state.centers.by_class.update(cache.weights, labels)
        weight = len(batch_idx)
        sums += weight * np.array(
            [losses.cls, losses.compact, losses.balance, losses.distribution, losses.total]
        )
    mean = sums / n
    losses = LossBreakdown(*mean)
    report = evaluate(state.params, cfg, data)
    return EpochSummary(losses=losses, accuracy=report.accuracy)


CHECKPOINT_MAGIC = b"FDRM"
CHECKPOINT_VERSION = 2


def save_checkpoint(path: str, state: TrainerState, cfg: HeadConfig) -> None:
    """Binary little-endian checkpoint.

    Layout: magic 'FDRM', u32 version, u32 P/D/M/K, the five float64 model
    settings in HeadConfig field order (lambda_compact, lambda_balance,
    lambda_distribution, mix_ratio, center_rate), then float64 arrays in
    fixed order (decomp, gate, message, classifier weights; latent centers;
    class centers; Adam first then second moments in the same group order),
    then u64 step count and u64 RNG state.

    The bytes go to `path + ".tmp"` in the same directory, which then
    replaces `path` in one `os.replace`; a save that fails part-way removes
    the temp file and leaves any earlier checkpoint at `path` as it was.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<5I5d", CHECKPOINT_VERSION, *astuple(cfg)))
            for arr in _checkpoint_arrays(state):
                arr = np.asarray(arr, dtype="<f8")
                # a decomp group goes out one (P, D) latent slab at a time
                for part in [arr] if arr.flags.c_contiguous else arr:
                    fh.write(np.ascontiguousarray(part))
            fh.write(struct.pack("<QQ", state.adam.step_count, state.rng.state))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_header(fh, path: str) -> HeadConfig:
    """Read and check an open checkpoint's header; return its HeadConfig.

    Version 1 stored only P, D, M, K: its settings are defaults, with a warning.
    """
    head = fh.read(8)
    if head[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {head[:4]!r}")
    version = int.from_bytes(head[4:], "little")
    layout = {1: "<4I", CHECKPOINT_VERSION: "<4I5d"}.get(version, "")
    body = fh.read(struct.calcsize(layout))
    if len(head) < 8 or len(body) < struct.calcsize(layout):
        raise DataFormatError(f"{path}: truncated header")
    if not layout:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if version == 1:
        warnings.warn(f"{path}: version-1 checkpoint stores no model settings; "
                      "using HeadConfig defaults for them")
    cfg = HeadConfig(*struct.unpack(layout, body))
    try:
        cfg.validate()
    except ContractViolation as err:
        raise DataFormatError(f"{path}: {err}") from None
    return cfg


def checkpoint_config(path: str) -> HeadConfig:
    """Read the model config from a checkpoint header without loading arrays."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(path: str, cfg: HeadConfig) -> TrainerState:
    """Read a checkpoint, validating magic, version, and that `cfg` is its config.

    Each array is read straight from the file into its own buffer; the decomp
    groups are read one (P, D) latent slab at a time and placed into their
    (P, M, D) memory.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        saved = _read_header(fh, path)
        if saved != cfg:
            raise DataFormatError(
                f"{path}: checkpoint dimensions and settings {saved} "
                f"do not match configuration {cfg}"
            )
        P, D, M, K = cfg.input_dim, cfg.latent_dim, cfg.n_latents, cfg.n_classes

        def empty_groups() -> ParamGroups:
            return ParamGroups(
                decomp=np.empty((P, M, D)).transpose(1, 0, 2),
                gate=np.empty((M, D, D)),
                message=np.empty((M, D, D)),
                classifier=np.empty((D, K)),
            )

        params = empty_groups()
        state = TrainerState(
            params=params,
            centers=Centers(
                latent=LatentCenters(np.empty((M, D)), cfg.center_rate),
                by_class=ClassCenters(np.empty((K, M)), cfg.center_rate),
            ),
            adam=AdamState(first=empty_groups(), second=empty_groups()),
            rng=SplitMix64(0),
        )
        offset = fh.tell()
        slab = np.empty((P, D))
        for arr in _checkpoint_arrays(state):
            nbytes = arr.size * 8
            if offset + nbytes > size:
                raise DataFormatError(f"{path}: truncated at byte {offset}")
            if arr.flags.c_contiguous:
                _read_exactly(fh, arr, path, offset)
            else:
                for j in range(M):
                    _read_exactly(fh, slab, path, offset + j * slab.nbytes)
                    arr[j] = slab
            offset += nbytes
        if offset + 16 != size:
            raise DataFormatError(f"{path}: expected {offset + 16} bytes, found {size}")
        step_count, rng_state = struct.unpack("<QQ", fh.read(16))
    state.adam.step_count = step_count
    state.rng.set_state(rng_state)
    return state


def _read_exactly(fh, arr: np.ndarray, path: str, offset: int) -> None:
    """Fill the C-contiguous float64 `arr` from the file's next bytes."""
    view = memoryview(arr).cast("B")
    if fh.readinto(view) != len(view):
        raise DataFormatError(f"{path}: truncated at byte {offset}")
    if not np.little_endian:
        arr.byteswap(inplace=True)  # the file is little-endian


def _checkpoint_arrays(state: TrainerState) -> list[np.ndarray]:
    arrays = [arr for _, arr in state.params.items()]
    arrays.append(state.centers.latent.centers)
    arrays.append(state.centers.by_class.centers)
    arrays.extend(arr for _, arr in state.adam.first.items())
    arrays.extend(arr for _, arr in state.adam.second.items())
    return arrays
