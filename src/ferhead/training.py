"""Adam with step decay, the epoch loop with center updates, and evaluation.

Per optimizer step, in this order: forward, backward, Adam update, then both
center-bank updates using the latent features and importance weights cached
by the forward pass (one forward per batch; centers see pre-step features,
the usual center-loss convention). Batches are drawn by a seeded
Fisher-Yates shuffle each epoch; a final partial batch is kept and its
losses use its true size. The shuffle picks which rows form a batch, and the
batch takes them in dataset order, so its float32 sums (the center means
among them) do not depend on the order the shuffle drew them in.

Training and evaluation compute in COMPUTE_DTYPE (float32): a TrainerState
narrows its parameters, Adam moments and centers once when it is built, and
a dataset holds float32 features, so `forward` copies each batch unconverted;
`init_model_params` stays float64 for the oracles. A checkpoint (version 5)
stores the model and the run that made it: its config and the four float32
parameter groups in their memory order, so loading one maps the file and
needs no conversion, relayout or copy, then the run record, the rest of the
run's settings as key=value text, which `load_params` never reads.
The centers and Adam moments are used only in training and are not saved.
Version 5 is the only version `load_params` reads; a model saved in an older
one is rebuilt by training again from the `.config` file saved next to it.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .datasets import FeatureDataset
from .errors import ContractViolation, DataFormatError, TrainingError
from .head import (
    Centers,
    HeadConfig,
    LossBreakdown,
    ParamGroups,
    backward,
    forward,
)
from .numerics import SplitMix64, empty_aligned

ADAM_BETA1 = 0.500
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per block of adam_step. Four float32 blocks (g, m, v, theta) plus
# two scratch blocks take 0.75 MB (1.5 MB in float64), which fits in L2, so
# the twelve update operations of a block all read it from cache; 4k to 32k
# ran alike in float64.
ADAM_BLOCK = 32768

# The dtype of every training and evaluation pass; see the module docstring.
COMPUTE_DTYPE = np.float32

# Rows per forward call in evaluate and inspect. Every block after the first,
# the ragged last one included, is written into the first block's cache; at
# paper dimensions 256 rows take about 5.6 MB of float32 buffers, of which
# the (N, M, D) block is 4.7 MB, and each is cache-line aligned
# (`empty_aligned`), since numpy's element-wise loops write an aligned
# destination in about half the time. 256 rows ran as fast as 512 and 128
# on 7000 rows, at a lower peak than 512; of a mapped table only the rows
# around one block stay resident (`FeatureDataset.blocks`).
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
        for name in ("base_lr", "factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ContractViolation(f"{name} must be finite and > 0, got {value}")
        if self.batch_size < 1 or self.total_epochs < 1:
            raise ContractViolation(f"invalid schedule: {self}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ContractViolation("decay epochs must be strictly increasing")
        if self.decay_epochs and self.decay_epochs[0] < 1:
            raise ContractViolation(
                f"decay epoch {self.decay_epochs[0]} must be >= 1, or base_lr is never used"
            )
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

    @classmethod
    def zeros(cls, params: ParamGroups) -> "AdamState":
        return cls(first=params.zeros_like(), second=params.zeros_like())


@np.errstate(over="ignore", invalid="ignore")
def adam_step(
    params: ParamGroups, grads: ParamGroups, state: AdamState, lr: float
) -> None:
    """One in-place bias-corrected Adam update, over cache-sized blocks.

    The update is Kingma and Ba's Algorithm 1 in the folded form of their
    section 2 (ICLR 2015): per group, after m = beta1 m + (1 - beta1) g and
    v = beta2 v + (1 - beta2) g*g,
    theta -= (m * alpha) / (np.sqrt(v) + eps_hat), with
    alpha = lr * sqrt(1 - beta2**t) / (1 - beta1**t) and
    eps_hat = eps * sqrt(1 - beta2**t). The bias corrections become two
    scalars, so no element is divided by them. Each group is raveled and
    walked in blocks of ADAM_BLOCK elements, and every block runs the whole
    update before the next block starts, so its g, m, v and theta stay in
    cache across all twelve operations instead of each operation making its
    own pass over the group. Inside a block the operations are those of the
    formula in the same order, written into two block-sized scratch arrays;
    every one of them is correctly rounded and element-wise, so the result
    is bitwise equal to the whole-array formula. beta1, beta2 and eps are
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    Every block computes in the parameters' dtype, with its two scratch
    blocks allocated once per call in that dtype and cache-line aligned
    (`empty_aligned`); alpha and eps_hat are Python floats, which do not
    widen a float32 array.

    The gradient is checked before anything changes, and theta after the
    whole update, one group at a time: at two BLAS threads one dot product
    per group ran faster than one per block inside the loop. The step runs
    without numpy's overflow and invalid warnings: an alpha or a step past
    the dtype's range leaves inf or NaN in theta, which that check raises.

    Groups are raveled in memory order, which a ParamGroups makes one dense
    layout per group: the ravels are views, so the blocks update theta, m
    and v in place, and the entries of g, m, v and theta line up.
    """
    grads.raise_if_not_finite("passed to adam_step")
    state.step_count += 1
    t = state.step_count
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
    root2 = math.sqrt(1.0 - beta2**t)
    alpha = lr * root2 / (1.0 - beta1**t)
    eps_hat = ADAM_EPS * root2
    scratch1 = empty_aligned((ADAM_BLOCK,), params.dtype)
    scratch2 = empty_aligned((ADAM_BLOCK,), params.dtype)
    for name, theta in params.items():
        g = getattr(grads, name).ravel(order="K")
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
            np.sqrt(vb, out=t2)
            t2 += eps_hat
            np.multiply(mb, alpha, out=t1)
            t1 /= t2
            pb -= t1
    params.raise_if_not_finite("after adam_step")


@dataclass
class TrainerState:
    """Everything that evolves during training; a checkpoint saves only its params.

    Building one narrows its parameters, Adam moments and both center banks
    to COMPUTE_DTYPE, so every pass of the run computes in it; arrays
    already in it are kept. A parameter or moment that overflows it raises
    TrainingError. Centers that overflow it make the first batch's
    compactness or distribution loss non-finite, which backward reports.
    """

    params: ParamGroups
    centers: Centers
    adam: AdamState
    rng: SplitMix64

    def __post_init__(self) -> None:
        self.params = self.params.astype(COMPUTE_DTYPE)
        self.adam.first = self.adam.first.astype(COMPUTE_DTYPE)
        self.adam.second = self.adam.second.astype(COMPUTE_DTYPE)
        with np.errstate(over="ignore"):
            for bank in (self.centers.latent, self.centers.by_class):
                bank.centers = bank.centers.astype(COMPUTE_DTYPE, copy=False)


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (K, K) counts, rows = true class
    per_class_accuracy: np.ndarray  # (K,)


def forward_in_blocks(data: FeatureDataset, params: ParamGroups, cfg: HeadConfig, *picks):
    """Run `forward` over EVAL_BLOCK_ROWS-row blocks of data's features, keeping only `picks`.

    Each pick maps a block's ForwardCache to an array with one leading entry
    per row; the result holds one array per pick, concatenated over the
    blocks, so data needs at least one row. A call allocates one cache, and
    every block, the ragged last one too, is written into it, so each
    pick's array is copied before the next block runs (a pick may return a
    view such as `cache.weights`). The blocks come from `data.blocks`, so
    each row is copied once, into the cache's inputs, and a mapped table's
    pages are released behind each block: the peak memory is
    O(EVAL_BLOCK_ROWS) plus whatever the picks keep. A block that holds a
    NaN or inf raises DataFormatError naming its row and column, after the
    file a mapped table came from. A block whose forward pass overflows or
    makes an invalid value raises TrainingError naming its rows (1-based),
    as a training step does, so no prediction is made from inf or NaN.
    """
    kept = [[] for _ in picks]
    cache = None
    with np.errstate(over="raise", invalid="raise"):
        for start, block in data.blocks(EVAL_BLOCK_ROWS):
            try:
                cache = forward(block, params, cfg, out=cache)
            except FloatingPointError as err:
                raise TrainingError(f"rows {start + 1} to {start + len(block)}: {err}") from None
            except ContractViolation:
                # forward refuses a block that is not finite, and a mapped
                # table's rows meet no other check
                data.raise_if_not_finite(start, start + len(block))
                raise
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
        data, params, cfg, lambda cache: np.argmax(cache.logits, axis=1)
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
) -> LossBreakdown:
    """One pass over the shuffled dataset; returns the mean losses.

    Each batch takes one batched `forward` and one `backward` call. Given
    the same state and data, the result is bitwise reproducible on the same
    machine with the same BLAS thread count. An overflow or invalid value in
    a step raises TrainingError naming the epoch and batch, not a warning
    (`forward`'s input narrowing and `adam_step` keep their own errstate).
    The losses are means over the epoch's batches, weighted by batch size.
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
    sums = 0.0
    cache = grads = None
    for start in range(0, n, schedule.batch_size):
        batch_idx = np.sort(order[start : start + schedule.batch_size])
        X = data.features[batch_idx]
        labels = data.labels[batch_idx]
        try:
            with np.errstate(over="raise", invalid="raise"):
                cache = forward(X, state.params, cfg, out=cache)
                grads, losses = backward(
                    cache, labels, state.params, state.centers, cfg, out=grads
                )
                adam_step(state.params, grads, state.adam, lr)
        except (TrainingError, FloatingPointError) as err:
            raise TrainingError(
                f"epoch {epoch}, batch starting at {start}: {err}"
            ) from err
        state.centers.latent.update(cache.latents, cfg.center_rate)
        state.centers.by_class.update(cache.weights, labels, cfg.center_rate)
        sums += len(batch_idx) * np.array(astuple(losses))
    return LossBreakdown(*(sums / n))


CHECKPOINT_MAGIC = b"FDRM"
CHECKPOINT_VERSION = 5
# the 68-byte header: magic, version, P, D, M, K, HeadConfig's five settings,
# the run record's byte length
_HEADER = struct.Struct("<4s5I5dI")


def save_checkpoint(path: str, params: ParamGroups, cfg: HeadConfig, record: str = "") -> None:
    """Binary little-endian checkpoint, version 5: the model, then its run record.

    Layout: magic 'FDRM', u32 version, u32 P/D/M/K, the five float64 model
    settings in HeadConfig field order (lambda_compact, lambda_balance,
    lambda_distribution, mix_ratio, center_rate), u32 byte length of the
    record, then the four float32 groups (decomp, gate, message,
    classifier), then `record` in UTF-8: 68 + 4 n + r bytes for n
    parameters and an r-byte record. Each group is stored in the order of
    its memory in ParamGroups' layout, decomp in (P, M, D) order and every
    other group in the C order of its shape, so trained params are written
    without a copy, and `load_params` maps them without a conversion, a
    relayout or a copy. The record is the text `train` makes of the run's
    other settings; a checkpoint saved without one rebuilds with defaults.

    Every group must be float32, as training keeps them; any other dtype
    raises ContractViolation naming the group, so nothing is rounded
    silently.

    The bytes go to `path + ".tmp"` in the same directory, which is
    flushed to the disk with `os.fsync` and then replaces `path` in one
    `os.replace`, so a rename that survives a power loss names complete
    bytes; a save that fails part-way, a refused dtype or a failed fsync
    included, removes the temp file and leaves any earlier checkpoint at
    `path` as it was.
    """
    tmp = path + ".tmp"
    text = record.encode("utf-8")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *astuple(cfg), len(text)))
            for name, arr in params.items():
                if arr.dtype != np.float32:
                    raise ContractViolation(
                        f"{path}: cannot save params.{name} as {arr.dtype}; "
                        "checkpoints hold float32"
                    )
                fh.write(np.asarray(arr, dtype="<f4").ravel(order="K"))
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _group_shapes(cfg: HeadConfig) -> list[tuple[int, ...]]:
    P, D, M, K = cfg.input_dim, cfg.latent_dim, cfg.n_latents, cfg.n_classes
    return [(M, P, D), (M, D, D), (M, D, D), (D, K)]


def _read_header(fh, path: str) -> tuple[HeadConfig, int]:
    """Read and check an open checkpoint's header and size; return its
    HeadConfig and the byte length of its run record.

    A file of any version but CHECKPOINT_VERSION is refused. For versions
    1-4 the message adds the command that rebuilds the model from the
    `.config` that `train` wrote next to those files; no other version had
    one. The whole file's size is checked against the one the header
    implies before the file is mapped, so a truncated or overlong file is
    rejected and no group can lie past its end.
    """
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, version, *settings, record_size = _HEADER.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        message = f"{path}: unsupported version {version}, not {CHECKPOINT_VERSION}"
        if 1 <= version < CHECKPOINT_VERSION:
            message += f"; rebuild the model with `ferhead train --config {path}.config`"
        raise DataFormatError(message)
    cfg = HeadConfig(*settings)
    try:
        cfg.validate()
    except ContractViolation as err:
        raise DataFormatError(f"{path}: {err}") from None

    expected = _HEADER.size + 4 * sum(map(math.prod, _group_shapes(cfg))) + record_size
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        short = "truncated: " if size < expected else ""
        raise DataFormatError(f"{path}: {short}expected {expected} bytes, found {size}")
    return cfg, record_size


def load_record(path: str) -> tuple[HeadConfig, str] | None:
    """A checkpoint's HeadConfig and run record, or None for a file that does
    not begin with CHECKPOINT_MAGIC. The file is checked as `load_params`
    checks it, and no weight is read; a record that is not UTF-8 raises
    DataFormatError naming the file."""
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            return None
        fh.seek(0)
        cfg, record_size = _read_header(fh, path)
        fh.seek(-record_size, os.SEEK_END)
        record = fh.read(record_size)
    try:
        return cfg, record.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: run record is not UTF-8 text: {err}") from None


def load_params(path: str) -> tuple[HeadConfig, ParamGroups]:
    """Map a version-5 checkpoint and return its config and four float32 groups.

    The header and the whole file's size are checked first; then the file is
    mapped read-only and each group is a view of its bytes, in ParamGroups'
    layout, so loading copies nothing (on a big-endian host `astype` makes
    the values native, which copies). The groups are read-only and keep the
    mapping alive; `save_checkpoint` replaces a file by renaming a new one
    over it, so groups loaded from the old file keep their values. A
    non-finite weight raises DataFormatError naming the file and its group.
    """
    with open(path, "rb") as fh:
        cfg, _ = _read_header(fh, path)
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    (M, P, D), *shapes = _group_shapes(cfg)
    groups, offset = [], _HEADER.size
    for shape in [(P, M, D), *shapes]:
        arr = np.frombuffer(mapped, "<f4", math.prod(shape), offset).reshape(shape)
        groups.append(arr.astype(np.float32, copy=False))
        offset += arr.nbytes
    decomp, *rest = groups
    params = ParamGroups(decomp.transpose(1, 0, 2), *rest)  # decomp in (P, M, D) memory
    try:
        params.raise_if_not_finite("as stored")
    except TrainingError as err:
        raise DataFormatError(f"{path}: {err}") from None
    return cfg, params
