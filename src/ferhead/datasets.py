"""Feature datasets: synthetic generator and CSV/binary persistence.

The generator stands in for a backbone network. It bakes in the premise the
head is built around: a small set of shared "action" directions in feature
space, mixed with class-specific nonnegative profiles, so the decomposition
has recoverable structure to find. Samples are ReLU-clamped because backbone
features are post-ReLU.

A dataset holds its features in float32, the dtype training and evaluation
compute in, so its rows reach `head.forward` unconverted. On-disk formats:
CSV stores each float32 value at 9 significant digits, which round-trips it
exactly; the binary table stores the float32 rows as they are. `load_bin`
reads a binary table into memory for training, `map_bin` maps it read-only
for a reader that takes its rows one block at a time.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DataFormatError
from .numerics import SplitMix64

EXPRESSION_CLASSES = (
    "angry",
    "disgust",
    "fear",
    "happy",
    "sad",
    "surprise",
    "neutral",
)


@dataclass
class FeatureDataset:
    """N basic features, narrowed to float32, with class labels.

    `mapped_from`, which only `map_bin` sets, names the binary table whose
    read-only mapping holds the features; their rows are not checked for
    finiteness until `raise_if_not_finite` is asked for them. It is "" for
    features in memory, which every loader checks in full.
    """

    features: np.ndarray  # (N, P) float32
    labels: np.ndarray    # (N,) int64 in [0, K)
    n_classes: int
    mapped_from: str = ""

    def __post_init__(self):
        with np.errstate(over="ignore"):
            self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ContractViolation(
                f"dataset needs (N, P) features and (N,) labels, got "
                f"{self.features.shape} / {self.labels.shape}"
            )
        if self.features.shape[0] != self.labels.shape[0]:
            raise ContractViolation(
                f"{self.features.shape[0]} features vs {self.labels.shape[0]} labels"
            )
        k = self.n_classes
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise ContractViolation(
                f"labels must lie in [0, {k}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def class_names(self) -> tuple[str, ...]:
        """EXPRESSION_CLASSES for 7 classes, else class_0 ... class_{K-1}."""
        if self.n_classes == len(EXPRESSION_CLASSES):
            return EXPRESSION_CLASSES
        return tuple(f"class_{k}" for k in range(self.n_classes))

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def blocks(self, rows: int):
        """Yield (start, features[start:start + rows]) for each block of `rows`
        rows, in order.

        Of features `map_bin` mapped, the pages that hold only rows of blocks
        already handed out are released from this process
        (madvise(MADV_DONTNEED)) when the next block is asked for, and after
        the last one. They stay in the page cache, and a later read of those
        rows faults the same bytes in again. So a pass over the table keeps
        only a block and the page-cache folios around it resident, whatever
        N: at most ≈4 MB for 256 rows of 512 features, since on a kernel
        with large folios one fault maps up to 2 MiB of the file.
        """
        # only map_bin's read-only mapping: dropping the pages of a private
        # or anonymous one would discard what was written to them
        mapping = self.features.base if self.mapped_from else None
        released = 0
        for start in range(0, len(self), rows):
            stop = min(start + rows, len(self))
            yield start, self.features[start:stop]
            if isinstance(mapping, mmap.mmap):
                end = (TABLE_HEADER_BYTES + stop * self.features.strides[0]) // mmap.PAGESIZE
                end *= mmap.PAGESIZE
                if end > released:
                    mapping.madvise(mmap.MADV_DONTNEED, released, end - released)
                    released = end

    def raise_if_not_finite(self, start: int, stop: int) -> None:
        """Raise DataFormatError naming the first NaN or inf among rows [start,
        stop) by row and column (1-based), after the file it was mapped from."""
        where = f"{self.mapped_from}: " if self.mapped_from else ""
        _raise_if_not_finite(self.features[start:stop], DataFormatError, where, start)


@dataclass
class SynthSpec:
    """Recipe for a synthetic feature dataset.

    Each sample of class k is sum_a profiles[k, a] * (1 + u_a) * dirs[a] plus
    isotropic Gaussian noise, ReLU-clamped; u_a is uniform in +-jitter per
    sample and action (0.3 by default; 0 makes every sample of a class
    identical when noise_sigma is also 0).
    """

    action_dirs: np.ndarray     # (n_actions, P), unit rows
    class_profiles: np.ndarray  # (K, n_actions), nonnegative, rows distinct
    noise_sigma: float = 0.05
    samples_per_class: int = 300
    seed: int = 0
    jitter: float = 0.3

    def __post_init__(self):
        self.action_dirs = np.asarray(self.action_dirs, dtype=np.float64)
        self.class_profiles = np.asarray(self.class_profiles, dtype=np.float64)

    @property
    def n_actions(self) -> int:
        return self.action_dirs.shape[0]

    def validate(self) -> None:
        if self.action_dirs.ndim != 2 or self.class_profiles.ndim != 2:
            raise ContractViolation("action_dirs and class_profiles must be 2-D")
        if len(self.class_profiles) < 1 or self.class_profiles.shape[1] != self.n_actions:
            raise ContractViolation(
                f"class_profiles shape {self.class_profiles.shape} is not "
                f"(K >= 1) classes x {self.n_actions} actions"
            )
        norms = np.linalg.norm(self.action_dirs, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ContractViolation("action directions must be unit-norm")
        if np.any(self.class_profiles < 0):
            raise ContractViolation("class profiles must be nonnegative")
        profiles = self.class_profiles
        for a in range(profiles.shape[0]):
            for b in range(a + 1, profiles.shape[0]):
                if np.array_equal(profiles[a], profiles[b]):
                    raise ContractViolation(
                        f"classes {a} and {b} have identical profiles"
                    )
        for name in ("noise_sigma", "jitter"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ContractViolation(f"{name} must be finite and >= 0, got {value}")
        if self.samples_per_class < 1:
            raise ContractViolation("samples_per_class must be >= 1")


def default_action_dirs(n_actions: int, feature_dim: int, rng: SplitMix64) -> np.ndarray:
    """Nonnegative unit directions on disjoint coordinate blocks.

    Disjoint supports make the directions exactly orthonormal, and
    nonnegativity means the ReLU clamp only ever acts on the noise.
    """
    if not 1 <= n_actions <= feature_dim:
        raise ContractViolation(
            f"n_actions must lie in [1, feature_dim={feature_dim}], got {n_actions}"
        )
    dirs = np.zeros((n_actions, feature_dim))
    bounds = np.linspace(0, feature_dim, n_actions + 1).astype(int)
    for a in range(n_actions):
        lo, hi = bounds[a], bounds[a + 1]
        block = rng.uniform(0.2, 1.0, hi - lo)
        dirs[a, lo:hi] = block / np.linalg.norm(block)
    return dirs


def default_class_profiles(n_classes: int, n_actions: int, rng: SplitMix64) -> np.ndarray:
    """Shared low-level mix plus a signature set of emphasized actions per class.

    Signature sets are distinct translations of one pattern, so neighboring
    classes share some emphasized actions (the premise the head exploits)
    while every class stays identifiable.
    """
    profiles = rng.uniform(0.1, 0.4, (n_classes, n_actions))
    offsets = (0, 1, 1 + n_actions // 2) if n_actions >= 5 else (0,)
    for k in range(n_classes):
        for t in offsets:
            profiles[k, (k + t) % n_actions] += rng.uniform(0.6, 1.0, 1)[0]
    return profiles


def make_synth_spec(
    n_classes: int = 7,
    n_actions: int = 9,
    feature_dim: int = 512,
    noise_sigma: float = 0.05,
    samples_per_class: int = 300,
    seed: int = 0,
    structure_seed: int = 0,
) -> SynthSpec:
    """SynthSpec with the default direction/profile construction.

    `seed` drives the per-sample draws; `structure_seed` drives the action
    directions and class profiles. Train and test sets from the same
    population share structure_seed and differ in seed.
    """
    rng = SplitMix64(structure_seed ^ 0xD1F7)
    return SynthSpec(
        action_dirs=default_action_dirs(n_actions, feature_dim, rng),
        class_profiles=default_class_profiles(n_classes, n_actions, rng),
        noise_sigma=noise_sigma,
        samples_per_class=samples_per_class,
        seed=seed,
    )


def generate(spec: SynthSpec) -> FeatureDataset:
    """Deterministic: samples_per_class rows per class, computed in float64, stored as float32."""
    spec.validate()
    rng = SplitMix64(spec.seed)
    K = len(spec.class_profiles)
    P = spec.action_dirs.shape[1]
    n_total = K * spec.samples_per_class
    features = np.empty((n_total, P), dtype=np.float32)
    labels = np.empty(n_total, dtype=np.int64)
    row = 0
    for k in range(K):
        jitter = rng.uniform(-spec.jitter, spec.jitter, (spec.samples_per_class, spec.n_actions))
        mixed = (spec.class_profiles[k][None, :] * (1.0 + jitter)) @ spec.action_dirs
        if spec.noise_sigma > 0:
            mixed = mixed + spec.noise_sigma * rng.normal((spec.samples_per_class, P))
        with np.errstate(over="ignore"):
            features[row : row + spec.samples_per_class] = np.maximum(mixed, 0.0)
        labels[row : row + spec.samples_per_class] = k
        row += spec.samples_per_class
    _raise_if_not_finite(features, ContractViolation, f"noise_sigma={spec.noise_sigma}: ")
    return FeatureDataset(features, labels, K)


@contextlib.contextmanager
def open_text(path: str):
    """Open `path` as UTF-8 text for reading.

    A byte that is not UTF-8 raises DataFormatError naming the file and the
    first line that holds one (read again as bytes: a newline byte never
    occurs inside a multi-byte UTF-8 character).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise DataFormatError(f"{path}:{lineno}: not UTF-8 text: {err}") from None
        raise DataFormatError(f"{path}: not UTF-8 text") from None


def save_csv(path: str, data: FeatureDataset) -> None:
    """Header label,f_1..f_P; float32 at 9 significant digits (round-trip exact)."""
    with open(path, "w", encoding="utf-8") as fh:
        header = "label," + ",".join(f"f_{i + 1}" for i in range(data.feature_dim))
        fh.write(header + "\n")
        for label, row in zip(data.labels, data.features):
            fh.write(str(int(label)) + "," + ",".join(f"{v:.9g}" for v in row.tolist()) + "\n")


def _csv_header(fh, path: str) -> int:
    """Read and check an open CSV table's header row; return P."""
    columns = fh.readline().rstrip("\n").split(",")
    if len(columns) < 2 or columns[0] != "label":
        raise DataFormatError(f"{path}:1: expected header label,f_1..f_P")
    return len(columns) - 1


def load_csv(path: str, n_classes: int) -> FeatureDataset:
    """Parse a label,f_1..f_P table into float32 rows; errors carry 1-based
    line numbers, and a cell not finite in float32 (nan, inf, 1e39) is one."""
    with open_text(path) as fh:
        p = _csv_header(fh, path)
        features = []
        labels = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != p + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {p + 1} columns, found {len(parts)}"
                )
            try:
                label = int(parts[0])
                with np.errstate(over="ignore"):
                    row = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from None
            if not 0 <= label < n_classes:
                raise DataFormatError(
                    f"{path}:{lineno}: label {label} out of range [0, {n_classes})"
                )
            finite = np.isfinite(row)
            if not finite.all():
                j = finite.argmin() + 1
                raise DataFormatError(f"{path}:{lineno}: f_{j}={parts[j]} is not finite in float32")
            features.append(row)
            labels.append(label)
    if not features:
        raise DataFormatError(f"{path}: no data rows")
    return FeatureDataset(np.stack(features), np.asarray(labels, dtype=np.int64), n_classes)


TABLE_MAGIC = b"FDRL"
TABLE_VERSION = 1
TABLE_HEADER_BYTES = 20  # magic, then u32 version, N, P, K


def save_bin(path: str, data: FeatureDataset) -> None:
    """Little-endian binary table: magic, u32 version/N/P/K, f32 rows, u32 labels."""
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(
            struct.pack("<4I", TABLE_VERSION, len(data), data.feature_dim, data.n_classes)
        )
        fh.write(np.ascontiguousarray(data.features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(data.labels, dtype="<u4").tobytes())


def _bin_header(fh, path: str) -> tuple[int, int, int]:
    """Read and check an open binary table's header and file size; return N, P, K."""
    size = os.fstat(fh.fileno()).st_size
    header = fh.read(TABLE_HEADER_BYTES)
    if header[:4] != TABLE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {header[:4]!r}")
    if len(header) < TABLE_HEADER_BYTES:
        raise DataFormatError(f"{path}: truncated header")
    version, n, p, k = struct.unpack_from("<4I", header, 4)
    if version != TABLE_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    expected = TABLE_HEADER_BYTES + n * p * 4 + n * 4
    if size != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for N={n} P={p}, found {size}"
        )
    return n, p, k


def table_header(path: str) -> tuple[int, int | None]:
    """P and K from a CSV or binary table's header alone, sniffing the binary magic.

    K is None for a CSV, which does not store it. The header is checked as
    `load_bin` and `load_csv` check it, and no row is read.
    """
    with open(path, "rb") as fh:
        if fh.read(4) == TABLE_MAGIC:
            fh.seek(0)
            return _bin_header(fh, path)[1:]
    with open_text(path) as fh:
        return _csv_header(fh, path), None


def load_bin(path: str) -> FeatureDataset:
    """Read the binary table; features stay float32, as stored.

    The header and the file size are checked before any row is read, and
    the rows are read straight into the returned array. A table of no rows,
    a NaN or inf feature, or a label outside [0, K) raises DataFormatError,
    the last two naming the first such row (1-based).
    """
    with open(path, "rb") as fh:
        n, p, k = _bin_header(fh, path)
        if n == 0:
            raise DataFormatError(f"{path}: no data rows")
        features = np.fromfile(fh, dtype="<f4", count=n * p).reshape(n, p)
        labels = np.fromfile(fh, dtype="<u4", count=n).astype(np.int64)
    _raise_if_not_finite(features, DataFormatError, f"{path}: ")
    _check_labels(labels, k, path)
    return FeatureDataset(features, labels, k)


def map_bin(path: str) -> FeatureDataset:
    """Map the binary table read-only, as `load_params` maps a checkpoint.

    The header, the file size and the labels are checked as `load_bin`
    checks them, and the labels are copied. The features are a read-only
    view of the mapping, which they keep alive, and no row is read here: a
    reader takes them with `FeatureDataset.blocks`, which releases each
    block's pages behind it, and checks a block with `raise_if_not_finite`.
    Editing or truncating the file in place while it is mapped can kill
    the process with SIGBUS, as with any mapped reader.
    """
    with open(path, "rb") as fh:
        n, p, k = _bin_header(fh, path)
        if n == 0:
            raise DataFormatError(f"{path}: no data rows")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    features = np.ndarray((n, p), "<f4", buffer=mapped, offset=TABLE_HEADER_BYTES)
    offset = TABLE_HEADER_BYTES + features.nbytes
    labels = np.frombuffer(mapped, "<u4", n, offset).astype(np.int64)
    _check_labels(labels, k, path)
    return FeatureDataset(features, labels, k, mapped_from=path)


def _check_labels(labels: np.ndarray, k: int, path: str) -> None:
    """Raise DataFormatError naming the first row (1-based) whose label is
    not below K (a stored label is unsigned)."""
    if labels.max() >= k:
        row = int(np.argmax(labels >= k))
        raise DataFormatError(f"{path}: row {row + 1}: label {labels[row]} out of range [0, {k})")


def _raise_if_not_finite(
    features: np.ndarray, error: type[Exception], where: str, first_row: int = 0
) -> None:
    """Raise error(where + "row R: f_C=V is not finite") for the first such entry,
    counting rows from first_row + 1."""
    flat = features.reshape(-1)
    # a finite sum of squares proves every entry finite; only a sum that
    # overflowed or met a NaN or inf needs the entry-wise scan. einsum sums
    # without BLAS: 7000 rows took 0.74 ms (np.dot 0.59 ms), and np.dot's
    # threaded BLAS call left the resident size ≈1 MB higher
    with np.errstate(over="ignore"):
        if np.isfinite(np.einsum("i,i->", flat, flat)) or np.all(np.isfinite(flat)):
            return
    row, col = divmod(int(np.argmin(np.isfinite(flat))), features.shape[1])
    value = features[row, col]
    raise error(f"{where}row {first_row + row + 1}: f_{col + 1}={value} is not finite")
