"""Activations, initialization, seeded RNG, aligned buffers, and the finite-difference oracle.

The head's stage math (its bias-free linear maps and their activations) runs
in `head.forward`, which applies `relu` and `sigmoid` from here in place.

The oracles are 64-bit: `SplitMix64` draws float64 values and
`finite_diff_grad` differentiates in float64, since gradient checking at
1e-4 tolerance is not feasible in float32. `relu` and `sigmoid` compute in
their input's dtype, which is float32 in training and evaluation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ContractViolation, OracleError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64).

    The state advances by a fixed odd constant per draw and each output is a
    bijective mix of the state, so the sequence depends only on the seed:
    identical seeds give identical draws on every platform. Bulk draws are
    computed as a vectorized counter hash and match the scalar path exactly.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _bulk_uint64(self, n: int) -> np.ndarray:
        # the scalar rounds, run in place on z with one scratch array;
        # uint64 array arithmetic wraps modulo 2**64 as the masks do
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mix)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        return z

    def random(self, n: int) -> np.ndarray:
        """n float64 values uniform on [0, 1), 53-bit resolution."""
        return (self._bulk_uint64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        size = int(np.prod(shape))
        return (low + (high - low) * self.random(size)).reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller (deterministic, no rejection)."""
        size = int(np.prod(shape))
        half = (size + 1) // 2
        u1 = 1.0 - self.random(half)  # (0, 1], keeps log finite
        u2 = self.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:size].reshape(shape)

    def randint_below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ContractViolation(f"randint_below needs n >= 1, got {n}")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % n
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def relu(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(v, 0.0, out=out)


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 * v)), written into `out` if given (which may be v).

    The tanh identity never overflows and needs no masked indexing.
    """
    s = np.multiply(v, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


# Bytes of a cache line: every buffer from `empty_aligned` starts on one.
CACHE_LINE = 64


def empty_aligned(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized C-contiguous array whose first byte starts a cache line.

    numpy's own buffers start 16, 32 or 48 bytes past a 64-byte line, and
    an out-of-place float32 subtract of 32,768 elements took a median
    8.4-9.1 us into such a buffer against 4.4 us into an aligned one (a
    2-vCPU AVX-512 Xeon VM). The array is a view of a uint8 buffer
    CACHE_LINE bytes longer, which is its `base` and that of every view of
    it; numpy asks the kernel for transparent huge pages on that buffer
    from 4 MiB up, as on its own.
    """
    dtype = np.dtype(dtype)
    raw = np.empty(math.prod(shape) * dtype.itemsize + CACHE_LINE, dtype=np.uint8)
    return np.ndarray(shape, dtype, buffer=raw, offset=-raw.ctypes.data % CACHE_LINE)


def init_params(shape: tuple[int, int], rng: SplitMix64) -> np.ndarray:
    """Kaiming-uniform (in x out) matrix: entries uniform in +-sqrt(6/fan_in).

    fan_in is the input dimension (rows), matching the W.T @ x convention.
    """
    fan_in, fan_out = int(shape[0]), int(shape[1])
    if fan_in <= 0 or fan_out <= 0:
        raise ContractViolation(f"init_params needs positive dims, got {shape}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, (fan_in, fan_out))


def init_param_stack(count: int, shape: tuple[int, int], rng: SplitMix64) -> np.ndarray:
    """C-contiguous (count, in, out) stack of independently initialized matrices."""
    return np.stack([init_params(shape, rng) for _ in range(count)])


def finite_diff_grad(
    f: Callable[[np.ndarray], float | np.ndarray], theta: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of f, one coordinate of theta at a time.

    f may return a scalar or an array. The result has shape f's shape plus
    theta's shape: entry [..., i] holds the derivatives of f's entries along
    coordinate i, so one sweep serves every entry of f. This is the
    package's independent gradient oracle; it never touches the analytic
    backward path it is used to check.
    """
    if h <= 0:
        raise ContractViolation(f"finite_diff_grad needs h > 0, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    shape = np.shape(f(theta))
    grad = np.empty(shape + theta.shape)
    columns = grad.reshape(shape + (theta.size,))  # a view; coordinate i is [..., i]
    probe = theta.copy()
    for i in range(theta.size):
        orig = probe.flat[i]
        probe.flat[i] = orig + h
        f_plus = f(probe)
        probe.flat[i] = orig - h
        f_minus = f(probe)
        probe.flat[i] = orig
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise OracleError(
                f"non-finite probe value at coordinate {i}: "
                f"f(+h)={f_plus}, f(-h)={f_minus}"
            )
        columns[..., i] = (f_plus - f_minus) / (2.0 * h)
    return grad
