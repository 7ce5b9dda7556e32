"""Dense kernels, activations, seeded RNG, and the finite-difference oracle.

Everything here is 64-bit. Gradient checking at 1e-4 tolerance is not
feasible in float32, so the whole package standardizes on float64.
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
        self.seed = seed & _MASK64
        self._state = seed & _MASK64

    @property
    def state(self) -> int:
        """Current 64-bit state, suitable for checkpointing."""
        return self._state

    def set_state(self, state: int) -> None:
        self._state = state & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _bulk_uint64(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

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
    s = np.multiply(np.asarray(v, dtype=np.float64), 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


_ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "tanh": np.tanh}


def activation(kind: str, v: np.ndarray) -> np.ndarray:
    """Elementwise activation by name: relu, sigmoid, or tanh."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ContractViolation(f"unknown activation kind: {kind!r}") from None
    return fn(np.asarray(v, dtype=np.float64))


def relu_mask(pre: np.ndarray) -> np.ndarray:
    """Derivative of relu w.r.t. its preactivation; the kink at 0 maps to 0."""
    return (pre > 0.0).astype(np.float64)


def sigmoid_grad_from_output(s: np.ndarray) -> np.ndarray:
    return s * (1.0 - s)


def tanh_grad_from_output(t: np.ndarray) -> np.ndarray:
    return 1.0 - t * t


def linear_forward(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W.T @ x for a (in x out) weight matrix. No bias term anywhere in the head."""
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if W.ndim != 2 or x.ndim != 1 or W.shape[0] != x.shape[0]:
        raise ContractViolation(
            f"linear_forward shape mismatch: W {W.shape}, x {x.shape}"
        )
    return W.T @ x


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
    """Stack of `count` independently initialized (in x out) matrices."""
    return np.stack([init_params(shape, rng) for _ in range(count)])


def finite_diff_grad(
    f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    This is the package's independent gradient oracle; it never touches the
    analytic backward path it is used to check.
    """
    if h <= 0:
        raise ContractViolation(f"finite_diff_grad needs h > 0, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    probe = theta.copy()
    for i in range(theta.size):
        orig = probe.flat[i]
        probe.flat[i] = orig + h
        f_plus = f(probe)
        probe.flat[i] = orig - h
        f_minus = f(probe)
        probe.flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise OracleError(
                f"non-finite probe value at coordinate {i}: "
                f"f(+h)={f_plus}, f(-h)={f_minus}"
            )
        grad.flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
