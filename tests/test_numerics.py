"""Activation, RNG, initialization, and finite-difference oracle tests."""

import math

import numpy as np
import pytest

from stage_forward import stage_forward

from ferhead.errors import ContractViolation, OracleError
from ferhead.head import Centers, HeadConfig, ParamGroups, backward, forward
from ferhead.numerics import (
    _GAMMA,
    SplitMix64,
    finite_diff_grad,
    init_param_stack,
    init_params,
    relu,
    sigmoid,
)


def latent_map(W, X):
    """The head's first linear map and its relu, relu(W.T @ x) per row:
    (N, P) -> (N, D), checked against np.maximum(X @ W, 0)."""
    latents = stage_forward(X, 1, W.shape[1], decomp=W[None]).latents[:, 0]
    np.testing.assert_allclose(latents, np.maximum(np.asarray(X) @ W, 0.0), atol=1e-12)
    return latents


class TestLinearForward:
    """The bias-free linear maps of the head, seen at the decomposition."""

    def test_identity(self):
        assert np.array_equal(latent_map(np.eye(2), [[3.0, -1.0]]), [[3.0, 0.0]])

    def test_zeros(self):
        assert np.array_equal(latent_map(np.zeros((2, 2)), [[5.0, 7.0]]), [[0.0, 0.0]])

    def test_hand_computed(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(latent_map(W, [[1.0, 1.0]]), [[4.0, 6.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            stage_forward(np.ones((1, 2)), 1, 3, input_dim=3)

    def test_linearity(self):
        """Linear where every output is positive: nonnegative weights, inputs
        and coefficients keep the relu off its kink."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            W = np.abs(rng.normal(size=(6, 4)))
            x, y = np.abs(rng.normal(size=(2, 1, 6))) + 0.1
            a, b = np.abs(rng.normal(size=2)) + 0.1
            lhs = latent_map(W, a * x + b * y)
            assert np.all(lhs > 0)
            rhs = a * latent_map(W, x) + b * latent_map(W, y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestActivations:
    def test_relu_basic(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0])), [0.5])

    def test_ranges(self):
        rng = np.random.default_rng(3)
        v = rng.normal(scale=5.0, size=1000)
        assert np.all(relu(v) >= 0)
        s = sigmoid(v)
        assert np.all((s > 0) & (s < 1))

    def test_monotone_on_sorted_inputs(self):
        v = np.linspace(-6, 6, 500)
        for fn in (relu, sigmoid):
            assert np.all(np.diff(fn(v)) >= 0), fn.__name__

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0


class TestSplitMix64:
    def test_determinism(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]

    def test_reference_sequence(self):
        # First outputs for seed 1234567, from the published splitmix64 routine.
        rng = SplitMix64(1234567)
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert [rng.next_uint64() for _ in range(3)] == expected

    def test_bulk_matches_scalar(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        bulk = a._bulk_uint64(17)
        scalar = [b.next_uint64() for _ in range(17)]
        assert [int(v) for v in bulk] == scalar
        assert a.next_uint64() == b.next_uint64()

    def test_random_in_unit_interval(self):
        u = SplitMix64(5).random(10000)
        assert np.all((u >= 0) & (u < 1))

    def test_state_roundtrip(self):
        """After n draws the state is the seed plus n gammas, and the constructor restores it."""
        rng = SplitMix64(42)
        rng.random(100)
        first = rng.next_uint64()
        rng = SplitMix64(42 + 100 * _GAMMA)
        assert rng.next_uint64() == first

    def test_permutation_is_permutation(self):
        perm = SplitMix64(7).permutation(100)
        assert sorted(perm) == list(range(100))

    def test_normal_moments(self):
        z = SplitMix64(8).normal(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestInitParams:
    def test_determinism(self):
        a = init_params((4, 4), SplitMix64(7))
        b = init_params((4, 4), SplitMix64(7))
        assert np.array_equal(a, b)

    def test_bound(self):
        W = init_params((25, 30), SplitMix64(1))
        bound = math.sqrt(6.0 / 25)
        assert np.all(np.abs(W) <= bound)

    def test_empirical_mean_near_zero(self):
        W = init_params((1000, 1000), SplitMix64(2))
        assert abs(W.mean()) < 0.01

    def test_zero_dimension_rejected(self):
        with pytest.raises(ContractViolation):
            init_params((0, 4), SplitMix64(0))

    def test_stack_slices_differ(self):
        stack = init_param_stack(3, (5, 5), SplitMix64(3))
        assert stack.shape == (3, 5, 5)
        assert not np.array_equal(stack[0], stack[1])


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), h=1e-5)
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 4.2, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_linear_sum(self):
        grad = finite_diff_grad(lambda t: float(t.sum()), np.zeros(5))
        np.testing.assert_allclose(grad, np.ones(5), atol=1e-10)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ContractViolation):
            finite_diff_grad(lambda t: 0.0, np.zeros(2), h=0.0)

    def test_nonfinite_probe_names_coordinate(self):
        def f(t):
            return float("nan") if t[1] != 0.0 else 0.0

        with pytest.raises(OracleError, match="coordinate 1"):
            finite_diff_grad(f, np.zeros(3))

    def test_matches_jacobian_transpose_of_linear_map(self):
        # FD of v . (W.T x) w.r.t. x must equal W v to high accuracy.
        rng = np.random.default_rng(17)
        W = rng.normal(size=(6, 4))
        v = rng.normal(size=4)
        x0 = rng.normal(size=6)
        grad = finite_diff_grad(lambda x: float(v @ (W.T @ x)), x0, h=1e-6)
        analytic = W @ v
        rel = np.abs(grad - analytic).max() / np.abs(analytic).max()
        assert rel < 1e-6

    def test_array_valued_f_stacks_scalar_sweeps(self):
        rng = np.random.default_rng(18)
        A = rng.normal(size=(3, 2, 4))
        theta = rng.normal(size=(2, 4))

        def f(t):
            return np.tanh(np.einsum("kij,ij->k", A, t * t))

        grad = finite_diff_grad(f, theta)
        assert grad.shape == (3,) + theta.shape
        singles = [finite_diff_grad(lambda t, k=k: float(f(t)[k]), theta) for k in range(3)]
        assert np.array_equal(grad, np.stack(singles))

    def test_array_valued_nonfinite_probe_names_coordinate(self):
        def f(t):
            return np.array([0.0, float("inf") if t[2] != 0.0 else 0.0, 1.0])

        with pytest.raises(OracleError, match="coordinate 2"):
            finite_diff_grad(f, np.zeros(4))


class TestReluDerivativeConvention:
    def test_kink_maps_to_zero(self):
        """backward takes relu's derivative at exactly 0 to be 0.

        Zero decomposition weights put every latent preactivation on the
        kink. The compactness term then sends the latents a nonzero
        gradient, which a derivative of 1 at the kink would pass on to the
        decomposition weights.
        """
        cfg = HeadConfig(input_dim=3, latent_dim=2, n_latents=2, n_classes=2, lambda_compact=1.0)
        rng = np.random.default_rng(19)
        params = ParamGroups(
            decomp=np.zeros((2, 3, 2)),
            gate=rng.normal(size=(2, 2, 2)),
            message=rng.normal(size=(2, 2, 2)),
            classifier=rng.normal(size=(2, 2)),
        )
        centers = Centers.zeros(cfg)
        centers.latent.centers[...] = 1.0
        cache = forward(rng.normal(size=(4, 3)), params, cfg)
        assert np.array_equal(cache.latents, np.zeros((4, 2, 2)))
        grads, _ = backward(cache, np.array([0, 1, 0, 1]), params, centers, cfg)
        assert np.array_equal(grads.decomp, np.zeros((2, 3, 2)))

    def test_relu_nonnegative(self):
        assert np.all(relu(np.linspace(-5, 5, 101)) >= 0)
