"""Gate, importance-weight, and intra-regularizer tests."""

import math

import numpy as np
import pytest

from stage_forward import stage_forward

from ferhead.errors import ContractViolation
from ferhead.intra import (
    ClassCenters,
    balance_loss,
    balance_sign,
    distribution_grad,
    distribution_loss,
    mean_weights,
    per_class_mean_weights,
    uniform_target,
)
from ferhead.numerics import finite_diff_grad


def naive_gate(latents, weights):
    """Loop reimplementation of the per-latent sigmoid gate."""
    M, D = latents.shape
    out = np.zeros((M, D))
    for j in range(M):
        for e in range(D):
            acc = 0.0
            for d in range(D):
                acc += weights[j, d, e] * latents[j, d]
            out[j, e] = 1.0 / (1.0 + np.exp(-acc))
    return out


def identity_decomp(n_latents, dim):
    """Decomposition weights under which every latent equals the input."""
    return np.stack([np.eye(dim)] * n_latents)


class TestGate:
    """The gate stage of head.forward: cache.gates."""

    def test_zero_latents_give_half(self):
        W = np.random.default_rng(0).normal(size=(2, 3, 3))
        gates = stage_forward(np.zeros((1, 4)), 2, 3, gate=W).gates
        np.testing.assert_allclose(gates[0], np.full((2, 3), 0.5))

    def test_zero_weights_give_half(self):
        X = np.random.default_rng(1).uniform(size=(3, 4))
        gates = stage_forward(X, 2, 3, gate=np.zeros((2, 3, 3))).gates
        np.testing.assert_allclose(gates, np.full((3, 2, 3), 0.5))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(2, 2, 2))
        cache = stage_forward(rng.uniform(size=(3, 4)), 2, 2, gate=W)
        for i in range(3):
            np.testing.assert_allclose(
                cache.gates[i], naive_gate(cache.latents[i], W), atol=1e-12
            )

    def test_outputs_in_open_unit_interval(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(5, 4))
        decomp = rng.uniform(size=(3, 4, 4)) / 4.0  # latents in [0, 1)
        g = stage_forward(X, 3, 4, decomp=decomp, gate=rng.normal(size=(3, 4, 4))).gates
        assert np.all((g > 0) & (g < 1))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(3, 4, 4))
        X = rng.uniform(size=(6, 5))
        batched = stage_forward(X, 3, 4, gate=W).gates
        for i in range(6):
            single = stage_forward(X[i : i + 1], 3, 4, gate=W).gates[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


class TestIntraWeights:
    """Importance weights, the gate sums: cache.weights."""

    def test_sum_of_halves(self):
        X = np.random.default_rng(0).uniform(size=(1, 3))
        weights = stage_forward(X, 1, 2, gate=np.zeros((1, 2, 2))).weights
        assert weights[0, 0] == pytest.approx(1.0)

    def test_all_half_gates_d128(self):
        X = np.random.default_rng(0).uniform(size=(1, 3))
        weights = stage_forward(X, 1, 128, gate=np.zeros((1, 128, 128))).weights
        assert weights[0, 0] == pytest.approx(64.0)

    def test_near_zero_gates(self):
        # unit latents and gate preactivations of -log(1e9 - 1): each gate is 1e-9
        gate = np.full((1, 8, 8), -math.log(1e9 - 1.0) / 8)
        cache = stage_forward(np.ones((1, 8)), 1, 8, decomp=identity_decomp(1, 8), gate=gate)
        assert cache.weights[0, 0] == pytest.approx(8e-9)

    def test_monotone_in_each_entry(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.1, 1.0, size=(1, 5))
        decomp = rng.uniform(0.1, 1.0, size=(3, 5, 5))  # positive latents
        gate = rng.normal(size=(3, 5, 5))
        base = stage_forward(X, 3, 5, decomp=decomp, gate=gate).weights[0]
        bumped = gate.copy()
        bumped[1, :, 3] += 0.05  # raises latent 1's gate entry 3
        out = stage_forward(X, 3, 5, decomp=decomp, gate=bumped).weights[0]
        assert out[1] > base[1]
        assert out[0] == base[0] and out[2] == base[2]

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            X = rng.uniform(-1.0, 1.0, size=(1, 4))
            decomp = rng.normal(scale=0.25, size=(4, 4, 16))
            gate = rng.normal(scale=4.0, size=(4, 16, 16))
            w = stage_forward(X, 4, 16, decomp=decomp, gate=gate).weights
            assert np.all((w >= 0) & (w < 16))


class TestScaleFeatures:
    """Latents scaled by their importance weights: cache.scaled."""

    def test_zero_weight_zeroes_feature(self):
        # latent 0's gates saturate to exactly 0, so its weight is 0
        gate = np.stack([np.full((3, 3), -1000.0), np.zeros((3, 3))])
        cache = stage_forward(np.ones((1, 3)), 2, 3, decomp=identity_decomp(2, 3), gate=gate)
        assert cache.weights[0, 0] == 0.0
        assert np.array_equal(cache.scaled[0, 0], np.zeros(3))
        assert np.array_equal(cache.scaled[0, 1], np.full(3, 1.5))

    def test_unit_weight_is_identity(self):
        X = np.random.default_rng(1).uniform(size=(4, 3))
        cache = stage_forward(X, 2, 2, gate=np.zeros((2, 2, 2)))
        np.testing.assert_array_equal(cache.weights, np.ones((4, 2)))
        np.testing.assert_array_equal(cache.scaled, cache.latents)

    def test_hand_computed(self):
        # four half gates weigh 2; identity decomposition of x = [1, 3, 0, 0]
        x = np.array([[1.0, 3.0, 0.0, 0.0]])
        cache = stage_forward(x, 1, 4, decomp=identity_decomp(1, 4), gate=np.zeros((1, 4, 4)))
        np.testing.assert_array_equal(cache.scaled[0], [[2.0, 6.0, 0.0, 0.0]])


class TestDistributionLoss:
    def test_zero_at_class_centers(self):
        centers = ClassCenters(np.array([[1.0, 2.0], [3.0, 4.0]]))
        batch = centers.centers[[0, 1, 1]]
        labels = np.array([0, 1, 1])
        assert distribution_loss(batch, labels, centers) == 0.0

    def test_hand_computed(self):
        centers = ClassCenters(np.zeros((1, 2)))
        assert distribution_loss(
            np.array([[1.0, 0.0]]), np.array([0]), centers
        ) == pytest.approx(1.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        centers = ClassCenters(rng.normal(size=(3, 4)))
        batch = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        base = distribution_loss(batch, labels, centers)
        perm = rng.permutation(8)
        assert distribution_loss(batch[perm], labels[perm], centers) == pytest.approx(base)

    def test_out_of_range_label(self):
        centers = ClassCenters(np.zeros((2, 3)))
        with pytest.raises(ContractViolation):
            distribution_loss(np.zeros((1, 3)), np.array([2]), centers)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        centers = ClassCenters(rng.normal(size=(3, 4)))
        batch = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)

        def f(flat):
            return distribution_loss(flat.reshape(5, 4), labels, centers)

        fd = finite_diff_grad(f, batch.ravel(), h=1e-6).reshape(batch.shape)
        np.testing.assert_allclose(distribution_grad(batch, labels, centers), fd, atol=1e-7)


class TestClassCenterUpdates:
    def test_only_present_class_changes(self):
        centers = ClassCenters(np.ones((4, 2)))
        snapshot = centers.centers.copy()
        centers.update(np.array([[5.0, 5.0]]), np.array([3]), rate=0.5)
        np.testing.assert_array_equal(centers.centers[:3], snapshot[:3])
        assert not np.array_equal(centers.centers[3], snapshot[3])

    def test_fixed_point_at_class_mean(self):
        centers = ClassCenters(np.array([[2.0, 2.0]]))
        centers.update(np.array([[1.0, 1.0], [3.0, 3.0]]), np.array([0, 0]), rate=0.9)
        np.testing.assert_array_equal(centers.centers, [[2.0, 2.0]])

    def test_hand_computed_half_step(self):
        centers = ClassCenters(np.zeros((1, 2)))
        centers.update(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 0]), rate=0.5)
        np.testing.assert_allclose(centers.centers, [[0.5, 0.5]])


class TestBalanceLoss:
    def test_zero_at_uniform(self):
        assert balance_loss(uniform_target(5)) == 0.0

    def test_hand_computed(self):
        assert balance_loss(np.array([1.5, 0.5])) == pytest.approx(1.0)

    def test_joint_coordinate_permutation_invariant(self):
        rng = np.random.default_rng(4)
        mean_w = rng.uniform(size=6)
        residual = mean_w - uniform_target(6)
        base = balance_loss(mean_w)
        perm = rng.permutation(6)
        permuted = uniform_target(6) + residual[perm]
        assert balance_loss(permuted) == pytest.approx(base)

    def test_zero_iff_uniform(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.uniform(size=4)
            if np.allclose(w, uniform_target(4)):
                continue
            assert balance_loss(w) > 0

    def test_sign_subgradient_zero_at_ties(self):
        mean_w = uniform_target(3)
        np.testing.assert_array_equal(balance_sign(mean_w), np.zeros(3))

    def test_mean_weights_is_arithmetic_mean(self):
        batch = np.array([[1.0, 3.0], [3.0, 5.0]])
        np.testing.assert_array_equal(mean_weights(batch), [2.0, 4.0])


class TestPerClassMeans:
    def test_shape_and_values(self):
        batch = np.array([[2.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        labels = np.array([0, 0, 2])
        means = per_class_mean_weights(batch, labels, 3)
        np.testing.assert_array_equal(means[0], [1.0, 1.0])
        np.testing.assert_array_equal(means[1], [0.0, 0.0])
        np.testing.assert_array_equal(means[2], [4.0, 4.0])

    def test_keeps_the_batch_dtype(self):
        """A float32 batch gives float32 means, each the float32 mean of its rows."""
        rng = np.random.default_rng(3)
        batch = rng.uniform(0.0, 64.0, (50, 4)).astype(np.float32)
        labels = rng.integers(0, 3, 50)
        means = per_class_mean_weights(batch, labels, 4)
        assert means.dtype == np.float32
        for k in range(3):
            np.testing.assert_array_equal(means[k], batch[labels == k].mean(axis=0))
        np.testing.assert_array_equal(means[3], 0.0)
