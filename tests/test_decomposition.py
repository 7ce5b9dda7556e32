"""Feature decomposition and compactness-loss tests."""

import numpy as np
import pytest

from stage_forward import stage_forward

from ferhead.decomposition import LatentCenters, compactness_grad, compactness_loss
from ferhead.errors import ContractViolation
from ferhead.numerics import SplitMix64, finite_diff_grad


def naive_decompose(x, weights):
    """Loop reimplementation: latents[j, d] = relu(sum_p W[j, p, d] x[p])."""
    M, P, D = weights.shape
    out = np.zeros((M, D))
    for j in range(M):
        for d in range(D):
            acc = 0.0
            for p in range(P):
                acc += weights[j, p, d] * x[p]
            out[j, d] = max(acc, 0.0)
    return out


class TestDecompose:
    """The decomposition stage of head.forward: cache.latents."""

    def test_zero_input(self):
        W = np.random.default_rng(0).normal(size=(2, 3, 4))
        cache = stage_forward(np.zeros((1, 3)), 2, 4, decomp=W)
        assert np.array_equal(cache.latents[0], np.zeros((2, 4)))

    def test_identity_on_nonnegative(self):
        W = np.stack([np.eye(3), np.eye(3)])
        x = np.array([1.0, 0.0, 2.5])
        out = stage_forward(x[None], 2, 3, decomp=W).latents[0]
        assert np.array_equal(out[0], x) and np.array_equal(out[1], x)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(2, 3, 2))
        X = rng.normal(size=(4, 3))
        latents = stage_forward(X, 2, 2, decomp=W).latents
        for i in range(4):
            np.testing.assert_allclose(latents[i], naive_decompose(X[i], W), atol=1e-12)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            W = rng.normal(size=(3, 5, 4))
            X = rng.normal(size=(2, 5))
            assert np.all(stage_forward(X, 3, 4, decomp=W).latents >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            stage_forward(np.zeros((1, 4)), 2, 4, input_dim=3)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(3, 6, 4))
        X = rng.normal(size=(5, 6))
        batched = stage_forward(X, 3, 4, decomp=W).latents
        for i in range(5):
            single = stage_forward(X[i : i + 1], 3, 4, decomp=W).latents[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


class TestCompactnessLoss:
    def test_zero_at_centers(self):
        centers = LatentCenters(np.arange(6.0).reshape(2, 3))
        batch = np.tile(centers.centers, (4, 1, 1))
        assert compactness_loss(batch, centers) == 0.0

    def test_hand_computed(self):
        centers = LatentCenters(np.zeros((1, 2)))
        batch = np.array([[[1.0, 0.0]]])
        assert compactness_loss(batch, centers) == pytest.approx(1.0)

    def test_doubling_residual_quadruples_loss(self):
        rng = np.random.default_rng(4)
        centers = LatentCenters(rng.normal(size=(3, 4)))
        batch = centers.centers[None] + rng.normal(size=(5, 3, 4))
        base = compactness_loss(batch, centers)
        doubled = centers.centers[None] + 2.0 * (batch - centers.centers[None])
        assert compactness_loss(doubled, centers) == pytest.approx(4.0 * base)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(12)
        centers = LatentCenters(rng.normal(size=(2, 3)))
        batch = rng.normal(size=(6, 2, 3))
        assert compactness_loss(batch, centers) > 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolation):
            compactness_loss(np.zeros((0, 2, 3)), LatentCenters(np.zeros((2, 3))))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        centers = LatentCenters(rng.normal(size=(2, 3)))
        batch = rng.normal(size=(4, 2, 3))

        def f(flat):
            return compactness_loss(flat.reshape(4, 2, 3), centers)

        fd = finite_diff_grad(f, batch.ravel(), h=1e-6).reshape(batch.shape)
        np.testing.assert_allclose(compactness_grad(batch, centers), fd, atol=1e-7)


class TestCenterUpdates:
    def test_fixed_point_at_batch_mean(self):
        centers = LatentCenters(np.array([[2.0, 4.0]]))
        batch = np.array([[[1.0, 3.0]], [[3.0, 5.0]]])  # mean = centers
        centers.update(batch, rate=0.7)
        np.testing.assert_array_equal(centers.centers, [[2.0, 4.0]])

    def test_full_step_jumps_to_sample(self):
        centers = LatentCenters(np.array([[5.0, -2.0]]))
        batch = np.array([[[1.0, 1.0]]])
        centers.update(batch, rate=1.0)
        np.testing.assert_array_equal(centers.centers, [[1.0, 1.0]])

    def test_hand_computed_half_step(self):
        centers = LatentCenters(np.array([[0.0]]))
        centers.update(np.array([[[2.0]], [[4.0]]]), rate=0.5)
        np.testing.assert_allclose(centers.centers, [[1.5]])

    def test_geometric_convergence_to_batch_mean(self):
        rng = np.random.default_rng(33)
        rate = 0.3
        centers = LatentCenters(rng.normal(size=(2, 3)))
        batch = rng.normal(size=(7, 2, 3))
        mean = batch.mean(axis=0)
        gap = np.abs(centers.centers - mean).max()
        for _ in range(25):
            centers.update(batch, rate)
            new_gap = np.abs(centers.centers - mean).max()
            np.testing.assert_allclose(new_gap, (1 - rate) * gap, rtol=1e-9)
            gap = new_gap
        assert gap < 1e-3

    def test_centers_never_touched_by_gradient_helpers(self):
        rng = np.random.default_rng(8)
        centers = LatentCenters(rng.normal(size=(2, 3)))
        snapshot = centers.centers.copy()
        batch = rng.normal(size=(4, 2, 3))
        compactness_loss(batch, centers)
        compactness_grad(batch, centers)
        np.testing.assert_array_equal(centers.centers, snapshot)


class TestDecompositionGradientThroughLoss:
    def test_analytic_weight_gradient_matches_fd(self):
        """Compactness loss differentiated through the decomposition weights."""
        rng = SplitMix64(3)
        W = rng.uniform(-0.3, 0.3, (2, 4, 3))
        X = rng.uniform(0.2, 1.0, (3, 4))
        centers = LatentCenters(rng.uniform(-0.2, 0.2, (2, 3)))

        def latents_of(decomp):
            return stage_forward(X, 2, 3, decomp=decomp).latents

        def loss_of(flat):
            return compactness_loss(latents_of(flat.reshape(W.shape)), centers)

        pre = np.einsum("np,mpd->nmd", X, W)
        assert np.abs(pre).min() > 1e-3, "instance too close to a relu kink"

        dlat = compactness_grad(latents_of(W), centers)
        dpre = dlat * (pre > 0)
        analytic = np.einsum("np,nmd->mpd", X, dpre)
        fd = finite_diff_grad(loss_of, W.ravel(), h=1e-6).reshape(W.shape)
        rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel < 1e-4
