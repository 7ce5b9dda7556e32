"""Relation message, weight-matrix, aggregation, and blending tests."""

import math

import numpy as np
import pytest

from stage_forward import stage_forward

from ferhead.datasets import FeatureDataset
from ferhead.errors import ContractViolation, TrainingError
from ferhead.head import HeadConfig, ParamGroups
from ferhead.inter import pairwise_relation
from ferhead.training import forward_in_blocks


def naive_messages(features, weights):
    M, D = features.shape
    out = np.zeros((M, D))
    for j in range(M):
        for e in range(D):
            acc = 0.0
            for d in range(D):
                acc += weights[j, d, e] * features[j, d]
            out[j, e] = max(acc, 0.0)
    return out


class TestEncodeMessages:
    """The message encoder stage of head.forward: cache.messages."""

    def test_zero_features(self):
        W = np.random.default_rng(0).normal(size=(2, 3, 3))
        messages = stage_forward(np.zeros((1, 4)), 2, 3, message=W).messages
        assert np.array_equal(messages[0], np.zeros((2, 3)))

    def test_identity_on_nonnegative(self):
        W = np.stack([np.eye(3), np.eye(3)])
        X = np.random.default_rng(1).normal(size=(4, 5))
        cache = stage_forward(X, 2, 3, message=W)
        assert np.all(cache.scaled >= 0)
        np.testing.assert_array_equal(cache.messages, cache.scaled)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(2, 2, 2))
        cache = stage_forward(rng.uniform(size=(3, 4)), 2, 2, message=W)
        for i in range(3):
            np.testing.assert_allclose(
                cache.messages[i], naive_messages(cache.scaled[i], W), atol=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        messages = stage_forward(rng.uniform(size=(6, 4)), 3, 5).messages
        assert np.all(messages >= 0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(3, 4, 4))
        X = rng.uniform(size=(6, 5))
        batched = stage_forward(X, 3, 4, message=W).messages
        for i in range(6):
            single = stage_forward(X[i : i + 1], 3, 4, message=W).messages[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


class TestRelationWeights:
    def test_identical_messages_give_zero_matrix(self):
        g = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        omega = pairwise_relation(g)[1]
        assert np.array_equal(omega, np.zeros((4, 4)))

    def test_unit_distance_pair(self):
        g = np.array([[1.0, 0.0], [0.0, 0.0]])
        omega = pairwise_relation(g)[1]
        expected = math.tanh(1.0)
        assert omega[0, 1] == pytest.approx(expected, abs=1e-9)
        assert omega[1, 0] == pytest.approx(expected, abs=1e-9)
        assert omega[0, 0] == 0.0 and omega[1, 1] == 0.0
        assert expected == pytest.approx(0.761594, abs=1e-6)

    def test_structural_invariants_random(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = rng.normal(size=(5, 6))
            omega = pairwise_relation(g)[1]
            np.testing.assert_array_equal(np.diag(omega), np.zeros(5))
            np.testing.assert_allclose(omega, omega.T, atol=1e-15)
            assert np.all((omega >= 0) & (omega < 1))

    def test_batched_structural_invariants(self):
        rng = np.random.default_rng(9)
        omega = pairwise_relation(rng.normal(size=(7, 4, 3)))[1]
        assert omega.shape == (7, 4, 4)
        idx = np.arange(4)
        assert np.all(omega[:, idx, idx] == 0)


class TestRelationOverflow:
    def test_float32_messages_1e20_apart_raise_under_errstate(self):
        g = np.zeros((2, 3, 4), dtype=np.float32)
        g[1, 2, 0] = 1e20
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow encountered in "):
                pairwise_relation(g)

    def test_forward_in_blocks_names_the_rows_whose_relation_stage_overflows(self):
        """Latent 0's messages reach 4e19 while the others stay 0; every
        stage before the relation weights holds them in float32."""
        cfg = HeadConfig(input_dim=8, latent_dim=8, n_latents=3, n_classes=3)
        M, P, D = cfg.n_latents, cfg.input_dim, cfg.latent_dim
        decomp = np.zeros((M, P, D), dtype=np.float32)
        decomp[0] = np.eye(P, D)
        params = ParamGroups(
            decomp=decomp,
            gate=np.zeros((M, D, D), dtype=np.float32),
            message=np.stack([np.eye(D, dtype=np.float32)] * M),
            classifier=np.ones((D, cfg.n_classes), dtype=np.float32),
        )
        X = np.ones((300, P))
        X[280] = 1e19
        data = FeatureDataset(X, np.arange(300) % 3, cfg.n_classes)
        with pytest.raises(TrainingError, match="^rows 257 to 300: overflow encountered in "):
            forward_in_blocks(data, params, cfg, lambda cache: cache.logits)


class TestAggregate:
    """Relation-weighted neighbor messages: cache.feature at mix_ratio 0 is
    their sum over latents, sum_j sum_m omega[j, m] * messages[m]."""

    def test_zero_weights(self):
        """Latents sharing one weight slice send coincident messages, weighed 0."""
        rng = np.random.default_rng(1)
        groups = {
            name: np.stack([rng.normal(size=(4, 4))] * 3)
            for name in ("decomp", "gate", "message")
        }
        cache = stage_forward(rng.normal(size=(5, 4)), 3, 4, mix_ratio=0.0, **groups)
        assert np.all(cache.omega == 0.0) and np.any(cache.messages > 0)
        assert np.array_equal(cache.feature, np.zeros((5, 4)))

    def test_hand_computed(self):
        # with two latents, each aggregates only the other's message
        cache = stage_forward(np.random.default_rng(2).normal(size=(4, 3)), 2, 3, mix_ratio=0.0)
        omega = cache.omega[:, 0, 1, None]
        assert np.all(omega > 0)
        want = omega * cache.messages[:, 1] + omega * cache.messages[:, 0]
        np.testing.assert_allclose(cache.feature, want, rtol=1e-12, atol=1e-12)

    def test_linear_in_messages_with_fixed_weights(self):
        """feature = sum_j sum_m omega[j, m] * messages[m], by loops."""
        cache = stage_forward(np.random.default_rng(3).normal(size=(3, 6)), 4, 5, mix_ratio=0.0)
        for i in range(3):
            want = sum(
                cache.omega[i, j, m] * cache.messages[i, m] for j in range(4) for m in range(4)
            )
            np.testing.assert_allclose(cache.feature[i], want, rtol=1e-12, atol=1e-12)


class TestMix:
    """The blend of gated and aggregated features, summed over latents: cache.feature."""

    X = np.random.default_rng(4).normal(size=(5, 4))

    def test_all_direct(self):
        cache = stage_forward(self.X, 3, 4, mix_ratio=1.0)
        want = cache.scaled[:, 0] + cache.scaled[:, 1] + cache.scaled[:, 2]
        np.testing.assert_allclose(cache.feature, want, rtol=1e-12, atol=1e-12)

    def test_all_aggregated(self):
        cache = stage_forward(self.X, 3, 4, mix_ratio=0.0)
        want = (cache.omega @ cache.messages).sum(axis=1)
        np.testing.assert_allclose(cache.feature, want, rtol=1e-12, atol=1e-12)

    def test_hand_computed_half(self):
        cache = stage_forward(self.X, 3, 4, mix_ratio=0.5)
        aggregated = cache.omega @ cache.messages
        want = (0.5 * cache.scaled + 0.5 * aggregated).sum(axis=1)
        np.testing.assert_allclose(cache.feature, want, rtol=1e-12, atol=1e-12)

    def test_ratio_out_of_range(self):
        for ratio in (1.5, -0.1):
            with pytest.raises(ContractViolation, match="mix_ratio"):
                HeadConfig(mix_ratio=ratio).validate()


class TestReconstruct:
    """The expression feature, the sum of the blended latents: cache.feature."""

    def test_zero_bank(self):
        feature = stage_forward(np.zeros((1, 4)), 3, 4).feature
        assert np.array_equal(feature, np.zeros((1, 4)))

    def test_hand_computed(self):
        """Two latents: y = 0.5*(F[0] + omega G[1]) + 0.5*(F[1] + omega G[0])."""
        cache = stage_forward(np.random.default_rng(5).normal(size=(4, 3)), 2, 3)
        F, G, omega = cache.scaled, cache.messages, cache.omega[:, 0, 1, None]
        want = 0.5 * (F[:, 0] + omega * G[:, 1]) + 0.5 * (F[:, 1] + omega * G[:, 0])
        np.testing.assert_allclose(cache.feature, want, rtol=1e-12, atol=1e-12)

    def test_permutation_invariant(self):
        """Relabeling the latents leaves the feature unchanged."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 6))
        groups = {
            "decomp": rng.normal(size=(5, 6, 4)),
            "gate": rng.normal(size=(5, 4, 4)),
            "message": rng.normal(size=(5, 4, 4)),
        }
        perm = rng.permutation(5)
        base = stage_forward(X, 5, 4, **groups).feature
        permuted = stage_forward(X, 5, 4, **{k: v[perm] for k, v in groups.items()}).feature
        np.testing.assert_allclose(base, permuted, atol=1e-12)
