"""Full-head forward oracle, loss assembly, and backward gradient tests."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from naive_reference import naive_head_forward, naive_losses

from ferhead.errors import ContractViolation, TrainingError
from ferhead.head import (
    Centers,
    HeadConfig,
    ParamGroups,
    backward,
    batch_cross_entropy,
    compute_losses,
    cross_entropy,
    forward,
    init_model_params,
    joint_loss,
    softmax,
)
from ferhead.inter import EPS_NORM
from ferhead.numerics import SplitMix64


def small_cfg(**overrides):
    base = dict(input_dim=16, latent_dim=8, n_latents=3, n_classes=4)
    base.update(overrides)
    return HeadConfig(**base)


def random_instance(seed, batch=5, cfg=None):
    cfg = cfg or small_cfg()
    rng = SplitMix64(seed)
    params = ParamGroups(
        decomp=rng.uniform(-0.3, 0.3, (cfg.n_latents, cfg.input_dim, cfg.latent_dim)),
        gate=rng.uniform(-0.3, 0.3, (cfg.n_latents, cfg.latent_dim, cfg.latent_dim)),
        message=rng.uniform(-0.3, 0.3, (cfg.n_latents, cfg.latent_dim, cfg.latent_dim)),
        classifier=rng.uniform(-0.3, 0.3, (cfg.latent_dim, cfg.n_classes)),
    )
    X = rng.uniform(-1.0, 1.0, (batch, cfg.input_dim))
    labels = np.array([rng.randint_below(cfg.n_classes) for _ in range(batch)])
    return cfg, params, X, labels


class TestForwardAgainstNaiveOracle:
    def test_hundred_random_instances(self):
        """Vectorized forward matches the loop oracle to 1e-10 everywhere."""
        for seed in range(100):
            cfg, params, X, _ = random_instance(seed, batch=2)
            cache = forward(X, params, cfg)
            for i in range(X.shape[0]):
                ref = naive_head_forward(
                    X[i], params.decomp, params.gate, params.message,
                    params.classifier, cfg.mix_ratio,
                )
                np.testing.assert_allclose(
                    cache.latents[i], ref["latents"], rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    cache.weights[i], ref["weights"], rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    cache.omega[i], ref["omega"], rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    cache.feature[i], ref["feature"], rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    cache.logits[i], ref["logits"], rtol=1e-10, atol=1e-12
                )

    def test_losses_match_naive(self):
        cfg, params, X, labels = random_instance(7, batch=6)
        centers = Centers.zeros(cfg)
        rng = SplitMix64(99)
        centers.latent.centers[...] = rng.uniform(-0.2, 0.2, centers.latent.centers.shape)
        centers.by_class.centers[...] = rng.uniform(0.0, 4.0, centers.by_class.centers.shape)
        cache = forward(X, params, cfg)
        ours = compute_losses(cache, labels, centers, cfg)
        refs = [
            naive_head_forward(
                X[i], params.decomp, params.gate, params.message,
                params.classifier, cfg.mix_ratio,
            )
            for i in range(X.shape[0])
        ]
        naive = naive_losses(
            refs,
            labels,
            centers.latent.centers,
            centers.by_class.centers,
            (cfg.lambda_compact, cfg.lambda_balance, cfg.lambda_distribution),
        )
        assert ours.cls == pytest.approx(naive["cls"], rel=1e-10)
        assert ours.compact == pytest.approx(naive["compact"], rel=1e-10)
        assert ours.balance == pytest.approx(naive["balance"], rel=1e-10)
        assert ours.distribution == pytest.approx(naive["distribution"], rel=1e-10)
        assert ours.total == pytest.approx(naive["total"], rel=1e-10)

    def test_sequential_forward_matches_vectorized(self):
        """A loop of one-row forward calls gives the batched forward's values."""
        cfg, params, X, _ = random_instance(3, batch=7)
        a = forward(X, params, cfg)
        rows = [forward(X[i : i + 1], params, cfg) for i in range(X.shape[0])]
        logits = np.concatenate([r.logits for r in rows])
        omega = np.concatenate([r.omega for r in rows])
        np.testing.assert_allclose(a.logits, logits, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(a.omega, omega, rtol=1e-10, atol=1e-13)

    def test_mix_one_bypasses_relation_path(self):
        """With full direct mixing, the feature is the plain sum of gated features."""
        cfg, params, X, _ = random_instance(5, cfg=small_cfg(mix_ratio=1.0))
        cache = forward(X, params, cfg)
        np.testing.assert_allclose(
            cache.feature, cache.scaled.sum(axis=1), atol=1e-12
        )

    def test_input_shape_rejected(self):
        cfg, params, X, _ = random_instance(0)
        with pytest.raises(ContractViolation):
            forward(X[:, :-1], params, cfg)

    def test_nonfinite_input_rejected(self):
        cfg, params, X, _ = random_instance(0)
        X = X.copy()
        X[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            forward(X, params, cfg)


class TestForwardBufferReuse:
    @pytest.mark.parametrize("out_rows", [7, 4], ids=["same-rows", "other-rows"])
    def test_reused_cache_equals_fresh_forward(self, out_rows):
        """Writing into a used cache leaves nothing of the previous call."""
        cfg, params, X, _ = random_instance(31, batch=7)
        _, _, other, _ = random_instance(32, batch=out_rows)
        used = forward(other, params, cfg)
        got = forward(X, params, cfg, out=used)
        assert (got is used) == (out_rows == len(X))
        fresh = forward(X, params, cfg)
        for f in fields(fresh):
            assert np.array_equal(getattr(got, f.name), getattr(fresh, f.name)), f.name

    def test_calls_without_out_share_no_memory(self):
        cfg, params, X, _ = random_instance(33, batch=6)
        a, b = forward(X, params, cfg), forward(X.copy(), params, cfg)
        for f in fields(a):
            assert not np.shares_memory(getattr(a, f.name), getattr(b, f.name)), f.name


class TestRelationDistances:
    def test_distances_bitwise_equal_broadcast_formula(self):
        """The pair loop gives exactly the (N, M, M, D) broadcast result."""
        for cfg, batch in ((small_cfg(), 5), (HeadConfig(), 64)):
            params = init_model_params(cfg, SplitMix64(21))
            X = np.random.default_rng(4).normal(size=(batch, cfg.input_dim))
            cache = forward(X, params, cfg)
            G = cache.messages
            diff = G[:, :, None, :] - G[:, None, :, :]
            expected = np.sqrt(np.sum(diff * diff, axis=-1) + EPS_NORM)
            assert np.array_equal(cache.distances, expected)

    def test_coincident_messages_get_exactly_zero_omega(self):
        """Two latents with identical weight slices relate with weight 0.0."""
        cfg, params, X, _ = random_instance(13, batch=20)
        for group in (params.decomp, params.gate, params.message):
            group[1] = group[0]
        cache = forward(X, params, cfg)
        assert np.array_equal(cache.messages[:, 0], cache.messages[:, 1])
        assert np.any(cache.messages[:, 0] > 0)
        assert np.all(cache.omega[:, 0, 1] == 0.0)
        assert np.all(cache.omega[:, 1, 0] == 0.0)
        assert np.any(cache.omega[:, 0, 2] > 0.0)


class TestStructuralInvariants:
    def test_thousand_random_inputs(self):
        rng = np.random.default_rng(0)
        cfg, params, _, _ = random_instance(11)
        centers = Centers.zeros(cfg)
        for _ in range(200):  # 5-sample batches -> 1000 samples total
            X = rng.uniform(-2.0, 2.0, size=(5, cfg.input_dim))
            labels = rng.integers(0, cfg.n_classes, size=5)
            cache = forward(X, params, cfg)
            assert np.all(cache.latents >= 0)
            assert np.all(cache.messages >= 0)
            w = cache.weights
            assert np.all((w >= 0) & (w < cfg.latent_dim))
            omega = cache.omega
            idx = np.arange(cfg.n_latents)
            assert np.all(omega[:, idx, idx] == 0)
            np.testing.assert_allclose(omega, omega.transpose(0, 2, 1), atol=1e-15)
            assert np.all((omega >= 0) & (omega < 1))
            losses = compute_losses(cache, labels, centers, cfg)
            assert losses.cls >= 0
            assert losses.compact >= 0
            assert losses.balance >= 0
            assert losses.distribution >= 0
            p = softmax(cache.logits)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestEpnLogits:
    def test_zero_feature(self):
        from ferhead.head import epn_logits

        W = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(epn_logits(np.zeros(4), W), np.zeros(3))

    def test_identity_classifier(self):
        from ferhead.head import epn_logits

        y = np.array([1.5, -2.0, 0.5])
        np.testing.assert_array_equal(epn_logits(y, np.eye(3)), y)

    def test_matches_naive_matmul(self):
        from ferhead.head import epn_logits

        rng = np.random.default_rng(1)
        y = rng.normal(size=2)
        W = rng.normal(size=(2, 3))
        naive = [sum(W[d][k] * y[d] for d in range(2)) for k in range(3)]
        np.testing.assert_allclose(epn_logits(y, W), naive, atol=1e-12)

    def test_shape_mismatch(self):
        from ferhead.head import epn_logits

        with pytest.raises(ContractViolation):
            epn_logits(np.zeros(3), np.zeros((4, 2)))


class TestCrossEntropy:
    def test_uniform_logits_seven_classes(self):
        loss = cross_entropy(np.zeros(7), 3)
        assert loss == pytest.approx(math.log(7.0), abs=1e-12)
        assert loss == pytest.approx(1.945910, abs=1e-6)

    def test_extreme_logits_no_overflow(self):
        logits = np.array([1000.0, -1000.0, -1000.0])
        assert cross_entropy(logits, 0) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=5)
        base = cross_entropy(logits, 2)
        assert cross_entropy(logits + 123.456, 2) == pytest.approx(base, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ContractViolation):
            cross_entropy(np.zeros(3), 3)

    def test_batch_mean_matches_singles(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        singles = [cross_entropy(logits[i], labels[i]) for i in range(6)]
        assert batch_cross_entropy(logits, labels) == pytest.approx(
            np.mean(singles), rel=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.normal(scale=10.0, size=5)
            assert cross_entropy(logits, int(rng.integers(0, 5))) >= 0


class TestJointLoss:
    def test_zero_lambdas(self):
        cfg = small_cfg(lambda_compact=0.0, lambda_balance=0.0, lambda_distribution=0.0)
        out = joint_loss(1.7, 5.0, 3.0, 2.0, cfg)
        assert out.total == pytest.approx(1.7)

    def test_hand_computed_with_training_lambdas(self):
        cfg = small_cfg(
            lambda_compact=1e-4, lambda_balance=1.0, lambda_distribution=1e-4
        )
        out = joint_loss(1.0, 2.0, 3.0, 4.0, cfg)
        assert out.total == pytest.approx(4.0006, abs=1e-12)

    def test_monotone_in_each_lambda(self):
        base = small_cfg(lambda_compact=0.1, lambda_balance=0.1, lambda_distribution=0.1)
        low = joint_loss(1.0, 2.0, 3.0, 4.0, base).total
        for name in ("lambda_compact", "lambda_balance", "lambda_distribution"):
            bumped = small_cfg(
                lambda_compact=base.lambda_compact,
                lambda_balance=base.lambda_balance,
                lambda_distribution=base.lambda_distribution,
            )
            setattr(bumped, name, 0.2)
            assert joint_loss(1.0, 2.0, 3.0, 4.0, bumped).total > low


class TestBackward:
    def test_grad_scales_linearly_with_loss(self):
        cfg, params, X, labels = random_instance(6)
        centers = Centers.zeros(cfg)
        cache = forward(X, params, cfg)
        g1, _ = backward(cache, labels, params, centers, cfg, cls_weight=1.0)
        doubled = HeadConfig(
            input_dim=cfg.input_dim,
            latent_dim=cfg.latent_dim,
            n_latents=cfg.n_latents,
            n_classes=cfg.n_classes,
            lambda_compact=2 * cfg.lambda_compact,
            lambda_balance=2 * cfg.lambda_balance,
            lambda_distribution=2 * cfg.lambda_distribution,
        )
        g2, _ = backward(cache, labels, params, centers, doubled, cls_weight=2.0)
        for name, a in g1.items():
            np.testing.assert_allclose(getattr(g2, name), 2.0 * a, rtol=1e-12)

    def test_classifier_grad_small_at_separable_optimum(self):
        """Saturated correct logits with zero lambdas leave ~zero classifier grad."""
        cfg = small_cfg(
            lambda_compact=0.0, lambda_balance=0.0, lambda_distribution=0.0,
            input_dim=4, latent_dim=4, n_latents=2, n_classes=2,
        )
        rng = SplitMix64(1)
        params = ParamGroups(
            decomp=rng.uniform(0.1, 0.3, (2, 4, 4)),
            gate=rng.uniform(0.1, 0.3, (2, 4, 4)),
            message=rng.uniform(0.1, 0.3, (2, 4, 4)),
            classifier=np.zeros((4, 2)),
        )
        X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        labels = np.array([0, 1])
        # point the classifier along the feature difference orthogonalized
        # against the midpoint (no bias term), scaled so correct logits saturate
        feats = forward(X, params, cfg).feature
        diff = feats[0] - feats[1]
        mid = 0.5 * (feats[0] + feats[1])
        w = diff - mid * (mid @ diff) / (mid @ mid)
        scale = 100.0 / (diff @ w)
        params.classifier = np.column_stack([scale * w, -scale * w])
        cache = forward(X, params, cfg)
        assert np.argmax(cache.logits[0]) == 0 and np.argmax(cache.logits[1]) == 1
        grads, losses = backward(cache, labels, params, Centers.zeros(cfg), cfg)
        assert losses.cls < 1e-8
        assert np.abs(grads.classifier).max() < 1e-6

    def test_batch_grad_is_mean_of_singletons_for_per_sample_losses(self):
        """With the batch-level balance term off, backward averages per sample."""
        cfg, params, X, labels = random_instance(21, batch=4)
        cfg.lambda_balance = 0.0
        centers = Centers.zeros(cfg)
        rng = SplitMix64(50)
        centers.by_class.centers[...] = rng.uniform(0.0, 4.0, centers.by_class.centers.shape)
        cache = forward(X, params, cfg)
        full, _ = backward(cache, labels, params, centers, cfg)
        accum = params.zeros_like()
        for i in range(4):
            ci = forward(X[i : i + 1], params, cfg)
            gi, _ = backward(ci, labels[i : i + 1], params, centers, cfg)
            for name, arr in accum.items():
                arr += getattr(gi, name)
        for name, a in full.items():
            np.testing.assert_allclose(
                getattr(accum, name) / 4.0, a, rtol=1e-10, atol=1e-14
            )

    def test_decomp_grad_is_contiguous_so_ravel_is_a_view(self):
        """adam_step ravels every gradient; a strided one would be copied."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(22))
        X = np.random.default_rng(22).normal(size=(16, cfg.input_dim))
        labels = np.arange(16) % cfg.n_classes
        cache = forward(X, params, cfg)
        grads, _ = backward(cache, labels, params, Centers.zeros(cfg), cfg)
        assert grads.decomp.flags.c_contiguous
        assert np.shares_memory(grads.decomp, grads.decomp.ravel())

    def test_label_shape_mismatch(self):
        cfg, params, X, labels = random_instance(2)
        cache = forward(X, params, cfg)
        with pytest.raises(ContractViolation):
            backward(cache, labels[:-1], params, Centers.zeros(cfg), cfg)

    def test_nonfinite_loss_raises_training_error(self):
        cfg, params, X, labels = random_instance(4)
        params.classifier[...] = np.inf
        cache_logits_nan = forward(X, params, cfg)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError):
                backward(cache_logits_nan, labels, params, Centers.zeros(cfg), cfg)


class TestRaiseIfNotFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("group", ["decomp", "gate", "message", "classifier"])
    def test_non_finite_entry_names_its_group(self, bad, group):
        params = init_model_params(small_cfg(), SplitMix64(40))
        getattr(params, group).flat[3] = bad
        with pytest.raises(TrainingError, match=f"non-finite values in {group} at step 9"):
            params.raise_if_not_finite("at step 9")

    def test_huge_finite_entries_neither_raise_nor_warn(self):
        """Their sum of squares overflows, so the entry-wise scan decides."""
        params = init_model_params(small_cfg(), SplitMix64(41))
        params.gate.flat[0] = 1e200
        params.classifier.flat[-1] = -1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params.raise_if_not_finite("after adam_step")
