"""Full-head forward oracle, loss assembly, and backward gradient tests."""

import math
import warnings
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from naive_reference import naive_head_forward, naive_losses
from stage_forward import stage_forward

from ferhead import head, inter
from ferhead.datasets import generate, load_bin, make_synth_spec, save_bin
from ferhead.decomposition import LatentCenters
from ferhead.errors import ContractViolation, TrainingError
from ferhead.head import (
    GRAD_SCALE,
    Centers,
    HeadConfig,
    ParamGroups,
    backward,
    batch_cross_entropy,
    compute_losses,
    empty_cache,
    forward,
    init_model_params,
    joint_loss,
    softmax,
)
from ferhead.inter import EPS_NORM
from ferhead.intra import ClassCenters
from ferhead.numerics import SplitMix64
from ferhead.training import COMPUTE_DTYPE, EVAL_BLOCK_ROWS


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

    def test_float64_params_on_a_float32_table(self, tmp_path):
        """Rows loaded as stored (float32) meet the oracle as the benchmark's check does."""
        cfg = small_cfg()
        table = tmp_path / "rows.bin"
        spec = make_synth_spec(
            n_classes=cfg.n_classes, n_actions=4, feature_dim=cfg.input_dim, samples_per_class=3
        )
        save_bin(str(table), generate(spec))
        data = load_bin(str(table))
        assert data.features.dtype == np.float32
        params = init_model_params(cfg, SplitMix64(0))
        assert params.dtype == np.float64
        cache = forward(data.features, params, cfg)
        for i, row in enumerate(data.features):
            ref = naive_head_forward(
                row.tolist(), params.decomp.tolist(), params.gate.tolist(),
                params.message.tolist(), params.classifier.tolist(), cfg.mix_ratio,
            )
            np.testing.assert_allclose(cache.logits[i], ref["logits"], rtol=1e-9, atol=1e-9)

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
    @pytest.mark.parametrize(
        "out_rows", [7, 4, 10], ids=["same-rows", "other-rows", "larger-rows"]
    )
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
        if out_rows > len(X):  # served from views of the first rows of `used`
            for f in fields(got):
                assert np.shares_memory(getattr(got, f.name), getattr(used, f.name)), f.name

    def test_calls_without_out_share_no_memory(self):
        cfg, params, X, _ = random_instance(33, batch=6)
        a, b = forward(X, params, cfg), forward(X.copy(), params, cfg)
        for f in fields(a):
            assert not np.shares_memory(getattr(a, f.name), getattr(b, f.name)), f.name


class TestCacheBlock:
    BLOCK = ("latents", "gates", "scaled", "messages")
    LATENT_MAJOR = ("gates", "messages")

    @pytest.mark.parametrize("N", [64, 256])
    def test_four_latent_arrays_are_rows_of_one_block(self, N):
        """The four (N, M, D) arrays are the disjoint rows, in field order, of
        one aligned (4, N*M*D) block, all views of the one buffer under it."""
        cfg = HeadConfig()
        M, D = cfg.n_latents, cfg.latent_dim
        cache = empty_cache(N, cfg, np.float64)
        arrays = {name: getattr(cache, name) for name in self.BLOCK}
        buffer = arrays["latents"].base
        row_bytes = N * M * D * 8
        assert buffer.nbytes >= 4 * row_bytes
        first = arrays["latents"].ctypes.data
        for k, (name, arr) in enumerate(arrays.items()):
            assert arr.base is buffer, name
            assert arr.dtype == np.float64, name
            assert arr.ctypes.data == first + k * row_bytes, name
            assert arr.shape == (N, M, D), name
            if name in self.LATENT_MAJOR:
                assert arr.strides == (D * 8, N * D * 8, 8), name
            else:
                assert arr.strides == (M * D * 8, D * 8, 8), name
        for a, b in combinations(arrays, 2):
            assert not np.shares_memory(arrays[a], arrays[b]), (a, b)

    @pytest.mark.parametrize("N", [64, EVAL_BLOCK_ROWS])
    def test_every_buffer_and_the_pair_loop_scratch_start_on_a_cache_line(
        self, monkeypatch, N
    ):
        """At paper dimensions every cache array, each row of the block among
        them, and the pair loop's (N, D) difference scratch start on a 64-byte
        boundary."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(3)).astype(COMPUTE_DTYPE)
        X = np.random.default_rng(3).random((N, cfg.input_dim), dtype=np.float32)
        scratch = []
        allocate = inter.empty_aligned
        monkeypatch.setattr(
            inter, "empty_aligned", lambda *a: scratch.append(allocate(*a)) or scratch[-1]
        )
        cache = forward(X, params, cfg)
        for f in fields(cache):
            assert getattr(cache, f.name).ctypes.data % 64 == 0, f.name
        assert [(arr.shape, arr.ctypes.data % 64) for arr in scratch] == [
            ((N, cfg.latent_dim), 0)
        ]

    def test_evaluation_block_gets_huge_pages(self):
        """The block evaluate and inspect allocate is >= 4 MiB, which numpy
        madvises for transparent huge pages (4.7 MB at paper dimensions)."""
        cache = empty_cache(EVAL_BLOCK_ROWS, HeadConfig(), COMPUTE_DTYPE)
        assert cache.latents.base.nbytes >= 4 << 20


def relation_caches():
    """Forward caches at small and paper dimensions, in float64 and float32."""
    for cfg, batch in ((small_cfg(), 5), (HeadConfig(), 64)):
        for seed in range(3):
            params = init_model_params(cfg, SplitMix64(21 + seed))
            X = np.random.default_rng(seed).normal(size=(batch, cfg.input_dim))
            for dtype in (np.float64, COMPUTE_DTYPE):
                yield dtype, forward(X, params.astype(dtype), cfg)


class TestRelationDistances:
    def test_distances_within_a_bound_of_the_float64_broadcast_formula(self):
        """The pair loop's distances against the (N, M, M, D) broadcast
        formula in float64 on the same messages: within 4 ulp in float64
        (2 measured) and 2^-21 relative in float32 (2^-22.9 measured)."""
        for dtype, cache in relation_caches():
            G = cache.messages.astype(np.float64)
            diff = G[:, :, None, :] - G[:, None, :, :]
            expected = np.sqrt(np.sum(diff * diff, axis=-1) + EPS_NORM)
            error = np.abs(cache.distances - expected)
            if dtype == np.float64:
                assert np.all(error <= 4 * np.spacing(expected))
            else:
                assert np.all(error <= 2.0**-21 * expected)

    def test_distances_and_omega_exactly_symmetric_with_a_pinned_diagonal(self):
        for dtype, cache in relation_caches():
            assert np.array_equal(cache.distances, cache.distances.transpose(0, 2, 1))
            assert np.array_equal(cache.omega, cache.omega.transpose(0, 2, 1))
            idx = np.arange(cache.distances.shape[1])
            diagonal = np.sqrt(np.asarray(EPS_NORM, dtype))
            assert np.all(cache.distances[:, idx, idx] == diagonal)

    def test_any_row_subset_gives_exactly_those_rows_of_the_full_result(self):
        """A row-major copy of some rows, and forward's latent-major layout
        of them, each give bitwise the full result's rows."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(5)).astype(COMPUTE_DTYPE)
        X = np.random.default_rng(5).normal(size=(EVAL_BLOCK_ROWS, cfg.input_dim))
        cache = forward(X, params, cfg)
        rows = np.random.default_rng(6).permutation(EVAL_BLOCK_ROWS)[:37]
        row_major = np.ascontiguousarray(cache.messages[rows])
        latent_major = np.ascontiguousarray(row_major.swapaxes(0, 1)).swapaxes(0, 1)
        for messages, picked in (
            (row_major, rows),
            (latent_major, rows),
            (cache.messages[100:137], slice(100, 137)),
        ):
            distances, omega = inter.pairwise_relation(messages)
            assert np.array_equal(distances, cache.distances[picked])
            assert np.array_equal(omega, cache.omega[picked])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_messages_one_ulp_apart_relate_and_identical_ones_do_not(self, dtype):
        """The squared distance is summed from exact differences, so no
        cancellation of large norms turns a one-ulp gap into a coincidence."""
        g = np.random.default_rng(7).uniform(1.0, 100.0, size=(2, 3, 128)).astype(dtype)
        g[:, 1] = g[:, 0]
        g[0, 1, 5] = np.nextafter(g[0, 0, 5], dtype(np.inf))
        distances, omega = inter.pairwise_relation(g)
        assert np.all(omega[0, [0, 1], [1, 0]] > 0.0)
        assert distances[0, 0, 1] > distances[0, 0, 0]
        assert np.all(omega[1, [0, 1], [1, 0]] == 0.0)
        assert np.all(omega[:, [0, 1], [2, 2]] > 0.0)

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
    """The bias-free classifier stage of head.forward: cache.logits."""

    def test_zero_feature(self):
        W = np.random.default_rng(0).normal(size=(4, 3))
        cache = stage_forward(np.zeros((1, 5)), 2, 4, classifier=W)
        assert np.array_equal(cache.feature, np.zeros((1, 4)))
        assert np.array_equal(cache.logits, np.zeros((1, 3)))

    def test_identity_classifier(self):
        X = np.random.default_rng(1).normal(size=(2, 5))
        cache = stage_forward(X, 2, 3, n_classes=3, classifier=np.eye(3))
        np.testing.assert_array_equal(cache.logits, cache.feature)

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(2, 3))
        cache = stage_forward(rng.normal(size=(2, 4)), 2, 2, classifier=W)
        for y, logits in zip(cache.feature, cache.logits):
            naive = [sum(W[d][k] * y[d] for d in range(2)) for k in range(3)]
            np.testing.assert_allclose(logits, naive, atol=1e-12)


def cross_entropy(logits, label):
    """One sample's loss: batch_cross_entropy of a one-row batch."""
    return batch_cross_entropy(np.asarray(logits)[None], np.array([label]))


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


@pytest.mark.parametrize("name", ["lambda_compact", "lambda_balance", "lambda_distribution"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_lambda_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ContractViolation, match=f"{name} must be finite and >= 0"):
        HeadConfig(**{name: value}).validate()


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

    @pytest.mark.parametrize("bank, term", [("latent", "compact"), ("by_class", "distribution")])
    def test_nonfinite_loss_is_named_by_its_loss_breakdown_field(self, bank, term):
        cfg, params, X, labels = random_instance(6)
        centers = Centers.zeros(cfg)
        getattr(centers, bank).centers[...] = np.inf
        cache = forward(X, params, cfg)
        with pytest.raises(TrainingError, match=f"^non-finite {term} loss: inf$"):
            backward(cache, labels, params, centers, cfg)

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

    def test_grads_params_and_moments_share_one_layout_so_ravels_are_views(self):
        """adam_step ravels every group in memory order; none may be copied."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(22))
        X = np.random.default_rng(22).normal(size=(16, cfg.input_dim))
        labels = np.arange(16) % cfg.n_classes
        cache = forward(X, params, cfg)
        grads, _ = backward(cache, labels, params, Centers.zeros(cfg), cfg)
        moments = params.zeros_like()
        for name, theta in params.items():
            for arr in (getattr(grads, name), theta, getattr(moments, name)):
                assert arr.strides == theta.strides, name
                assert np.shares_memory(arr, arr.ravel(order="K")), name
        assert not params.decomp.flags.c_contiguous  # (P, M, D) memory

    def test_gradients_written_into_out_equal_fresh_ones(self):
        cfg, params, X, labels = random_instance(23, batch=6)
        centers = Centers.zeros(cfg)
        cache = forward(X, params, cfg)
        fresh, _ = backward(cache, labels, params, centers, cfg)
        out = params.zeros_like()
        got, _ = backward(cache, labels, params, centers, cfg, out=out)
        for name, arr in got.items():
            assert np.shares_memory(arr, getattr(out, name)), name
            assert np.array_equal(arr, getattr(fresh, name)), name

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


class TestGradientUnit:
    """backward runs its reverse pass in units of 1/GRAD_SCALE, and its groups
    are bitwise those of the unscaled pass: backward with GRAD_SCALE 1.0,
    where every multiply by the scale is exact."""

    @staticmethod
    def centers_off_zero(cfg, seed, dtype=np.float64):
        rng = SplitMix64(seed)
        return Centers(
            LatentCenters(rng.uniform(0.0, 1.0, (cfg.n_latents, cfg.latent_dim)).astype(dtype)),
            ClassCenters(
                rng.uniform(0.0, cfg.latent_dim / 2.0, (cfg.n_classes, cfg.n_latents)).astype(dtype)
            ),
        )

    def assert_bitwise_unscaled(self, cache, labels, params, centers, cfg, cls_weight=1.0):
        got, _ = backward(cache, labels, params, centers, cfg, cls_weight=cls_weight)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(head, "GRAD_SCALE", 1.0)
            want, _ = backward(cache, labels, params, centers, cfg, cls_weight=cls_weight)
        for name, arr in got.items():
            assert arr.dtype == params.dtype, name
            assert np.array_equal(arr, getattr(want, name)), name

    def test_scale_is_a_power_of_two(self):
        mantissa, _ = math.frexp(GRAD_SCALE)
        assert mantissa == 0.5 and GRAD_SCALE > 1.0

    def test_float64_small_instance(self):
        cfg, params, X, labels = random_instance(31, batch=6)
        cache = forward(X, params, cfg)
        self.assert_bitwise_unscaled(cache, labels, params, self.centers_off_zero(cfg, 32), cfg)

    def test_paper_dims_float32_batch_at_init(self):
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(0)).astype(np.float32)
        data = generate(make_synth_spec(samples_per_class=10, seed=3, structure_seed=3))
        X, labels = data.features[:64], data.labels[:64]
        cache = forward(X, params, cfg)
        for centers in (
            Centers(
                LatentCenters(np.zeros((cfg.n_latents, cfg.latent_dim), np.float32)),
                ClassCenters(np.zeros((cfg.n_classes, cfg.n_latents), np.float32)),
            ),
            self.centers_off_zero(cfg, 4, np.float32),
        ):
            self.assert_bitwise_unscaled(cache, labels, params, centers, cfg)

    def test_isolated_regularizer_terms_without_classification(self):
        """cls_weight=0.0 is how the verification harness isolates a loss term."""
        cfg, params, X, labels = random_instance(33, batch=5)
        cache = forward(X, params, cfg)
        centers = self.centers_off_zero(cfg, 34)
        self.assert_bitwise_unscaled(cache, labels, params, centers, cfg, cls_weight=0.0)


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


class TestDecompLayout:
    def test_c_layout_decomp_gets_native_layout_same_values_and_forward(self):
        """Groups built from an (M, P, D) C array hold (P, M, D) memory."""
        cfg = HeadConfig()
        M, P, D = cfg.n_latents, cfg.input_dim, cfg.latent_dim
        native = init_model_params(cfg, SplitMix64(51))
        c_layout = np.ascontiguousarray(native.decomp)
        built = ParamGroups(
            decomp=c_layout,
            gate=native.gate,
            message=native.message,
            classifier=native.classifier,
        )
        assert built.decomp.strides == native.decomp.strides
        assert np.shares_memory(built.decomp_matrix(), built.decomp)
        assert np.array_equal(built.decomp, c_layout)
        assert built.decomp_matrix().shape == (P, M * D)
        X = np.random.default_rng(51).normal(size=(64, cfg.input_dim))
        want = forward(X, native, cfg)
        for params in (built, native):
            got = forward(X, params, cfg)
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
        # a C-layout decomp assigned after construction is stored in the native layout
        native.decomp = c_layout
        got = forward(X, native, cfg)
        assert np.array_equal(got.logits, want.logits)

    def test_native_layout_is_taken_without_a_copy(self):
        params = init_model_params(small_cfg(), SplitMix64(52))
        again = ParamGroups(**dict(params.items()))
        assert again.decomp is params.decomp

    @pytest.mark.parametrize("make", ["copy", "zeros_like"])
    def test_copies_keep_the_layout(self, make):
        params = init_model_params(small_cfg(), SplitMix64(53))
        other = getattr(params, make)()
        for name, arr in params.items():
            assert getattr(other, name).strides == arr.strides, name
            assert not np.shares_memory(getattr(other, name), arr), name
        assert np.array_equal(params.copy().decomp, params.decomp)

    def test_from_vector_round_trips_in_logical_order(self):
        params = init_model_params(small_cfg(), SplitMix64(54))
        vec = params.to_vector()
        assert np.array_equal(vec[: params.decomp.size], params.decomp.ravel())
        back = params.from_vector(vec)
        for name, arr in params.items():
            assert np.array_equal(getattr(back, name), arr), name
            assert getattr(back, name).strides == arr.strides, name
