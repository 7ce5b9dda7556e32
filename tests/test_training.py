"""Adam, schedule, epoch loop, evaluation, and checkpoint tests."""

import errno
import hashlib
import math
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ferhead import head, training
from ferhead.datasets import FeatureDataset
from ferhead.errors import ContractViolation, DataFormatError, TrainingError
from ferhead.head import Centers, HeadConfig, backward, forward, init_model_params
from ferhead.numerics import SplitMix64
from ferhead.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EVAL_BLOCK_ROWS,
    AdamState,
    Schedule,
    TrainerState,
    adam_step,
    evaluate,
    load_params,
    save_checkpoint,
    train_epoch,
)


def tiny_cfg():
    return HeadConfig(
        input_dim=6,
        latent_dim=4,
        n_latents=2,
        n_classes=3,
        lambda_compact=0.0,
        lambda_balance=0.0,
        lambda_distribution=0.0,
    )


def tiny_dataset(seed=0, per_class=10, cfg=None, spread=4.0):
    """Linearly separable blobs: one coordinate block per class."""
    cfg = cfg or tiny_cfg()
    rng = SplitMix64(seed)
    n = per_class * cfg.n_classes
    X = rng.uniform(0.0, 0.3, (n, cfg.input_dim))
    labels = np.arange(n) % cfg.n_classes
    block = cfg.input_dim // cfg.n_classes
    for i in range(n):
        k = labels[i]
        X[i, k * block : (k + 1) * block] += spread
    return FeatureDataset(X, labels, cfg.n_classes)


def fresh_state(cfg, seed=0):
    rng = SplitMix64(seed)
    params = init_model_params(cfg, rng)
    return TrainerState(
        params=params, centers=Centers.zeros(cfg), adam=AdamState.zeros(params), rng=rng
    )


def params_digest(state: TrainerState) -> str:
    h = hashlib.sha256()
    for _, arr in state.params.items():
        h.update(arr.tobytes())
    h.update(state.centers.latent.centers.tobytes())
    h.update(state.centers.by_class.centers.tobytes())
    for _, arr in state.adam.first.items():
        h.update(arr.tobytes())
    for _, arr in state.adam.second.items():
        h.update(arr.tobytes())
    return h.hexdigest()


class TestSchedule:
    def test_initial_rate(self):
        assert Schedule().lr_at(0) == pytest.approx(1e-4)

    def test_two_decays_passed(self):
        assert Schedule().lr_at(20) == pytest.approx(1e-6)

    def test_all_four_decays(self):
        assert Schedule().lr_at(39) == pytest.approx(1e-8)

    def test_boundary_epoch_already_decayed(self):
        # "after 10 epochs" applies from epoch index >= 10
        assert Schedule().lr_at(10) == pytest.approx(1e-5)
        assert Schedule().lr_at(9) == pytest.approx(1e-4)

    def test_non_increasing(self):
        sched = Schedule()
        rates = [sched.lr_at(e) for e in range(sched.total_epochs)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            Schedule().lr_at(40)
        with pytest.raises(ContractViolation):
            Schedule().lr_at(-1)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ContractViolation):
            Schedule(decay_epochs=(18, 10)).validate()

    @pytest.mark.parametrize("boundaries", [(0,), (-1, 10)], ids=["zero", "negative"])
    def test_boundary_below_one_rejected(self, boundaries):
        """A boundary below 1 decays epoch 0's rate, so base_lr would never be used."""
        with pytest.raises(ContractViolation, match=f"decay epoch {boundaries[0]} must be >= 1"):
            Schedule(decay_epochs=boundaries, total_epochs=20).validate()

    @pytest.mark.parametrize("name", ["base_lr", "factor"])
    @pytest.mark.parametrize(
        "value", [0.0, -0.5, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_rate_and_factor_must_be_finite_and_positive(self, name, value):
        """A factor <= 0 would train at lr 0 or by gradient ascent after a decay."""
        with pytest.raises(ContractViolation, match=f"{name} must be finite and > 0"):
            Schedule(**{name: value}).validate()


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(0))
        snapshot = params.copy()
        state = AdamState.zeros(params)
        adam_step(params, params.zeros_like(), state, lr=0.1)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, getattr(snapshot, name))
        assert state.step_count == 1

    def test_constant_gradient_step_size_approaches_lr(self):
        """With constant g, m/sqrt(v) -> 1, so each step moves by ~lr."""
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(1))
        state = AdamState.zeros(params)
        grads = params.zeros_like()
        grads.decomp[...] = 0.37  # arbitrary constant gradient
        lr = 1e-3
        prev = params.decomp.copy()
        for _ in range(300):
            prev = params.decomp.copy()
            adam_step(params, grads, state, lr)
        step = np.abs(params.decomp - prev)
        np.testing.assert_allclose(step, lr, rtol=1e-3)

    def test_moments_decay_toward_zero_on_zero_grad(self):
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(2))
        state = AdamState.zeros(params)
        grads = params.zeros_like()
        grads.gate[...] = 1.0
        adam_step(params, grads, state, lr=1e-3)
        m_after_one = state.first.gate.copy()
        zero = params.zeros_like()
        for _ in range(50):
            adam_step(params, zero, state, lr=1e-3)
        assert np.abs(state.first.gate).max() < np.abs(m_after_one).max() * 1e-10

    @pytest.mark.parametrize(
        "cfg, block",
        [(tiny_cfg(), 7), (HeadConfig(), None)],
        ids=["tiny-dims-block-7", "paper-dims"],
    )
    def test_blocked_update_bitwise_equals_whole_array_formula(
        self, monkeypatch, cfg, block
    ):
        """Blocks (partial last ones too) give the whole-array formula's bits."""
        if block is not None:
            monkeypatch.setattr(training, "ADAM_BLOCK", block)
        rng = SplitMix64(5)
        params = init_model_params(cfg, rng)
        state = AdamState.zeros(params)
        expected = params.copy()
        first, second = params.zeros_like(), params.zeros_like()
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        for t, lr in enumerate([1e-3, 1e-3, 2e-4, 1e-4, 1e-5, 3e-6], start=1):
            grads = params.zeros_like()
            for name, arr in grads.items():
                arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
            # a gradient assigned in another layout is stored in decomp's
            # (P, M, D) memory, and updates exactly like one built there
            grads.decomp = np.ascontiguousarray(grads.decomp.transpose(0, 2, 1)).transpose(
                0, 2, 1
            )
            assert not grads.decomp.flags.c_contiguous
            adam_step(params, grads, state, lr)
            root2 = math.sqrt(1.0 - b2**t)
            alpha, eps_hat = lr * root2 / (1.0 - b1**t), eps * root2
            for name, theta in expected.items():
                g, m, v = getattr(grads, name), getattr(first, name), getattr(second, name)
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                theta -= (m * alpha) / (np.sqrt(v) + eps_hat)
        assert state.step_count == 6
        for got, want in [(params, expected), (state.first, first), (state.second, second)]:
            for name, arr in got.items():
                assert np.array_equal(arr, getattr(want, name)), name

    def test_folded_update_is_kingma_ba_algorithm_1(self):
        """The folded form is the textbook update, bias corrections moved onto lr and eps."""
        rng = SplitMix64(5)
        params = init_model_params(HeadConfig(), rng)
        state = AdamState.zeros(params)
        expected = params.copy()
        first, second = params.zeros_like(), params.zeros_like()
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t, lr in enumerate([1e-3, 1e-3, 2e-4, 1e-4, 1e-5, 3e-6], start=1):
            grads = params.zeros_like()
            for _, arr in grads.items():
                arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
            adam_step(params, grads, state, lr)
            for name, theta in expected.items():
                g, m, v = getattr(grads, name), getattr(first, name), getattr(second, name)
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                theta -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + ADAM_EPS)
        for got, want in [(params, expected), (state.first, first), (state.second, second)]:
            for name, arr in got.items():
                np.testing.assert_allclose(arr, getattr(want, name), rtol=1e-12, err_msg=name)

    def test_non_finite_gradient_raises_and_changes_nothing(self):
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(6))
        state = AdamState.zeros(params)
        grads = params.zeros_like()
        grads.gate[...] = 0.25
        adam_step(params, grads, state, lr=1e-3)
        snapshot = [params.copy(), state.first.copy(), state.second.copy()]
        grads.gate[1, 2, 3] = np.nan
        with pytest.raises(TrainingError, match="gate"):
            adam_step(params, grads, state, lr=1e-3)
        assert state.step_count == 1
        for got, want in zip([params, state.first, state.second], snapshot):
            for name, arr in got.items():
                assert np.array_equal(arr, getattr(want, name)), name

    def test_update_that_overflows_raises_naming_the_group(self):
        """Finite gradients, but the step carries one decomp entry past the float range."""
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(6))
        params.decomp[1, 2, 3] = -1.7e308
        grads = params.zeros_like()
        grads.decomp[...] = 1.0
        state = AdamState.zeros(params)
        with pytest.raises(TrainingError, match="non-finite values in decomp after adam_step"):
            adam_step(params, grads, state, lr=1e308)
        assert params.decomp[1, 2, 3] == -np.inf

    def test_non_contiguous_moment_is_stored_dense_and_updated_in_place(self):
        """Fortran and strided moments are copied into the layout on assignment."""
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(8))
        grads = params.zeros_like()
        for _, arr in grads.items():
            arr[...] = 0.5
        want_params, want_state = params.copy(), AdamState.zeros(params)
        state = AdamState.zeros(params)
        for name, theta in params.items():
            setattr(state.first, name, np.asfortranarray(np.zeros(theta.shape)))
            setattr(state.second, name, np.zeros(theta.shape + (2,))[..., 0])
            for moments in (state.first, state.second):
                assert getattr(moments, name).strides == theta.strides, name
        adam_step(params, grads, state, lr=1e-3)
        adam_step(want_params, grads, want_state, lr=1e-3)
        for got, want in [(params, want_params), (state.first, want_state.first),
                          (state.second, want_state.second)]:
            for name, arr in got.items():
                assert np.any(arr != 0.0) and np.array_equal(arr, getattr(want, name)), name

    def test_moment_in_another_layout_is_stored_in_its_parameters_and_updated(self):
        """C-layout arrays assigned to every group ravel in the parameter's order."""
        cfg = tiny_cfg()
        params = init_model_params(cfg, SplitMix64(8))
        grads = params.zeros_like()
        grads.decomp[...] = 0.5
        want_params, want_state = params.copy(), AdamState.zeros(params)
        state = AdamState.zeros(params)
        for groups in (params, state.first, grads):
            for name, arr in groups.items():
                c_layout = np.ascontiguousarray(arr)
                setattr(groups, name, c_layout)
                assert (getattr(groups, name) is c_layout) == (name != "decomp"), name
                assert getattr(groups, name).strides == getattr(want_params, name).strides
        adam_step(params, grads, state, lr=1e-3)
        adam_step(want_params, grads, want_state, lr=1e-3)
        assert np.any(state.second.decomp)
        for got, want in [(params, want_params), (state.first, want_state.first),
                          (state.second, want_state.second)]:
            for name, arr in got.items():
                assert np.array_equal(arr, getattr(want, name)), name

    @pytest.mark.parametrize(
        "P, D, M, K",
        [(1, 1, 1, 1), (1, 4, 3, 2), (5, 1, 3, 2), (5, 4, 1, 2), (5, 4, 3, 1)],
        ids=["all-1", "P-1", "D-1", "M-1", "K-1"],
    )
    def test_size_one_dims_train_and_update_like_the_formula(self, P, D, M, K):
        """A size-1 axis gets other strides from np.zeros_like; the ravels still pair up."""
        cfg = HeadConfig(input_dim=P, latent_dim=D, n_latents=M, n_classes=K)
        state = fresh_state(cfg, seed=12)
        rng = SplitMix64(13)
        labels = np.arange(8) % K
        data = FeatureDataset(rng.uniform(0.0, 1.0, (8, P)), labels, K)
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=1, batch_size=4)
        train_epoch(state, data, cfg, sched, 0)
        assert state.adam.step_count == 2
        expected = state.params.copy()
        first, second = state.adam.first.copy(), state.adam.second.copy()
        grads = state.params.zeros_like()
        for _, arr in grads.items():
            arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
        lr, t, b1, b2 = 1e-3, 3, ADAM_BETA1, ADAM_BETA2
        root2 = math.sqrt(1.0 - b2**t)
        alpha, eps_hat = lr * root2 / (1.0 - b1**t), ADAM_EPS * root2
        adam_step(state.params, grads, state.adam, lr)
        for name, theta in expected.items():
            g, m, v = getattr(grads, name), getattr(first, name), getattr(second, name)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            theta -= (m * alpha) / (np.sqrt(v) + eps_hat)
        for got, want in [
            (state.params, expected), (state.adam.first, first), (state.adam.second, second)
        ]:
            for name, arr in got.items():
                assert np.array_equal(arr, getattr(want, name)), name

    def test_paper_dims_step_and_finiteness_scan_copy_no_group(self):
        """Memory-order ravels are views: a hidden copy of decomp would take 4.7 MB."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(9))
        X = np.random.default_rng(9).normal(size=(16, cfg.input_dim))
        cache = forward(X, params, cfg)
        labels = np.arange(16) % cfg.n_classes
        grads, _ = backward(cache, labels, params, Centers.zeros(cfg), cfg)
        state = AdamState.zeros(params)
        adam_step(params, grads, state, lr=1e-4)  # warm-up

        def peak_mb(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        assert peak_mb(lambda: adam_step(params, grads, state, lr=1e-4)) < 1.0
        assert peak_mb(lambda: params.raise_if_not_finite("after adam_step")) < 1.0

    def test_determinism(self):
        cfg = tiny_cfg()
        digests = []
        for _ in range(2):
            state = fresh_state(cfg, seed=7)
            data = tiny_dataset(seed=3, cfg=cfg)
            sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=2, batch_size=10)
            for epoch in range(2):
                train_epoch(state, data, cfg, sched, epoch)
            digests.append(params_digest(state))
        assert digests[0] == digests[1]


class TestTrainEpoch:
    def test_separable_toy_data_reaches_full_accuracy(self):
        """Zero-lambda run on blobs must hit 100% train accuracy in 40 epochs."""
        cfg = tiny_cfg()
        data = tiny_dataset(seed=5, per_class=10, cfg=cfg)
        sched = Schedule(base_lr=2e-2, decay_epochs=(), total_epochs=40, batch_size=10)
        state = fresh_state(cfg, seed=1)
        best = 0.0
        for epoch in range(sched.total_epochs):
            train_epoch(state, data, cfg, sched, epoch)
            accuracy = evaluate(state.params, cfg, data).accuracy
            best = max(best, accuracy)
            if accuracy == 1.0:
                break
        assert best == 1.0

    def test_empty_dataset_rejected(self):
        cfg = tiny_cfg()
        data = FeatureDataset(np.zeros((0, cfg.input_dim)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ContractViolation):
            train_epoch(fresh_state(cfg), data, cfg, Schedule(), 0)

    def test_batch_larger_than_dataset_rejected(self):
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=2, cfg=cfg)
        sched = Schedule(batch_size=64)
        with pytest.raises(ContractViolation):
            train_epoch(fresh_state(cfg), data, cfg, sched, 0)

    def test_nonfinite_loss_names_epoch_and_batch(self):
        from ferhead.errors import TrainingError

        cfg = tiny_cfg()
        cfg.lambda_compact = 1e-4
        data = tiny_dataset(per_class=4, cfg=cfg)
        data.features[...] = 1e30  # overflows the squared-distance terms
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=1, batch_size=12)
        with pytest.raises(TrainingError, match="epoch 0, batch starting at 0"):
            train_epoch(fresh_state(cfg), data, cfg, sched, 0)

    def test_update_that_overflows_names_epoch_and_batch(self):
        """adam_step runs inside the epoch's error context, as forward and backward do."""
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=4, cfg=cfg)
        sched = Schedule(base_lr=1e300, decay_epochs=(), total_epochs=1, batch_size=12)
        message = r"epoch 0, batch starting at 0: non-finite values in \w+ after adam_step"
        with pytest.raises(TrainingError, match=message):  # and no numpy warning
            train_epoch(fresh_state(cfg), data, cfg, sched, 0)

    def test_one_batch_checks_the_gradient_once_and_the_update_once(self, monkeypatch):
        """adam_step is the only finiteness gate of a step's gradient."""
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=4, cfg=cfg)  # 12 samples, one batch
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=1, batch_size=12)
        state = fresh_state(cfg)
        contexts = []
        real = head.ParamGroups.raise_if_not_finite

        def counting(self, context):
            contexts.append(context)
            real(self, context)

        monkeypatch.setattr(head.ParamGroups, "raise_if_not_finite", counting)
        train_epoch(state, data, cfg, sched, 0)
        assert contexts == ["passed to adam_step", "after adam_step"]

    def test_identical_seeds_identical_summaries(self):
        cfg = tiny_cfg()
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=3, batch_size=8)
        runs = []
        for _ in range(2):
            state = fresh_state(cfg, seed=11)
            data = tiny_dataset(seed=2, cfg=cfg)
            losses = [train_epoch(state, data, cfg, sched, e) for e in range(3)]
            runs.append((losses, evaluate(state.params, cfg, data).accuracy))
        assert runs[0] == runs[1]

    def test_partial_final_batch_kept(self):
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=5, cfg=cfg)  # 15 samples
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=1, batch_size=10)
        state = fresh_state(cfg)
        before = state.adam.step_count
        train_epoch(state, data, cfg, sched, 0)
        assert state.adam.step_count - before == 2  # 10 + 5

    def test_centers_updated_once_per_step_from_prestep_features(self):
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=4, cfg=cfg)  # 12 samples, one batch
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=1, batch_size=12)
        state = fresh_state(cfg)
        assert np.all(state.centers.latent.centers == 0)
        # the single batch covers the whole set, so the batch-mean latents of
        # the pre-step parameters are computable up front
        from ferhead.head import forward

        pre_step_latents = forward(data.features, state.params, cfg).latents
        expected = cfg.center_rate * pre_step_latents.mean(axis=0)
        train_epoch(state, data, cfg, sched, 0)
        np.testing.assert_allclose(state.centers.latent.centers, expected, atol=1e-12)


class TestEvaluate:
    def test_constant_predictor_on_balanced_data(self):
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=10, cfg=cfg, spread=0.0)
        state = fresh_state(cfg, seed=3)
        state.params.classifier[...] = 0.0
        state.params.classifier[:, 0] = 1.0  # always predicts class 0
        report = evaluate(state.params, cfg, data)
        assert report.accuracy == pytest.approx(1.0 / cfg.n_classes)

    def test_confusion_matrix_conserves_samples(self):
        cfg = tiny_cfg()
        data = tiny_dataset(per_class=7, cfg=cfg)
        report = evaluate(fresh_state(cfg).params, cfg, data)
        assert report.confusion.sum() == len(data)
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1), np.full(cfg.n_classes, 7)
        )

    def test_hand_built_confusion(self):
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=4)
        data = tiny_dataset(per_class=2, cfg=cfg)
        cacheless = evaluate(state.params, cfg, data)
        # recompute predictions independently via the public forward pass
        from ferhead.head import forward

        logits = forward(data.features, state.params, cfg).logits
        preds = np.argmax(logits, axis=1)
        expected = np.zeros((3, 3), dtype=int)
        for t, p in zip(data.labels, preds):
            expected[t, p] += 1
        np.testing.assert_array_equal(cacheless.confusion, expected)

    def test_evaluate_mutates_nothing(self):
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=5)
        data = tiny_dataset(per_class=3, cfg=cfg)
        before = params_digest(state)
        evaluate(state.params, cfg, data)
        assert params_digest(state) == before

    def test_argmax_shift_invariant(self):
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=6)
        data = tiny_dataset(per_class=3, cfg=cfg)
        from ferhead.head import forward

        logits = forward(data.features, state.params, cfg).logits
        np.testing.assert_array_equal(
            np.argmax(logits, axis=1), np.argmax(logits + 1234.5, axis=1)
        )


    def test_blocks_match_one_full_forward(self):
        """Over several row blocks and a partial one, the confusion is unchanged."""
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=7)
        rng = np.random.default_rng(7)
        for _, arr in state.params.items():
            arr[...] = rng.normal(size=arr.shape)
        n = 2 * EVAL_BLOCK_ROWS + 37
        X = rng.normal(size=(n, cfg.input_dim))
        labels = np.arange(n) % cfg.n_classes
        data = FeatureDataset(X, labels, cfg.n_classes)
        from ferhead.head import forward

        preds = np.argmax(forward(X, state.params, cfg).logits, axis=1)
        expected = np.zeros((cfg.n_classes, cfg.n_classes), dtype=np.int64)
        np.add.at(expected, (labels, preds), 1)
        report = evaluate(state.params, cfg, data)
        np.testing.assert_array_equal(report.confusion, expected)
        assert len(np.unique(preds)) > 1

    def test_view_picks_match_one_full_forward(self, monkeypatch):
        """Picks that return views of the reused cache are kept per block."""
        monkeypatch.setattr(training, "EVAL_BLOCK_ROWS", 8)
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=13)
        X = np.random.default_rng(13).normal(size=(2 * 8 + 5, cfg.input_dim))
        from ferhead.head import forward

        full = forward(X, state.params, cfg)
        weights, omega, scaled = training.forward_in_blocks(
            FeatureDataset(X, np.zeros(len(X)), cfg.n_classes),
            state.params,
            cfg,
            lambda cache: cache.weights,
            lambda cache: cache.omega,
            lambda cache: cache.scaled,
        )
        for got, want in [(weights, full.weights), (omega, full.omega), (scaled, full.scaled)]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_ragged_block_reuses_the_one_cache(self, monkeypatch):
        """Two full blocks and a ragged one allocate a single cache."""
        monkeypatch.setattr(training, "EVAL_BLOCK_ROWS", 8)
        allocate = head.empty_cache
        sizes = []

        def counting_empty_cache(N, cfg, dtype):
            sizes.append(N)
            return allocate(N, cfg, dtype)

        monkeypatch.setattr(head, "empty_cache", counting_empty_cache)
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=14)
        X = np.random.default_rng(14).normal(size=(2 * 8 + 5, cfg.input_dim))
        data = FeatureDataset(X, np.zeros(len(X)), cfg.n_classes)
        training.forward_in_blocks(data, state.params, cfg, lambda cache: cache.logits)
        assert sizes == [8]

    def test_peak_memory_bounded_in_rows(self):
        """At paper dimensions, 4x the rows costs well under 1.5x the peak."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(8))
        X = np.random.default_rng(8).normal(size=(4 * EVAL_BLOCK_ROWS, cfg.input_dim))
        labels = np.arange(len(X)) % cfg.n_classes

        def peak(rows):
            data = FeatureDataset(X[:rows], labels[:rows], cfg.n_classes)
            tracemalloc.start()
            try:
                evaluate(params, cfg, data)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(EVAL_BLOCK_ROWS), peak(len(X))
        assert large < 1.5 * small, (small, large)
        # a ragged last block is written into the full-size block's cache
        ragged = peak(len(X) - 1)
        assert ragged < 1.5 * small, (small, ragged)


def assert_same_groups(got, want):
    """Equal float32 bits in the same memory layout, group by group."""
    for (name, arr), (_, ref) in zip(got.items(), want.items()):
        assert arr.dtype == np.float32, name
        assert arr.tobytes(order="A") == ref.tobytes(order="A"), name
        assert arr.strides == ref.strides, name


class TestCheckpoints:
    def test_roundtrip_identity(self, tmp_path):
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=9)
        data = tiny_dataset(per_class=4, cfg=cfg)
        sched = Schedule(base_lr=1e-3, decay_epochs=(), total_epochs=1, batch_size=6)
        train_epoch(state, data, cfg, sched, 0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state.params, cfg)
        loaded_cfg, loaded = load_params(str(path))
        assert loaded_cfg == cfg
        assert_same_groups(loaded, state.params)

    def test_save_load_save_idempotent(self, tmp_path):
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=10)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), state.params, cfg)
        save_checkpoint(str(p2), load_params(str(p1))[1], cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_groups_are_read_only_views_that_own_no_data(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg, seed=22).params, cfg)
        _, loaded = load_params(str(path))
        for name, arr in loaded.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
            base = arr
            while isinstance(base, np.ndarray):  # no array on the way to the mapping
                assert not base.flags.owndata, name
                base = base.base

    def test_save_over_a_loaded_checkpoint_keeps_the_loaded_values(self, tmp_path):
        """save_checkpoint renames a new file over the path, so the mapped one is kept."""
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        first, second = (fresh_state(cfg, seed=s).params for s in (23, 24))
        save_checkpoint(str(path), first, cfg)
        _, loaded = load_params(str(path))
        save_checkpoint(str(path), second, cfg)
        assert_same_groups(loaded, first)
        assert_same_groups(load_params(str(path))[1], second)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_params(str(path))

    def test_truncation_rejected(self, tmp_path):
        cfg = tiny_cfg()
        state = fresh_state(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state.params, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError, match="truncated"):
            load_params(str(path))

    def test_one_float_short_names_expected_and_found_size(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg).params, cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])  # drop the classifier's last float
        expected = f"truncated: expected {len(blob)} bytes, found {len(blob) - 4}"
        with pytest.raises(DataFormatError, match=expected):
            load_params(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg).params, cfg)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataFormatError, match=f"expected {size} bytes, found {size + 1}"):
            load_params(str(path))

    def test_one_byte_short_or_long_names_expected_size(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg, seed=21).params, cfg)
        blob = path.read_bytes()
        for bad, found in ((blob[:-1], len(blob) - 1), (blob + b"\x00", len(blob) + 1)):
            path.write_bytes(bad)
            with pytest.raises(DataFormatError, match=f"expected {len(blob)} bytes, found {found}"):
                load_params(str(path))

    def test_record_is_returned_by_load_record_and_counted_in_the_size(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        params = fresh_state(cfg, seed=25).params
        save_checkpoint(str(path), params, cfg, "epochs=2\nseed=7\n")
        assert training.load_record(str(path)) == (cfg, "epochs=2\nseed=7\n")
        assert_same_groups(load_params(str(path))[1], params)
        blob = path.read_bytes()
        for bad, found in ((blob[:-1], len(blob) - 1), (blob + b"\n", len(blob) + 1)):
            path.write_bytes(bad)
            for load in (load_params, training.load_record):
                with pytest.raises(DataFormatError, match=f"expected {len(blob)} bytes, found {found}"):
                    load(str(path))

    def test_paper_dims_roundtrip_keeps_layout_and_bytes(self, tmp_path):
        """decomp loads into (P, M, D) memory; the file is the header, every
        group's memory and the record, whose length the header's last field holds."""
        cfg = HeadConfig()
        params = fresh_state(cfg, seed=13).params
        path = tmp_path / "model.ckpt"
        record = "seed=13\ntrain_path='/data/é.bin'\n"
        save_checkpoint(str(path), params, cfg, record)
        assert_same_groups(load_params(str(path))[1], params)
        blob, offset = path.read_bytes(), 68
        assert struct.unpack_from("<I", blob, 64) == (len(record.encode()),)
        for _, arr in params.items():
            on_disk = np.frombuffer(blob, "<f4", arr.size, offset)
            assert on_disk.tobytes() == arr.ravel(order="K").tobytes()
            offset += on_disk.nbytes
        assert sum(arr.size for _, arr in params.items()) == 885_632
        assert offset == 68 + 4 * 885_632
        assert blob[offset:].decode() == record

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        state = fresh_state(cfg, seed=11)
        path = tmp_path / "model.ckpt"
        tmp = tmp_path / "model.ckpt.tmp"
        save_checkpoint(str(path), state.params, cfg)
        before = path.read_bytes()
        params = fresh_state(cfg, seed=12).params

        class DiskFull:
            """Groups whose write fails after the header and one group."""

            def items(self):
                yield "decomp", params.decomp
                assert tmp.exists()  # the partial write goes to the temp file
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), DiskFull(), cfg)
        assert path.read_bytes() == before
        assert not tmp.exists()

    def test_temp_file_is_fsynced_before_the_rename(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        path = str(tmp_path / "model.ckpt")
        tmp = path + ".tmp"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.path.samestat(os.fstat(fd), os.stat(tmp))))
            real_fsync(fd)

        def replace_(src, dst):
            calls.append(("replace", src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace_)
        save_checkpoint(path, fresh_state(cfg, seed=13).params, cfg)
        assert calls == [("fsync", True), ("replace", tmp, path)]

    def test_failed_fsync_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg, seed=14).params, cfg)
        before = path.read_bytes()

        def fsync(fd):
            raise OSError(errno.EIO, "fsync failed")

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="fsync failed"):
            save_checkpoint(str(path), fresh_state(cfg, seed=15).params, cfg)
        assert path.read_bytes() == before
        assert not (tmp_path / "model.ckpt.tmp").exists()

    def test_float64_array_is_refused_and_previous_checkpoint_kept(self, tmp_path):
        """A group reassigned float64 after the state was built is not rounded silently."""
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg, seed=18).params, cfg)
        before = path.read_bytes()
        state = fresh_state(cfg, seed=19)
        state.params.decomp = state.params.decomp.astype(np.float64)
        with pytest.raises(ContractViolation, match="params.decomp as float64"):
            save_checkpoint(str(path), state.params, cfg)
        assert path.read_bytes() == before
        assert not (tmp_path / "model.ckpt.tmp").exists()

    def test_peek_dims(self, tmp_path):
        cfg = replace(tiny_cfg(), mix_ratio=0.25, center_rate=0.75)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg).params, cfg)
        assert load_params(str(path))[0] == cfg

    def test_header_cut_short_rejected(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg).params, cfg)
        blob = path.read_bytes()
        for cut in range(68):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataFormatError, match="truncated header"):
                load_params(str(path))


class TestLoadParams:
    def test_paper_dims_groups_equal_full_load_in_same_layout(self, tmp_path):
        cfg = HeadConfig()
        state = fresh_state(cfg, seed=15)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state.params, cfg)
        got_cfg, params = load_params(str(path))
        assert got_cfg == cfg
        assert_same_groups(params, state.params)
        assert params.decomp.transpose(1, 0, 2).flags.c_contiguous  # (P, M, D) memory

    def test_paper_dims_peak_memory_is_the_params_alone(self, tmp_path):
        """No group is copied: the groups are views of the mapped file, so the 3.4 MiB
        of float32 parameters are not traced, and a copied decomp (2.25 MiB), gate or
        message (576 KiB each) would exceed the bound."""
        cfg = HeadConfig()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), fresh_state(cfg, seed=17).params, cfg)
        tracemalloc.start()
        try:
            load_params(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak
