"""The compute dtype: training and evaluation in float32, the oracles in float64.

TrainerState narrows the parameters once; datasets and init_model_params
stay float64, and checkpoint files store the float32 parameters, which
`eval` and `inspect` load as stored. These tests pin which side of that
line each entry point is on, and bound how far a float32 pass strays from
the float64 one at paper dimensions.
"""

from dataclasses import replace

import numpy as np
import pytest

from naive_reference import naive_head_forward

from ferhead import cli, datasets
from ferhead.decomposition import LatentCenters
from ferhead.errors import TrainingError
from ferhead.head import Centers, HeadConfig, backward, forward, init_model_params
from ferhead.intra import ClassCenters
from ferhead.numerics import SplitMix64
from ferhead.training import (
    COMPUTE_DTYPE,
    AdamState,
    TrainerState,
    load_params,
    save_checkpoint,
)
from ferhead.verification import build_instance

# fixed before the first run: float32 rounds at 6e-8, and a batch of 64
# sums at most a few thousand such terms into any one logit or gradient
LOGITS_REL_L2 = 1e-4
GROUP_REL_L2 = 1e-3


def paper_batch(seed, rows=64):
    """Rows of the default synthetic population, with their labels."""
    spec = datasets.make_synth_spec(samples_per_class=10, seed=seed, structure_seed=seed)
    data = datasets.generate(spec)
    return data.features[:rows], data.labels[:rows]


def centers_off_zero(cfg, seed):
    rng = SplitMix64(seed)
    return Centers(
        LatentCenters(rng.uniform(0.0, 1.0, (cfg.n_latents, cfg.latent_dim))),
        ClassCenters(rng.uniform(0.0, cfg.latent_dim / 2.0, (cfg.n_classes, cfg.n_latents))),
    )


def state_of(params, centers, seed=0):
    """A TrainerState built from copies, so the float64 originals stay as they are."""
    copied = Centers(
        LatentCenters(centers.latent.centers.copy()),
        ClassCenters(centers.by_class.centers.copy()),
    )
    return TrainerState(params.copy(), copied, AdamState.zeros(params), SplitMix64(seed))


def rel_l2(got, want):
    want = np.asarray(want, dtype=np.float64)
    return np.linalg.norm(np.asarray(got, dtype=np.float64) - want) / np.linalg.norm(want)


class TestFloat32AgainstFloat64:
    @staticmethod
    def compare(X, labels):
        """Float32 against float64 at paper dimensions on the batch X; returns
        the float32 relation weights."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(61))
        centers = centers_off_zero(cfg, 62)
        state = state_of(params, centers)
        assert state.params.dtype == np.float32

        cache64 = forward(X, params, cfg)
        grads64, losses64 = backward(cache64, labels, params, centers, cfg)
        cache32 = forward(X, state.params, cfg)
        grads32, losses32 = backward(cache32, labels, state.params, state.centers, cfg)

        assert cache32.logits.dtype == np.float32
        assert rel_l2(cache32.logits, cache64.logits) < LOGITS_REL_L2
        for name, g64 in grads64.items():
            g32 = getattr(grads32, name)
            assert g32.dtype == np.float32, name
            assert g32.strides == getattr(state.params, name).strides, name
            assert rel_l2(g32, g64) < GROUP_REL_L2, name
        assert losses32.total == pytest.approx(losses64.total, rel=LOGITS_REL_L2)
        return cache32.omega

    def test_paper_dims_logits_and_every_gradient_group(self):
        self.compare(*paper_batch(63))

    def test_scaled_batch_reaches_the_relation_weights_below_one(self):
        """At the paper batch every off-diagonal relation weight is exactly 1.0 in
        float32, so the relation part of backward is zero there; on the batch
        scaled by 0.01 the message distances are small enough that tanh is
        below 1.0, and the same bounds hold with that part of the gradient live."""
        X, labels = paper_batch(63)
        omega = self.compare(X * 0.01, labels)
        off_diagonal = ~np.eye(omega.shape[-1], dtype=bool)
        assert (omega[:, off_diagonal] < 1.0).any()


class TestDtypeContract:
    CFG = HeadConfig(input_dim=8, latent_dim=4, n_latents=3, n_classes=3)

    @staticmethod
    def dtypes(groups):
        return {name: arr.dtype for name, arr in groups.items()}

    def write_set(self, path, seed=0):
        rng = SplitMix64(seed)
        X = rng.uniform(0.0, 1.0, (12, self.CFG.input_dim))
        data = datasets.FeatureDataset(X, np.arange(12) % 3, self.CFG.n_classes)
        datasets.save_bin(str(path), data)

    def test_run_training_holds_float32_params_moments_and_centers(self, tmp_path):
        self.write_set(tmp_path / "train.bin")
        run = replace(
            cli.RunConfig(input_dim=8, latent_dim=4, n_latents=3, n_classes=3),
            epochs=1, decay_epochs="", batch_size=6, train_path=str(tmp_path / "train.bin"),
        )
        state, _, _ = cli.run_training(run, cli.read_sets(run)[0])
        for groups in (state.params, state.adam.first, state.adam.second):
            assert set(self.dtypes(groups).values()) == {np.dtype(np.float32)}
        assert state.centers.latent.centers.dtype == np.float32
        assert state.centers.by_class.centers.dtype == np.float32

    def test_stored_forms_stay_float64_and_eval_narrows(self, tmp_path):
        cfg = self.CFG
        params = init_model_params(cfg, SplitMix64(1))
        assert set(self.dtypes(params).values()) == {np.dtype(np.float64)}
        inst = build_instance(0)
        assert set(self.dtypes(inst.params).values()) == {np.dtype(np.float64)}
        assert inst.centers.latent.centers.dtype == np.float64

        state = state_of(params, Centers.zeros(cfg))
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state.params, cfg)
        _, loaded = load_params(str(path))
        assert set(self.dtypes(loaded).values()) == {np.dtype(COMPUTE_DTYPE)}

    def test_float32_checkpoint_round_trip_keeps_every_bit(self, tmp_path):
        cfg = HeadConfig()
        state = state_of(init_model_params(cfg, SplitMix64(2)), centers_off_zero(cfg, 3))
        rng = np.random.default_rng(2)
        for _, arr in state.params.items():
            arr *= rng.uniform(0.5, 2.0, arr.shape).astype(np.float32)  # all 24 mantissa bits
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state.params, cfg)
        _, loaded = load_params(str(path))
        for (name, got), (_, want) in zip(loaded.items(), state.params.items()):
            assert got.tobytes(order="A") == want.tobytes(order="A"), name
            assert got.strides == want.strides, name

    def test_float64_forward_matches_the_naive_loops(self):
        """The benchmark's oracle: init_model_params + forward in float64 at rtol 1e-9."""
        cfg = HeadConfig()
        params = init_model_params(cfg, SplitMix64(4))
        X, _ = paper_batch(4, rows=1)
        logits = forward(X, params, cfg).logits
        assert logits.dtype == np.float64
        want = naive_head_forward(
            X[0].tolist(), params.decomp.tolist(), params.gate.tolist(),
            params.message.tolist(), params.classifier.tolist(), cfg.mix_ratio,
        )
        np.testing.assert_allclose(logits[0], want["logits"], rtol=1e-9, atol=1e-9)

    def test_features_that_overflow_float32_are_a_training_error(self):
        cfg = self.CFG
        state = state_of(init_model_params(cfg, SplitMix64(5)), Centers.zeros(cfg))
        X = np.full((2, cfg.input_dim), 1e39)  # finite in float64
        with pytest.raises(TrainingError, match="forward inputs overflow float32"):
            forward(X, state.params, cfg)

    def test_params_that_overflow_float32_are_a_training_error(self):
        params = init_model_params(self.CFG, SplitMix64(6))
        params.gate[0, 0, 0] = 1e39
        with pytest.raises(TrainingError, match="non-finite values in gate in float32"):
            params.astype(np.float32)


class TestSubnormalGradients:
    def test_subnormal_probabilities_give_exactly_zero_gradient_in_float32(self):
        """exp(-95) is subnormal in float32 and normal in float64."""
        cfg = HeadConfig(input_dim=8, latent_dim=4, n_latents=3, n_classes=3)
        params = init_model_params(cfg, SplitMix64(7))
        X = SplitMix64(8).uniform(0.0, 1.0, (4, cfg.input_dim))
        labels = np.array([0, 2, 0, 2])
        columns = {}
        for dtype in (np.float64, np.float32):
            typed = params.astype(dtype)
            cache = forward(X, typed, cfg)
            cache.logits[...] = [0.0, -95.0, 0.0]  # class 1 is never the label
            grads, _ = backward(cache, labels, typed, Centers.zeros(cfg), cfg)
            columns[dtype] = grads.classifier[:, 1]
        assert np.all(columns[np.float32] == 0.0)
        assert np.all(columns[np.float64] != 0.0)
