"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them inline);
a failed assertion is the corresponding FAIL. The heavy end-to-end criterion
trains the full default configuration and takes a couple of minutes.
"""

import time

import numpy as np
import pytest

from naive_reference import naive_head_forward

from ferhead import datasets
from ferhead.cli import main
from ferhead.head import (
    Centers,
    HeadConfig,
    ParamGroups,
    compute_losses,
    forward,
    init_model_params,
    softmax,
)
from ferhead.intra import balance_loss, mean_weights, uniform_target
from ferhead.numerics import SplitMix64
from ferhead.training import (
    AdamState,
    Schedule,
    TrainerState,
    evaluate,
    load_params,
    save_checkpoint,
    train_epoch,
)
from ferhead.verification import run_suite


def report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def small_random_instance(seed: int, batch: int = 2):
    cfg = HeadConfig(input_dim=16, latent_dim=8, n_latents=3, n_classes=4)
    rng = SplitMix64(seed)
    params = ParamGroups(
        decomp=rng.uniform(-0.3, 0.3, (3, 16, 8)),
        gate=rng.uniform(-0.3, 0.3, (3, 8, 8)),
        message=rng.uniform(-0.3, 0.3, (3, 8, 8)),
        classifier=rng.uniform(-0.3, 0.3, (8, 4)),
    )
    X = rng.uniform(-1.0, 1.0, (batch, 16))
    return cfg, params, X


class TestGradientOracle:
    def test_twenty_instances_all_groups_under_tolerance(self):
        """Analytic vs central differences < 1e-4 per group, per loss mode."""
        start = time.time()
        worst, worst_mode, passed = run_suite(range(20), tolerance=1e-4)
        elapsed = time.time() - start
        assert passed, f"worst errors: {worst} at {worst_mode}"
        assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s (limit 60s)"
        report(
            "gradient oracle: 20 instances x 5 loss modes, "
            f"worst {max(worst.values()):.2e} < 1e-4 in {elapsed:.1f}s"
        )


class TestForwardOracle:
    def test_hundred_instances_match_naive_loops(self):
        """Vectorized head equals the independent loop oracle to 1e-10."""
        for seed in range(100):
            cfg, params, X = small_random_instance(seed)
            cache = forward(X, params, cfg)
            for i in range(X.shape[0]):
                ref = naive_head_forward(
                    X[i], params.decomp, params.gate, params.message,
                    params.classifier, cfg.mix_ratio,
                )
                np.testing.assert_allclose(
                    cache.feature[i], ref["feature"], rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    cache.logits[i], ref["logits"], rtol=1e-10, atol=1e-12
                )
                np.testing.assert_allclose(
                    cache.omega[i], ref["omega"], rtol=1e-10, atol=1e-12
                )
        report("forward oracle: 100 random instances match naive loops to 1e-10")


class TestStructuralInvariants:
    def test_thousand_random_inputs(self):
        rng = np.random.default_rng(7)
        cfg, params, _ = small_random_instance(1)
        centers = Centers.zeros(cfg)
        idx = np.arange(cfg.n_latents)
        seen = 0
        while seen < 1000:
            n = 10
            X = rng.uniform(-2.0, 2.0, size=(n, cfg.input_dim))
            labels = rng.integers(0, cfg.n_classes, size=n)
            cache = forward(X, params, cfg)
            omega = cache.omega
            assert np.all(omega[:, idx, idx] == 0.0)
            np.testing.assert_allclose(omega, omega.transpose(0, 2, 1), atol=1e-15)
            assert np.all((omega >= 0.0) & (omega < 1.0))
            assert np.all(cache.latents >= 0.0)
            assert np.all(cache.messages >= 0.0)
            assert np.all((cache.weights >= 0.0) & (cache.weights < cfg.latent_dim))
            losses = compute_losses(cache, labels, centers, cfg)
            assert min(losses.cls, losses.compact, losses.balance, losses.distribution) >= 0.0
            np.testing.assert_allclose(softmax(cache.logits).sum(axis=1), 1.0, atol=1e-12)
            seen += n
        report("structural invariants hold over 1000 random inputs")


class TestTrivialCases:
    def test_all_exact(self):
        cfg, params, X = small_random_instance(3, batch=4)
        direct_only = HeadConfig(
            input_dim=cfg.input_dim, latent_dim=cfg.latent_dim,
            n_latents=cfg.n_latents, n_classes=cfg.n_classes, mix_ratio=1.0,
        )
        cache = forward(X, params, direct_only)
        assert np.array_equal(cache.feature, cache.scaled.sum(axis=1))

        from ferhead.inter import pairwise_relation

        identical = np.tile(np.array([0.5, 1.5, 2.5, 0.0]), (3, 1))
        assert np.array_equal(pairwise_relation(identical)[1], np.zeros((3, 3)))

        assert balance_loss(uniform_target(9)) == 0.0

        from ferhead.decomposition import LatentCenters, compactness_loss

        centers = LatentCenters(np.arange(12.0).reshape(3, 4))
        batch = np.tile(centers.centers, (5, 1, 1))
        assert compactness_loss(batch, centers) == 0.0

        report(
            "trivial cases exact: mix=1 feature sum, zero omega on identical "
            "messages, zero balance at uniform, zero compactness at centers"
        )


@pytest.fixture(scope="module")
def default_population():
    train = datasets.generate(
        datasets.make_synth_spec(samples_per_class=300, seed=0, structure_seed=0)
    )
    test = datasets.generate(
        datasets.make_synth_spec(samples_per_class=100, seed=1, structure_seed=0)
    )
    return train, test


class TestSyntheticEndToEnd:
    def test_paper_default_training_reaches_ninety_percent(self, default_population):
        """K=7, M=9, D=128, P=512, lambdas (1e-4, 1.0, 1e-4), delta 0.5,
        Adam lr 1e-4 with /10 decays at {10,18,25,32}, batch 64, 40 epochs."""
        train, test = default_population
        assert len(train) == 2100 and len(test) == 700
        cfg = HeadConfig()
        sched = Schedule()
        assert sched.base_lr == 1e-4 and sched.batch_size == 64
        rng = SplitMix64(0)
        params = init_model_params(cfg, rng)
        state = TrainerState(
            params=params, centers=Centers.zeros(cfg),
            adam=AdamState.zeros(params), rng=rng,
        )
        start = time.time()
        for epoch in range(sched.total_epochs):
            train_epoch(state, train, cfg, sched, epoch)
        elapsed = time.time() - start
        accuracy = evaluate(state.params, cfg, test).accuracy
        assert elapsed < 600.0, f"training took {elapsed:.0f}s (limit 600s)"
        assert accuracy >= 0.90, f"test accuracy {accuracy:.4f} < 0.90"
        report(
            f"synthetic end-to-end: test accuracy {accuracy:.4f} >= 0.90 "
            f"in {elapsed:.0f}s"
        )


class TestBalanceLossEffect:
    def test_balance_term_shrinks_weight_imbalance(self):
        """Same seed/config; the lambda2=1 run ends with strictly smaller
        ||mean weights - uniform||_1 than the lambda2=0 run."""
        spec = datasets.make_synth_spec(
            n_classes=3, n_actions=4, feature_dim=48, noise_sigma=0.05,
            samples_per_class=40, seed=2, structure_seed=2,
        )
        data = datasets.generate(spec)
        gaps = {}
        for lam in (1.0, 0.0):
            cfg = HeadConfig(
                input_dim=48, latent_dim=16, n_latents=4, n_classes=3,
                lambda_balance=lam,
            )
            sched = Schedule(
                base_lr=1e-3, decay_epochs=(10, 18, 25, 32),
                total_epochs=40, batch_size=16,
            )
            rng = SplitMix64(5)
            params = init_model_params(cfg, rng)
            state = TrainerState(
                params=params, centers=Centers.zeros(cfg),
                adam=AdamState.zeros(params), rng=rng,
            )
            for epoch in range(sched.total_epochs):
                train_epoch(state, data, cfg, sched, epoch)
            cache = forward(data.features, state.params, cfg)
            gaps[lam] = balance_loss(mean_weights(cache.weights))
        assert gaps[1.0] < gaps[0.0], f"balance gaps: {gaps}"
        report(
            f"balance-loss effect: final imbalance {gaps[1.0]:.4f} (on) < "
            f"{gaps[0.0]:.4f} (off)"
        )


class TestAblationHarness:
    @pytest.fixture()
    def sweep_env(self, tmp_path):
        train = tmp_path / "train.bin"
        test = tmp_path / "test.bin"
        for path, per_class, seed in ((train, 12, 0), (test, 6, 1)):
            assert (
                main(
                    ["synth", "--classes", "3", "--actions", "4", "--dim", "16",
                     "--per-class", str(per_class), "--seed", str(seed),
                     "--structure-seed", "3", "--out-bin", str(path)]
                )
                == 0
            )
        base = [
            "--input-dim", "16", "--latent-dim", "6", "--n-latents", "3",
            "--n-classes", "3", "--epochs", "2", "--batch-size", "12",
            "--decay-epochs", "", "--train-path", str(train),
            "--test-path", str(test),
        ]
        return tmp_path, base

    def test_latent_count_and_lambda_grids(self, sweep_env):
        tmp_path, base = sweep_env
        grids = [
            ("n_latents", "3,6,9,12"),
            ("lambda_compact", "0,0.00001,0.0001,0.001,0.01"),
            ("lambda_balance", "0,0.5,1.0,1.5,2.0"),
            ("lambda_distribution", "0,0.00001,0.0001,0.001,0.01"),
        ]
        for param, values in grids:
            summary = tmp_path / f"sweep_{param}.csv"
            code = main(
                ["sweep", *base, "--param", param, "--values", values,
                 "--summary", str(summary)]
            )
            assert code == 0
            lines = summary.read_text().splitlines()
            assert len(lines) == 1 + len(values.split(","))
            for raw, row in zip(values.split(","), lines[1:]):
                cells = row.split(",")
                assert cells[0] == param and cells[1] == raw
                assert cells[3] != ""  # test accuracy reported
        report("ablation harness: sweeps over M and all three lambda grids")


class TestDeterminism:
    def test_default_runs_bitwise_identical(self, tmp_path):
        data = tmp_path / "train.csv"
        assert (
            main(
                ["synth", "--classes", "3", "--actions", "4", "--dim", "20",
                 "--per-class", "10", "--seed", "4", "--out-csv", str(data)]
            )
            == 0
        )
        blobs, logs = [], []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            log = tmp_path / f"{tag}.csv"
            assert (
                main(
                    ["train", "--train-path", str(data), "--input-dim", "20",
                     "--latent-dim", "6", "--n-latents", "3", "--n-classes", "3",
                     "--epochs", "3", "--batch-size", "10", "--decay-epochs", "",
                     "--seed", "11",
                     "--checkpoint", str(ckpt), "--log-path", str(log)]
                )
                == 0
            )
            blobs.append(ckpt.read_bytes())
            logs.append(log.read_text())
        assert blobs[0] == blobs[1]
        assert logs[0] == logs[1]
        report("determinism: repeated default-flag train runs produce identical bytes")


class TestFormatRoundTrips:
    def test_csv_binary_and_checkpoint(self, tmp_path):
        data = datasets.generate(
            datasets.make_synth_spec(
                n_classes=3, n_actions=4, feature_dim=10, samples_per_class=6, seed=8,
            )
        )
        csv_path = tmp_path / "d.csv"
        datasets.save_csv(str(csv_path), data)
        loaded = datasets.load_csv(str(csv_path), data.n_classes)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

        bin_path = tmp_path / "d.bin"
        datasets.save_bin(str(bin_path), data)
        loaded_bin = datasets.load_bin(str(bin_path))
        assert np.array_equal(
            loaded_bin.features, data.features.astype(np.float32).astype(np.float64)
        )

        cfg = HeadConfig(input_dim=10, latent_dim=4, n_latents=2, n_classes=3)
        rng = SplitMix64(6)
        params = init_model_params(cfg, rng)
        state = TrainerState(
            params=params, centers=Centers.zeros(cfg),
            adam=AdamState.zeros(params), rng=rng,
        )
        c1, c2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
        save_checkpoint(str(c1), state.params, cfg)
        loaded_cfg, loaded = load_params(str(c1))
        assert loaded_cfg == cfg
        save_checkpoint(str(c2), loaded, cfg)
        assert c1.read_bytes() == c2.read_bytes()
        report(
            "format round-trips: CSV exact, binary f32-exact, checkpoint "
            "idempotent with its config"
        )
