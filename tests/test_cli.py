"""CLI command tests: config handling, artifacts, exit codes, determinism."""

import os
import struct

import numpy as np
import pytest

from ferhead.cli import RunConfig, load_run_config, main, pca_project


@pytest.fixture
def toy_env(tmp_path):
    """A small synthetic dataset plus a config file sized to train fast."""
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert (
        main(
            [
                "synth", "--classes", "3", "--actions", "4", "--dim", "24",
                "--per-class", "20", "--noise", "0.02", "--seed", "0",
                "--structure-seed", "1", "--out-csv", str(train),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "synth", "--classes", "3", "--actions", "4", "--dim", "24",
                "--per-class", "8", "--noise", "0.02", "--seed", "5",
                "--structure-seed", "1", "--out-csv", str(test),
            ]
        )
        == 0
    )
    config = tmp_path / "run.config"
    config.write_text(
        "\n".join(
            [
                "# toy run",
                "input_dim=24",
                "latent_dim=6",
                "n_latents=3",
                "n_classes=3",
                "epochs=4",
                "batch_size=10",
                "base_lr=0.005",
                "decay_epochs=3",
                f"train_path={train}",
                f"test_path={test}",
            ]
        )
       + "\n"
    )
    return tmp_path, config


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(latent_dim=32, seed=9, train_path="/data/x.csv")
        path = tmp_path / "dump.config"
        cfg.dump(str(path))
        loaded = load_run_config(str(path))
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("nonsense_key=1\n")
        with pytest.raises(Exception, match="unknown key"):
            load_run_config(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.config"
        path.write_text("# comment\n\nseed=4\n")
        assert load_run_config(str(path)).seed == 4


class TestTrainCommand:
    def test_train_produces_artifacts(self, toy_env):
        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        eval_csv = tmp_path / "final_eval.csv"
        code = main(
            [
                "train", "--config", str(config), "--checkpoint", str(ckpt),
                "--log-path", str(log), "--eval-csv", str(eval_csv), "--seed", "3",
            ]
        )
        assert code == 0
        assert ckpt.exists() and log.exists()
        header = log.read_text().splitlines()[0]
        assert header.startswith("epoch,lr,loss_total")
        assert len(log.read_text().splitlines()) == 5  # header + 4 epochs
        # a test set was configured, so the final report is also written
        assert eval_csv.read_text().startswith("class,samples,correct,accuracy")

    def test_missing_dataset_is_usage_error(self, tmp_path):
        code = main(["train", "--train-path", str(tmp_path / "absent.csv")])
        assert code != 0

    def test_short_run_names_the_decay_epochs_it_rejects(self, toy_env, monkeypatch, capsys):
        """The paper's boundaries 10..32 need --decay-epochs on a 2-epoch run."""
        monkeypatch.delenv("FERHEAD_CONFIG", raising=False)
        tmp_path, config = toy_env
        train_path = load_run_config(str(config)).train_path
        code = main(["train", "--train-path", train_path, "--epochs", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "decay epochs (10, 18, 25, 32) must be < total_epochs 2" in err

    def test_nonfinite_loss_exits_nonzero_naming_batch(self, tmp_path, capsys):
        import numpy as np

        from ferhead.datasets import FeatureDataset, save_csv

        bad = tmp_path / "overflow.csv"
        names = ("class_0", "class_1", "class_2")
        save_csv(
            str(bad),
            FeatureDataset(np.full((12, 6), 1e200), np.arange(12) % 3, names),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                ["train", "--train-path", str(bad), "--input-dim", "6",
                 "--latent-dim", "4", "--n-latents", "2", "--n-classes", "3",
                 "--epochs", "1", "--batch-size", "12", "--decay-epochs", ""]
            )
        assert code != 0
        err = capsys.readouterr().err
        assert "epoch 0" in err and "batch" in err

    @staticmethod
    def train_outputs(tmp_path, config, tag, *flags):
        """Checkpoint bytes and log text of one seeded train run."""
        ckpt = tmp_path / f"model_{tag}.ckpt"
        log = tmp_path / f"log_{tag}.csv"
        assert (
            main(
                [
                    "train", "--config", str(config), *flags,
                    "--checkpoint", str(ckpt), "--log-path", str(log),
                    "--seed", "7",
                ]
            )
            == 0
        )
        return ckpt.read_bytes(), log.read_text()

    def test_determinism_identical_logs_and_checkpoints(self, toy_env):
        tmp_path, config = toy_env
        outputs = [self.train_outputs(tmp_path, config, tag) for tag in ("a", "b")]
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_threads_flag_does_not_change_training(self, toy_env):
        """--threads still parses, and every value trains the same bytes."""
        tmp_path, config = toy_env
        outputs = [
            self.train_outputs(tmp_path, config, f"t{n}", "--threads", n) for n in ("1", "2")
        ]
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]

    def test_dumped_config_reproduces_run(self, toy_env):
        tmp_path, config = toy_env
        ckpt1 = tmp_path / "m1.ckpt"
        assert (
            main(
                ["train", "--config", str(config), "--checkpoint", str(ckpt1),
                 "--seed", "2"]
            )
            == 0
        )
        dumped = str(ckpt1) + ".config"
        assert os.path.exists(dumped)
        # rerun purely from the dumped effective config
        ckpt2 = tmp_path / "m2.ckpt"
        assert (
            main(["train", "--config", dumped, "--checkpoint", str(ckpt2)]) == 0
        )
        blob1 = ckpt1.read_bytes()
        blob2 = ckpt2.read_bytes()
        assert blob1 == blob2

    def test_env_var_supplies_default_config(self, toy_env, monkeypatch):
        tmp_path, config = toy_env
        ckpt = tmp_path / "env.ckpt"
        monkeypatch.setenv("FERHEAD_CONFIG", str(config))
        assert main(["train", "--checkpoint", str(ckpt), "--epochs", "1", "--decay-epochs", ""]) == 0
        assert ckpt.exists()


class TestEvalCommand:
    def test_eval_matches_final_train_log_accuracy(self, toy_env):
        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        assert (
            main(
                ["train", "--config", str(config), "--checkpoint", str(ckpt),
                 "--log-path", str(log), "--seed", "1"]
            )
            == 0
        )
        train_path = load_run_config(str(config)).train_path
        out = tmp_path / "eval.csv"
        assert (
            main(
                ["eval", "--checkpoint-path", str(ckpt), "--data", train_path,
                 "--out", str(out)]
            )
            == 0
        )
        final_acc = float(log.read_text().splitlines()[-1].split(",")[-1])
        rows = out.read_text().splitlines()[1:]
        total = sum(int(r.split(",")[1]) for r in rows)
        correct = sum(int(r.split(",")[2]) for r in rows)
        assert correct / total == pytest.approx(final_acc, abs=1e-12)

    def test_corrupted_checkpoint_is_format_error(self, toy_env):
        tmp_path, config = toy_env
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 60)
        train_path = load_run_config(str(config)).train_path
        assert main(["eval", "--checkpoint-path", str(bad), "--data", train_path]) == 2

    def test_dimension_mismatch_is_explicit_error(self, toy_env, capsys):
        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        assert (
            main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        )
        other = tmp_path / "wrong.csv"
        assert (
            main(
                ["synth", "--classes", "3", "--actions", "4", "--dim", "10",
                 "--per-class", "4", "--out-csv", str(other)]
            )
            == 0
        )
        assert main(["eval", "--checkpoint-path", str(ckpt), "--data", str(other)]) == 2
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, offset, value",
        [("mix_ratio", 48, 1.5), ("mix_ratio", 48, -3.0), ("center_rate", 56, 0.0)],
        # ids name the train flag that would have written each setting
        ids=["--mix-ratio-1.5", "--mix-ratio--3", "--center-rate-0"],
    )
    def test_out_of_range_config_exits_2_and_writes_nothing(
        self, toy_env, capsys, field, offset, value
    ):
        """An out-of-range setting in the checkpoint header fails before any output."""
        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        blob = bytearray(ckpt.read_bytes())
        blob[offset : offset + 8] = struct.pack("<d", value)
        ckpt.write_bytes(bytes(blob))
        train_path = load_run_config(str(config)).train_path
        out = tmp_path / "eval.csv"
        argv = ["eval", "--checkpoint-path", str(ckpt), "--data", train_path,
                "--out", str(out)]
        assert main(argv) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_model_flag_is_a_usage_error(self, toy_env):
        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        train_path = load_run_config(str(config)).train_path
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint-path", str(ckpt), "--data", train_path,
                  "--mix-ratio", "0"])
        assert exc.value.code == 2

    def test_eval_runs_the_trained_mix_ratio(self, toy_env):
        """A --mix-ratio 0 model evaluates, with no flags, to its logged accuracy."""
        tmp_path, config = toy_env
        ckpt, log, out = (tmp_path / name for name in ("m.ckpt", "log.csv", "eval.csv"))
        assert (
            main(["train", "--config", str(config), "--checkpoint", str(ckpt),
                  "--log-path", str(log), "--mix-ratio", "0"])
            == 0
        )
        train_path = load_run_config(str(config)).train_path
        assert (
            main(["eval", "--checkpoint-path", str(ckpt), "--data", train_path,
                  "--out", str(out)])
            == 0
        )
        final_acc = float(log.read_text().splitlines()[-1].split(",")[-1])
        rows = out.read_text().splitlines()[1:]
        correct = sum(int(r.split(",")[2]) for r in rows)
        total = sum(int(r.split(",")[1]) for r in rows)
        assert correct / total == final_acc

    def test_random_models_average_to_chance_on_balanced_data(self, tmp_path):
        """Mean accuracy of untrained models on balanced 7-class data is ~1/7.

        One random model concentrates its argmax on a few classes, so only
        the average over independent initializations sits at chance level.
        """
        from ferhead.datasets import generate, make_synth_spec
        from ferhead.head import HeadConfig, init_model_params
        from ferhead.numerics import SplitMix64
        from ferhead.training import evaluate

        cfg = HeadConfig(input_dim=64, latent_dim=8, n_latents=3, n_classes=7)
        data = generate(
            make_synth_spec(
                n_classes=7, n_actions=9, feature_dim=64, noise_sigma=0.05,
                samples_per_class=60, seed=0,
            )
        )
        accuracies = [
            evaluate(init_model_params(cfg, SplitMix64(seed)), cfg, data).accuracy
            for seed in range(20)
        ]
        assert abs(np.mean(accuracies) - 1.0 / 7.0) < 0.05


class TestGradcheckCommand:
    def test_default_run_passes(self):
        assert main(["gradcheck", "--instances", "2"]) == 0

    def test_injected_bug_fails_naming_gate_group(self, capsys):
        code = main(["gradcheck", "--instances", "1", "--inject-sign-bug", "gate"])
        captured = capsys.readouterr()
        assert code != 0
        assert "gate" in captured.err

    def test_lambdas_zeroed_still_checks_classification(self):
        # classification mode is always part of the suite
        assert main(["gradcheck", "--instances", "1", "--seed", "42"]) == 0


class TestSynthCommand:
    def test_requires_an_output(self):
        assert main(["synth"]) == 2

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--classes", "3", "--actions", "4", "--dim", "16",
                "--per-class", "5", "--seed", "9"]
        assert main(args + ["--out-csv", str(a)]) == 0
        assert main(args + ["--out-csv", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_bin_and_csv_agree(self, tmp_path):
        csv_p, bin_p = tmp_path / "d.csv", tmp_path / "d.bin"
        assert (
            main(
                ["synth", "--classes", "3", "--actions", "4", "--dim", "16",
                 "--per-class", "5", "--out-csv", str(csv_p), "--out-bin", str(bin_p)]
            )
            == 0
        )
        from ferhead.datasets import load_bin, load_csv

        names = ("class_0", "class_1", "class_2")
        a = load_csv(str(csv_p), names)
        b = load_bin(str(bin_p), names)
        np.testing.assert_allclose(a.features, b.features, atol=1e-6)
        assert np.array_equal(a.labels, b.labels)


class TestInspectCommand:
    def test_pca_runs_the_trained_mix_ratio(self, toy_env):
        """--pca-csv of a --mix-ratio 0 model projects the features of that model."""
        from ferhead.datasets import load_csv
        from ferhead.head import HeadConfig, forward
        from ferhead.training import load_checkpoint

        tmp_path, config = toy_env
        ckpt, pca = tmp_path / "m.ckpt", tmp_path / "pca.csv"
        assert (
            main(["train", "--config", str(config), "--checkpoint", str(ckpt),
                  "--mix-ratio", "0"])
            == 0
        )
        train_path = load_run_config(str(config)).train_path
        assert (
            main(["inspect", "--checkpoint-path", str(ckpt), "--data", train_path,
                  "--pca-csv", str(pca)])
            == 0
        )
        cfg = HeadConfig(input_dim=24, latent_dim=6, n_latents=3, n_classes=3, mix_ratio=0.0)
        data = load_csv(train_path, tuple(f"class_{k}" for k in range(3)))
        params = load_checkpoint(str(ckpt), cfg).params
        expected = pca_project(forward(data.features, params, cfg).feature)
        got = np.loadtxt(pca, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, 0], data.labels)
        np.testing.assert_array_equal(got[:, 1:], expected)
    def test_exports_have_documented_shapes(self, toy_env):
        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        assert (
            main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        )
        train_path = load_run_config(str(config)).train_path
        weights = tmp_path / "weights.csv"
        pca = tmp_path / "pca.csv"
        rel = tmp_path / "rel.csv"
        assert (
            main(
                ["inspect", "--checkpoint-path", str(ckpt), "--data", train_path,
                 "--weights-csv", str(weights), "--pca-csv", str(pca),
                 "--relations-csv", str(rel)]
            )
            == 0
        )
        w_lines = weights.read_text().splitlines()
        assert w_lines[0] == "class,weight_1,weight_2,weight_3"
        assert len(w_lines) == 1 + 3  # K rows
        assert all(len(l.split(",")) == 1 + 3 for l in w_lines[1:])  # 1 + M cols

        p_lines = pca.read_text().splitlines()
        assert p_lines[0] == "label,pc1,pc2"
        assert len(p_lines) == 1 + 60

        r_lines = rel.read_text().splitlines()
        assert r_lines[0] == "sample,row,col,weight"
        assert len(r_lines) == 1 + 60 * 3 * 3

    def test_blocks_match_one_full_forward(self, toy_env):
        """Over more rows than one block, the exports equal one full forward's."""
        from ferhead.datasets import load_csv
        from ferhead.head import HeadConfig, forward
        from ferhead.training import EVAL_BLOCK_ROWS, load_checkpoint

        tmp_path, config = toy_env
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        big = tmp_path / "big.csv"
        per_class = EVAL_BLOCK_ROWS // 3 + 20
        assert (
            main(
                ["synth", "--classes", "3", "--actions", "4", "--dim", "24",
                 "--per-class", str(per_class), "--noise", "0.02", "--seed", "9",
                 "--structure-seed", "1", "--out-csv", str(big)]
            )
            == 0
        )
        weights_csv = tmp_path / "weights.csv"
        rel_csv = tmp_path / "rel.csv"
        assert (
            main(
                ["inspect", "--checkpoint-path", str(ckpt), "--data", str(big),
                 "--weights-csv", str(weights_csv), "--relations-csv", str(rel_csv)]
            )
            == 0
        )

        names = tuple(f"class_{k}" for k in range(3))
        data = load_csv(str(big), names)
        assert len(data) > EVAL_BLOCK_ROWS
        cfg = HeadConfig(input_dim=24, latent_dim=6, n_latents=3, n_classes=3)
        cache = forward(data.features, load_checkpoint(str(ckpt), cfg).params, cfg)
        expected = [cache.weights[data.labels == k].mean(axis=0) for k in range(3)]
        rows = [line.split(",") for line in weights_csv.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == list(names)
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

        rel = np.loadtxt(rel_csv, delimiter=",", skiprows=1)
        assert rel.shape == (len(data) * 9, 4)
        np.testing.assert_allclose(rel[:, 3], cache.omega.ravel(), rtol=1e-12, atol=0.0)

    def test_empty_dataset_exits_2_and_writes_nothing(self, tmp_path, capsys):
        from ferhead.datasets import FeatureDataset, save_bin
        from ferhead.head import Centers, HeadConfig, init_model_params
        from ferhead.numerics import SplitMix64
        from ferhead.training import AdamState, TrainerState, save_checkpoint

        cfg = HeadConfig(input_dim=8, latent_dim=4, n_latents=2, n_classes=3)
        rng = SplitMix64(0)
        params = init_model_params(cfg, rng)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(
            str(ckpt),
            TrainerState(params, Centers.zeros(cfg), AdamState.zeros(params), rng),
            cfg,
        )
        empty = tmp_path / "empty.bin"
        save_bin(
            str(empty),
            FeatureDataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), ("a", "b", "c")),
        )
        outputs = [tmp_path / name for name in ("weights.csv", "pca.csv", "rel.csv")]
        code = main(
            ["inspect", "--checkpoint-path", str(ckpt), "--data", str(empty),
             "--weights-csv", str(outputs[0]), "--pca-csv", str(outputs[1]),
             "--relations-csv", str(outputs[2])]
        )
        assert code == 2
        assert "inspect needs a non-empty dataset" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    def test_pca_variance_ordering(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(200, 6)) * np.array([5.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        proj = pca_project(feats)
        assert proj.shape == (200, 2)
        assert proj[:, 0].var() >= proj[:, 1].var()
        # independent eigendecomposition oracle on the projected covariance
        cov = np.cov(feats.T)
        eigvals = np.linalg.eigvalsh(cov)
        np.testing.assert_allclose(proj[:, 0].var(ddof=1), eigvals[-1], rtol=1e-10)
        np.testing.assert_allclose(proj[:, 1].var(ddof=1), eigvals[-2], rtol=1e-10)

    def test_pca_degenerate_identical_features(self):
        feats = np.tile([1.0, 2.0, 3.0], (20, 1))
        proj = pca_project(feats)
        np.testing.assert_allclose(proj, 0.0, atol=1e-12)


class TestSweepCommand:
    def test_sweep_emits_one_row_per_value(self, toy_env):
        tmp_path, config = toy_env
        summary = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--config", str(config), "--epochs", "2", "--decay-epochs", "",
                "--param", "n_latents", "--values", "2,3",
                "--summary", str(summary),
            ]
        )
        assert code == 0
        lines = summary.read_text().splitlines()
        assert lines[0].startswith("param,value,train_accuracy,test_accuracy")
        assert len(lines) == 1 + 2
        assert lines[1].split(",")[0] == "n_latents"

    def test_lambda_sweep(self, toy_env):
        tmp_path, config = toy_env
        summary = tmp_path / "lam.csv"
        code = main(
            [
                "sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                "--param", "lambda_balance", "--values", "0,1.0",
                "--summary", str(summary),
            ]
        )
        assert code == 0
        assert len(summary.read_text().splitlines()) == 3
