"""CLI command tests: config handling, artifacts, exit codes, determinism."""

import errno
import mmap
import os
import re
import shlex
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ferhead import cli, datasets, head, training, verification
from ferhead.errors import DataFormatError
from ferhead.cli import (
    RunConfig,
    build_parser,
    load_run_config,
    main,
    pca_project,
    write_csv,
)
from ferhead.head import HeadConfig, init_model_params
from ferhead.numerics import SplitMix64
from ferhead.training import (
    COMPUTE_DTYPE,
    Schedule,
    evaluate,
    load_params,
    save_checkpoint,
)


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


def save_toy_model(path, config, nan_gate=False):
    """An untrained version-5 checkpoint of toy_env's model, one gate weight NaN if asked."""
    cfg = load_run_config(str(config)).head_config()
    params = init_model_params(cfg, SplitMix64(0)).astype(COMPUTE_DTYPE)
    if nan_gate:
        params.gate[1, 2, 3] = np.nan
    save_checkpoint(str(path), params, cfg)
    return path


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(latent_dim=32, seed=9, train_path="/data/x.csv")
        path = tmp_path / "dump.config"
        path.write_text(cfg.dump())
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

    def test_key_set_twice_names_the_file_line_and_key(self, tmp_path):
        path = tmp_path / "twice.config"
        path.write_text("seed=0\nepochs=3\n\nseed=5\n")
        with pytest.raises(DataFormatError, match=re.escape(
            f"{path}:4: key 'seed' set twice, first on line 1"
        )):
            load_run_config(str(path))

    def test_defaults_match_head_config_and_schedule(self):
        """RunConfig restates the HeadConfig and Schedule defaults; they must agree."""
        assert RunConfig().head_config() == HeadConfig()
        assert RunConfig().schedule() == Schedule()

    def test_run_config_surface_is_pinned(self, tmp_path):
        """HeadConfig's fields, then the schedule's, then the run's own, as before."""
        assert [f.name for f in fields(RunConfig)] == [
            "input_dim", "latent_dim", "n_latents", "n_classes", "lambda_compact",
            "lambda_balance", "lambda_distribution", "mix_ratio", "center_rate",
            "base_lr", "decay_epochs", "decay_factor", "epochs", "batch_size", "seed",
            "threads", "train_path", "test_path", "checkpoint", "log_path", "eval_csv",
        ]
        assert RunConfig().dump() == (
            "input_dim=512\nlatent_dim=128\nn_latents=9\nn_classes=7\n"
            "lambda_compact=0.0001\nlambda_balance=1.0\nlambda_distribution=0.0001\n"
            "mix_ratio=0.5\ncenter_rate=0.5\nbase_lr=0.0001\ndecay_epochs='10,18,25,32'\n"
            "decay_factor=0.1\nepochs=40\nbatch_size=64\nseed=0\nthreads=1\n"
            "train_path=''\ntest_path=''\ncheckpoint=''\nlog_path=''\neval_csv=''\n"
        )
        assert RunConfig().head_config() == HeadConfig()
        assert RunConfig().schedule() == Schedule()

    @pytest.mark.parametrize("text", ["a\\b", "tab\there", 'x"', "q'", "it's"])
    def test_dumped_strings_reload_as_written(self, tmp_path, text):
        cfg = RunConfig(train_path=text, checkpoint=text + ".ckpt")
        path = tmp_path / "dump.config"
        path.write_text(cfg.dump())
        assert load_run_config(str(path)) == cfg

    def test_unquoted_value_is_taken_as_written(self, tmp_path):
        path = tmp_path / "hand.config"
        path.write_text("train_path=/data/my set's \\x.csv\n")
        assert load_run_config(str(path)).train_path == "/data/my set's \\x.csv"

    @pytest.mark.parametrize("value", ["'a'b'", '"a\\"', "'a', 'b'"])
    def test_malformed_quoted_value_names_the_line(self, tmp_path, value):
        path = tmp_path / "bad.config"
        path.write_text(f"seed=1\ntrain_path={value}\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: ")):
            load_run_config(str(path))

    @pytest.mark.parametrize(
        "argv, config_text, key, bad",
        [
            (["train", "--decay-epochs", "abc"], None, "decay_epochs", "'abc'"),
            (["train"], "decay_epochs=1,x\n", "decay_epochs", "'x'"),
            (["sweep", "--param", "n_latents", "--values", "3.5"], None, "n_latents", "'3.5'"),
            (["sweep", "--param", "mix_ratio", "--values", "abc"], None, "mix_ratio", "'abc'"),
        ],
    )
    def test_malformed_list_value_is_usage_error(
        self, tmp_path, capsys, argv, config_text, key, bad
    ):
        if config_text is not None:
            config = tmp_path / "bad.config"
            config.write_text(config_text)
            argv = argv + ["--config", str(config)]
        if argv[0] == "sweep":
            argv = argv + ["--summary", str(tmp_path / "sweep.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert key in err and bad in err
        assert not (tmp_path / "sweep.csv").exists()


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train"],
            ["train", "--config", "run.config", "--epochs", "2", "--base-lr", "0.01",
             "--decay-epochs", "1", "--mix-ratio", "0.25", "--train-path", "t.csv"],
            ["eval", "--checkpoint-path", "m.ckpt", "--data", "t.bin"],
            ["eval", "--checkpoint-path", "m.ckpt", "--data", "t.bin", "--out", "r.csv"],
            ["gradcheck"],
            ["gradcheck", "--instances", "3", "--tolerance", "1e-3", "--seed", "4"],
            ["synth"],
            ["synth", "--classes", "3", "--dim", "16", "--per-class", "5", "--noise", "0",
             "--structure-seed", "2", "--out-csv", "a.csv", "--out-bin", "a.bin"],
            ["inspect", "--checkpoint-path", "m.ckpt", "--data", "t.bin"],
            ["inspect", "--checkpoint-path", "m.ckpt", "--data", "t.bin", "--weights-csv",
             "w.csv", "--pca-csv", "p.csv", "--relations-csv", "r.csv"],
            ["sweep", "--param", "mix_ratio", "--values", "0,0.5", "--summary", "s.csv"],
            ["sweep", "--config", "run.config", "--lambda-balance", "0", "--threads", "2",
             "--param", "n_latents", "--values", "1,3", "--summary", "s.csv"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_one_command_parser_parses_as_the_full_one(self, argv):
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)

    def test_every_command_of_the_readme_cli_block_parses(self):
        """README's CLI code block shows only command lines the parser accepts."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("ferhead ")]
        assert len(commands) >= 8
        for line in commands:
            argv = shlex.split(line, comments=True)[1:]
            assert build_parser().parse_args(argv).command == argv[0], line

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["-h"], 0),
            ([], 2),
            (["bogus"], 2),
            (["eval", "-h"], 0),
            (["eval"], 2),
            (["eval", "--checkpoint-path", "m.ckpt", "--data", "t.bin", "--bogus"], 2),
            (["gradcheck", "--inject-sign-bug", "gate"], 2),
        ],
        ids=["help", "no-command", "unknown-command", "command-help", "missing-flags",
             "unknown-flag", "no-fault-switch"],
    )
    def test_usage_help_and_errors_read_as_the_full_parser_s(self, argv, code, capsys):
        with pytest.raises(SystemExit) as via_main:
            main(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as via_full:
            build_parser().parse_args(argv)
        assert via_main.value.code == via_full.value.code == code
        assert printed == capsys.readouterr()
        assert printed.out or printed.err


class TestWriteCsv:
    def test_cells_written_exactly(self, tmp_path):
        path = tmp_path / "cells.csv"
        cells = [3, np.int64(4), 0.5, np.float64(0.1), "name", ""]
        write_csv(str(path), ["a", "b", "c", "d", "e", "f"], [cells, cells[::-1]])
        assert path.read_text() == "a,b,c,d,e,f\n3,4,0.5,0.1,name,\n,name,0.1,0.5,4,3\n"


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
        assert header == (
            "epoch,lr,loss_total,loss_cls,loss_compact,loss_balance,loss_distribution,"
            "train_accuracy"
        )
        # the loss columns are LossBreakdown's fields, in field order
        loss_columns = [f"loss_{f.name}" for f in fields(head.LossBreakdown)]
        assert header.split(",") == ["epoch", "lr", *loss_columns, "train_accuracy"]
        assert len(log.read_text().splitlines()) == 5  # header + 4 epochs
        # a test set was configured, so the final report is also written
        assert eval_csv.read_text().startswith("class,samples,correct,accuracy")

    def test_single_latent_trains(self, toy_env):
        """M = 1 gives size-1 parameter axes, whose strides np.zeros_like may pick anew."""
        tmp_path, config = toy_env
        ckpt = tmp_path / "m1.ckpt"
        argv = ["train", "--config", str(config), "--checkpoint", str(ckpt)]
        assert main(argv + ["--n-latents", "1"]) == 0
        assert ckpt.exists()

    @pytest.mark.parametrize(
        "flag, value, setting",
        [
            ("--decay-factor", "-0.5", "factor"),
            ("--decay-factor", "0", "factor"),
            ("--decay-factor", "nan", "factor"),
            ("--decay-factor", "inf", "factor"),
            ("--base-lr", "nan", "base_lr"),
            ("--lambda-compact", "inf", "lambda_compact"),
            ("--lambda-balance", "nan", "lambda_balance"),
        ],
    )
    def test_setting_that_would_train_wrong_exits_2_before_training(
        self, toy_env, capsys, flag, value, setting
    ):
        """A negative or zero factor trains by ascent or not at all after a decay;
        a non-finite rate, factor or λ trained until a non-finite update stopped it."""
        tmp_path, config = toy_env
        capsys.readouterr()
        assert main(["train", "--config", str(config), flag, value]) == 2
        captured = capsys.readouterr()
        assert "epoch" not in captured.out
        assert setting in captured.err

    def test_missing_dataset_is_usage_error(self, tmp_path):
        code = main(["train", "--train-path", str(tmp_path / "absent.csv")])
        assert code != 0

    def test_short_run_names_the_decay_epochs_it_rejects(self, toy_env, capsys):
        """The paper's boundaries 10..32 need --decay-epochs on a 2-epoch run."""
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
        save_csv(str(bad), FeatureDataset(np.full((12, 6), 1e30), np.arange(12) % 3, 3))
        code = main(
            ["train", "--train-path", str(bad), "--input-dim", "6",
             "--latent-dim", "4", "--n-latents", "2", "--n-classes", "3",
             "--epochs", "1", "--batch-size", "12", "--decay-epochs", ""]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "epoch 0" in err and "batch" in err

    def test_update_that_overflows_the_next_forward_exits_2_with_one_error_line(
        self, tmp_path, capsys
    ):
        """At --base-lr 1e30 the first step leaves finite weights near 1e30, and
        the next batch's forward overflows: an error, not a numpy warning."""
        data = tmp_path / "d.bin"
        assert main(["synth", "--classes", "3", "--actions", "4", "--dim", "6",
                     "--per-class", "8", "--out-bin", str(data)]) == 0
        capsys.readouterr()
        code = main(["train", "--train-path", str(data), "--input-dim", "6",
                     "--latent-dim", "4", "--n-latents", "2", "--n-classes", "3",
                     "--epochs", "1", "--batch-size", "12", "--decay-epochs", "",
                     "--base-lr", "1e30"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 0, batch starting at 12: overflow encountered in ")
        assert err.count("\n") == 1

    def test_overflow_in_the_accuracy_pass_exits_2_naming_epoch_and_training_file(
        self, tmp_path, capsys
    ):
        """With one batch, the step at --base-lr 1e30 leaves finite weights near
        1e30 and the end-of-epoch accuracy pass overflows; no file is written."""
        data, ckpt, log = tmp_path / "d.bin", tmp_path / "m.ckpt", tmp_path / "log.csv"
        assert main(["synth", "--classes", "3", "--actions", "4", "--dim", "6",
                     "--per-class", "4", "--out-bin", str(data)]) == 0
        capsys.readouterr()
        code = main(["train", "--train-path", str(data), "--input-dim", "6",
                     "--latent-dim", "4", "--n-latents", "2", "--n-classes", "3",
                     "--epochs", "1", "--batch-size", "12", "--decay-epochs", "",
                     "--base-lr", "1e30", "--checkpoint", str(ckpt), "--log-path", str(log)])
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: epoch 0, accuracy on {data}: rows 1 to 12: overflow ")
        assert err.count("\n") == 1 and out == ""
        assert not ckpt.exists() and not log.exists()

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

    def test_checkpoint_rebuilds_the_model_from_another_directory(self, toy_env, monkeypatch):
        """The checkpoint carries its run, and train writes no file beside it;
        the record holds absolute input paths and no outputs, so
        `train --config m.ckpt --checkpoint m2.ckpt` works from anywhere."""
        tmp_path, config = toy_env
        run, elsewhere = tmp_path / "run", tmp_path / "elsewhere" / "deeper"
        run.mkdir()
        elsewhere.mkdir(parents=True)
        monkeypatch.chdir(run)
        assert main(["train", "--config", str(config), "--train-path", "../train.csv",
                     "--test-path", "../test.csv", "--checkpoint", "m.ckpt",
                     "--log-path", "log.csv", "--eval-csv", "eval.csv", "--seed", "4"]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["eval.csv", "log.csv", "m.ckpt"]
        recorded = load_run_config(str(run / "m.ckpt"))
        assert os.path.isabs(recorded.train_path) and os.path.isabs(recorded.test_path)
        assert os.path.samefile(recorded.train_path, tmp_path / "train.csv")
        assert (recorded.checkpoint, recorded.log_path, recorded.eval_csv) == ("", "", "")
        assert recorded.seed == 4 and recorded.head_config() == load_params("m.ckpt")[0]
        monkeypatch.chdir(elsewhere)
        assert main(["train", "--config", str(run / "m.ckpt"), "--checkpoint", "m2.ckpt",
                     "--log-path", "log.csv", "--eval-csv", "eval.csv"]) == 0
        for name in ("log.csv", "eval.csv"):
            assert (elsewhere / name).read_bytes() == (run / name).read_bytes()
        assert (elsewhere / "m2.ckpt").read_bytes() == (run / "m.ckpt").read_bytes()

    def test_record_holds_every_key_the_header_does_not_but_the_outputs(self, toy_env):
        """The outputs and `threads`, which has no effect, are left out."""
        tmp_path, config = toy_env
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt),
                     "--log-path", str(tmp_path / "log.csv")]) == 0
        cfg = load_run_config(str(config))
        blob = ckpt.read_bytes()
        record = blob[len(blob) - struct.unpack_from("<I", blob, 64)[0]:].decode()
        assert record == (
            "base_lr=0.005\ndecay_epochs='3'\ndecay_factor=0.1\nepochs=4\nbatch_size=10\n"
            f"seed=0\ntrain_path={cfg.train_path!r}\ntest_path={cfg.test_path!r}\n"
        )

    def test_record_key_set_twice_names_the_file_line_and_key(self, toy_env, capsys):
        """A record may not set a key again, nor one its checkpoint's header holds."""
        tmp_path, config = toy_env
        head_cfg = load_run_config(str(config)).head_config()
        params = init_model_params(head_cfg, SplitMix64(0)).astype(COMPUTE_DTYPE)
        ckpt = tmp_path / "m.ckpt"
        for record, message in (
            ("seed=0\nepochs=2\nseed=5\n", "3: key 'seed' set twice, first on line 1"),
            ("epochs=2\nn_latents=2\n", "2: key 'n_latents' set twice, first in the header"),
        ):
            save_checkpoint(str(ckpt), params, head_cfg, record)
            with pytest.raises(DataFormatError, match=re.escape(f"{ckpt}:{message}")):
                load_run_config(str(ckpt))
            capsys.readouterr()
            assert main(["train", "--config", str(ckpt), "--log-path",
                         str(tmp_path / "log.csv")]) == 2
            assert f"{ckpt}:{message}" in capsys.readouterr().err
            assert not (tmp_path / "log.csv").exists()

    def test_failed_record_write_keeps_the_previous_checkpoint(self, toy_env, monkeypatch, capsys):
        """A disk that fills while the record is written: train exits 2, the
        earlier checkpoint stays as it was, and neither a temp file nor a log is left."""
        tmp_path, config = toy_env
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
        argv = ["train", "--config", str(config), "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        before = ckpt.read_bytes()
        record = load_run_config(str(config)).record().encode()
        real_open = open

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if isinstance(data, bytes) and data == record.replace(b"seed=0", b"seed=5"):
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        def open_for_save(path, mode="r"):
            return FullDisk(real_open(path, mode)) if mode == "wb" else real_open(path, mode)

        monkeypatch.setattr(training, "open", open_for_save, raising=False)
        capsys.readouterr()
        assert main([*argv, "--seed", "5", "--log-path", str(log)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.ckpt", "run.config", "test.csv", "train.csv"
        ]

    def test_config_environment_variable_is_ignored(self, toy_env, monkeypatch):
        """--config is the only way a config file enters a run."""
        tmp_path, config = toy_env
        other = tmp_path / "other.config"
        other.write_text("base_lr=0.05\nseed=5\nmix_ratio=0.9\nbatch_size=7\n")
        train_path = load_run_config(str(config)).train_path
        flags = ["--train-path", train_path, "--input-dim", "24", "--latent-dim", "6",
                 "--n-latents", "3", "--n-classes", "3", "--epochs", "2",
                 "--decay-epochs", "", "--batch-size", "10"]
        outputs = []
        for tag, env in (("plain", None), ("env", str(other))):
            if env is not None:
                monkeypatch.setenv("FERHEAD_CONFIG", env)
            ckpt, log = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.csv"
            assert main(["train", *flags, "--checkpoint", str(ckpt), "--log-path", str(log)]) == 0
            outputs.append((ckpt.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flag", ["--checkpoint", "--log-path", "--eval-csv", ".tmp"]
    )
    def test_missing_output_directory_exits_2_before_the_first_epoch(
        self, toy_env, capsys, monkeypatch, flag
    ):
        """The ".tmp" flag is the path that --checkpoint derives: the file
        save_checkpoint writes before its rename."""
        tmp_path, config = toy_env
        epochs = []
        real_epoch = cli.train_epoch
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a) or real_epoch(*a))
        dirs = [tmp_path / "adir"]
        missing = tmp_path / "nodir" / "out"
        bad_outputs = {
            missing: f"{missing}: directory {missing.parent} does not exist",
            dirs[0]: f"{dirs[0]}: is a directory",
        }
        if not flag.startswith("--"):
            dirs.append(tmp_path / f"m.ckpt{flag}")
            bad_outputs = {tmp_path / "m.ckpt": f"{dirs[1]}: is a directory"}
            flag = "--checkpoint"
        for d in dirs:
            d.mkdir()
        for bad, message in bad_outputs.items():
            outputs = {"--checkpoint": tmp_path / "m.ckpt", "--log-path": tmp_path / "log.csv",
                       "--eval-csv": tmp_path / "eval.csv"}
            outputs[flag] = bad
            argv = ["train", "--config", str(config), "--epochs", "1", "--decay-epochs", ""]
            for name, path in outputs.items():
                argv += [name, str(path)]
            capsys.readouterr()
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and epochs == []
            assert message in err
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                ["run.config", "test.csv", "train.csv", *(d.name for d in dirs)]
            )
            assert all(list(d.iterdir()) == [] for d in dirs)

    def test_eval_csv_without_test_set_exits_2_before_the_first_epoch(
        self, toy_env, capsys, monkeypatch
    ):
        """The evaluation report is made on the test set, so asking for it without one
        is a usage error, not a run that writes nothing."""
        tmp_path, config = toy_env
        epochs = []
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a))
        report = tmp_path / "eval.csv"
        argv = ["train", "--config", str(config), "--test-path", "", "--eval-csv", str(report)]
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and epochs == []
        assert "--eval-csv needs --test-path" in err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--checkpoint", "same.out", "--log-path", "./same.out"],
             "./same.out: same file as same.out"),
            (["--checkpoint", "m.ckpt", "--log-path", "m.ckpt.tmp"],
             "m.ckpt.tmp: same file as m.ckpt.tmp"),
            (["--checkpoint", "./m.ckpt", "--eval-csv", "m.ckpt.tmp"],
             "m.ckpt.tmp: same file as ./m.ckpt.tmp"),
            (["--log-path", "r.csv", "--eval-csv", "r.csv"], "r.csv: same file as r.csv"),
            (["--train-path", "t.csv", "--log-path", "t.csv"], "t.csv: same file as t.csv"),
            (["--log-path", "link.csv"], "link.csv: same file as {train}"),
            (["--eval-csv", "test.csv"], "test.csv: same file as {test}"),
            (["--checkpoint", "run.config"], "run.config: same file as {config}"),
            (["--checkpoint", "m.ckpt", "--log-path", "run.config"],
             "run.config: same file as {config}"),
        ],
    )
    def test_output_naming_another_path_exits_2_before_the_first_epoch(
        self, toy_env, capsys, monkeypatch, flags, message
    ):
        """No output may replace an input or another output, however the path is spelled."""
        tmp_path, config = toy_env
        monkeypatch.chdir(tmp_path)
        epochs = []
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a))
        (tmp_path / "t.csv").write_bytes((tmp_path / "train.csv").read_bytes())
        (tmp_path / "link.csv").symlink_to(tmp_path / "train.csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["train", "--config", "run.config", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and epochs == []
        cfg = load_run_config(str(config))
        assert message.format(train=cfg.train_path, test=cfg.test_path, config="run.config") in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rebuild_over_the_checkpoint_it_reads_is_refused(self, toy_env, monkeypatch, capsys):
        """The checkpoint a rebuild reads is an input like any other --config."""
        tmp_path, config = toy_env
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(config), "--checkpoint", "m.ckpt"]) == 0
        first = (tmp_path / "m.ckpt").read_bytes()
        for flags in (["--checkpoint", "./m.ckpt"], ["--log-path", "m.ckpt"]):
            capsys.readouterr()
            assert main(["train", "--config", "m.ckpt", *flags]) == 2
            assert f"{flags[1]}: same file as m.ckpt" in capsys.readouterr().err
        assert (tmp_path / "m.ckpt").read_bytes() == first


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

    def test_eval_and_inspect_map_a_binary_table_and_training_reads_it(
        self, toy_env, monkeypatch
    ):
        """The features eval and inspect load are a read-only view of the file's
        mapping, not a copy; the sets read_sets gives train and sweep are
        writable rows in memory."""
        tmp_path, config = toy_env
        table = tmp_path / "train.bin"
        datasets.save_bin(str(table), datasets.load_csv(str(tmp_path / "train.csv"), 3))
        ckpt = save_toy_model(tmp_path / "m.ckpt", config)
        loaded = []
        real = cli.load_dataset
        monkeypatch.setattr(
            cli, "load_dataset", lambda *a, **k: loaded.append(real(*a, **k)) or loaded[-1]
        )
        base = ["--checkpoint-path", str(ckpt), "--data", str(table)]
        assert main(["eval", *base]) == 0
        assert main(["inspect", *base, "--weights-csv", str(tmp_path / "w.csv")]) == 0
        assert len(loaded) == 2
        for data in loaded:
            mapping = data.features.base
            assert isinstance(mapping, mmap.mmap) and len(mapping) == table.stat().st_size
            assert np.shares_memory(np.frombuffer(mapping, np.uint8), data.features)
            assert not data.features.flags.writeable
        run = replace(load_run_config(str(config)), train_path=str(table), test_path=str(table))
        for data in cli.read_sets(run):
            assert data.features.flags.writeable
            assert not isinstance(data.features.base, mmap.mmap)

    def test_float32_and_float64_tables_of_one_set_write_the_same_reports(self, toy_env):
        """A binary table and a CSV of float64 values that round to its rows load to
        the same float32 rows and evaluate alike."""
        tmp_path, config = toy_env
        ckpt, table, text = tmp_path / "m.ckpt", tmp_path / "t.bin", tmp_path / "t.csv"
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert main(["synth", "--classes", "3", "--actions", "4", "--dim", "24",
                     "--per-class", "8", "--noise", "0.02", "--seed", "5",
                     "--structure-seed", "1", "--out-bin", str(table)]) == 0
        as32 = datasets.load_bin(str(table))
        wide = as32.features.astype(np.float64) * (1 + 2.0**-30)  # within half a float32 ulp
        assert not np.array_equal(wide, as32.features)
        header = ["label", *(f"f_{i + 1}" for i in range(as32.feature_dim))]
        write_csv(str(text), header, ([label, *row] for label, row in zip(as32.labels, wide)))
        as64 = datasets.load_csv(str(text), as32.n_classes)
        assert as64.features.dtype == np.float32
        np.testing.assert_array_equal(as32.features, as64.features)

        cfg, params = load_params(str(ckpt))
        r32, r64 = evaluate(params, cfg, as32), evaluate(params, cfg, as64)
        assert r32.accuracy == r64.accuracy
        np.testing.assert_array_equal(r32.confusion, r64.confusion)
        np.testing.assert_array_equal(r32.per_class_accuracy, r64.per_class_accuracy)

        reports = {}
        for data in (table, text):
            out, weights, pca = (tmp_path / f"{data.suffix[1:]}-{kind}.csv"
                                 for kind in ("eval", "w", "pca"))
            assert main(["eval", "--checkpoint-path", str(ckpt), "--data", str(data),
                         "--out", str(out)]) == 0
            assert main(["inspect", "--checkpoint-path", str(ckpt), "--data", str(data),
                         "--weights-csv", str(weights), "--pca-csv", str(pca)]) == 0
            reports[data.suffix] = (out.read_bytes(), weights.read_bytes(), pca.read_bytes())
        assert reports[".bin"] == reports[".csv"]

    def test_corrupted_checkpoint_is_format_error(self, toy_env, capsys):
        tmp_path, config = toy_env
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 60)
        train_path = load_run_config(str(config)).train_path
        assert main(["eval", "--checkpoint-path", str(bad), "--data", train_path]) == 2
        # every version but 5 names itself; only versions 1-4, which older
        # `train` runs wrote beside a .config, name the command that rebuilds it
        blob = bytearray(save_toy_model(bad, config).read_bytes())
        for version in (0, 1, 2, 3, 4, 6):
            blob[4:8] = struct.pack("<I", version)
            bad.write_bytes(bytes(blob))
            capsys.readouterr()
            assert main(["eval", "--checkpoint-path", str(bad), "--data", train_path]) == 2
            err = capsys.readouterr().err
            assert f"{bad}: unsupported version {version}, not 5" in err
            if 1 <= version <= 4:
                assert f"`ferhead train --config {bad}.config`" in err
            else:
                assert "rebuild" not in err and ".config" not in err

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_non_finite_weight_exits_2_naming_file_and_group(self, toy_env, capsys, command):
        tmp_path, config = toy_env
        ckpt, out = tmp_path / "model.ckpt", tmp_path / "report.csv"
        save_toy_model(ckpt, config, nan_gate=True)
        flag = "--out" if command == "eval" else "--weights-csv"
        train_path = load_run_config(str(config)).train_path
        argv = [command, "--checkpoint-path", str(ckpt), "--data", train_path, flag, str(out)]
        assert main(argv) == 2
        assert f"error: {ckpt}: non-finite values in gate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("bad", ["nodir/out.csv", "adir"])
    def test_unwritable_report_exits_2_before_the_forward_pass(
        self, toy_env, capsys, monkeypatch, command, bad
    ):
        """Every report path is checked before any report is written."""
        tmp_path, config = toy_env
        ckpt = save_toy_model(tmp_path / "model.ckpt", config)
        (tmp_path / "adir").mkdir()
        forwards = []
        monkeypatch.setattr(cli, "forward_in_blocks", lambda *a: forwards.append(a))
        monkeypatch.setattr(cli, "evaluate", lambda *a: forwards.append(a))
        ok, bad = tmp_path / "ok.csv", tmp_path / bad
        flags = ["--out", str(bad)] if command == "eval" else [
            "--weights-csv", str(ok), "--pca-csv", str(ok), "--relations-csv", str(bad)
        ]
        train_path = load_run_config(str(config)).train_path
        capsys.readouterr()
        assert main([command, "--checkpoint-path", str(ckpt), "--data", train_path, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and forwards == []
        assert f"error: {bad}: " in err
        assert not ok.exists() and not (tmp_path / "nodir").exists()
        assert list((tmp_path / "adir").iterdir()) == []

    @pytest.mark.parametrize(
        "command, target",
        [("eval", "model.ckpt"), ("eval", "train.csv"), ("inspect", "model.ckpt"),
         ("inspect", "train.csv"), ("inspect", "weights.csv")],
    )
    def test_output_naming_an_input_or_output_exits_2_before_the_forward_pass(
        self, toy_env, capsys, monkeypatch, command, target
    ):
        """A report path may name neither the mapped checkpoint, nor the data, nor
        another report, so a report never truncates the model it is made from."""
        tmp_path, config = toy_env
        ckpt = save_toy_model(tmp_path / "model.ckpt", config)
        data, weights = tmp_path / "train.csv", tmp_path / "weights.csv"
        forwards = []
        monkeypatch.setattr(cli, "forward_in_blocks", lambda *a: forwards.append(a))
        monkeypatch.setattr(cli, "evaluate", lambda *a: forwards.append(a))
        (tmp_path / "sub").mkdir()
        bad = f"{tmp_path}/sub/../{target}"
        flags = ["--out", bad] if command == "eval" else [
            "--weights-csv", str(weights), "--pca-csv", bad
        ]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        capsys.readouterr()
        assert main([command, "--checkpoint-path", str(ckpt), "--data", str(data), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and forwards == []
        assert f"error: {bad}: same file as {tmp_path / target}" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

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
        [
            ("mix_ratio", 48, 1.5),
            ("mix_ratio", 48, -3.0),
            ("center_rate", 56, 0.0),
            ("lambda_balance", 32, float("nan")),
            ("lambda_compact", 24, float("inf")),
        ],
        # ids name the train flag that would have written each setting
        ids=["--mix-ratio-1.5", "--mix-ratio--3", "--center-rate-0",
             "--lambda-balance-nan", "--lambda-compact-inf"],
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

    def test_injected_bug_fails_naming_gate_group(self, capsys, monkeypatch):
        real = verification.backward

        def flipped_gate(*args, **kwargs):
            grads, breakdown = real(*args, **kwargs)
            grads.gate *= -1
            return grads, breakdown

        monkeypatch.setattr(verification, "backward", flipped_gate)
        code = main(["gradcheck", "--instances", "1"])
        captured = capsys.readouterr()
        assert code != 0
        assert "gate" in captured.err

    def test_nan_gradient_group_fails_naming_it(self, capsys, monkeypatch):
        """A NaN analytic gradient fails the check; it does not stop it with an error."""
        real = verification.backward

        def nan_gate(*args, **kwargs):
            grads, breakdown = real(*args, **kwargs)
            grads.gate[0, 0, 0] = np.nan
            return grads, breakdown

        monkeypatch.setattr(verification, "backward", nan_gate)
        assert main(["gradcheck", "--instances", "1"]) == 1
        out, err = capsys.readouterr()
        assert re.search(r"gate: max relative error nan .* FAIL", out)
        assert "gradient check FAILED for: gate\n" in err

    def test_lambdas_zeroed_still_checks_classification(self):
        # classification mode is always part of the suite
        assert main(["gradcheck", "--instances", "1", "--seed", "42"]) == 0

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_is_usage_error(self, capsys, instances):
        assert main(["gradcheck", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        assert "at least one instance" in captured.err

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    def test_tolerance_no_result_can_meet_is_usage_error(self, capsys, monkeypatch, tolerance):
        def no_instance(seed):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(verification, "build_instance", no_instance)
        assert main(["gradcheck", "--instances", "1", "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert "tolerance" in captured.err


class TestSynthCommand:
    def test_requires_an_output(self, monkeypatch):
        calls = []
        monkeypatch.setattr(datasets, "generate", lambda spec: calls.append(spec))
        assert main(["synth"]) == 2
        assert calls == []  # rejected before any sample is drawn

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--classes", "3", "--actions", "4", "--dim", "16",
                "--per-class", "5", "--seed", "9"]
        assert main(args + ["--out-csv", str(a)]) == 0
        assert main(args + ["--out-csv", str(b)]) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--actions", "0", "n_actions must lie in [1, feature_dim=16], got 0"),
            ("--actions", "-1", "n_actions must lie in [1, feature_dim=16], got -1"),
            ("--noise", "nan", "noise_sigma must be finite and >= 0, got nan"),
            ("--noise", "inf", "noise_sigma must be finite and >= 0, got inf"),
            ("--noise", "1e200", "error: noise_sigma=1e+200: row 1: f_"),
        ],
    )
    def test_set_it_cannot_make_exits_2_and_writes_nothing(
        self, tmp_path, capsys, flag, value, message
    ):
        csv_p, bin_p = tmp_path / "d.csv", tmp_path / "d.bin"
        argv = ["synth", "--classes", "3", "--actions", "4", "--dim", "16", "--per-class", "5",
                flag, value, "--out-csv", str(csv_p), "--out-bin", str(bin_p)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert list(tmp_path.iterdir()) == []

    def test_output_path_that_is_a_directory_exits_2_before_writing(self, tmp_path, capsys):
        csv_p, bin_dir = tmp_path / "ok.csv", tmp_path / "d.bin"
        bin_dir.mkdir()
        argv = ["synth", "--classes", "3", "--actions", "4", "--dim", "16", "--per-class", "5",
                "--out-csv", str(csv_p), "--out-bin", str(bin_dir)]
        assert main(argv) == 2
        assert f"{bin_dir}: is a directory" in capsys.readouterr().err
        assert not csv_p.exists() and list(bin_dir.iterdir()) == []

    def test_output_naming_another_output_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "d.out"
        argv = ["synth", "--classes", "3", "--actions", "4", "--dim", "16", "--per-class", "5",
                "--out-csv", str(out), "--out-bin", f"{tmp_path}/./d.out"]
        assert main(argv) == 2
        assert f"{tmp_path}/./d.out: same file as {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

        a = load_csv(str(csv_p), 3)
        b = load_bin(str(bin_p))
        np.testing.assert_array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestInspectCommand:
    def test_requires_an_output_before_reading_any_file(self, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_params", lambda *a: loads.append(a))
        missing = [str(tmp_path / name) for name in ("absent.ckpt", "absent.bin")]
        assert main(["inspect", "--checkpoint-path", missing[0], "--data", missing[1]]) == 2
        err = capsys.readouterr().err
        assert "give at least one of --weights-csv / --pca-csv / --relations-csv" in err
        assert loads == [] and not any(path in err for path in missing)

    def test_pca_runs_the_trained_mix_ratio(self, toy_env):
        """--pca-csv of a --mix-ratio 0 model projects the features of that model."""
        from ferhead.datasets import load_csv
        from ferhead.head import HeadConfig, forward

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
        data = load_csv(train_path, 3)
        saved_cfg, params = load_params(str(ckpt))
        assert saved_cfg == cfg
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
        assert r_lines[0] == "row,col,mean,min,max,at_one"
        assert len(r_lines) == 1 + 3 * 3  # one row per (row, col) pair
        pairs = [tuple(map(int, line.split(",")[:2])) for line in r_lines[1:]]
        assert pairs == [(j, m) for j in range(3) for m in range(3)]
        for j in range(3):  # the diagonal is pinned to 0
            assert r_lines[1 + 4 * j].split(",")[2:] == ["0.0", "0.0", "0.0", "0.0"]

    def test_forward_pass_keeps_only_the_fields_of_the_requested_reports(
        self, toy_env, monkeypatch
    ):
        """--weights-csv alone keeps one (N, M) array per block, not also the
        (N, D) features and (N, M, M) relation weights."""
        tmp_path, config = toy_env
        ckpt = save_toy_model(tmp_path / "model.ckpt", config)
        train_path = load_run_config(str(config)).train_path
        counts = []
        real = cli.forward_in_blocks
        monkeypatch.setattr(
            cli, "forward_in_blocks",
            lambda X, params, cfg, *picks: counts.append(len(picks))
            or real(X, params, cfg, *picks),
        )
        weights, pca, rel = (str(tmp_path / name) for name in ("w.csv", "p.csv", "r.csv"))
        base = ["inspect", "--checkpoint-path", str(ckpt), "--data", train_path]
        assert main([*base, "--weights-csv", weights]) == 0
        assert main([*base, "--weights-csv", weights, "--pca-csv", pca,
                     "--relations-csv", rel]) == 0
        assert counts == [1, 3]

    def test_blocks_match_one_full_forward(self, toy_env):
        """Over more rows than one block, the exports equal one full forward's."""
        from ferhead.datasets import load_csv
        from ferhead.head import HeadConfig, forward
        from ferhead.training import EVAL_BLOCK_ROWS

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

        data = load_csv(str(big), 3)
        assert len(data) > EVAL_BLOCK_ROWS
        cfg, params = load_params(str(ckpt))
        assert cfg == HeadConfig(input_dim=24, latent_dim=6, n_latents=3, n_classes=3)
        cache = forward(data.features, params, cfg)
        expected = [cache.weights[data.labels == k].mean(axis=0) for k in range(3)]
        rows = [line.split(",") for line in weights_csv.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["class_0", "class_1", "class_2"]
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

        rel = np.loadtxt(rel_csv, delimiter=",", skiprows=1)
        omega = cache.omega
        expected = np.stack(
            [omega.mean(axis=0, dtype=np.float64), omega.min(axis=0), omega.max(axis=0),
             (omega == 1.0).mean(axis=0)],
            axis=-1,
        ).reshape(9, 4)
        assert rel.shape == (9, 6)
        np.testing.assert_array_equal(rel[:, :2], [(j, m) for j in range(3) for m in range(3)])
        np.testing.assert_array_equal(rel[:, 2:], expected)

    def test_empty_dataset_exits_2_and_writes_nothing(self, tmp_path, capsys):
        from ferhead.datasets import FeatureDataset, save_bin
        from ferhead.head import HeadConfig, init_model_params
        from ferhead.training import save_checkpoint

        cfg = HeadConfig(input_dim=8, latent_dim=4, n_latents=2, n_classes=3)
        params = init_model_params(cfg, SplitMix64(0)).astype(COMPUTE_DTYPE)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(str(ckpt), params, cfg)
        empty = tmp_path / "empty.bin"
        save_bin(
            str(empty),
            FeatureDataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), 3),
        )
        outputs = [tmp_path / name for name in ("weights.csv", "pca.csv", "rel.csv")]
        code = main(
            ["inspect", "--checkpoint-path", str(ckpt), "--data", str(empty),
             "--weights-csv", str(outputs[0]), "--pca-csv", str(outputs[1]),
             "--relations-csv", str(outputs[2])]
        )
        assert code == 2
        assert f"{empty}: no data rows" in capsys.readouterr().err
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

    def test_latent_dim_1_model_exports_every_csv(self, tmp_path, capsys):
        """A 1-D expression feature has one principal component; pc2 is 0.0."""
        data, ckpt = tmp_path / "d.bin", tmp_path / "m.ckpt"
        outputs = [tmp_path / f"{name}.csv" for name in ("weights", "pca", "rel")]
        assert main(["synth", "--classes", "3", "--actions", "4", "--dim", "6",
                     "--per-class", "8", "--out-bin", str(data)]) == 0
        assert main(["train", "--train-path", str(data), "--input-dim", "6",
                     "--latent-dim", "1", "--n-latents", "2", "--n-classes", "3",
                     "--epochs", "1", "--batch-size", "12", "--decay-epochs", "",
                     "--checkpoint", str(ckpt)]) == 0
        code = main(["inspect", "--checkpoint-path", str(ckpt), "--data", str(data),
                     "--weights-csv", str(outputs[0]), "--pca-csv", str(outputs[1]),
                     "--relations-csv", str(outputs[2])])
        assert code == 0, capsys.readouterr().err
        p_lines = outputs[1].read_text().splitlines()
        assert p_lines[0] == "label,pc1,pc2"
        assert len(p_lines) == 1 + 24
        rows = [line.split(",") for line in p_lines[1:]]
        assert all(len(row) == 3 and float(row[2]) == 0.0 for row in rows)
        assert all(path.exists() for path in outputs)

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

    def test_sweep_values_are_stripped(self, toy_env, capsys):
        tmp_path, config = toy_env
        summary = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                "--param", "n_latents", "--values", " 2, 3 ",
                "--summary", str(summary),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in summary.read_text().splitlines()]
        assert [row[1] for row in rows] == ["value", "2", "3"]
        assert "n_latents=3:" in capsys.readouterr().out

    def test_bad_value_is_usage_error_before_the_first_run(self, toy_env, capsys):
        tmp_path, config = toy_env
        summary = tmp_path / "sweep.csv"
        capsys.readouterr()
        code = main(
            [
                "sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                "--param", "mix_ratio", "--values", "0.5,2",
                "--summary", str(summary),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "mix_ratio=" not in captured.out  # no run trained
        assert "mix_ratio must lie in [0, 1], got 2.0" in captured.err
        assert not summary.exists()

    def test_missing_summary_directory_exits_2_before_the_first_run(
        self, toy_env, capsys, monkeypatch
    ):
        tmp_path, config = toy_env
        epochs = []
        real_epoch = cli.train_epoch
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a) or real_epoch(*a))
        summary = tmp_path / "nodir" / "sweep.csv"
        capsys.readouterr()
        code = main(
            [
                "sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                "--param", "mix_ratio", "--values", "0.5", "--summary", str(summary),
            ]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and epochs == []
        assert f"{summary}: directory {summary.parent} does not exist" in err

    @pytest.mark.parametrize("target", ["train.csv", "test.csv", "run.config"])
    def test_summary_naming_an_input_exits_2_before_the_first_run(
        self, toy_env, capsys, monkeypatch, target
    ):
        tmp_path, config = toy_env
        epochs = []
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        code = main(["sweep", "--config", str(config), "--param", "mix_ratio",
                     "--values", "0.5", "--summary", f"{tmp_path}/./{target}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and epochs == []
        assert f"{tmp_path}/./{target}: same file as {tmp_path / target}" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("flag", ["--checkpoint", "--log-path", "--eval-csv"])
    def test_output_flag_it_would_ignore_exits_2_before_the_first_run(
        self, toy_env, capsys, monkeypatch, flag
    ):
        """sweep writes only its summary, so it has no flag for a run's outputs."""
        tmp_path, config = toy_env
        epochs = []
        real_epoch = cli.train_epoch
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a) or real_epoch(*a))
        summary, output = tmp_path / "sweep.csv", tmp_path / "output"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                  "--param", "mix_ratio", "--values", "0.5", "--summary", str(summary),
                  flag, str(output)])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert epochs == [] and not summary.exists() and not output.exists()

    def test_config_output_keys_are_read_and_unused(self, toy_env):
        """A config file that names all three outputs: sweep loads it and writes none."""
        tmp_path, config = toy_env
        outputs = [tmp_path / name for name in ("m.ckpt", "log.csv", "eval.csv")]
        config.write_text(
            config.read_text()
            + "".join(f"{key}={str(path)!r}\n"
                      for key, path in zip(("checkpoint", "log_path", "eval_csv"), outputs))
        )
        summary = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                     "--param", "mix_ratio", "--values", "0.5", "--summary", str(summary)]) == 0
        assert summary.exists() and not any(path.exists() for path in outputs)

    def test_sweep_from_a_checkpoint_runs_the_recorded_settings(self, toy_env):
        """A checkpoint is a --config for sweep too: its header's model and its
        record's schedule and sets, so the sweep matches one from the original file."""
        tmp_path, config = toy_env
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt),
                     "--epochs", "2", "--decay-epochs", "1"]) == 0
        summaries = []
        for source, extra in ((config, ["--epochs", "2", "--decay-epochs", "1"]), (ckpt, [])):
            summary = tmp_path / f"{source.suffix[1:]}.csv"
            assert main(["sweep", "--config", str(source), *extra, "--param", "mix_ratio",
                         "--values", "0.25", "--summary", str(summary)]) == 0
            summaries.append(summary.read_bytes())
        assert summaries[0] == summaries[1]

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

    def test_failing_run_names_its_value_and_writes_no_summary(self, toy_env, capsys):
        tmp_path, config = toy_env
        summary = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                     "--param", "lambda_compact", "--values", "0,1e38",
                     "--summary", str(summary)])
        assert code == 2
        captured = capsys.readouterr()
        assert "lambda_compact=0: train acc" in captured.out
        assert captured.err.startswith("error: lambda_compact=1e38: epoch 0, batch starting at ")
        assert not summary.exists()


class TestDatasetChecks:
    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_wrong_feature_dimension_names_file_and_both_dimensions(
        self, toy_env, capsys, command
    ):
        """Every set a command reads is checked against the model's input_dim (24)."""
        tmp_path, config = toy_env
        wrong = tmp_path / "wrong.bin"
        assert main(["synth", "--classes", "3", "--actions", "4", "--dim", "16",
                     "--per-class", "5", "--out-bin", str(wrong)]) == 0
        run = ["--config", str(config), "--epochs", "1", "--decay-epochs", ""]
        if command == "train":
            argv = ["train", *run, "--test-path", str(wrong)]
        elif command == "sweep":
            argv = ["sweep", *run, "--test-path", str(wrong), "--param", "mix_ratio",
                    "--values", "0.5", "--summary", str(tmp_path / "sweep.csv")]
        else:
            ckpt = tmp_path / "model.ckpt"
            assert main(["train", *run, "--checkpoint", str(ckpt)]) == 0
            argv = ["eval", "--checkpoint-path", str(ckpt), "--data", str(wrong)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{wrong}: feature dimension 16 " in err and "input_dim 24" in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("table", ["bin_dim", "bin_classes", "csv_dim"])
    def test_wrong_test_set_exits_2_before_the_first_epoch(
        self, toy_env, capsys, monkeypatch, command, table
    ):
        """The test set is read in full and checked before the first epoch."""
        tmp_path, config = toy_env
        classes, dim = ("4", "24") if table == "bin_classes" else ("3", "16")
        suffix = "csv" if table == "csv_dim" else "bin"
        wrong = tmp_path / f"wrong.{suffix}"
        assert main(["synth", "--classes", classes, "--actions", "4", "--dim", dim,
                     "--per-class", "5", f"--out-{suffix}", str(wrong)]) == 0
        epochs = []
        real_epoch = cli.train_epoch
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a) or real_epoch(*a))
        ckpt, log, summary = (tmp_path / name for name in ("m.ckpt", "log.csv", "sweep.csv"))
        argv = [command, "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                "--test-path", str(wrong)]
        if command == "sweep":
            argv += ["--param", "mix_ratio", "--values", "0.5", "--summary", str(summary)]
        else:
            argv += ["--checkpoint", str(ckpt), "--log-path", str(log)]
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and epochs == []
        written = (ckpt, log, summary)
        assert not any(path.exists() for path in written)
        if table == "bin_classes":
            assert f"{wrong}: file declares 4 classes, run expects 3" in err
        else:
            assert f"{wrong}: feature dimension 16 does not match the model's input_dim 24" in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_bad_test_row_exits_2_before_the_first_epoch(
        self, toy_env, capsys, monkeypatch, command
    ):
        """A test-set row that does not parse stops the run before any epoch,
        and a sweep reads its test set once, not once per value."""
        tmp_path, config = toy_env
        bad = tmp_path / "bad.csv"
        lines = (tmp_path / "test.csv").read_text().splitlines()
        lines[5] = "abc" + lines[5][lines[5].index(","):]
        bad.write_text("\n".join(lines) + "\n")
        epochs, reads = [], []
        real_epoch, real_load = cli.train_epoch, cli.load_dataset
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a) or real_epoch(*a))
        monkeypatch.setattr(cli, "load_dataset", lambda *a: reads.append(a[0]) or real_load(*a))
        ckpt, log, summary = (tmp_path / name for name in ("m.ckpt", "log.csv", "sweep.csv"))
        argv = [command, "--config", str(config), "--epochs", "1", "--decay-epochs", ""]
        if command == "sweep":
            argv += ["--param", "mix_ratio", "--values", "0.2,0.8", "--summary", str(summary)]
            assert main([*argv, "--test-path", str(tmp_path / "test.csv")]) == 0
            assert reads == [str(tmp_path / "train.csv"), str(tmp_path / "test.csv")]
            assert len(epochs) == 2
            epochs.clear()
            summary.unlink()
        else:
            argv += ["--checkpoint", str(ckpt), "--log-path", str(log),
                     "--eval-csv", str(tmp_path / "report.csv")]
        capsys.readouterr()
        assert main([*argv, "--test-path", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and epochs == []
        assert f"{bad}:6:" in err
        written = (ckpt, log, tmp_path / "report.csv", summary)
        assert not any(path.exists() for path in written)

    def test_batch_size_above_the_training_rows_exits_2_naming_both(
        self, tmp_path, capsys, monkeypatch
    ):
        """The default batch size (64) on an 18-row table is refused before the
        first epoch, naming the table and batch_size, and nothing is written."""
        table = tmp_path / "small.bin"
        assert main(["synth", "--classes", "3", "--actions", "4", "--dim", "8",
                     "--per-class", "6", "--out-bin", str(table)]) == 0
        epochs = []
        monkeypatch.setattr(cli, "train_epoch", lambda *a: epochs.append(a))
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
        capsys.readouterr()
        code = main(["train", "--input-dim", "8", "--latent-dim", "4", "--n-latents", "2",
                     "--n-classes", "3", "--train-path", str(table), "--test-path", str(table),
                     "--checkpoint", str(ckpt), "--log-path", str(log),
                     "--eval-csv", str(tmp_path / "report.csv")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and epochs == []
        assert f"{table}: batch_size 64 exceeds the training set's 18 rows" in err
        written = (ckpt, log, tmp_path / "report.csv")
        assert not any(path.exists() for path in written)

    @pytest.mark.parametrize("case", ["table-line-1", "table-line-2", "table-last-line", "config"])
    def test_text_that_is_not_utf8_exits_2_naming_the_line(self, toy_env, capsys, case):
        """A table or config file holding a byte that is not UTF-8 is a format error."""
        tmp_path, config = toy_env
        text = (tmp_path / "train.csv").read_bytes()
        header, rows = text.split(b"\n", 1)
        bad = tmp_path / "bad.txt"
        ckpt, log, out = (tmp_path / name for name in ("m.ckpt", "log.csv", "eval.csv"))
        if case == "config":
            bad.write_bytes(config.read_bytes() + b"\xff\xfe\n")
            line = len(config.read_bytes().splitlines()) + 1
            argv = ["train", "--config", str(bad), "--checkpoint", str(ckpt),
                    "--log-path", str(log)]
            written = [ckpt, log]
        else:
            line, blob = {
                "table-line-1": (1, b"\xff\xfe" + text),
                "table-line-2": (2, header + b"\n\xff\n" + rows),
                "table-last-line": (len(text.splitlines()) + 1, text + b"\xff\n"),
            }[case]
            bad.write_bytes(blob)
            save_toy_model(ckpt, config)
            argv = ["eval", "--checkpoint-path", str(ckpt), "--data", str(bad), "--out", str(out)]
            written = [out]
        assert main(argv) == 2
        assert f"error: {bad}:{line}: not UTF-8 text" in capsys.readouterr().err
        assert not any(path.exists() for path in written)

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "1e39"])
    def test_cell_not_finite_in_float32_exits_2_naming_the_line(
        self, toy_env, capsys, command, cell
    ):
        """nan, inf and a value beyond float32's range are format errors at load."""
        tmp_path, config = toy_env
        lines = (tmp_path / "train.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = cell
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "eval.csv"
        if command == "eval":
            save_toy_model(ckpt, config)
            argv = ["eval", "--checkpoint-path", str(ckpt), "--data", str(bad), "--out", str(out)]
            written = [out]
        else:
            argv = ["train", "--config", str(config), "--train-path", str(bad),
                    "--checkpoint", str(ckpt)]
            written = [ckpt]
        assert main(argv) == 2
        assert f"error: {bad}:4: f_5={cell} is not finite in float32" in capsys.readouterr().err
        assert not any(path.exists() for path in written)

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_binary_feature_not_finite_exits_2_naming_the_row(
        self, toy_env, capsys, command, value
    ):
        """A NaN or inf in a binary table is a format error at load, as in a CSV table."""
        tmp_path, config = toy_env
        data = datasets.load_csv(str(tmp_path / "train.csv"), 3)
        data.features[4, 6] = float(value)
        bad = tmp_path / "bad.bin"
        datasets.save_bin(str(bad), data)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "eval.csv"
        if command == "eval":
            save_toy_model(ckpt, config)
            argv = ["eval", "--checkpoint-path", str(ckpt), "--data", str(bad), "--out", str(out)]
            written = [out]
        else:
            argv = ["train", "--config", str(config), "--train-path", str(bad),
                    "--checkpoint", str(ckpt)]
            written = [ckpt]
        assert main(argv) == 2
        assert f"error: {bad}: row 5: f_7={value} is not finite" in capsys.readouterr().err
        assert not any(path.exists() for path in written)

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_non_finite_entry_in_the_last_block_exits_2_naming_it_and_writes_nothing(
        self, toy_env, capsys, command
    ):
        """eval and inspect map a binary table and meet its rows block by block,
        so a NaN that only the last block holds still stops them before any
        report is written, naming the file, row and column."""
        tmp_path, config = toy_env
        spec = datasets.make_synth_spec(
            n_classes=3, n_actions=4, feature_dim=24, samples_per_class=100, structure_seed=1
        )
        data = datasets.generate(spec)  # 300 rows: a full block and a ragged one
        row = len(data) - 3
        assert row > training.EVAL_BLOCK_ROWS
        data.features[row - 1, 5] = np.nan
        bad = tmp_path / "bad.bin"
        datasets.save_bin(str(bad), data)
        ckpt = save_toy_model(tmp_path / "m.ckpt", config)
        outputs = [tmp_path / name for name in ("eval.csv", "w.csv", "p.csv", "r.csv")]
        flags = ["--out", str(outputs[0])] if command == "eval" else [
            x for flag, path in zip(("--weights-csv", "--pca-csv", "--relations-csv"),
                                    outputs[1:]) for x in (flag, str(path))
        ]
        capsys.readouterr()
        assert main([command, "--checkpoint-path", str(ckpt), "--data", str(bad), *flags]) == 2
        out, err = capsys.readouterr()
        assert f"error: {bad}: row {row}: f_6=nan is not finite" in err
        assert out == "" and not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_binary_label_out_of_range_exits_2_naming_the_row(self, toy_env, capsys, command):
        """A binary table's label outside [0, K) names the file and row, as in a CSV table."""
        tmp_path, config = toy_env
        data = datasets.load_csv(str(tmp_path / "train.csv"), 3)
        bad = tmp_path / "bad.bin"
        datasets.save_bin(str(bad), data)
        blob = bytearray(bad.read_bytes())
        labels_at = len(blob) - 4 * len(data)  # the u32 labels end the file
        blob[labels_at + 4 * 6 : labels_at + 4 * 7] = struct.pack("<I", 9)
        bad.write_bytes(bytes(blob))
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "eval.csv"
        if command == "eval":
            save_toy_model(ckpt, config)
            argv = ["eval", "--checkpoint-path", str(ckpt), "--data", str(bad), "--out", str(out)]
            written = [out]
        else:
            argv = ["train", "--config", str(config), "--train-path", str(bad),
                    "--checkpoint", str(ckpt)]
            written = [ckpt]
        assert main(argv) == 2
        assert f"error: {bad}: row 7: label 9 out of range [0, 3)" in capsys.readouterr().err
        assert not any(path.exists() for path in written)

    @pytest.mark.parametrize("command", ["eval", "inspect", "train"])
    def test_feature_that_overflows_the_forward_pass_exits_2_naming_file_and_rows(
        self, toy_env, capsys, command
    ):
        """A finite feature too large for the model is an error, not a warning and a
        report made from inf and NaN; train finds it in its test set."""
        tmp_path, config = toy_env
        data = datasets.load_csv(str(tmp_path / "test.csv"), 3)
        data.features[:, :] = 3e38
        bad = tmp_path / "huge.bin"
        datasets.save_bin(str(bad), data)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "report.csv"
        if command == "train":
            argv = ["train", "--config", str(config), "--epochs", "1", "--decay-epochs", "",
                    "--test-path", str(bad), "--eval-csv", str(out)]
            where = str(bad)
        else:
            save_toy_model(ckpt, config)
            flag = "--out" if command == "eval" else "--weights-csv"
            argv = [command, "--checkpoint-path", str(ckpt), "--data", str(bad), flag, str(out)]
            where = f"{ckpt} on {bad}"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {where}: rows 1 to {len(data)}: overflow encountered in " in err
        assert not out.exists()
