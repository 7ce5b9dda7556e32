"""Seeded mutation gate: damaged input files never crash a command.

Every file a command reads (a CSV table, a binary table, a checkpoint with
its run record and a config file, all made here) is cut at each boundary of
its header and at seeded offsets, and has bits flipped, bytes inserted and
bytes that are not UTF-8 put in, by the seeded mutator below. `eval`,
`inspect`, `train --config` (of the config file and of the checkpoint) and
`train --test-path` then run on each damaged copy through `cli.main`, which
must return 0 or 2 and never raise. On exit 2 no output file is left, and
the error names the damaged file, unless that file is a --config that still
parses: it is then another run's settings, and the error names the setting
it rejects. The seeds and the case count are fixed, so every run tries the
same cases.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from ferhead import cli, datasets
from ferhead.errors import DataFormatError
from ferhead.head import HeadConfig, init_model_params
from ferhead.numerics import SplitMix64
from ferhead.training import _HEADER, COMPUTE_DTYPE, _group_shapes, save_checkpoint

CASES = 24  # seeded mutations per file and command, after the boundary cuts
CFG = HeadConfig(input_dim=8, latent_dim=4, n_latents=2, n_classes=3)
# the model's settings, and a schedule; the table paths and the dimensions the
# tables fix come from flags
CONFIG = "latent_dim=4\nn_latents=2\nepochs=2\ndecay_epochs=1\nbatch_size=6\nbase_lr=0.01\n"


def boundaries(kind: str, blob: bytes) -> list[int]:
    """Offsets at which each header field of the file ends."""
    if kind == "ckpt":
        ends = [4, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64, _HEADER.size]
        for shape in _group_shapes(CFG):
            ends.append(ends[-1] + 4 * int(np.prod(shape)))
        return ends  # the last group's end is where the run record starts
    if kind == "bin":
        n = (len(blob) - 20) // (4 * CFG.input_dim + 4)
        return [4, 8, 12, 16, 20, 20 + 4 * n * CFG.input_dim]
    # text: the end of every field of the first line, and of every line
    first = blob.split(b"\n", 1)[0]
    return [i for i, b in enumerate(first) if b == ord(",")] + [
        i + 1 for i, b in enumerate(blob) if b == ord("\n")
    ][:-1]


def mutate(blob: bytes, seed: int) -> bytes:
    """One seeded mutation: a cut, a bit flip, an inserted byte or non-UTF-8 bytes."""
    rng = random.Random(seed)
    at = rng.randrange(len(blob))
    kind = seed % 4
    if kind == 0:
        return blob[:at]
    if kind == 1:
        return blob[:at] + bytes([blob[at] ^ 1 << rng.randrange(8)]) + blob[at + 1 :]
    if kind == 2:
        return blob[:at] + bytes([rng.randrange(256)]) + blob[at:]
    return blob[:at] + rng.choice([b"\xff", b"\xc3(", b"\xe2\x82", b"\x80"]) + blob[at:]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The undamaged inputs: two tables of one synthetic set, a model that
    records its run, and a config."""
    root = tmp_path_factory.mktemp("clean")
    spec = datasets.make_synth_spec(
        n_classes=3, n_actions=4, feature_dim=8, samples_per_class=6, seed=3
    )
    data = datasets.generate(spec)
    paths = {kind: root / f"data.{kind}" for kind in ("csv", "bin", "ckpt", "config")}
    datasets.save_csv(str(paths["csv"]), data)
    datasets.save_bin(str(paths["bin"]), data)
    params = init_model_params(CFG, SplitMix64(4)).astype(COMPUTE_DTYPE)
    paths["config"].write_text(CONFIG)
    run = replace(cli.load_run_config(str(paths["config"])), train_path=str(paths["bin"]))
    save_checkpoint(str(paths["ckpt"]), params, CFG, run.record())
    paths["train"] = paths["bin"]  # never damaged
    return paths


def argv_for(command: str, kind: str, inputs: dict, out) -> tuple[list[str], list]:
    """The command line that reads the damaged file, and the outputs it names."""
    if command in ("eval", "inspect"):
        data = inputs["bin" if kind == "bin" else "csv"]
        model = ["--checkpoint-path", str(inputs["ckpt"]), "--data", str(data)]
        if command == "eval":
            outputs = [out / "report.csv"]
            return ["eval", *model, "--out", str(outputs[0])], outputs
        outputs = [out / name for name in ("weights.csv", "pca.csv", "relations.csv")]
        flags = ["--weights-csv", "--pca-csv", "--relations-csv"]
        return ["inspect", *model, *(x for pair in zip(flags, map(str, outputs))
                                     for x in pair)], outputs
    dims = ["--input-dim", "8", "--n-classes", "3", "--train-path", str(inputs["train"])]
    if command == "train --config":
        outputs = [out / "m.ckpt", out / "m.ckpt.tmp", out / "log.csv"]
        return ["train", "--config", str(inputs[kind]), *dims,
                "--checkpoint", str(outputs[0]), "--log-path", str(outputs[2])], outputs
    # train --test-path: the test set is read before the first epoch, and every
    # output is written after its evaluation
    outputs = [out / "m.ckpt", out / "m.ckpt.tmp", out / "log.csv", out / "report.csv"]
    return ["train", "--config", str(inputs["config"]), *dims, "--test-path", str(inputs[kind]),
            "--checkpoint", str(outputs[0]), "--log-path", str(outputs[2]),
            "--eval-csv", str(outputs[3])], outputs


def well_formed(config) -> bool:
    try:
        cli.load_run_config(str(config))
    except DataFormatError:
        return False
    return True


@pytest.mark.parametrize(
    "command, kind",
    [("eval", "ckpt"), ("eval", "csv"), ("eval", "bin"),
     ("inspect", "ckpt"), ("inspect", "csv"), ("inspect", "bin"),
     ("train --config", "config"), ("train --config", "ckpt"),
     ("train --test-path", "csv"), ("train --test-path", "bin")],
)
def test_damaged_input_exits_0_or_2_naming_it(clean, tmp_path, capsys, command, kind):
    blob = clean[kind].read_bytes()
    base_seed = sum(map(ord, command + kind))  # each pair has its own fixed seeds
    damaged = [blob[:cut] for cut in boundaries(kind, blob)]
    damaged += [mutate(blob, base_seed * 1000 + i) for i in range(CASES)]
    for i, bad in enumerate(damaged):
        # a new file for every case: a file is never rewritten while it may be mapped
        inputs = dict(clean, **{kind: tmp_path / f"case{i}.{kind}"})
        inputs[kind].write_bytes(bad)
        out = tmp_path / f"out{i}"
        out.mkdir()
        argv, outputs = argv_for(command, kind, inputs, out)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (i, argv, err)
        if code == 2:
            assert not any(path.exists() for path in outputs), (i, err)
            if command == "train --config" and well_formed(inputs[kind]):
                continue  # another run's settings, which the error names
            assert str(inputs[kind]) in err, (i, bad, err)
