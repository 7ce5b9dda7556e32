"""Output bytes do not depend on the BLAS thread count.

One paper-dimension training epoch and an `eval --out` over its 2100 rows
run in two subprocesses, with numpy's OpenBLAS on one and on two threads
(it reads OPENBLAS_NUM_THREADS when numpy is imported). At these dimensions
OpenBLAS splits the GEMMs between its threads, so the test sees whether a
split changes a bit of the checkpoint, the log or the report.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import ferhead
from ferhead.cli import main

SRC = str(Path(ferhead.__file__).resolve().parents[1])
RUN_CLI = "import sys; from ferhead.cli import main; sys.exit(main(sys.argv[1:]))"
OUTPUTS = ("model.ckpt", "log.csv", "report.csv")


def run_at(threads: int, table: Path, out: Path) -> None:
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=SRC)
    ckpt = str(out / "model.ckpt")
    for argv in (
        ["train", "--train-path", str(table), "--epochs", "1", "--decay-epochs", "",
         "--checkpoint", ckpt, "--log-path", str(out / "log.csv")],
        ["eval", "--checkpoint-path", ckpt, "--data", str(table),
         "--out", str(out / "report.csv")],
    ):
        done = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


def test_one_and_two_blas_threads_write_identical_bytes(tmp_path):
    table = tmp_path / "train.bin"
    assert main(["synth", "--out-bin", str(table), "--per-class", "300",
                 "--seed", "0", "--structure-seed", "0"]) == 0
    for threads in (1, 2):
        run_at(threads, table, tmp_path / f"t{threads}")
    for name in OUTPUTS:
        assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t2" / name, shallow=False), name
