#!/usr/bin/env python3
"""The ferhead benchmark: three workloads, every output checked.

    python3 perfbench/run.py --workload train_batched --seed 3 --seconds 25 --trace 0

Run from anywhere inside a checkout; it uses `src/ferhead` and
`tests/naive_reference.py` of the checkout that holds this file, and
writes only under `.perfbench_work/` at the checkout root.

Each run makes its inputs from --seed with ferhead.datasets (generate, then
save_bin) and drives the program the way users do, through
ferhead.cli.main(argv), in a fresh worker process per command so that each
command's peak RSS is its own. It sets up several times and reports the
median set-up time, then repeats the workload's session of commands until
--seconds have passed and reports medians, with times scaled to a
reference machine speed that a fixed numpy yardstick measures alongside
(see speed_factor). With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced sessions and prints the
per-layer metrics of the traced ones. METRICS.md says which end-to-end
metric each layer metric should move, on which workload. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = min(2, NPROC)
# Pinned before numpy is first imported, here and in every worker (they inherit it).
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import csv
import importlib.util
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NAIVE_REFERENCE = ROOT / "tests" / "naive_reference.py"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

EPOCHS = 1  # step decay is off (--decay-epochs ""), so one epoch is a valid run
DEADLINE_S = 170.0  # a run must exit within 180 s
NAIVE_ROWS = 2  # rows per dataset checked against the naive loop reference
# A held-out eval takes about 0.2 s, a tenth of a train command; a training
# session repeats it so a run has enough eval samples for a steady median.
EVALS_PER_TRAIN = 3
TRAIN_OUTPUTS = ("model.ckpt", "train_log.csv", "test_report.csv")
# machine_seconds() on the 2-vCPU Xeon VM this benchmark was built on. That
# host's speed drifts over minutes as neighbours come and go, by about 30%
# for numpy-bound work and up to 2x for the per-sample Python path; time
# metrics are reported at this reference speed (see speed_factor).
MACHINE_REF_S = 0.32


@dataclass(frozen=True)
class Scale:
    """Model dimensions and dataset sizes (rows per class)."""

    input_dim: int
    latent_dim: int
    n_latents: int
    n_classes: int
    train_per_class: int
    test_per_class: int
    eval_per_class: int

    @property
    def n_params(self) -> int:
        P, D, M, K = self.input_dim, self.latent_dim, self.n_latents, self.n_classes
        return M * P * D + 2 * M * D * D + D * K


# Paper-default dimensions; the train command then runs with no model flags.
PAPER = Scale(512, 128, 9, 7, train_per_class=300, test_per_class=100, eval_per_class=1000)
# For the benchmark's own smoke test: every code path in a few seconds.
TINY = Scale(32, 8, 3, 7, train_per_class=20, test_per_class=10, eval_per_class=40)
SCALES = {"paper": PAPER, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    threads: int | None  # --threads of the train command; None leaves the default
    # True: set-up also writes a 1000-per-class eval set and runs the train
    # command; a session is one eval of that set. False: a session is a
    # train command, then evals of its checkpoint on the test set.
    large_eval: bool
    setup_reps: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    # `ferhead train` with its default flags. Today that is the per-sample
    # sequential path (--threads 1): 64 forward calls and 64 backward chains
    # per optimizer step, so Python per-call overhead dominates. The "one
    # batched path" ROADMAP item must speed this workload up. Each session
    # also runs `ferhead eval` of the new checkpoint on the held-out set
    # (EVALS_PER_TRAIN times).
    "train_cli_default": Workload(threads=None, large_eval=False, setup_reps=11),
    # The same command and data with --threads 2: the batched path the
    # 40-epoch acceptance test uses. Its cost is matmuls, sigmoid, the
    # (N, M, M, D) difference tensor, and Adam at about half of each step;
    # it bypasses per-sample overhead, and the forward working set (about
    # 15 MB per batch of 64) fits in L3. The no-change side for "one
    # batched path"; the mechanism side for sigmoid, Gram and flat Adam.
    "train_batched": Workload(threads=2, large_eval=False, setup_reps=11),
    # `ferhead eval` on a 1000-per-class (N=7000) set with a checkpoint
    # trained in setup by a short --threads 2 run (whose numbers give this
    # workload's train_* metrics). It only reads parameters: no backward,
    # Adam or shuffle. One forward call builds about 1.6 GB of
    # intermediates, far past L3, the opposite use of head.forward from
    # training's many small calls whose cache backward consumes, so a
    # forward change that helps one and costs the other shows.
    "eval_large": Workload(threads=2, large_eval=True, setup_reps=3),
}


@dataclass
class Outcome:
    """One command run in a worker, with what its checks found."""

    kind: str  # "train" or "eval"
    argv: list[str]
    exit_code: int = -1
    wall_s: float = 0.0
    peak_mb: float = 0.0
    spans: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def load_program():
    """Import ferhead from this checkout and the naive loop reference."""
    if not (SRC / "ferhead" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ferhead package under {SRC}")
    if not NAIVE_REFERENCE.is_file():
        raise FileNotFoundError(f"no naive reference at {NAIVE_REFERENCE}")
    sys.path.insert(0, str(SRC))
    import ferhead.datasets
    import ferhead.head
    import ferhead.numerics

    spec = importlib.util.spec_from_file_location("naive_reference", NAIVE_REFERENCE)
    naive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(naive)
    return ferhead, naive


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, scale: str) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "epochs": EPOCHS,
    }


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_report(path: Path, class_counts: list[int]) -> tuple[float, list[str]]:
    """Accuracy from an eval report CSV, and what is wrong with its confusion matrix."""
    try:
        return _check_report(path.name, read_csv(path), class_counts)
    except (OSError, ValueError, KeyError) as err:
        return 0.0, [f"{path.name}: unreadable report: {err!r}"]


def _check_report(name: str, rows: list[dict], class_counts: list[int]) -> tuple[float, list[str]]:
    problems = []
    if len(rows) != len(class_counts):
        return 0.0, [f"{name}: {len(rows)} class rows, expected {len(class_counts)}"]
    correct = 0
    total = 0
    for i, row in enumerate(rows):
        preds = [int(v) for k, v in row.items() if k.startswith("pred_")]
        if sum(preds) != class_counts[i] or int(row["samples"]) != class_counts[i]:
            problems.append(
                f"{name}: class {row['class']} row totals {sum(preds)}/{row['samples']}, "
                f"file has {class_counts[i]}"
            )
        if len(preds) != len(class_counts) or int(row["correct"]) != preds[i]:
            problems.append(f"{name}: class {row['class']} diagonal disagrees")
        correct += preds[i] if i < len(preds) else 0
        total += sum(preds)
    if total != sum(class_counts):
        problems.append(f"{name}: confusion sums to {total}, expected {sum(class_counts)}")
    return correct / sum(class_counts), problems


def read_log(path: Path) -> tuple[list[dict], list[str]]:
    """Train log rows, and what is wrong with them."""
    try:
        rows = read_csv(path)
        return rows, _check_log(path.name, rows)
    except (OSError, ValueError, KeyError) as err:
        return [], [f"{path.name}: unreadable log: {err!r}"]


def _check_log(name: str, rows: list[dict]) -> list[str]:
    problems = []
    if [int(r["epoch"]) for r in rows] != list(range(EPOCHS)):
        problems.append(f"{name}: {len(rows)} rows, expected one per epoch ({EPOCHS})")
    for r in rows:
        for key, value in r.items():
            if key.startswith("loss") and not math.isfinite(float(value)):
                problems.append(f"{name}: epoch {r['epoch']} {key} = {value}")
    return problems


class Bench:
    def __init__(self, workload: str, seed: int, scale: str, ferhead, naive):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.scale = SCALES[scale]
        self.ferhead = ferhead
        self.naive = naive
        self.dir = WORK / workload
        self.class_counts: dict[str, list[int]] = {}
        self.outcomes: list[Outcome] = []
        self.problems: list[str] = []
        self.machine: list[float] = []  # machine_seconds() before set-up and each session
        self.deadline = time.perf_counter() + DEADLINE_S

    # ---- inputs -------------------------------------------------------

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def datasets(self) -> dict[str, tuple[int, int]]:
        """Dataset name -> (rows per class, sample seed); all share structure_seed = seed."""
        sets = {
            "train": (self.scale.train_per_class, 10 * self.seed + 1),
            "test": (self.scale.test_per_class, 10 * self.seed + 2),
        }
        if self.workload.large_eval:
            sets["eval"] = (self.scale.eval_per_class, 10 * self.seed + 3)
        return sets

    def write_datasets(self) -> None:
        ds = self.ferhead.datasets
        for name, (per_class, sample_seed) in self.datasets().items():
            spec = ds.make_synth_spec(
                n_classes=self.scale.n_classes,
                feature_dim=self.scale.input_dim,
                samples_per_class=per_class,
                seed=sample_seed,
                structure_seed=self.seed,
            )
            data = ds.generate(spec)
            ds.save_bin(self.path(f"{name}.bin"), data)
            self.class_counts[name] = [
                int((data.labels == k).sum()) for k in range(self.scale.n_classes)
            ]

    def check_naive(self) -> None:
        """Program logits on a few rows of each dataset agree with the naive loops."""
        head, numerics = self.ferhead.head, self.ferhead.numerics
        s = self.scale
        cfg = head.HeadConfig(
            input_dim=s.input_dim, latent_dim=s.latent_dim, n_latents=s.n_latents, n_classes=s.n_classes
        )
        params = head.init_model_params(cfg, numerics.SplitMix64(self.seed))
        as_lists = [params.decomp.tolist(), params.gate.tolist(), params.message.tolist(), params.classifier.tolist()]
        for name in self.datasets():
            data = self.ferhead.datasets.load_bin(self.path(f"{name}.bin"))
            rows = np.linspace(0, len(data) - 1, NAIVE_ROWS).astype(int)
            logits = head.forward(data.features[rows], params, cfg).logits
            for row, got in zip(rows, logits):
                want = self.naive.naive_head_forward(data.features[row].tolist(), *as_lists, cfg.mix_ratio)
                if not np.allclose(got, want["logits"], rtol=1e-9, atol=1e-9):
                    self.problems.append(f"naive reference: {name}.bin row {row} logits disagree")

    # ---- commands -----------------------------------------------------

    def model_flags(self) -> list[str]:
        s = self.scale
        flags = []
        for flag, value, default in (
            ("--input-dim", s.input_dim, PAPER.input_dim),
            ("--latent-dim", s.latent_dim, PAPER.latent_dim),
            ("--n-latents", s.n_latents, PAPER.n_latents),
            ("--n-classes", s.n_classes, PAPER.n_classes),
        ):
            if value != default:
                flags += [flag, str(value)]
        return flags

    def train_argv(self) -> list[str]:
        argv = [
            "train",
            "--train-path", self.path("train.bin"),
            "--test-path", self.path("test.bin"),
            "--checkpoint", self.path("model.ckpt"),
            "--log-path", self.path("train_log.csv"),
            "--eval-csv", self.path("test_report.csv"),
            "--epochs", str(EPOCHS),
            "--decay-epochs", "",
        ] + self.model_flags()
        if self.workload.threads is not None:
            argv += ["--threads", str(self.workload.threads)]
        return argv

    def eval_argv(self, dataset: str, report: str) -> list[str]:
        return [
            "eval",
            "--checkpoint-path", self.path("model.ckpt"),
            "--data", self.path(f"{dataset}.bin"),
            "--out", self.path(report),
        ]

    def command(self, kind: str, argv: list[str], traced: bool, run_id: str, outputs: tuple[str, ...]) -> Outcome:
        """Run one CLI command in a fresh worker; failures become problems.

        `outputs` are removed first, so no check reads a stale file.
        """
        outcome = Outcome(kind, argv)
        for name in outputs:
            (self.dir / name).unlink(missing_ok=True)
        timeout = self.deadline - time.perf_counter()
        if timeout < 1.0:
            outcome.problems.append("not run: the run's deadline was reached")
            return outcome
        request, result = self.dir / f"{run_id}.request.json", self.dir / f"{run_id}.result.json"
        request.write_text(json.dumps({"src": str(SRC), "argv": argv, "trace": traced, "run_id": run_id}))
        result.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(request), str(result)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            outcome.problems.append(f"{kind}: killed at the run's deadline")
            return outcome
        if proc.returncode != 0 or not result.is_file():
            outcome.problems.append(f"{kind}: worker exited with {proc.returncode}")
            return outcome
        data = json.loads(result.read_text())
        outcome.exit_code = data["exit_code"]
        outcome.wall_s = data["wall_s"]
        outcome.peak_mb = data["peak_mb"]
        outcome.spans = data["spans"]
        if outcome.exit_code != 0:
            outcome.problems.append(f"{kind}: exit code {outcome.exit_code} {data['error'] or ''}".strip())
        return outcome

    def rows(self, dataset: str) -> int:
        return sum(self.class_counts[dataset])

    def train(self, traced: bool, run_id: str) -> Outcome:
        return self.command("train", self.train_argv(), traced, run_id, TRAIN_OUTPUTS)

    def run_train(self, traced: bool, run_id: str) -> Outcome:
        return self.check_train(self.train(traced, run_id), run_id)

    def check_train(self, out: Outcome, run_id: str) -> Outcome:
        if out.ok:
            log, problems = read_log(self.dir / "train_log.csv")
            out.problems += problems
            test_acc, problems = read_report(self.dir / "test_report.csv", self.class_counts["test"])
            out.problems += problems
            # the train_epoch docstring promises that a later evaluate of the
            # saved parameters on the training set matches the logged accuracy
            check = self.command(
                "eval", self.eval_argv("train", "train_report.csv"), False, run_id + "-check", ("train_report.csv",)
            )
            out.problems += check.problems
            if check.ok and log:
                train_acc, problems = read_report(self.dir / "train_report.csv", self.class_counts["train"])
                out.problems += problems
                if train_acc != float(log[-1]["train_accuracy"]):
                    out.problems.append(
                        f"checkpoint evaluates to {train_acc!r} on the training set, "
                        f"log says {log[-1]['train_accuracy']}"
                    )
            if log:
                out.values = {
                    "samples_per_s": self.rows("train") * EPOCHS / out.wall_s,
                    "loss": float(log[-1]["loss_total"]),
                    "test_accuracy": test_acc,
                }
        self.outcomes.append(out)
        return out

    def run_eval(self, traced: bool, run_id: str, expect_accuracy: float | None) -> Outcome:
        dataset = "eval" if self.workload.large_eval else "test"
        out = self.command("eval", self.eval_argv(dataset, "eval_report.csv"), traced, run_id, ("eval_report.csv",))
        if out.ok:
            accuracy, problems = read_report(self.dir / "eval_report.csv", self.class_counts[dataset])
            out.problems += problems
            if expect_accuracy is not None and accuracy != expect_accuracy:
                out.problems.append(
                    f"eval gives accuracy {accuracy!r}, train reported {expect_accuracy!r}"
                )
            out.values = {"samples_per_s": self.rows(dataset) / out.wall_s, "accuracy": accuracy}
        self.outcomes.append(out)
        return out

    def session(self, traced: bool, index: int) -> list[Outcome]:
        tag = f"s{index}"
        if self.workload.large_eval:
            return [self.run_eval(traced, f"{tag}-eval", None)]
        train = self.run_train(traced, f"{tag}-train")
        if not train.ok:
            return [train]
        accuracy = train.values["test_accuracy"]
        return [train] + [self.run_eval(traced, f"{tag}-eval{i}", accuracy) for i in range(EVALS_PER_TRAIN)]

    # ---- the run ------------------------------------------------------

    def setup(self) -> list[float]:
        self.machine.append(machine_seconds())
        times = []
        for rep in range(self.workload.setup_reps):
            start = time.perf_counter()
            self.write_datasets()
            if self.workload.large_eval:
                train = self.train(False, f"setup{rep}-train")
            times.append(time.perf_counter() - start)
            if self.workload.large_eval:
                self.check_train(train, f"setup{rep}-train")
        try:
            self.check_naive()
        except Exception:  # a program error here is a failed check, not a crash
            self.problems.append("naive reference check raised:\n" + traceback.format_exc())
        return times

    def measure(self, seconds: float, trace: bool) -> tuple[list, list]:
        """Sessions until `seconds` have passed: (untraced, traced) lists of sessions."""
        untraced, traced = [], []
        start = time.perf_counter()
        index = 0
        while True:
            is_traced = trace and index % 2 == 1
            self.machine.append(machine_seconds())
            before = time.perf_counter()
            (traced if is_traced else untraced).append(self.session(is_traced, index))
            took = time.perf_counter() - before
            index += 1
            elapsed = time.perf_counter() - start
            done = elapsed >= seconds and (traced or not trace)
            if done or self.deadline - time.perf_counter() < 2 * took + 5:
                return untraced, traced


def machine_seconds() -> float:
    """Wall time of a fixed numpy mix: a yardstick of the machine's current speed.

    Eight rounds of what training does, at fixed sizes and without ferhead:
    a batch of 64 rows through a (512, 1152) matmul, a tanh-form sigmoid
    and a pairwise difference tensor, an Adam-style update of 885k
    parameters, then the same rows one at a time, so that per-call
    overhead weighs in as it does on the sequential path.
    """
    rng = np.random.default_rng(0)
    x = rng.random((64, 512))
    w = rng.random((512, 1152))
    grad = rng.random(885_000)
    theta, m, v = rng.random(885_000), np.zeros(885_000), np.zeros(885_000)
    total = 0.0
    start = time.perf_counter()
    for _ in range(8):
        h = (x @ w).reshape(64, 9, 128)
        gate = 0.5 * (1.0 + np.tanh(h / 2.0))
        diff = h[:, :, None, :] - h[:, None, :, :]
        total += np.sqrt((diff * diff).sum(axis=-1)).sum() + gate.sum()
        m *= 0.5
        m += 0.5 * grad
        v *= 0.999
        v += 0.001 * (grad * grad)
        theta -= 1e-4 * m / (np.sqrt(v) + 1e-8)
        for row in x:
            r = (row @ w).reshape(9, 128)
            g = 0.5 * (1.0 + np.tanh(r / 2.0))
            d = r[:, None, :] - r[None, :, :]
            total += np.sqrt((d * d).sum(axis=-1)).sum() + g.sum()
    return time.perf_counter() - start


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def session_wall(session: list[Outcome]) -> float:
    return sum(o.wall_s for o in session)


def speed_factor(bench: Bench) -> float:
    """Run's machine speed relative to the reference: 1 at MACHINE_REF_S, below 1 when slower.

    Measured times are multiplied by it and throughputs divided by it, which
    cancels the host's drift between runs. result.json keeps the raw values.
    """
    return MACHINE_REF_S / _median(bench.machine)


def end_to_end(bench: Bench, setup_times: list[float], speed: float) -> dict[str, float]:
    trains = [o for o in bench.outcomes if o.kind == "train" and o.ok]
    evals = [o for o in bench.outcomes if o.kind == "eval" and o.ok]
    attempted = len(bench.outcomes)
    return {
        "setup_s": _median(setup_times) * speed,
        "train_samples_per_s": _median(o.values["samples_per_s"] for o in trains) / speed,
        "train_peak_mb": _median(o.peak_mb for o in trains),
        "train_loss": _median(o.values["loss"] for o in trains),
        "test_accuracy": _median(o.values["test_accuracy"] for o in trains),
        "eval_samples_per_s": _median(o.values["samples_per_s"] for o in evals) / speed,
        "eval_peak_mb": _median(o.peak_mb for o in evals),
        "eval_accuracy": _median(o.values["accuracy"] for o in evals),
        "ok_ratio": sum(o.ok for o in bench.outcomes) / max(1, attempted),
    }


def per_layer(bench: Bench, untraced: list, traced: list) -> dict[str, float]:
    commands = [o.spans for session in traced for o in session]
    metrics = spans.layer_metrics(commands, len(traced), bench.scale.n_params)
    base = _median(session_wall(s) for s in untraced)
    metrics["trace.overhead_ratio"] = _median(session_wall(s) for s in traced) / base - 1.0 if base else 0.0
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        ferhead, naive = load_program()
    except (OSError, ImportError, ValueError) as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    bench = Bench(args.workload, args.seed, args.scale, ferhead, naive)
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    info = provenance(args.workload, args.seed, args.scale)
    print("provenance: " + json.dumps(info, sort_keys=True))

    setup_times = bench.setup()
    untraced, traced = bench.measure(args.seconds, bool(args.trace))
    speed = speed_factor(bench)
    if args.trace:
        metrics = per_layer(bench, untraced, traced)
    else:
        metrics = end_to_end(bench, setup_times, speed)

    problems = bench.problems + [p for o in bench.outcomes for p in o.problems]
    attempted = len(bench.outcomes)
    failed = sum(not o.ok for o in bench.outcomes)
    correct = not problems and attempted > 0

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    trains = sum(o.kind == "train" for o in bench.outcomes)
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
        f"sessions, {trains} train and {attempted - trains} eval commands, "
        f"{failed} failed (fail_ratio {failed / max(1, attempted):g}), "
        f"{len(setup_times)} set-ups; machine speed {speed:.3f} of reference "
        f"(median of {len(bench.machine)} yardsticks), times scaled by it"
    )
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")

    (bench.dir / "result.json").write_text(
        json.dumps(
            {
                "provenance": info,
                "metrics": metrics,
                "speed_factor": speed,
                "machine_s": bench.machine,
                "setup_s": setup_times,
                "commands": [
                    {"argv": o.argv, "wall_s": o.wall_s, "peak_mb": o.peak_mb, "problems": o.problems}
                    for o in bench.outcomes
                ],
            },
            indent=1,
        )
    )
    if args.trace:
        (bench.dir / "spans.json").write_text(
            json.dumps([o.spans for session in traced for o in session])
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
