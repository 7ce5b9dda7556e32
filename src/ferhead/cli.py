"""Command-line interface: train, eval, gradcheck, synth, inspect, sweep.

Run configuration for train and sweep is a flat key=value file (diff-able
experiment ledger) or a checkpoint, with CLI flags taking precedence;
unknown keys and a key set twice are rejected; --config is the only way a
file enters a run. Its keys are HeadConfig's fields, then the schedule's and
the run's own; sweep has no flag for the run's outputs (checkpoint,
log_path, eval_csv) and ignores them in a --config file. A checkpoint
carries the run that made it: HeadConfig's fields in its header and the
other keys but the outputs and `threads` in its run record, so
`train --config m.ckpt --checkpoint m2.ckpt` rebuilds the model. eval and
inspect take their model config from the checkpoint header alone. Every set
a command reads must fit the model's class count and input dimension
(`load_dataset`, from the table's header); train and sweep read their sets
in full before the first epoch (`read_sets`), and every command that writes
a file checks its paths before any work (`check_output_dirs`). Every
command is deterministic given --seed: training runs one batched forward
and backward per step, and repeated runs on the same machine give identical
bytes at any BLAS thread count. --threads (the `threads` key) is accepted so
that older configuration files still load, and has no effect.
"""

from __future__ import annotations

import argparse
import ast
import operator
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import datasets, verification
from .errors import ContractViolation, DataFormatError, OracleError, TrainingError
from .head import Centers, HeadConfig, init_model_params
from .intra import per_class_mean_weights
from .numerics import SplitMix64
from .training import (
    AdamState,
    Schedule,
    TrainerState,
    evaluate,
    forward_in_blocks,
    load_params,
    load_record,
    save_checkpoint,
    train_epoch,
)


# the keys that name a run's outputs: no checkpoint records them, and sweep,
# which writes only its summary, has no flag for them
RUN_OUTPUTS = ("checkpoint", "log_path", "eval_csv")


@dataclass
class RunConfig(HeadConfig):
    """Every knob of a run: HeadConfig's fields first, then the schedule
    (Schedule's defaults) and the run's own; serializes to key=value text."""

    base_lr: float = Schedule.base_lr
    decay_epochs: str = ",".join(map(str, Schedule.decay_epochs))
    decay_factor: float = Schedule.factor
    epochs: int = Schedule.total_epochs
    batch_size: int = Schedule.batch_size
    seed: int = 0
    threads: int = 1  # no effect; kept so configuration files that set it still load
    train_path: str = ""
    test_path: str = ""
    checkpoint: str = ""
    log_path: str = ""
    eval_csv: str = ""

    def head_config(self) -> HeadConfig:
        cfg = HeadConfig(**{f.name: getattr(self, f.name) for f in fields(HeadConfig)})
        cfg.validate()
        return cfg

    def schedule(self) -> Schedule:
        try:
            boundaries = tuple(
                int(v) for v in self.decay_epochs.split(",") if v.strip() != ""
            )
        except ValueError as err:
            raise ContractViolation(f"decay_epochs: {err}") from None
        sched = Schedule(
            base_lr=self.base_lr,
            decay_epochs=boundaries,
            factor=self.decay_factor,
            total_epochs=self.epochs,
            batch_size=self.batch_size,
        )
        sched.validate()
        return sched

    def dump(self, skip: tuple[str, ...] = ()) -> str:
        """key=value lines of every field not in `skip`, each string a quoted literal."""
        return "".join(
            f"{f.name}={getattr(self, f.name)!r}\n" for f in fields(self) if f.name not in skip
        )

    def record(self) -> str:
        """The run record a checkpoint stores after its weights: the keys its
        header does not hold, but the run's outputs and `threads` (which has
        no effect, so every value saves the same bytes), with the input paths
        made absolute, so `train --config <checkpoint>` rebuilds the run from
        any directory."""
        inputs = {k: os.path.abspath(getattr(self, k)) for k in ("train_path", "test_path")
                  if getattr(self, k)}
        skip = (*(f.name for f in fields(HeadConfig)), *RUN_OUTPUTS, "threads")
        return replace(self, **inputs).dump(skip)


def load_run_config(path: str) -> RunConfig:
    """Read a key=value text file, or a checkpoint: its header's HeadConfig
    and its run record's lines (numbered from the record's first line).

    Blank lines and # comments are allowed, and a key may be set once, a
    HeadConfig key of a checkpoint by its header alone. A quoted string
    value is read as the Python literal `dump` writes, any other as is.
    """
    checkpoint = load_record(path)
    if checkpoint is None:
        with datasets.open_text(path) as fh:
            lines = fh.readlines()
        cfg, seen = RunConfig(), {}
    else:
        head_cfg, record = checkpoint
        lines = record.splitlines()
        cfg = RunConfig(**asdict(head_cfg))
        seen = dict.fromkeys(asdict(head_cfg), "in the header")  # where each key was set
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise DataFormatError(f"{path}:{lineno}: key {key!r} set twice, first {seen[key]}")
        seen[key] = f"on line {lineno}"
        current = getattr(cfg, key)
        try:
            if isinstance(current, int):
                parsed = int(value)
            elif isinstance(current, float):
                parsed = float(value)
            elif len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                parsed = ast.literal_eval(value)
                if not isinstance(parsed, str):
                    raise ValueError(f"{value} is not a string")
            else:
                parsed = value
        except (ValueError, SyntaxError) as err:
            raise DataFormatError(f"{path}:{lineno}: {err}") from None
        setattr(cfg, key, parsed)
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            setattr(cfg, f.name, override)
    return cfg


def load_dataset(path: str, head_cfg: HeadConfig, mapped: bool = False) -> datasets.FeatureDataset:
    """Load a CSV or binary table, first checking its header against the
    model (K where a binary table stores it, and P).

    `mapped` maps a binary table read-only (`datasets.map_bin`), for eval
    and inspect, which take its rows one block at a time; train and sweep
    read theirs into memory (`load_bin`), since a mapped training table made
    an epoch 3-5% slower. A CSV table is read whole either way."""
    p, k = datasets.table_header(path)
    if k is not None and k != head_cfg.n_classes:
        raise DataFormatError(
            f"{path}: file declares {k} classes, run expects {head_cfg.n_classes}"
        )
    if p != head_cfg.input_dim:
        raise DataFormatError(
            f"{path}: feature dimension {p} does not match "
            f"the model's input_dim {head_cfg.input_dim}"
        )
    if k is None:
        return datasets.load_csv(path, head_cfg.n_classes)
    return datasets.map_bin(path) if mapped else datasets.load_bin(path)


def check_output_dirs(*outputs: str | None, inputs: tuple[str | None, ...] = ()) -> None:
    """Before any work, refuse an output path that is a directory or has no
    directory, then one that resolves to the same file as an input or an
    earlier output, so no output replaces a file the command reads or writes."""
    outputs = [path for path in outputs if path]
    for path in outputs:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ContractViolation(f"{path}: directory {directory} does not exist")
        if os.path.isdir(path):
            raise ContractViolation(f"{path}: is a directory")
    claimed = {os.path.realpath(path): path for path in inputs if path}
    for path in outputs:
        real = os.path.realpath(path)
        if real in claimed:
            raise ContractViolation(f"{path}: same file as {claimed[real]}")
        claimed[real] = path


def on_data(where: str, run, *args):
    """run(*args), reporting an overflow in its forward passes with `where`,
    the files they read."""
    try:
        return run(*args)
    except TrainingError as err:
        raise TrainingError(f"{where}: {err}") from None


def write_csv(path: str, header, rows) -> None:
    """Write a header row and then `rows` as CSV lines.

    A float cell (any numpy float too) is written as repr(float(v)), which
    round-trips exactly, float32 values included; any other cell as str(v).
    """
    def line(cells) -> str:
        cells = (
            repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in cells
        )
        return ",".join(cells) + "\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line(header))
        fh.writelines(map(line, rows))


def read_sets(cfg: RunConfig):
    """(training set, test set or None without test_path), each read in full
    and checked against the model, and batch_size against the training rows,
    so that a set the run cannot use stops it before the first epoch."""
    head_cfg = cfg.head_config()
    cfg.schedule()
    if not cfg.train_path:
        raise ContractViolation("no training set given (train_path)")
    data = load_dataset(cfg.train_path, head_cfg)
    if cfg.batch_size > len(data):
        raise ContractViolation(
            f"{cfg.train_path}: batch_size {cfg.batch_size} exceeds "
            f"the training set's {len(data)} rows"
        )
    return data, (load_dataset(cfg.test_path, head_cfg) if cfg.test_path else None)


def run_training(cfg: RunConfig, data, progress=None):
    """Shared train loop on the training set `data` (from `read_sets`):
    returns (state, head_cfg, history rows). A row's train_accuracy is `evaluate`
    of the end-of-epoch parameters on all of `data`, as `eval` reports it."""
    head_cfg = cfg.head_config()
    sched = cfg.schedule()
    rng = SplitMix64(cfg.seed)
    params = init_model_params(head_cfg, rng)
    state = TrainerState(
        params=params,
        centers=Centers.zeros(head_cfg),
        adam=AdamState.zeros(params),
        rng=rng,
    )
    history = []
    for epoch in range(sched.total_epochs):
        losses = train_epoch(state, data, head_cfg, sched, epoch)
        where = f"epoch {epoch}, accuracy on {cfg.train_path}"
        row = {
            "epoch": epoch,
            "lr": sched.lr_at(epoch),
            **{f"loss_{k}": v for k, v in asdict(losses).items()},
            "train_accuracy": on_data(where, evaluate, state.params, head_cfg, data).accuracy,
        }
        history.append(row)
        if progress:
            progress(row)
    return state, head_cfg, history


def write_eval_csv(path: str, report, class_names) -> None:
    header = ["class", "samples", "correct", "accuracy", *(f"pred_{n}" for n in class_names)]
    rows = (
        [name, counts.sum(), counts[i], report.per_class_accuracy[i], *counts]
        for i, (name, counts) in enumerate(zip(class_names, report.confusion))
    )
    write_csv(path, header, rows)


def print_eval_report(report, class_names) -> None:
    print(f"accuracy: {report.accuracy:.4f}")
    for i, name in enumerate(class_names):
        print(f"  {name}: {report.per_class_accuracy[i]:.4f}")
    print("confusion matrix (rows = true class):")
    width = max(len(n) for n in class_names)
    for i, name in enumerate(class_names):
        counts = " ".join(f"{int(c):6d}" for c in report.confusion[i])
        print(f"  {name:>{width}} {counts}")


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if cfg.eval_csv and not cfg.test_path:
        raise ContractViolation("--eval-csv needs --test-path: the report is made on the test set")
    tmp = cfg.checkpoint + ".tmp" if cfg.checkpoint else None
    check_output_dirs(
        cfg.checkpoint, tmp, cfg.log_path, cfg.eval_csv,
        inputs=(cfg.train_path, cfg.test_path, args.config),
    )
    data, test = read_sets(cfg)
    state, head_cfg, history = run_training(
        cfg,
        data,
        progress=lambda row: print(
            f"epoch {row['epoch']:3d} lr {row['lr']:.2e} "
            f"total {row['loss_total']:.4f} cls {row['loss_cls']:.4f} "
            f"acc {row['train_accuracy']:.4f}"
        ),
    )
    # the files are written after the test evaluation, so a run failing in it leaves
    # none, and the checkpoint first, so a failed save leaves none either
    if test is not None:
        report = on_data(cfg.test_path, evaluate, state.params, head_cfg, test)
        print_eval_report(report, test.class_names)
    if cfg.checkpoint:
        save_checkpoint(cfg.checkpoint, state.params, head_cfg, cfg.record())
    if cfg.log_path:
        write_csv(cfg.log_path, history[0].keys(), (row.values() for row in history))
    if cfg.eval_csv:
        write_eval_csv(cfg.eval_csv, report, test.class_names)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    check_output_dirs(args.out, inputs=(args.checkpoint_path, args.data))
    head_cfg, params = load_params(args.checkpoint_path)
    data = load_dataset(args.data, head_cfg, mapped=True)
    report = on_data(f"{args.checkpoint_path} on {args.data}", evaluate, params, head_cfg, data)
    print_eval_report(report, data.class_names)
    if args.out:
        write_eval_csv(args.out, report, data.class_names)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    worst, worst_mode, passed = verification.run_suite(
        range(args.seed, args.seed + args.instances), tolerance=args.tolerance
    )
    failing = [group for group in sorted(worst) if not worst[group] < args.tolerance]
    for group in sorted(worst):
        print(
            f"{group:>10}: max relative error {worst[group]:.3e} "
            f"[{worst_mode[group]}] {'FAIL' if group in failing else 'ok'}"
        )
    if not passed:
        print(f"gradient check FAILED for: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"gradient check passed ({args.instances} instances, tol {args.tolerance:g})")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if not args.out_csv and not args.out_bin:
        raise ContractViolation("give at least one of --out-csv / --out-bin")
    check_output_dirs(args.out_csv, args.out_bin)
    spec = datasets.make_synth_spec(
        n_classes=args.classes,
        n_actions=args.actions,
        feature_dim=args.dim,
        noise_sigma=args.noise,
        samples_per_class=args.per_class,
        seed=args.seed,
        structure_seed=args.structure_seed,
    )
    data = datasets.generate(spec)
    if args.out_csv:
        datasets.save_csv(args.out_csv, data)
    if args.out_bin:
        datasets.save_bin(args.out_bin, data)
    for k, name in enumerate(data.class_names):
        print(f"{name}: {int((data.labels == k).sum())} samples")
    return 0


def pca_project(features: np.ndarray) -> np.ndarray:
    """Top-2 principal-component projection with a deterministic sign convention.

    A 1-D feature has one component, so its second column is all 0.0.
    """
    centered = features - features.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, centered.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, ::-1][:, :2]
    for c in range(components.shape[1]):
        pivot = np.argmax(np.abs(components[:, c]))
        if components[pivot, c] < 0:
            components[:, c] = -components[:, c]
    return np.pad(centered @ components, ((0, 0), (0, 2 - components.shape[1])))


def cmd_inspect(args: argparse.Namespace) -> int:
    if not (args.weights_csv or args.pca_csv or args.relations_csv):
        raise ContractViolation("give at least one of --weights-csv / --pca-csv / --relations-csv")
    check_output_dirs(
        args.weights_csv, args.pca_csv, args.relations_csv,
        inputs=(args.checkpoint_path, args.data),
    )
    head_cfg, params = load_params(args.checkpoint_path)
    data = load_dataset(args.data, head_cfg, mapped=True)
    M, K = head_cfg.n_latents, head_cfg.n_classes
    wanted = [name for name, path in (("weights", args.weights_csv), ("feature", args.pca_csv),
                                      ("omega", args.relations_csv)) if path]
    kept = dict(zip(wanted, on_data(
        f"{args.checkpoint_path} on {args.data}",
        forward_in_blocks,
        data,
        params,
        head_cfg,
        *map(operator.attrgetter, wanted),
    )))

    if args.weights_csv:
        means = per_class_mean_weights(kept["weights"], data.labels, K)
        write_csv(
            args.weights_csv,
            ["class", *(f"weight_{j + 1}" for j in range(M))],
            ([name, *row] for name, row in zip(data.class_names, means)),
        )
        print(f"wrote per-class mean intra weights to {args.weights_csv}")

    if args.pca_csv:
        projected = pca_project(kept["feature"])
        write_csv(
            args.pca_csv,
            ["label", "pc1", "pc2"],
            ([label, a, b] for label, (a, b) in zip(data.labels, projected)),
        )
        print(f"wrote 2-D feature projection to {args.pca_csv}")

    if args.relations_csv:
        omega = kept["omega"]
        stats = (omega.mean(axis=0, dtype=np.float64), omega.min(axis=0), omega.max(axis=0),
                 (omega == 1.0).mean(axis=0))
        write_csv(
            args.relations_csv,
            ["row", "col", "mean", "min", "max", "at_one"],
            ([j, m, *(s[j, m] for s in stats)] for j, m in np.ndindex(M, M)),
        )
        print(f"wrote relation weight summary to {args.relations_csv}")
    return 0


SWEEPABLE = (
    "n_latents",
    "lambda_compact",
    "lambda_balance",
    "lambda_distribution",
    "mix_ratio",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _resolve_config(args)
    check_output_dirs(args.summary, inputs=(base.train_path, base.test_path, args.config))
    values = [v for v in map(str.strip, args.values.split(",")) if v]
    if not values:
        raise ContractViolation("sweep needs a non-empty --values list")
    try:
        parsed = [int(v) if args.param == "n_latents" else float(v) for v in values]
    except ValueError as err:
        raise ContractViolation(f"--values for {args.param}: {err}") from None
    configs = [replace(base, **{args.param: value}) for value in parsed]
    for cfg in configs:  # a bad value is a usage error before any run trains
        cfg.head_config()
    # the runs share the schedule and the sets' checks, so one read serves them all
    data, test = read_sets(configs[0])
    rows = []
    for raw, cfg in zip(values, configs):
        state, head_cfg, history = on_data(f"{args.param}={raw}", run_training, cfg, data)
        last = history[-1]
        test_accuracy = "" if test is None else on_data(
            cfg.test_path, evaluate, state.params, head_cfg, test
        ).accuracy
        row = {
            "param": args.param,
            "value": raw,
            "train_accuracy": last["train_accuracy"],
            "test_accuracy": test_accuracy,
        }
        row.update((k, v) for k, v in last.items() if k.startswith("loss_"))
        rows.append(row)
        print(
            f"{args.param}={raw}: train acc {last['train_accuracy']!r}"
            + (f", test acc {test_accuracy!r}" if cfg.test_path else "")
        )
    write_csv(args.summary, rows[0].keys(), (row.values() for row in rows))
    print(f"wrote sweep summary to {args.summary}")
    return 0


FLAG_HELP = {"threads": "accepted for compatibility with older configurations; no effect"}


def _add_config_overrides(parser: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    parser.add_argument("--config", help="key=value run configuration file, or a checkpoint")
    for f in fields(RunConfig):
        if f.name in skip:
            continue
        flag = "--" + f.name.replace("_", "-")
        # every RunConfig default is an int, a float or a str
        parser.add_argument(
            flag, type=type(f.default), default=None, dest=f.name, help=FLAG_HELP.get(f.name)
        )


def _train_arguments(p: argparse.ArgumentParser) -> None:
    _add_config_overrides(p)
    p.set_defaults(func=cmd_train)


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint-path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write the evaluation report CSV here")
    p.set_defaults(func=cmd_eval)


def _gradcheck_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--actions", type=int, default=9)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--per-class", type=int, default=300)
    p.add_argument("--seed", type=int, default=0, help="per-sample draw seed")
    p.add_argument(
        "--structure-seed",
        type=int,
        default=0,
        help="action-direction/class-profile seed (share across train/test)",
    )
    p.add_argument("--out-csv")
    p.add_argument("--out-bin")
    p.set_defaults(func=cmd_synth)


def _inspect_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint-path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--weights-csv", help="per-class mean intra-weight vectors")
    p.add_argument("--pca-csv", help="2-D projection of expression features")
    p.add_argument("--relations-csv", help="per-pair summary of the relation weights")
    p.set_defaults(func=cmd_inspect)


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    # sweep writes only its --summary, so the run's output keys get no flag
    _add_config_overrides(p, skip=RUN_OUTPUTS)
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--values", required=True, help="comma-separated value list")
    p.add_argument("--summary", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_sweep)


# name -> (help line, function that adds the subcommand's arguments)
COMMANDS = {
    "train": ("train on a feature dataset", _train_arguments),
    "eval": ("evaluate a checkpoint on a dataset", _eval_arguments),
    "gradcheck": ("finite-difference gradient check", _gradcheck_arguments),
    "synth": ("generate a synthetic feature dataset", _synth_arguments),
    "inspect": ("export model analyses as CSV", _inspect_arguments),
    "sweep": ("train once per value of one parameter", _sweep_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ferhead parser, or, given a command name, one for that command alone.

    Each subparser costs about as much as its arguments do, and a process
    runs one command, so `main` builds only the one `argv[0]` names and
    falls back to the full parser for help, a missing command and an unknown
    one. The one-command parser's usage still names every command, so its
    unrecognized-argument errors read as the full parser's do.
    """
    parser = argparse.ArgumentParser(
        prog="ferhead",
        description="Expression-head training, evaluation, and verification",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_arguments) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, DataFormatError, TrainingError, OracleError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
