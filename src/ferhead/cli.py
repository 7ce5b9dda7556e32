"""Command-line interface: train, eval, gradcheck, synth, inspect, sweep.

Run configuration for train and sweep is a flat key=value file (diff-able
experiment ledger) with CLI flags taking precedence; unknown keys are
rejected. The FERHEAD_CONFIG environment variable supplies a default config
path and nothing else. eval and inspect take their model config from the
checkpoint header alone. Every command is deterministic given --seed:
training runs one batched forward and backward per step, and repeated runs on
the same machine with the same BLAS thread count give identical bytes.
--threads (the `threads` key) is accepted so that older configuration files
still load, and has no effect.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

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
    checkpoint_config,
    evaluate,
    forward_in_blocks,
    load_checkpoint,
    save_checkpoint,
    train_epoch,
)

CONFIG_ENV_VAR = "FERHEAD_CONFIG"


@dataclass
class RunConfig:
    """Every knob of a run; serializes to/from flat key=value text."""

    input_dim: int = 512
    latent_dim: int = 128
    n_latents: int = 9
    n_classes: int = 7
    lambda_compact: float = 1e-4
    lambda_balance: float = 1.0
    lambda_distribution: float = 1e-4
    mix_ratio: float = 0.5
    center_rate: float = 0.5
    base_lr: float = 1e-4
    decay_epochs: str = "10,18,25,32"
    decay_factor: float = 0.1
    epochs: int = 40
    batch_size: int = 64
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
        boundaries = tuple(
            int(v) for v in self.decay_epochs.split(",") if v.strip() != ""
        )
        sched = Schedule(
            base_lr=self.base_lr,
            decay_epochs=boundaries,
            factor=self.decay_factor,
            total_epochs=self.epochs,
            batch_size=self.batch_size,
        )
        sched.validate()
        return sched

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for f in fields(self):
                fh.write(f"{f.name}={getattr(self, f.name)!r}\n")


def load_run_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """Parse key=value lines; blank lines and # comments allowed."""
    cfg = base or RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            current = getattr(cfg, key)
            try:
                if isinstance(current, bool):
                    parsed = value.lower() in ("1", "true", "yes")
                elif isinstance(current, int):
                    parsed = int(value)
                elif isinstance(current, float):
                    parsed = float(value)
                else:
                    parsed = value.strip("'\"")
            except ValueError as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from None
            setattr(cfg, key, parsed)
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        cfg = load_run_config(config_path, cfg)
    for f in fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            setattr(cfg, f.name, override)
    return cfg


def load_dataset(path: str, n_classes: int) -> datasets.FeatureDataset:
    """Load CSV or binary table, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    names = (
        datasets.EXPRESSION_CLASSES
        if n_classes == len(datasets.EXPRESSION_CLASSES)
        else tuple(f"class_{k}" for k in range(n_classes))
    )
    if magic == datasets.TABLE_MAGIC:
        data = datasets.load_bin(path)
        if data.n_classes != n_classes:
            raise DataFormatError(
                f"{path}: file declares {data.n_classes} classes, run expects {n_classes}"
            )
        return data
    return datasets.load_csv(path, names)


def _format_float(v: float) -> str:
    return repr(float(v))


def run_training(cfg: RunConfig, progress=None):
    """Shared train loop: returns (state, head_cfg, history rows)."""
    head_cfg = cfg.head_config()
    sched = cfg.schedule()
    if not cfg.train_path:
        raise ContractViolation("no training set given (train_path)")
    data = load_dataset(cfg.train_path, cfg.n_classes)
    if data.feature_dim != cfg.input_dim:
        raise DataFormatError(
            f"{cfg.train_path}: feature dimension {data.feature_dim} does not match "
            f"configured input_dim {cfg.input_dim}"
        )
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
        summary = train_epoch(state, data, head_cfg, sched, epoch)
        row = {
            "epoch": epoch,
            "lr": sched.lr_at(epoch),
            "loss_total": summary.losses.total,
            "loss_cls": summary.losses.cls,
            "loss_compact": summary.losses.compact,
            "loss_balance": summary.losses.balance,
            "loss_distribution": summary.losses.distribution,
            "train_accuracy": summary.accuracy,
        }
        history.append(row)
        if progress:
            progress(row)
    return state, head_cfg, history


def write_history_csv(path: str, history: list[dict]) -> None:
    columns = [
        "epoch",
        "lr",
        "loss_total",
        "loss_cls",
        "loss_compact",
        "loss_balance",
        "loss_distribution",
        "train_accuracy",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in history:
            cells = [
                str(row["epoch"]) if c == "epoch" else _format_float(row[c])
                for c in columns
            ]
            fh.write(",".join(cells) + "\n")


def write_eval_csv(path: str, report, class_names) -> None:
    k = len(class_names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "class,samples,correct,accuracy,"
            + ",".join(f"pred_{name}" for name in class_names)
            + "\n"
        )
        for i, name in enumerate(class_names):
            row = report.confusion[i]
            fh.write(
                f"{name},{row.sum()},{report.confusion[i, i]},"
                f"{_format_float(report.per_class_accuracy[i])},"
                + ",".join(str(int(c)) for c in row)
                + "\n"
            )


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
    state, head_cfg, history = run_training(
        cfg,
        progress=lambda row: print(
            f"epoch {row['epoch']:3d} lr {row['lr']:.2e} "
            f"total {row['loss_total']:.4f} cls {row['loss_cls']:.4f} "
            f"acc {row['train_accuracy']:.4f}"
        ),
    )
    if cfg.log_path:
        write_history_csv(cfg.log_path, history)
    if cfg.checkpoint:
        save_checkpoint(cfg.checkpoint, state, head_cfg)
        cfg.dump(cfg.checkpoint + ".config")
    if cfg.test_path:
        data = load_dataset(cfg.test_path, cfg.n_classes)
        report = evaluate(state.params, head_cfg, data)
        print_eval_report(report, data.class_names)
        if cfg.eval_csv:
            write_eval_csv(cfg.eval_csv, report, data.class_names)
    return 0


def _load_model(args: argparse.Namespace):
    """(config, state, dataset) for eval and inspect; the config is the checkpoint's."""
    head_cfg = checkpoint_config(args.checkpoint_path)
    state = load_checkpoint(args.checkpoint_path, head_cfg)
    data = load_dataset(args.data, head_cfg.n_classes)
    if data.feature_dim != head_cfg.input_dim:
        raise DataFormatError(
            f"{args.data}: feature dimension {data.feature_dim} does not match "
            f"checkpoint input dimension {head_cfg.input_dim}"
        )
    return head_cfg, state, data


def cmd_eval(args: argparse.Namespace) -> int:
    head_cfg, state, data = _load_model(args)
    report = evaluate(state.params, head_cfg, data)
    print_eval_report(report, data.class_names)
    if args.out:
        write_eval_csv(args.out, report, data.class_names)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    worst, worst_mode, passed = verification.run_suite(
        range(args.seed, args.seed + args.instances),
        tolerance=args.tolerance,
        inject_sign_bug=args.inject_sign_bug,
    )
    for group in sorted(worst):
        status = "ok" if worst[group] < args.tolerance else "FAIL"
        print(
            f"{group:>10}: max relative error {worst[group]:.3e} "
            f"[{worst_mode[group]}] {status}"
        )
    if not passed:
        failing = sorted(g for g, e in worst.items() if e >= args.tolerance)
        print(f"gradient check FAILED for: {', '.join(failing)}", file=sys.stderr)
        return 1
    print(f"gradient check passed ({args.instances} instances, tol {args.tolerance:g})")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
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
    if not args.out_csv and not args.out_bin:
        raise ContractViolation("give at least one of --out-csv / --out-bin")
    if args.out_csv:
        datasets.save_csv(args.out_csv, data)
    if args.out_bin:
        datasets.save_bin(args.out_bin, data)
    for k, name in enumerate(data.class_names):
        print(f"{name}: {int((data.labels == k).sum())} samples")
    return 0


def pca_project(features: np.ndarray) -> np.ndarray:
    """Top-2 principal-component projection with a deterministic sign convention."""
    centered = features - features.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, centered.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, ::-1][:, :2]
    for c in range(components.shape[1]):
        pivot = np.argmax(np.abs(components[:, c]))
        if components[pivot, c] < 0:
            components[:, c] = -components[:, c]
    return centered @ components


def cmd_inspect(args: argparse.Namespace) -> int:
    head_cfg, state, data = _load_model(args)
    M, K = head_cfg.n_latents, head_cfg.n_classes
    if len(data) < 1:
        raise ContractViolation("inspect needs a non-empty dataset")
    weights, feature, omega = forward_in_blocks(
        data.features,
        state.params,
        head_cfg,
        lambda cache: cache.weights,
        lambda cache: cache.feature,
        lambda cache: cache.omega,
    )

    if args.weights_csv:
        means = per_class_mean_weights(weights, data.labels, K)
        with open(args.weights_csv, "w", encoding="utf-8") as fh:
            fh.write("class," + ",".join(f"weight_{j + 1}" for j in range(M)) + "\n")
            for k, name in enumerate(data.class_names):
                fh.write(name + "," + ",".join(_format_float(v) for v in means[k]) + "\n")
        print(f"wrote per-class mean intra weights to {args.weights_csv}")

    if args.pca_csv:
        projected = pca_project(feature)
        with open(args.pca_csv, "w", encoding="utf-8") as fh:
            fh.write("label,pc1,pc2\n")
            for label, (a, b) in zip(data.labels, projected):
                fh.write(f"{int(label)},{_format_float(a)},{_format_float(b)}\n")
        print(f"wrote 2-D feature projection to {args.pca_csv}")

    if args.relations_csv:
        with open(args.relations_csv, "w", encoding="utf-8") as fh:
            fh.write("sample,row,col,weight\n")
            for i in range(omega.shape[0]):
                for j in range(M):
                    for m in range(M):
                        fh.write(f"{i},{j},{m},{_format_float(omega[i, j, m])}\n")
        print(f"wrote relation weight matrices to {args.relations_csv}")
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
    values = [v for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise ContractViolation("sweep needs a non-empty --values list")
    rows = []
    for raw in values:
        value = int(raw) if args.param == "n_latents" else float(raw)
        cfg = replace(base, **{args.param: value})
        state, head_cfg, history = run_training(cfg)
        last = history[-1]
        test_accuracy = ""
        if cfg.test_path:
            data = load_dataset(cfg.test_path, cfg.n_classes)
            test_accuracy = _format_float(
                evaluate(state.params, head_cfg, data).accuracy
            )
        rows.append(
            {
                "param": args.param,
                "value": raw,
                "train_accuracy": _format_float(last["train_accuracy"]),
                "test_accuracy": test_accuracy,
                "loss_total": _format_float(last["loss_total"]),
                "loss_cls": _format_float(last["loss_cls"]),
                "loss_compact": _format_float(last["loss_compact"]),
                "loss_balance": _format_float(last["loss_balance"]),
                "loss_distribution": _format_float(last["loss_distribution"]),
            }
        )
        print(
            f"{args.param}={raw}: train acc {rows[-1]['train_accuracy']}"
            + (f", test acc {test_accuracy}" if test_accuracy else "")
        )
    columns = list(rows[0].keys())
    with open(args.summary, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in columns) + "\n")
    print(f"wrote sweep summary to {args.summary}")
    return 0


FLAG_HELP = {"threads": "accepted for compatibility with older configurations; no effect"}


def _add_config_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value run configuration file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        # every RunConfig default is an int, a float or a str
        parser.add_argument(
            flag, type=type(f.default), default=None, dest=f.name, help=FLAG_HELP.get(f.name)
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferhead",
        description="Expression-head training, evaluation, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a feature dataset")
    _add_config_overrides(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint-path", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", help="write the evaluation report CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--instances", type=int, default=20)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument(
        "--inject-sign-bug",
        choices=("decomp", "gate", "message", "classifier"),
        default=None,
        help=argparse.SUPPRESS,
    )
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a synthetic feature dataset")
    p_synth.add_argument("--classes", type=int, default=7)
    p_synth.add_argument("--actions", type=int, default=9)
    p_synth.add_argument("--dim", type=int, default=512)
    p_synth.add_argument("--noise", type=float, default=0.05)
    p_synth.add_argument("--per-class", type=int, default=300)
    p_synth.add_argument("--seed", type=int, default=0, help="per-sample draw seed")
    p_synth.add_argument(
        "--structure-seed",
        type=int,
        default=0,
        help="action-direction/class-profile seed (share across train/test)",
    )
    p_synth.add_argument("--out-csv")
    p_synth.add_argument("--out-bin")
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="export model analyses as CSV")
    p_inspect.add_argument("--checkpoint-path", required=True)
    p_inspect.add_argument("--data", required=True)
    p_inspect.add_argument("--weights-csv", help="per-class mean intra-weight vectors")
    p_inspect.add_argument("--pca-csv", help="2-D projection of expression features")
    p_inspect.add_argument("--relations-csv", help="per-sample relation weight dump")
    p_inspect.set_defaults(func=cmd_inspect)

    p_sweep = sub.add_parser("sweep", help="train once per value of one parameter")
    _add_config_overrides(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated value list")
    p_sweep.add_argument("--summary", required=True, help="summary CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, DataFormatError, TrainingError, OracleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
