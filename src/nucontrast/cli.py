"""Command-line front end: simulate, train, eval, gradcheck, selftest.

Exit codes: 0 success, 1 runtime or property failure, 2 usage error.
Every value can come from three places with increasing precedence: built-in
defaults, a config file of "key = value" lines (--config), command-line
flags. All flags are validated before any work starts, and commands are
deterministic: the same flags and input files produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import checks, data, model, trainer
from .contrast import CorrectionConfig
from .data import DatasetFormatError, MissingnessSpec
from .fileio import atomic_write


class UsageError(Exception):
    pass


def _positive_int(value, key):
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {value!r}") from None
    if out < 1:
        raise UsageError(f"{key} must be >= 1, got {out}")
    return out


def _float(value, key):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {value!r}") from None


def _bool(value, key):
    if isinstance(value, bool):
        return value
    if str(value).lower() in ("1", "true", "yes"):
        return True
    if str(value).lower() in ("0", "false", "no"):
        return False
    raise UsageError(f"{key} must be a boolean, got {value!r}")


def _read_config(path) -> dict[str, str]:
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        mapping[key.strip()] = value.strip()
    return mapping


def _merge(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < flags; rejects unknown config keys."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, value in _read_config(config_path).items():
            if key not in defaults:
                raise UsageError(f"unknown config key {key!r}")
            merged[key] = value
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


SIMULATE_DEFAULTS = {
    "n": 1000,
    "classes": 10,
    "features": 32,
    "groups": 6,
    "noise": 0.05,
    "mode": "keep",
    "ratio": 1.0,
    "seed": 0,
    "out": "dataset.txt",
}


def cmd_simulate(args) -> int:
    cfg = _merge(SIMULATE_DEFAULTS, args)
    n = _positive_int(cfg["n"], "--n")
    classes = _positive_int(cfg["classes"], "--classes")
    features = _positive_int(cfg["features"], "--features")
    groups = min(_positive_int(cfg["groups"], "--groups"), classes)
    noise = _float(cfg["noise"], "--noise")
    mode = str(cfg["mode"])
    ratio = _float(cfg["ratio"], "--ratio")
    seed = int(_float(cfg["seed"], "--seed"))
    try:
        spec = MissingnessSpec(mode, ratio, seed)
        ds = data.generate_synthetic(n, classes, features, groups, noise, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    observed = data.drop_labels(ds.truth, spec)
    ds = data.Dataset(ds.features, ds.truth, observed)
    data.save_dataset(ds, cfg["out"])
    kept = float((observed == 1).sum() / (ds.truth == 1).sum())
    print(f"avg_positives {data.average_positives(observed):.4f}")
    print(f"kept_fraction {kept:.4f}")
    return 0


TRAIN_DEFAULTS = {
    "data": None,
    "out": "checkpoint.txt",
    "history": "history.txt",
    "loss": "bce",
    "gamma": 2.0,
    "lambda_": 1.0,
    "no_contrast": False,
    "delta": 0.6,
    "start_epoch": 1,
    "sv_threshold": 1e-6,
    "lr": 1e-4,
    "epochs": 20,
    "batch_size": 64,
    "seed": 0,
    "ema_decay": "",
    "dims": "",
    "activation": "softplus",
    "val_fraction": 0.2,
}


def _train_config(cfg) -> trainer.TrainConfig:
    """Parse the merged values; TrainConfig and CorrectionConfig check their ranges."""
    ema = str(cfg["ema_decay"]).strip()
    dims_text = str(cfg["dims"]).strip()
    layer_dims = None
    if dims_text:
        try:
            layer_dims = tuple(int(d) for d in dims_text.replace(",", " ").split())
        except ValueError:
            raise UsageError(f"--dims must be a comma list of ints, got {dims_text!r}") from None
    try:
        return trainer.TrainConfig(
            lambda_=_float(cfg["lambda_"], "--lambda"),
            use_contrast=not _bool(cfg["no_contrast"], "--no-contrast"),
            correction=CorrectionConfig(
                threshold=_float(cfg["delta"], "--delta"),
                start_epoch=_positive_int(cfg["start_epoch"], "--start-epoch"),
            ),
            sv_threshold=_float(cfg["sv_threshold"], "--sv-threshold"),
            loss_kind=str(cfg["loss"]),
            focal_gamma=_float(cfg["gamma"], "--gamma"),
            lr=_float(cfg["lr"], "--lr"),
            epochs=_positive_int(cfg["epochs"], "--epochs"),
            batch_size=_positive_int(cfg["batch_size"], "--batch-size"),
            seed=int(_float(cfg["seed"], "--seed")),
            ema_decay=None if ema == "" else _float(ema, "--ema-decay"),
            layer_dims=layer_dims,
            output_activation=str(cfg["activation"]),
            val_fraction=_float(cfg["val_fraction"], "--val-fraction"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train(args) -> int:
    cfg = _merge(TRAIN_DEFAULTS, args)
    if not cfg["data"]:
        raise UsageError("--data is required")
    train_cfg = _train_config(cfg)
    ds = data.load_dataset(cfg["data"])
    trained, history = trainer.train(ds, train_cfg)
    model.save_checkpoint(cfg["out"], trained.params, trained.ema_params)
    with atomic_write(cfg["history"]) as fh:
        fh.write(history.to_text())
    last = history.epochs[-1]
    if last.val_report is not None:
        print(f"final_val_map {last.val_report.map:.4f}")
    print(f"checkpoint {cfg['out']}")
    print(f"history {cfg['history']}")
    return 0


EVAL_DEFAULTS = {"checkpoint": None, "data": None, "threshold": 0.5}


def cmd_eval(args) -> int:
    cfg = _merge(EVAL_DEFAULTS, args)
    if not cfg["checkpoint"] or not cfg["data"]:
        raise UsageError("--checkpoint and --data are required")
    threshold = _float(cfg["threshold"], "--threshold")
    if not 0.0 <= threshold <= 1.0:
        raise UsageError(f"--threshold must be in [0, 1], got {threshold}")
    try:
        params, ema = model.load_checkpoint(cfg["checkpoint"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ds = data.load_dataset(cfg["data"])
    if ema is None:
        sys.stdout.write(trainer.evaluate(params, ds, threshold).to_text())
    else:
        sys.stdout.write("raw\n")
        sys.stdout.write(trainer.evaluate(params, ds, threshold).to_text())
        sys.stdout.write("ema\n")
        sys.stdout.write(trainer.evaluate(ema, ds, threshold).to_text())
    return 0


CHECK_DEFAULTS = {"trials": 50, "seed": 0}


def _run_checks(args, runner) -> int:
    cfg = _merge(CHECK_DEFAULTS, args)
    trials = _positive_int(cfg["trials"], "--trials")
    seed = int(_float(cfg["seed"], "--seed"))
    results = runner(trials, seed)
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_gradcheck(args) -> int:
    return _run_checks(args, checks.run_gradcheck)


def cmd_selftest(args) -> int:
    return _run_checks(args, checks.run_selftest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucontrast",
        description="Train and evaluate contrastive multi-label models "
        "on data with missing labels.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="generate a synthetic dataset file")
    p.add_argument("--n", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--groups", type=int, help="label templates (capped at --classes)")
    p.add_argument("--noise", type=float)
    p.add_argument("--mode", choices=("keep", "single"))
    p.add_argument("--ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train on a dataset file")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--history")
    p.add_argument("--loss", choices=("bce", "focal"))
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument(
        "--no-contrast",
        dest="no_contrast",
        action="store_const",
        const=True,
        help="train with the classification loss only",
    )
    p.add_argument("--delta", type=float, help="label-correction probability threshold")
    p.add_argument("--start-epoch", dest="start_epoch", type=int)
    p.add_argument("--sv-threshold", dest="sv_threshold", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ema-decay", dest="ema_decay", type=float)
    p.add_argument("--dims", help="layer widths F,H1,...,D (default F,64,32)")
    p.add_argument("--activation", choices=model.OUTPUT_ACTIVATIONS)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a dataset")
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--threshold", type=float)
    p.add_argument("--config")
    p.set_defaults(func=cmd_eval)

    for name, func in (("gradcheck", cmd_gradcheck), ("selftest", cmd_selftest)):
        p = sub.add_parser(name, help=f"run the {name} property suite")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
