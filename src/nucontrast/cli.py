"""Command-line front end: simulate, train, eval, gradcheck, selftest.

Exit codes: 0 success, 1 runtime or property failure, 2 usage error.
Each command's knobs are one table, and its parser is built from that table.
A value comes from, with increasing precedence, the built-in default, a
config file of "key = value" lines (--config, read by simulate, train and
eval), and the command-line flag. A flag and a config value go through the
same converter; every range and choice rule belongs to the library. All
values are checked before any work starts, and commands are deterministic:
the same flags and input files produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

from . import checks, data, metrics, model, trainer
from .contrast import CorrectionConfig
from .data import MissingnessSpec
from .fileio import atomic_write
from .seeding import check_seed


class UsageError(Exception):
    pass


@contextmanager
def _library_rules():
    """A value rejected by a library check is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _text(value, flag):
    return value


def _int(value, flag):
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{flag} must be an integer, got {value!r}") from None


def _float(value, flag):
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"{flag} must be a number, got {value!r}") from None


def _optional_float(value, flag):
    """An empty value means off (None)."""
    return _float(value, flag) if value.strip() else None


def _bool(value, flag):
    if value.lower() in ("1", "true", "yes"):
        return True
    if value.lower() in ("0", "false", "no"):
        return False
    raise UsageError(f"{flag} must be a boolean, got {value!r}")


def _dims(value, flag):
    """Comma-separated layer widths; an empty value means the default layout."""
    try:
        return tuple(int(d) for d in value.replace(",", " ").split()) or None
    except ValueError:
        raise UsageError(f"{flag} must be a comma list of ints, got {value!r}") from None


class Knob(NamedTuple):
    key: str  # config key and parser dest
    flag: str
    convert: Callable  # (text, flag) -> value; _bool makes a store_const flag
    default: object
    help: str | None = None


SIMULATE = (
    Knob("n", "--n", _int, 1000),
    Knob("classes", "--classes", _int, 10),
    Knob("features", "--features", _int, 32),
    Knob("groups", "--groups", _int, 6, "label templates (capped at --classes)"),
    Knob("noise", "--noise", _float, 0.05),
    Knob("mode", "--mode", _text, "keep", "keep or single"),
    Knob("ratio", "--ratio", _float, 1.0),
    Knob("seed", "--seed", _int, 0),
    Knob("out", "--out", _text, "dataset.txt"),
)

_TC = trainer.TrainConfig()  # the one source of the train defaults
TRAIN = (
    Knob("data", "--data", _text, None),
    Knob("out", "--out", _text, "checkpoint.txt"),
    Knob("history", "--history", _text, "history.txt"),
    Knob("loss", "--loss", _text, _TC.loss_kind, "bce or focal"),
    Knob("gamma", "--gamma", _float, _TC.focal_gamma),
    Knob("lambda_", "--lambda", _float, _TC.lambda_),
    Knob("no_contrast", "--no-contrast", _bool, not _TC.use_contrast,
         "train with the classification loss only"),
    Knob("delta", "--delta", _float, _TC.correction.threshold,
         "label-correction probability threshold"),
    Knob("start_epoch", "--start-epoch", _int, _TC.correction.start_epoch),
    Knob("sv_threshold", "--sv-threshold", _float, _TC.sv_threshold),
    Knob("lr", "--lr", _float, _TC.lr),
    Knob("epochs", "--epochs", _int, _TC.epochs),
    Knob("batch_size", "--batch-size", _int, _TC.batch_size),
    Knob("seed", "--seed", _int, _TC.seed),
    Knob("ema_decay", "--ema-decay", _optional_float, _TC.ema_decay),
    Knob("dims", "--dims", _dims, _TC.layer_dims, "layer widths F,H1,...,D (default F,64,32)"),
    Knob("activation", "--activation", _text, _TC.output_activation,
         "one of " + ", ".join(model.OUTPUT_ACTIVATIONS)),
    Knob("val_fraction", "--val-fraction", _float, _TC.val_fraction),
)

EVAL = (
    Knob("checkpoint", "--checkpoint", _text, None),
    Knob("data", "--data", _text, None),
    Knob("threshold", "--threshold", _float, 0.5),
)

CHECKS = (
    Knob("trials", "--trials", _int, 50),
    Knob("seed", "--seed", _int, 0),
)


def _read_config(path) -> dict[str, str]:
    mapping = {}
    seen = {}  # key -> line number
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
        key = key.strip()
        if key in seen:
            raise UsageError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        mapping[key] = value.strip()
    return mapping


def _values(table, args: argparse.Namespace) -> dict:
    """Each knob's value: default < config file < flag. A given value, from
    either source, goes through the knob's converter; unknown config keys
    are rejected."""
    given = _read_config(args.config) if getattr(args, "config", None) else {}
    keys = {knob.key for knob in table}
    for key in given:
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")
    values = {}
    for knob in table:
        text = getattr(args, knob.key)
        if text is None:
            text = given.get(knob.key)
        values[knob.key] = knob.default if text is None else knob.convert(text, knob.flag)
    return values


def cmd_simulate(args) -> int:
    v = _values(SIMULATE, args)
    with _library_rules():
        spec = MissingnessSpec(v["mode"], v["ratio"], v["seed"])
        ds = data.generate_synthetic(
            v["n"], v["classes"], v["features"], min(v["groups"], v["classes"]),
            v["noise"], v["seed"],
        )
    observed = data.drop_labels(ds.truth, spec)
    ds = data.Dataset(ds.features, ds.truth, observed)
    data.save_dataset(ds, v["out"])
    kept = float((observed == 1).sum() / (ds.truth == 1).sum())
    print(f"avg_positives {data.average_positives(observed):.4f}")
    print(f"kept_fraction {kept:.4f}")
    return 0


def cmd_train(args) -> int:
    v = _values(TRAIN, args)
    if not v["data"]:
        raise UsageError("--data is required")
    with _library_rules():
        train_cfg = trainer.TrainConfig(
            lambda_=v["lambda_"],
            use_contrast=not v["no_contrast"],
            correction=CorrectionConfig(threshold=v["delta"], start_epoch=v["start_epoch"]),
            sv_threshold=v["sv_threshold"],
            loss_kind=v["loss"],
            focal_gamma=v["gamma"],
            lr=v["lr"],
            epochs=v["epochs"],
            batch_size=v["batch_size"],
            seed=v["seed"],
            ema_decay=v["ema_decay"],
            layer_dims=v["dims"],
            output_activation=v["activation"],
            val_fraction=v["val_fraction"],
        )
    ds = data.load_dataset(v["data"])
    trained, history = trainer.train(ds, train_cfg)
    model.save_checkpoint(v["out"], trained.params, trained.ema_params)
    with atomic_write(v["history"]) as fh:
        fh.write(history.to_text())
    last = history.epochs[-1]
    if last.val_report is not None:
        print(f"final_val_map {last.val_report.map:.4f}")
    print(f"checkpoint {v['out']}")
    print(f"history {v['history']}")
    return 0


def cmd_eval(args) -> int:
    v = _values(EVAL, args)
    if not v["checkpoint"] or not v["data"]:
        raise UsageError("--checkpoint and --data are required")
    threshold = v["threshold"]
    with _library_rules():
        metrics.check_threshold(threshold)
    params, ema = model.load_checkpoint(v["checkpoint"])
    ds = data.load_dataset(v["data"])
    if ema is not None:
        sys.stdout.write("raw\n")
    sys.stdout.write(trainer.evaluate(params, ds, threshold).to_text())
    if ema is not None:
        sys.stdout.write("ema\n" + trainer.evaluate(ema, ds, threshold).to_text())
    return 0


def _run_checks(args, runner) -> int:
    v = _values(CHECKS, args)
    with _library_rules():
        checks.check_trials(v["trials"])
        check_seed(v["seed"])
    results = runner(v["trials"], v["seed"])
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


COMMANDS = (
    # name, help, knob table, reads --config, handler
    ("simulate", "generate a synthetic dataset file", SIMULATE, True, cmd_simulate),
    ("train", "train on a dataset file", TRAIN, True, cmd_train),
    ("eval", "evaluate a checkpoint against a dataset", EVAL, True, cmd_eval),
    ("gradcheck", "run the gradcheck property suite", CHECKS, False, cmd_gradcheck),
    ("selftest", "run the selftest property suite", CHECKS, False, cmd_selftest),
)


def build_parser() -> argparse.ArgumentParser:
    """Every flag is read as text; the knob's converter parses it."""
    parser = argparse.ArgumentParser(
        prog="nucontrast",
        description="Train and evaluate contrastive multi-label models "
        "on data with missing labels.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text, table, reads_config, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for knob in table:
            if knob.convert is _bool:
                p.add_argument(knob.flag, dest=knob.key, action="store_const",
                               const="true", help=knob.help)
            else:
                p.add_argument(knob.flag, dest=knob.key, help=knob.help)
        if reads_config:
            p.add_argument("--config")
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
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
