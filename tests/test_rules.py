"""Each validation rule is written once.

Five checks: no raise message template appears at two raise sites anywhere
in the package; no raise site states a count's range itself, since
``seeding.check_count``, whose message names the minimum through a
replacement field, is the count rule's one home; no raise site outside
``seeding.py`` states an interval, since ``seeding.check_range`` is the one
home of every real-valued knob's range; the CLI leaves type and choice
checks to its own converters and the library, never to argparse; and for
every value rule that more than one entry point enforces, each of those
entries rejects a bad value with the same exception type and the same
message. The range rule's edges and the message of each real-valued knob
are pinned here too.
"""

import ast
import dataclasses
import math
import re
import textwrap
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from nucontrast import checks, cli, contrast, linalg, losses, metrics, model
from nucontrast.contrast import (
    CorrectionConfig,
    as_label_matrix,
    contrastive_loss_and_gradient,
    correct_labels,
)
from nucontrast.data import Dataset, MissingnessSpec, drop_labels, generate_synthetic
from nucontrast.losses import bce_loss, focal_loss
from nucontrast.model import ema_update, init_params
from nucontrast.seeding import check_range, component_rng
from nucontrast.trainer import TrainConfig, evaluate, split_dataset

SRC = Path(__file__).parents[1] / "src" / "nucontrast"


def message_template(node):
    """A literal or f-string message with each replacement field as ``{}``;
    None for a message built any other way."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return None


def raise_sites(sources):
    """{template: [(file, line), ...]} over every ``raise E(message, ...)``
    whose message has a template; ``sources`` maps a file name to its text."""
    sites = defaultdict(list)
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = message_template(node.exc.args[0])
                if template is not None:
                    sites[template].append((name, node.lineno))
    return {template: sorted(where) for template, where in sites.items()}


def package_sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_no_message_template_at_two_raise_sites():
    sites = raise_sites(package_sources())
    assert sum(map(len, sites.values())) > 50  # the walk saw the package
    assert {t: s for t, s in sites.items() if len(s) > 1} == {}


def test_template_finder_sees_a_duplicate():
    source = textwrap.dedent(
        """
        def f(x, name):
            if x < 0:
                raise ValueError(f"{name} must be >= 0, got {x!r}")
            raise TypeError(f"{name} must be >= 0, got {x:.3f}")

        def g(x):
            raise ValueError("plain " "text")
            raise ValueError("plain text")
            raise ValueError(str(x))
            raise
        """
    )
    sites = raise_sites({"m.py": source})
    assert sites == {
        "{} must be >= 0, got {}": [("m.py", 4), ("m.py", 5)],
        "plain text": [("m.py", 8), ("m.py", 9)],
    }


# "<name> must be >= <int>, got {}": a count's range stated outside check_count
COUNT_RANGE = re.compile(r"(\w+|\{\}) must be >= -?\d+, got \{\}")


def count_ranges_outside_home(sites):
    return {t: s for t, s in sites.items() if COUNT_RANGE.fullmatch(t)}


def test_count_range_is_stated_only_by_the_count_rule():
    assert count_ranges_outside_home(raise_sites(package_sources())) == {}


def test_count_range_finder_sees_a_restatement():
    source = textwrap.dedent(
        """
        def f(n, name, minimum):
            raise ValueError(f"epochs must be >= 1, got {n!r}")
            raise ValueError(f"{name} must be >= 0, got {n}")
            raise ValueError(f"{name} must be >= {minimum}, got {n!r}")
            raise ValueError(f"lr must be finite and > 0, got {n!r}")
        """
    )
    assert count_ranges_outside_home(raise_sites({"m.py": source})) == {
        "epochs must be >= 1, got {}": [("m.py", 3)],
        "{} must be >= 0, got {}": [("m.py", 4)],
    }


# an interval stated in a message: "must be in (0, 1)", "must be finite and >= 0";
# a replacement field may stand for a bracket, as in check_range's own message
INTERVAL = re.compile(r".*must be (in [(\[{].*[)\]}]|finite and).*")


def intervals_outside_home(sites):
    """The sites of ``sites`` that state an interval outside ``seeding.py``."""
    outside = {
        t: [(name, line) for name, line in where if name != "seeding.py"]
        for t, where in sites.items()
        if INTERVAL.fullmatch(t)
    }
    return {t: where for t, where in outside.items() if where}


def test_intervals_are_stated_only_by_the_range_rule():
    sites = raise_sites(package_sources())
    # the walk saw the range rule's own two messages
    assert sum(1 for t in sites if INTERVAL.fullmatch(t)) == 2
    assert intervals_outside_home(sites) == {}


def test_interval_finder_sees_a_restatement():
    source = textwrap.dedent(
        """
        def f(x, name):
            raise ValueError(f"noise must be in [0, 4], got {x!r}")
            raise ValueError(f"{name} must be in (0, 1], got {x}")
            raise ValueError(f"lr must be finite and > 0, got {x!r}")
            raise ValueError(f"probs entries must lie in [0, 1], got {x!r}")
            raise ValueError(f"{name} must be >= 1, got {x!r}")
        """
    )
    assert intervals_outside_home(raise_sites({"m.py": source})) == {
        "noise must be in [0, 4], got {}": [("m.py", 3)],
        "{} must be in (0, 1], got {}": [("m.py", 4)],
        "lr must be finite and > 0, got {}": [("m.py", 5)],
    }
    assert intervals_outside_home(raise_sites({"seeding.py": source})) == {}


def add_argument_keywords(source):
    """[(line, keyword names)] of every ``add_argument`` call; ``**kwargs``
    shows as None."""
    return sorted(
        (node.lineno, [kw.arg for kw in node.keywords])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    )


def argparse_checks(source):
    """(line, keyword) of each ``add_argument`` keyword that would let argparse
    check a value: ``type``, ``choices``, or a ``**kwargs`` that may hide one."""
    return [
        (line, kw)
        for line, keywords in add_argument_keywords(source)
        for kw in keywords
        if kw in ("type", "choices", None)
    ]


def test_cli_flags_are_read_as_text():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert len(add_argument_keywords(source)) >= 3  # the walk saw the parser
    assert argparse_checks(source) == []


def test_argparse_check_finder_sees_type_and_choices():
    source = textwrap.dedent(
        """
        p.add_argument("--n", type=int)
        p.add_argument("--mode", choices=("keep", "single"), help="mode")
        p.add_argument("--out", **extra)
        p.add_argument("--data", dest="data", help="input")
        """
    )
    assert argparse_checks(source) == [(2, "type"), (3, "choices"), (4, None)]


NAN, INF = math.nan, math.inf
LABELS = np.array([[1, -1], [-1, 1]])
HALF = np.full((2, 2), 0.5)
BAD_TRUTH = np.array([[1, -1], [-1, -1]])


def params(n_classes=2):
    return init_params((2, 2), n_classes, component_rng(0, "init"))


def synthetic(**counts):
    """``generate_synthetic`` with valid arguments except those given."""
    args = dict(n_samples=4, n_classes=3, n_features=2, n_groups=2, noise=0.1, seed=0)
    return generate_synthetic(**{**args, **counts})


def count_cases(name, minimum, *entries):
    """1.5, True and ``minimum - 1`` through each entry, a one-argument
    callable that passes its argument as the count ``name``."""
    bad = [
        (1.5, f"{name} must be an integer, not float, got 1.5"),
        (True, f"{name} must be an integer, not bool, got True"),
        (minimum - 1, f"{name} must be >= {minimum}, got {minimum - 1}"),
    ]
    return [
        pytest.param([lambda e=e, v=v: e(v) for e in entries], message, id=f"{name}={v!r}")
        for v, message in bad
    ]


def real_cases(name, values, *entries):
    """Each bool in ``values`` through each entry, a one-argument callable
    that passes its argument as the real-valued knob ``name``."""
    return [
        pytest.param(
            [lambda e=e, v=v: e(v) for e in entries],
            f"{name} must be a real number, not bool, got {v!r}",
            id=f"{name}={v!r}",
        )
        for v in values
    ]


def split(val_fraction):
    return split_dataset(Dataset(np.zeros((2, 2)), LABELS, LABELS), val_fraction, 0)


def probs_with(value):
    probs = HALF.copy()
    probs[1, 0] = value
    return probs


RULES = (
    [
        pytest.param(
            [
                lambda v=v: linalg.nuclear_subgradient(np.eye(2), v),
                lambda v=v: contrastive_loss_and_gradient(np.eye(2), LABELS, v),
                lambda v=v: TrainConfig(sv_threshold=v),
            ],
            repr(v),
            id=f"sv_threshold={v}",
        )
        for v in (0.0, -1.0, NAN, 1.0, INF)
    ]
    + [
        pytest.param(
            [
                lambda v=v: correct_labels(LABELS, HALF, v),
                lambda v=v: CorrectionConfig(threshold=v),
            ],
            repr(v),
            id=f"threshold={v}",
        )
        for v in (0.0, 1.0, NAN)
    ]
    + [
        pytest.param(
            [
                lambda v=v: focal_loss(np.zeros((2, 2)), LABELS, v),
                lambda v=v: TrainConfig(focal_gamma=v),
            ],
            repr(v),
            id=f"gamma={v}",
        )
        for v in (-1.0, NAN, INF)
    ]
    + [
        pytest.param(
            [
                lambda v=v: ema_update(params(), params(), v),
                lambda v=v: TrainConfig(ema_decay=v),
            ],
            repr(v),
            id=f"decay={v}",
        )
        for v in (-0.1, 1.0, NAN)
    ]
    + [
        pytest.param(
            [
                lambda v=v: correct_labels(LABELS, probs_with(v), 0.6),
                lambda v=v: metrics.report(probs_with(v), LABELS),
            ],
            "[0, 1]",
            id=f"probs={v}",
        )
        for v in (1.5, -0.1)
    ]
    + [
        pytest.param(
            [
                lambda v=v: metrics.report(HALF, LABELS, v),
                lambda v=v: evaluate(params(), Dataset(np.zeros((2, 2)), LABELS, LABELS), v),
            ],
            repr(v),
            id=f"eval-threshold={v}",
        )
        for v in (NAN, 2.0, -0.5)
    ]
    + [
        pytest.param(
            [
                lambda: checks.run_gradcheck(0, 0),
                lambda: checks.run_selftest(0, 0),
                lambda: checks.check_trials(0),
            ],
            "trials must be >= 1, got 0",
            id="trials=0",
        ),
        pytest.param(
            [
                lambda: Dataset(np.zeros((2, 1)), BAD_TRUTH, BAD_TRUTH),
                lambda: drop_labels(BAD_TRUTH, MissingnessSpec("keep")),
            ],
            "positive",
            id="truth-row-without-positive",
        ),
        pytest.param(
            [
                lambda: linalg.as_matrix(np.ones(3), "labels"),
                lambda: as_label_matrix(np.ones(3)),
            ],
            "ndim=1",
            id="one-dimensional",
        ),
        pytest.param(
            [
                lambda: init_params((2, 2), 2, component_rng(0, "init"), "relu"),
                lambda: TrainConfig(output_activation="relu"),
            ],
            "'relu'",
            id="activation=relu",
        ),
        pytest.param(
            [
                lambda: component_rng(-1, "init"),
                lambda: TrainConfig(seed=-1),
                lambda: checks.run_gradcheck(1, -1),
                lambda: MissingnessSpec("keep", seed=-1),
                lambda: synthetic(seed=-1),
            ],
            "seed must be >= 0, got -1",
            id="seed=-1",
        ),
    ]
    + [
        pytest.param(
            [
                lambda v=v: component_rng(v, "init"),
                lambda v=v: TrainConfig(seed=v),
                lambda v=v: checks.run_gradcheck(1, v),
                lambda v=v: MissingnessSpec("keep", seed=v),
                lambda v=v: synthetic(seed=v),
            ],
            f"seed must be an integer, not {type(v).__name__}, got {v!r}",
            id=f"seed={v}",
        )
        for v in (1.7, True)
    ]
    + [
        pytest.param(
            [
                lambda v=v: init_params(v, 2, component_rng(0, "init")),
                lambda v=v: TrainConfig(layer_dims=v),
            ],
            repr(v),
            id=f"layer_dims={v}",
        )
        for v in ((8, 0, 4), (8,), (8, -3, 4), (8, 1.5, 4), (8, True, 4))
    ]
    + [
        pytest.param(
            [lambda v=v: checks.run_gradcheck(v, 0), lambda v=v: checks.check_trials(v)],
            f"trials must be an integer, not {type(v).__name__}, got {v!r}",
            id=f"trials={v}",
        )
        for v in (1.5, True)
    ]
    + count_cases("epochs", 1, lambda v: TrainConfig(epochs=v))
    + count_cases("batch_size", 2, lambda v: TrainConfig(batch_size=v))
    + count_cases("start_epoch", 1, lambda v: CorrectionConfig(start_epoch=v))
    + count_cases(
        "n_classes",
        1,
        lambda v: init_params((2, 2), v, component_rng(0, "init")),
        lambda v: synthetic(n_classes=v),
    )
    + count_cases("n_samples", 1, lambda v: synthetic(n_samples=v))
    + count_cases("n_features", 1, lambda v: synthetic(n_features=v))
    + count_cases("n_groups", 1, lambda v: synthetic(n_groups=v))
    + real_cases("lambda_", (True, False, np.True_), lambda v: TrainConfig(lambda_=v))
    + real_cases("lr", (True,), lambda v: TrainConfig(lr=v))
    + [
        pytest.param(
            [lambda v=v: TrainConfig(val_fraction=v), lambda v=v: split(v)],
            f"val_fraction must be in [0, 1), got {v!r}",
            id=f"val_fraction={v}",
        )
        for v in (1.5, 1.0, NAN, -0.1)
    ]
    + real_cases(
        "val_fraction",
        (False, np.False_, True),
        lambda v: TrainConfig(val_fraction=v),
        split,
    )
    + real_cases(
        "focal gamma",
        (True, False),
        lambda v: focal_loss(np.zeros((2, 2)), LABELS, v),
        lambda v: TrainConfig(focal_gamma=v),
    )
    + real_cases(
        "EMA decay",
        (False, np.False_),
        lambda v: ema_update(params(), params(), v),
        lambda v: TrainConfig(ema_decay=v),
    )
    + real_cases(
        "threshold",
        (True, np.True_),
        metrics.check_threshold,
        lambda v: metrics.report(HALF, LABELS, v),
        lambda v: evaluate(params(), Dataset(np.zeros((2, 2)), LABELS, LABELS), v),
    )
    + real_cases(
        "sv_threshold",
        (True,),
        lambda v: linalg.nuclear_subgradient(np.eye(2), v),
        lambda v: contrastive_loss_and_gradient(np.eye(2), LABELS, v),
        lambda v: TrainConfig(sv_threshold=v),
    )
    + real_cases(
        "correction threshold",
        (False,),
        lambda v: correct_labels(LABELS, HALF, v),
        lambda v: CorrectionConfig(threshold=v),
    )
    + real_cases("keep ratio", (True, np.True_), lambda v: MissingnessSpec("keep", ratio=v))
    + real_cases("noise", (True,), lambda v: synthetic(noise=v))
    + [
        pytest.param(
            [lambda v=v: TrainConfig(use_contrast=v)],
            f"use_contrast must be a bool, got {v!r}",
            id=f"use_contrast={v!r}",
        )
        for v in ("no", None, 0.0, 2)
    ]
    + [
        pytest.param(
            [lambda: TrainConfig(correction=None)],
            "correction must be a CorrectionConfig, got None",
            id="correction=None",
        ),
        pytest.param(
            [
                lambda: bce_loss(np.zeros((2, 3)), LABELS),
                lambda: focal_loss(np.zeros((2, 3)), LABELS),
                lambda: correct_labels(LABELS, np.full((2, 3), 0.5), 0.6),
                lambda: metrics.report(np.full((2, 3), 0.5), LABELS),
                lambda: evaluate(params(3), Dataset(np.zeros((2, 2)), LABELS, LABELS)),
            ],
            "score shape (2, 3) does not match label shape (2, 2)",
            id="score-label-shapes",
        ),
        pytest.param(
            [
                lambda: metrics.report(np.full((2, 1), 0.5), LABELS),
                lambda: evaluate(params(1), Dataset(np.zeros((2, 2)), LABELS, LABELS)),
            ],
            "score shape (2, 1) does not match label shape (2, 2)",
            id="one-class-model-on-two-classes",
        ),
    ]
)


@pytest.mark.parametrize("entries, shown", RULES)
def test_one_rule_one_message(entries, shown):
    outcomes = []
    for entry in entries:
        with pytest.raises(ValueError) as caught:
            entry()
        outcomes.append((type(caught.value), str(caught.value)))
    assert len(set(outcomes)) == 1, outcomes
    assert shown in outcomes[0][1]


def test_train_sets_every_train_config_field(tmp_path, monkeypatch, capsys):
    # a field that no flag or config key reaches is a knob that nothing can set
    built = []

    def record(**kwargs):
        built.append(kwargs)
        return TrainConfig(**kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.trainer, "TrainConfig", record)
    # the config is built before the data file is read, so a missing file is enough
    assert cli.run(["train", "--data", "absent.txt"]) == 1
    capsys.readouterr()
    assert [set(kwargs) for kwargs in built] == [
        {f.name for f in dataclasses.fields(TrainConfig)}
    ]


# value, low, high, bounds, message ("" where the value is in range)
RANGE_EDGES = [
    (0.0, 0, 1, "[)", ""),
    (0.0, 0, 1, "()", "x must be in (0, 1), got 0.0"),
    (-0.0, 0, 1, "[]", ""),
    (-0.0, 0, 1, "(]", "x must be in (0, 1], got -0.0"),
    (1.0, 0, 1, "(]", ""),
    (1.0, 0, 1, "[)", "x must be in [0, 1), got 1.0"),
    (np.float64(1.0), 0, 1, "[]", ""),
    (np.float64(1.0), 0, 1, "()", "x must be in (0, 1), got np.float64(1.0)"),
    (np.float32(0.0), 0, 1, "[)", ""),
    (np.float32(0.0), 0, 1, "(]", "x must be in (0, 1], got np.float32(0.0)"),
    (np.int64(4), 0, 4, "[]", ""),
    (np.int64(4), 0, 4, "[)", "x must be in [0, 4), got np.int64(4)"),
    (np.int64(0), 0, math.inf, "[)", ""),
    (np.int64(0), 0, math.inf, "()", "x must be finite and > 0, got np.int64(0)"),
    (1e308, 0, math.inf, "()", ""),
    (NAN, 0, 1, "[]", "x must be in [0, 1], got nan"),
    (NAN, 0, math.inf, "[)", "x must be finite and >= 0, got nan"),
    (np.float64(NAN), 0, 1, "()", "x must be in (0, 1), got np.float64(nan)"),
    (INF, 0, math.inf, "[)", "x must be finite and >= 0, got inf"),
    (INF, 0, 1, "[]", "x must be in [0, 1], got inf"),
    (-INF, 0, math.inf, "()", "x must be finite and > 0, got -inf"),
    (-INF, 0, 1, "[]", "x must be in [0, 1], got -inf"),
    (True, 0, 1, "[]", "x must be a real number, not bool, got True"),
    (False, 0, 1, "[]", "x must be a real number, not bool, got False"),
    (np.bool_(True), 0, math.inf, "[)", "x must be a real number, not bool, got np.True_"),
    ("0.5", 0, 1, "()", "x must be a real number, not str, got '0.5'"),
    (None, 0, 1, "()", "x must be a real number, not NoneType, got None"),
    (np.array(0.5), 0, 1, "()", "x must be a real number, not ndarray, got array(0.5)"),
]


@pytest.mark.parametrize(
    "value, low, high, bounds, message",
    RANGE_EDGES,
    ids=[f"{v!r}-in-{b[0]}{lo},{hi}{b[1]}" for v, lo, hi, b, _ in RANGE_EDGES],
)
def test_range_rule_edges(value, low, high, bounds, message):
    if not message:
        check_range("x", value, low, high, bounds)
        return
    with pytest.raises(ValueError) as caught:
        check_range("x", value, low, high, bounds)
    assert str(caught.value) == message


# every real-valued knob: one entry, its range message before ", got", and
# the values it accepts; the messages are those the hand-written checks raised
KNOB_VALUES = (
    NAN, INF, -INF, -0.0, 0.0, 0, 0.5, 1, 1.0, -1.0, 2.5, 5.0,
    np.float64(2.5), np.float32(-1.0), np.int64(0),
)
NONNEGATIVE = {-0.0, 0, 0.5, 1, 2.5, 5.0}  # -0.0 == 0.0 == 0, 1.0 == 1
KNOBS = [
    ("lambda_", lambda v: TrainConfig(lambda_=v), "lambda_ must be finite and >= 0", NONNEGATIVE),
    ("val_fraction", lambda v: TrainConfig(val_fraction=v), "val_fraction must be in [0, 1)",
     {0, 0.5}),
    ("lr", lambda v: TrainConfig(lr=v), "lr must be finite and > 0", {0.5, 1, 2.5, 5.0}),
    ("sv_threshold", linalg.check_sv_threshold, "sv_threshold must be in (0, 1)", {0.5}),
    ("correction threshold", contrast.check_correction_threshold,
     "correction threshold must be in (0, 1)", {0.5}),
    ("EMA decay", model.check_decay, "EMA decay must be in [0, 1)", {0, 0.5}),
    ("focal gamma", losses.check_gamma, "focal gamma must be finite and >= 0", NONNEGATIVE),
    ("threshold", metrics.check_threshold, "threshold must be in [0, 1]", {0, 0.5, 1}),
    ("keep ratio", lambda v: MissingnessSpec("keep", ratio=v), "keep ratio must be in (0, 1]",
     {0.5, 1}),
    ("noise", lambda v: synthetic(noise=v), "noise must be in [0, 4]", {0, 0.5, 1, 2.5}),
]


def outcome(entry, value):
    try:
        entry(value)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("name, entry, rule, accepted", KNOBS, ids=[k[0] for k in KNOBS])
def test_knob_messages(name, entry, rule, accepted):
    assert [outcome(entry, v) for v in KNOB_VALUES] == [
        "" if v in accepted else f"{rule}, got {v!r}" for v in KNOB_VALUES
    ]
    assert [outcome(entry, v) for v in (True, np.True_, "0.5")] == [
        f"{name} must be a real number, not bool, got True",
        f"{name} must be a real number, not bool, got np.True_",
        f"{name} must be a real number, not str, got '0.5'",
    ]
