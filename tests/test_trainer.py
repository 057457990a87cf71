"""Training loop: objective composition, determinism, ablations, evaluation."""

import dataclasses
import math
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nucontrast import contrast, linalg, losses, metrics, model, trainer
from nucontrast.contrast import CorrectionConfig
from nucontrast.data import Dataset, MissingnessSpec, drop_labels, generate_synthetic
from nucontrast.model import save_checkpoint
from nucontrast.trainer import TrainConfig, _batch_terms, evaluate, split_dataset, train
from step_reference import reference_train


def small_dataset(seed=0, n=120, c=4, f=8):
    ds = generate_synthetic(n, c, f, 3, 0.5, seed=seed)
    observed = drop_labels(ds.truth, MissingnessSpec("single", seed=seed))
    return Dataset(ds.features, ds.truth, observed)


def small_config(**kw):
    defaults = dict(
        epochs=3, batch_size=16, seed=1, layer_dims=(8, 12, 6), lr=1e-3
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def checkpoint_bytes(tmp_path, name, params, ema=None):
    path = tmp_path / name
    save_checkpoint(path, params, ema)
    return path.read_bytes()


class TestTotalLoss:
    """The step's objective is cls + lambda * contrast, from ``_batch_terms``,
    whose unchecked kernels give the public functions' bytes."""

    def setup_method(self):
        rng = np.random.default_rng(2)
        self.z = rng.normal(size=(6, 4))
        self.logits = rng.normal(size=(6, 3))
        self.labels = np.where(rng.random((6, 3)) < 0.5, 1, -1)
        self.labels[:, 0] = 1

    def terms(self, cfg):
        probs = losses.sigmoid(self.logits)
        return _batch_terms(self.logits, probs, self.z, self.labels, cfg)

    def test_lambda_zero_is_classification_only(self):
        cls_value, c_value, grad_logits, grad_z = self.terms(small_config(lambda_=0.0))
        bce_value, bce_grad = losses.bce_loss(self.logits, self.labels)
        assert cls_value == bce_value and c_value == 0.0
        assert np.array_equal(grad_logits, bce_grad)
        assert grad_z is None

    def test_default_weight_is_one(self):
        assert TrainConfig().lambda_ == 1.0

    def test_linear_composition(self):
        cls_value, c_value, _, grad_z = self.terms(small_config(lambda_=1.0))
        assert cls_value == losses.bce_loss(self.logits, self.labels)[0]
        value, grad = contrast.contrastive_loss_and_gradient(self.z, self.labels)
        assert c_value == value
        assert np.array_equal(grad_z, grad)

    def test_half_weight(self):
        cfg = small_config(lambda_=0.5)
        _, c_value, _, grad_z = self.terms(cfg)
        # the value term is unweighted; the trainer applies lambda to it
        assert c_value == contrast.contrastive_loss_and_gradient(self.z, self.labels)[0]
        full = contrast.contrastive_loss_and_gradient(self.z, self.labels, cfg.sv_threshold)[1]
        assert np.array_equal(grad_z, 0.5 * full)

    def test_focal_variant(self):
        cls_value, _, _, _ = self.terms(small_config(lambda_=0.0, loss_kind="focal", focal_gamma=1.5))
        assert cls_value == losses.focal_loss(self.logits, self.labels, 1.5)[0]


class TestSplit:
    def test_sizes_and_disjoint(self):
        ds = small_dataset()
        tr, va = split_dataset(ds, 0.2, seed=3)
        assert va.n_samples == 24 and tr.n_samples == 96

    def test_seed_stable(self):
        ds = small_dataset()
        a, _ = split_dataset(ds, 0.2, seed=3)
        b, _ = split_dataset(ds, 0.2, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_zero_fraction(self):
        ds = small_dataset()
        tr, va = split_dataset(ds, 0.0, seed=3)
        assert va is None and tr.n_samples == ds.n_samples


class TestTrain:
    def test_deterministic(self, tmp_path):
        ds = small_dataset()
        m1, h1 = train(ds, small_config())
        m2, h2 = train(ds, small_config())
        assert checkpoint_bytes(tmp_path, "a", m1.params) == checkpoint_bytes(
            tmp_path, "b", m2.params
        )
        assert h1.to_text() == h2.to_text()

    def test_lambda_zero_ablation_identity(self, tmp_path):
        ds = small_dataset()
        m_zero, h_zero = train(ds, small_config(lambda_=0.0, use_contrast=True))
        m_off, h_off = train(ds, small_config(use_contrast=False))
        assert checkpoint_bytes(tmp_path, "zero", m_zero.params) == checkpoint_bytes(
            tmp_path, "off", m_off.params
        )
        assert h_zero.to_text() == h_off.to_text()

    def test_history_one_entry_per_epoch(self):
        ds = small_dataset()
        _, history = train(ds, small_config(epochs=4))
        assert [e.epoch for e in history.epochs] == [1, 2, 3, 4]
        for e in history.epochs:
            assert np.isfinite(e.cls_loss)
            assert np.isfinite(e.contrast_loss)
            assert e.val_report is not None

    def test_losses_finite_under_defaults(self):
        ds = small_dataset()
        _, history = train(ds, small_config())
        for e in history.epochs:
            assert np.isfinite(e.cls_loss) and np.isfinite(e.contrast_loss)

    def test_nonfinite_loss_aborts_with_location(self, monkeypatch):
        ds = small_dataset()
        bad = (float("nan"), np.zeros((16, 4)))
        monkeypatch.setattr(trainer.losses, "_bce", lambda *a, **k: bad)
        with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
            train(ds, small_config())

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("observed", 2, "observed entries must all be -1 or +1"),
            ("features", np.nan, "features contains non-finite entries"),
        ],
    )
    def test_door_rejects_data_changed_after_construction(
        self, monkeypatch, field, value, shown
    ):
        # Dataset is mutable, and with no split only the door rebuilds the caller's data
        ds = small_dataset()
        getattr(ds, field)[3, 1] = value
        steps = []
        monkeypatch.setattr(trainer.model, "_embed_forward", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match=re.escape(shown)):
            train(ds, small_config(use_contrast=False, val_fraction=0.0))
        assert steps == []

    @pytest.mark.filterwarnings("error")  # and before a loss term warns on it
    def test_nan_embedding_raises_before_any_svd(self, monkeypatch):
        ds = small_dataset()
        forward = model._embed_forward

        def nan_forward(params, x):
            cache = forward(params, x)
            cache.activations[-1][0, 0] = np.nan
            return cache

        lapack = []
        monkeypatch.setattr(trainer.model, "_embed_forward", nan_forward)
        monkeypatch.setattr(linalg.np.linalg, "svd", lambda *a, **k: lapack.append(a))
        with pytest.raises(ValueError, match="embedding contains non-finite entries"):
            train(ds, small_config(batch_size=4))
        assert lapack == []

    def test_array_layer_dims_train_like_a_tuple(self, tmp_path):
        ds = small_dataset()
        cfg = small_config(layer_dims=np.array([8, 12, 6]))
        assert cfg.layer_dims == (8, 12, 6)
        assert all(type(d) is int for d in cfg.layer_dims)
        got_model, got_history = train(ds, cfg)
        want_model, want_history = train(ds, small_config())
        assert checkpoint_bytes(tmp_path, "got", got_model.params) == checkpoint_bytes(
            tmp_path, "want", want_model.params
        )
        assert got_history.to_text() == want_history.to_text()

    def test_batch_size_validation(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            train(ds, small_config(batch_size=200))

    def test_layer_dims_must_match_features(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="feature width"):
            train(ds, small_config(layer_dims=(9, 4)))

    def test_ema_present_when_enabled(self):
        ds = small_dataset()
        trained, _ = train(ds, small_config(ema_decay=0.99))
        assert trained.ema_params is not None
        evaluate(trained.ema_params, ds)  # usable for evaluation
        trained, _ = train(ds, small_config())
        assert trained.ema_params is None

    def test_correction_epoch_gate(self):
        ds = small_dataset()
        cfg_gated = small_config(
            epochs=2, correction=CorrectionConfig(threshold=0.51, start_epoch=99)
        )
        _, history = train(ds, cfg_gated)
        assert all(e.corrected == 0 for e in history.epochs)

    def test_config_is_frozen(self):
        # a value assigned after construction would never be checked
        cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = -1.0
        assert cfg.lr == 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="hinge")
        with pytest.raises(ValueError):
            TrainConfig(output_activation="relu")


class TestMatchesPerStepGather:
    """Slicing one per-epoch gather gives the bytes of gathering every batch."""

    @pytest.mark.parametrize(
        "cfg",
        [
            small_config(
                batch_size=2,
                ema_decay=0.99,
                lr=1e-2,
                correction=CorrectionConfig(threshold=0.51, start_epoch=2),
            ),
            TrainConfig(epochs=2, seed=3, lr=1e-3),
            small_config(batch_size=5, loss_kind="focal", output_activation="linear"),
            small_config(batch_size=3, output_activation="softplus_unit"),
            small_config(batch_size=2, ema_decay=0.9, use_contrast=False),
            small_config(batch_size=4, output_activation="linear", ema_decay=0.5),
            small_config(batch_size=2, loss_kind="focal", use_contrast=False, ema_decay=0.9),
        ],
        ids=[
            "b2-ema-correction",
            "b64-defaults",
            "focal-linear",
            "softplus-unit",
            "b2-ema-contrast-off",
            "bce-linear",
            "focal-contrast-off",
        ],
    )
    def test_checkpoint_and_history_bytes(self, tmp_path, cfg):
        ds = small_dataset()
        got_model, got_history = train(ds, cfg)
        want_model, want_history = reference_train(ds, cfg)
        assert checkpoint_bytes(
            tmp_path, "got", got_model.params, got_model.ema_params
        ) == checkpoint_bytes(tmp_path, "want", want_model.params, want_model.ema_params)
        assert got_history.to_text() == want_history.to_text()
        assert all(type(e.corrected) is int for e in got_history.epochs)
        if cfg.correction.threshold == 0.51:
            assert [e.corrected > 0 for e in got_history.epochs] == [False, False, True]


class TestTracedEntryPoints:
    """The step calls the contrast loss and the SVD through their module
    attributes, so wrapping the attribute sees every call. It calls the
    model's functions and the sigmoid as kernels, so only the evaluation
    calls their public forms."""

    TRACED = (
        (contrast, "contrastive_loss_and_gradient"),
        (linalg, "svd"),
    )
    # public functions whose kernels the step calls
    KERNELED = (
        (model, "embed_forward"),
        (model, "classify"),
        (losses, "sigmoid"),
        (model, "backward"),
        (model, "adam_step"),
        (model, "ema_update"),
    )

    # label and matrix checks; their per-step counts are the validation budget
    CHECKS = ((contrast, "as_label_matrix"), (linalg, "as_matrix"))

    def install(self, monkeypatch, counts, on_call):
        """Replace each traced function wherever a nucontrast module holds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "nucontrast"]
        for home, name in self.TRACED + self.KERNELED + self.CHECKS:
            original = getattr(home, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                on_call(_name, args)
                return _original(*args, **kwargs)

            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)

    def test_one_call_each_per_step_and_svd_per_class(self, monkeypatch):
        ds = small_dataset()
        cfg = small_config(epochs=2, batch_size=2, ema_decay=0.99)
        counts = Counter()
        expected_svd = []

        def on_call(name, args):
            if name == "contrastive_loss_and_gradient":
                labels = np.asarray(args[1])
                expected_svd.append(int((labels == 1).any(axis=0).sum()) + 1)

        self.install(monkeypatch, counts, on_call)
        train(ds, cfg)
        n_train = ds.n_samples - round(ds.n_samples * cfg.val_fraction)
        steps = math.ceil(n_train / cfg.batch_size) * cfg.epochs
        assert counts["contrastive_loss_and_gradient"] == steps
        assert len(expected_svd) == steps
        assert counts["svd"] == sum(expected_svd)
        # only the validation at the end of each epoch calls the public forms
        evaluation = {"embed_forward": 1, "classify": 1, "sigmoid": 1}
        for _, name in self.KERNELED:
            assert counts[name] == evaluation.get(name, 0) * cfg.epochs, name

    @pytest.mark.parametrize(
        "contrast_on, start_epoch, matrices_per_step",
        [
            # correction: as_matrix on z inside the contrast loss
            (True, 1, 1),
            # correction gated off: the same
            (True, 99, 1),
            # classification only: the step checks nothing
            (False, 1, 0),
        ],
        ids=["correction", "correction-gated-off", "contrast-off"],
    )
    def test_validation_calls_per_step(
        self, monkeypatch, contrast_on, start_epoch, matrices_per_step
    ):
        ds = small_dataset()
        cfg = small_config(
            epochs=2,
            batch_size=2,
            val_fraction=0.0,  # no split or evaluation, so every check is a step's
            use_contrast=contrast_on,
            correction=CorrectionConfig(threshold=0.51, start_epoch=start_epoch),
        )
        counts = Counter()
        self.install(monkeypatch, counts, lambda name, args: None)
        train(ds, cfg)
        steps = math.ceil(ds.n_samples / cfg.batch_size) * cfg.epochs
        # once per run, the door rebuilds the Dataset: features, truth, observed
        assert counts["as_label_matrix"] == 2
        # every svd validates its input once more
        assert counts["as_matrix"] == 1 + matrices_per_step * steps + counts["svd"]


LABELS = np.array([[1, -1], [-1, 1]])
HALF = np.full((2, 2), 0.5)


def scored_entries(scores, labels):
    """The public functions whose kernels the step calls, on one input."""
    return {
        "bce_loss": lambda: losses.bce_loss(scores, labels),
        "focal_loss": lambda: losses.focal_loss(scores, labels),
        "correct_labels": lambda: contrast.correct_labels(labels, scores, 0.6),
        "effective_labels": lambda: contrast.effective_labels(
            labels, scores, 1, CorrectionConfig()
        ),
    }


BAD_SCORED_INPUTS = [
    ("label 2", HALF, np.array([[1, 2], [-1, 1]]), "entries must all be -1 or +1", None),
    ("nan score", np.array([[0.5, np.nan], [0.5, 0.5]]), LABELS, "contains non-finite", None),
    # logits may exceed 1, probabilities may not
    ("probs 1.5", np.array([[0.5, 1.5], [0.5, 0.5]]), LABELS, "must lie in [0, 1]", 2),
]


@pytest.mark.parametrize(
    "entry, scores, labels, shown",
    [
        pytest.param(entry, scores, labels, shown, id=f"{entry}-{case}")
        for case, scores, labels, shown, first in BAD_SCORED_INPUTS
        for entry in list(scored_entries(scores, labels))[first:]
    ],
)
def test_public_functions_keep_their_checks(entry, scores, labels, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        scored_entries(scores, labels)[entry]()


class TestEvaluate:
    def test_untrained_zero_model_predicts_half(self):
        ds = small_dataset()
        params = model.ModelParams(
            (8, 4),
            [np.zeros((8, 4))],
            [np.zeros(4)],
            np.zeros((4, ds.n_classes)),
            np.zeros(ds.n_classes),
        )
        rep = evaluate(params, ds)
        expected = metrics.report(np.full((ds.n_samples, ds.n_classes), 0.5), ds.truth)
        assert rep.map == expected.map
        assert rep.or_ == expected.or_ == 1.0  # 0.5 >= threshold: all positive

    def test_composition_identity(self):
        ds = small_dataset()
        trained, _ = train(ds, small_config())
        z, _ = model.embed_forward(trained.params, ds.features)
        probs = losses.sigmoid(model.classify(trained.params, z))
        direct = metrics.report(probs, ds.truth)
        assert evaluate(trained.params, ds).map == direct.map


def one_pass_report(params, ds):
    """``evaluate``'s report from one forward pass over every row."""
    z, _ = model.embed_forward(params, ds.features)
    return metrics.report(losses.sigmoid(model.classify(params, z)), ds.truth)


def scoring_model(seed, dims=(32, 64, 32), n_classes=10):
    """A network whose head is not zero, so each row scores differently."""
    rng = np.random.default_rng(seed)
    params = model.init_params(dims, n_classes, rng, "softplus")
    params.classifier_weight[:] = rng.normal(size=params.classifier_weight.shape)
    params.classifier_bias[:] = rng.normal(size=n_classes)
    return params


def scored_set(n, seed, n_features=32, n_classes=10):
    """Random rows; the last class's sole positive is the last row."""
    rng = np.random.default_rng(seed)
    truth = np.where(rng.random((n, n_classes)) < 0.3, 1, -1)
    truth[np.arange(n), rng.integers(0, n_classes - 1, n)] = 1
    truth[:, -1] = -1
    truth[-1, -1] = 1
    return Dataset(rng.normal(size=(n, n_features)), truth, truth)


class TestEvaluateInBlocks:
    @pytest.mark.parametrize("n", [1, 400, 4096])
    def test_one_block_report_is_the_one_pass_report(self, n):
        ds, params = scored_set(n, seed=n), scoring_model(seed=n)
        got, want = evaluate(params, ds), one_pass_report(params, ds)
        assert got.to_text() == want.to_text()
        assert repr(got.map) == repr(want.map)
        assert got.per_class_ap.tobytes() == want.per_class_ap.tobytes()
        assert got.skipped_classes == want.skipped_classes

    def test_every_row_is_scored_once(self):
        ds, params = scored_set(3 * 4096 + 1, seed=5), scoring_model(seed=5)
        got, want = evaluate(params, ds), one_pass_report(params, ds)
        assert abs(got.map - want.map) <= 1e-12
        # the last class ranks only the last row: a dropped or doubled tail moves it
        assert abs(got.per_class_ap[-1] - want.per_class_ap[-1]) <= 1e-12

    @pytest.mark.parametrize(
        "n, rows",
        [(4096, [4096]), (4097, [2048, 2049]), (3 * 4096 + 1, [3072, 3072, 3072, 3073])],
    )
    def test_blocks_are_contiguous_and_near_equal(self, monkeypatch, n, rows):
        ds, params = scored_set(n, seed=6, n_features=4, n_classes=3), scoring_model(6, (4, 3), 3)
        starts = []
        forward = model.embed_forward

        def record(p, x):
            starts.append((x.shape[0], np.shares_memory(x, ds.features)))
            return forward(p, x)

        monkeypatch.setattr(model, "embed_forward", record)
        evaluate(params, ds)
        assert starts == [(r, True) for r in rows]

    def test_peak_memory_is_bounded_by_a_block(self):
        ds = generate_synthetic(20_000, 10, 32, 4, 3.0, seed=1)
        params = scoring_model(seed=1)
        tracemalloc.start()
        try:
            evaluate(params, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass over every row holds 19.4 MiB here
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("n", [120, 5000])
    def test_wrong_width_names_the_whole_input(self, n):
        ds = Dataset(np.zeros((n, 5)), np.ones((n, 1)), np.ones((n, 1)))
        with pytest.raises(linalg.DimensionError) as caught:
            evaluate(scoring_model(0, (8, 4), 1), ds)
        assert str(caught.value) == f"input must be N x 8, got ({n}, 5)"

    def test_zero_rows_have_nothing_to_evaluate(self):
        ds = Dataset(np.zeros((0, 8)), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="no class has a positive label; nothing to evaluate"):
            evaluate(scoring_model(0, (8, 4), 3), ds)


def test_history_text_format():
    ds = small_dataset()
    _, history = train(ds, small_config(epochs=2))
    lines = history.to_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        fields = line.split()
        assert fields[0] == "epoch" and fields[1] == str(i)
        assert fields[2] == "cls_loss" and fields[4] == "contrast_loss"
        assert fields[6] == "corrected" and fields[8] == "map"
