"""Training loop: objective composition, determinism, ablations, evaluation."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from nucontrast import contrast, linalg, losses, metrics, model, trainer
from nucontrast.contrast import CorrectionConfig
from nucontrast.data import Dataset, MissingnessSpec, drop_labels, generate_synthetic
from nucontrast.model import save_checkpoint
from nucontrast.trainer import TrainConfig, _batch_terms, evaluate, split_dataset, train


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
    """The step's objective is cls + lambda * contrast, from ``_batch_terms``."""

    def setup_method(self):
        rng = np.random.default_rng(2)
        self.z = rng.normal(size=(6, 4))
        self.logits = rng.normal(size=(6, 3))
        self.labels = np.where(rng.random((6, 3)) < 0.5, 1, -1)
        self.labels[:, 0] = 1

    def terms(self, cfg):
        return _batch_terms(self.logits, self.z, self.labels, cfg)

    def test_lambda_zero_is_classification_only(self):
        cls_value, c_value, grad_logits, grad_z = self.terms(small_config(lambda_=0.0))
        bce = losses.bce_loss(self.logits, self.labels)
        assert cls_value == bce.value and c_value == 0.0
        assert np.array_equal(grad_logits, bce.grad_logits)
        assert grad_z is None

    def test_default_weight_is_one(self):
        assert TrainConfig().lambda_ == 1.0

    def test_linear_composition(self):
        cls_value, c_value, _, grad_z = self.terms(small_config(lambda_=1.0))
        assert cls_value == losses.bce_loss(self.logits, self.labels).value
        assert c_value == contrast.contrastive_loss(self.z, self.labels)
        assert np.array_equal(grad_z, contrast.contrastive_gradient(self.z, self.labels))

    def test_half_weight(self):
        cfg = small_config(lambda_=0.5)
        _, c_value, _, grad_z = self.terms(cfg)
        # the value term is unweighted; the trainer applies lambda to it
        assert c_value == contrast.contrastive_loss(self.z, self.labels)
        full = contrast.contrastive_gradient(self.z, self.labels, cfg.sv_threshold)
        assert np.array_equal(grad_z, 0.5 * full)

    def test_focal_variant(self):
        cls_value, _, _, _ = self.terms(small_config(lambda_=0.0, loss_kind="focal", focal_gamma=1.5))
        assert cls_value == losses.focal_loss(self.logits, self.labels, 1.5).value


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
        bad = losses.LossOutput(float("nan"), np.zeros((16, 4)))
        monkeypatch.setattr(trainer.losses, "bce_loss", lambda *a, **k: bad)
        with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
            train(ds, small_config())

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="hinge")
        with pytest.raises(ValueError):
            TrainConfig(output_activation="relu")


class TestTracedEntryPoints:
    """The step calls each public entry point that a tracer wraps through its
    module attribute, so wrapping the attribute sees every call."""

    TRACED = (
        (contrast, "contrastive_loss_and_gradient"),
        (linalg, "svd"),
        (losses, "bce_loss"),
        (contrast, "effective_labels"),
        (model, "backward"),
        (model, "adam_step"),
        (model, "ema_update"),
    )

    def install(self, monkeypatch, counts, on_call):
        """Replace each traced function wherever a nucontrast module holds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "nucontrast"]
        for home, name in self.TRACED:
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
        for _, name in self.TRACED:
            if name != "svd":
                assert counts[name] == steps, name
        assert len(expected_svd) == steps
        assert counts["svd"] == sum(expected_svd)


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
