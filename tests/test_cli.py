"""End-to-end command-line behavior: files, exit codes, determinism."""

import shlex
from pathlib import Path

import numpy as np
import pytest

from nucontrast import checks, cli, contrast, model, trainer
from nucontrast.cli import run


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_flag_rejected(capsys):
    assert run(["simulate", "--bogus", "1"]) == 2
    capsys.readouterr()


def readme_simulate_argv():
    """Arguments of the README's quick-start ``nucontrast simulate`` line, as printed."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for line in text.replace("\\\n", " ").splitlines():
        if line.startswith("nucontrast simulate "):
            return shlex.split(line, comments=True)[1:]
    raise AssertionError("README has no 'nucontrast simulate' line")


class TestSimulate:
    def test_readme_quick_start(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = readme_simulate_argv()
        assert run(argv) == 0
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
        capsys.readouterr()

    def test_bad_noise_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        assert run(["simulate", "--noise", "5", "--out", str(out)]) == 2
        assert not out.exists()
        capsys.readouterr()

    def test_single_mode(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code = run(
            "simulate --mode single --n 200 --classes 10 --seed 7".split()
            + ["--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "avg_positives 1.0000" in capsys.readouterr().out

    def test_keep_mode_reports_fraction(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code = run(
            "simulate --mode keep --ratio 0.75 --n 3000 --classes 20 --groups 10 --seed 1".split()
            + ["--out", str(out)]
        )
        assert code == 0
        line = [
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("kept_fraction")
        ][0]
        assert abs(float(line.split()[1]) - 0.75) < 0.02

    def test_bad_ratio_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--ratio", "1.5", "--out", str(tmp_path / "d.txt")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "lines, message",
        [("mode = drop", "got 'drop'"), ("ratio = 0", "got 0.0"), ("mode = keep\nratio = 2", "got 2.0")],
    )
    def test_bad_spec_in_config_is_usage_error(self, tmp_path, capsys, lines, message):
        # argparse choices do not see config values; MissingnessSpec does
        config = tmp_path / "sim.cfg"
        config.write_text(lines + "\n")
        out = tmp_path / "d.txt"
        assert run(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        flags = "simulate --mode single --n 50 --classes 5 --features 6 --seed 3".split()
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()


@pytest.fixture
def dataset_file(tmp_path):
    out = tmp_path / "data.txt"
    code = run(
        "simulate --mode single --n 80 --classes 4 --features 8 --groups 3 --noise 0.5 --seed 5".split()
        + ["--out", str(out)]
    )
    assert code == 0
    return out


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path, dataset_file, capsys):
        ckpt = tmp_path / "model.txt"
        hist = tmp_path / "hist.txt"
        code = run(
            ["train", "--data", str(dataset_file), "--out", str(ckpt), "--history", str(hist)]
            + "--loss bce --lambda 1 --seed 1 --epochs 2 --batch-size 16".split()
        )
        assert code == 0
        assert ckpt.exists() and hist.exists()
        assert "checkpoint" in capsys.readouterr().out

    def test_lambda_zero_equals_no_contrast(self, tmp_path, dataset_file, capsys):
        base = "--seed 1 --epochs 2 --batch-size 16".split()
        out_a = [tmp_path / "a.txt", tmp_path / "ha.txt"]
        out_b = [tmp_path / "b.txt", tmp_path / "hb.txt"]
        assert run(
            ["train", "--data", str(dataset_file), "--out", str(out_a[0]),
             "--history", str(out_a[1]), "--lambda", "0"] + base
        ) == 0
        assert run(
            ["train", "--data", str(dataset_file), "--out", str(out_b[0]),
             "--history", str(out_b[1]), "--no-contrast"] + base
        ) == 0
        assert out_a[0].read_bytes() == out_b[0].read_bytes()
        assert out_a[1].read_bytes() == out_b[1].read_bytes()
        capsys.readouterr()

    def test_repeat_run_byte_identical(self, tmp_path, dataset_file, capsys):
        flags = "--seed 2 --epochs 2 --batch-size 16".split()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["train", "--data", str(dataset_file), "--out", str(a),
                    "--history", str(tmp_path / "ha.txt")] + flags) == 0
        assert run(["train", "--data", str(dataset_file), "--out", str(b),
                    "--history", str(tmp_path / "hb.txt")] + flags) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_failed_history_write_keeps_old_file(self, tmp_path, dataset_file, capsys, monkeypatch):
        hist = tmp_path / "hist.txt"
        argv = ["train", "--data", str(dataset_file), "--out", str(tmp_path / "m.txt"),
                "--history", str(hist), "--epochs", "1", "--batch-size", "16"]
        assert run(argv) == 0
        old = hist.read_bytes()

        def fail(self):
            raise RuntimeError("rendering failed")

        monkeypatch.setattr(trainer.TrainHistory, "to_text", fail)
        assert run(argv) == 1
        assert "rendering failed" in capsys.readouterr().err
        assert hist.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "hist.txt", "m.txt"]

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope.txt")])
        assert code == 1
        capsys.readouterr()

    def test_config_file_precedence(self, tmp_path, dataset_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 2\nseed = 9\nbatch_size = 16\n")
        ckpt_cfg = tmp_path / "cfg.txt"
        ckpt_flag = tmp_path / "flag.txt"
        assert run(["train", "--data", str(dataset_file), "--out", str(ckpt_cfg),
                    "--history", str(tmp_path / "h1.txt"), "--config", str(config)]) == 0
        # flag overrides the config seed; results must differ from config run
        assert run(["train", "--data", str(dataset_file), "--out", str(ckpt_flag),
                    "--history", str(tmp_path / "h2.txt"), "--config", str(config),
                    "--seed", "10"]) == 0
        assert ckpt_cfg.read_bytes() != ckpt_flag.read_bytes()
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, dataset_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("optimizer = sgd\n")
        code = run(["train", "--data", str(dataset_file), "--config", str(config)])
        assert code == 2
        capsys.readouterr()

    BAD_VALUES = [
        # (config key, flag, bad value, text the message must hold)
        ("loss", "--loss", "hinge", "'hinge'"),
        ("lambda_", "--lambda", "-1", "-1.0"),
        ("lambda_", "--lambda", "nan", "nan"),
        ("delta", "--delta", "1.5", "1.5"),
        ("ema_decay", "--ema-decay", "1", "1.0"),
        ("val_fraction", "--val-fraction", "1", "1.0"),
        ("activation", "--activation", "relu", "'relu'"),
    ]

    @pytest.mark.parametrize("key, flag, value, shown", BAD_VALUES)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, source, key, flag, value, shown):
        # the data file does not exist: a check that ran after loading would exit 1
        argv = ["train", "--data", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "m.txt")]
        if source == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {value}\n")
            argv += ["--config", str(config)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert shown in err
        assert not (tmp_path / "m.txt").exists()

    def test_activation_flag(self, tmp_path, dataset_file, capsys):
        ckpt = tmp_path / "lin.txt"
        assert run(
            ["train", "--data", str(dataset_file), "--out", str(ckpt),
             "--history", str(tmp_path / "h.txt"), "--activation", "linear"]
            + "--epochs 1 --batch-size 16 --seed 1".split()
        ) == 0
        assert "activation linear" in ckpt.read_text().splitlines()[2]
        capsys.readouterr()


class TestEval:
    def overfit(self, tmp_path, capsys):
        data = tmp_path / "tiny.txt"
        assert run(
            "simulate --mode keep --ratio 1.0 --n 8 --classes 3 --features 6 --groups 3 --noise 0.2 --seed 2".split()
            + ["--out", str(data)]
        ) == 0
        ckpt = tmp_path / "tiny_model.txt"
        assert run(
            ["train", "--data", str(data), "--out", str(ckpt),
             "--history", str(tmp_path / "h.txt")]
            + "--epochs 400 --batch-size 4 --lr 0.02 --val-fraction 0 --no-contrast --seed 0".split()
        ) == 0
        capsys.readouterr()
        return data, ckpt

    def test_overfit_reaches_perfect_map(self, tmp_path, capsys):
        data, ckpt = self.overfit(tmp_path, capsys)
        assert run(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "map 1.0000" in out

    def test_report_format(self, tmp_path, capsys):
        data, ckpt = self.overfit(tmp_path, capsys)
        assert run(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [ln.split()[0] for ln in lines]
        assert names == ["map", "cp", "cr", "cf1", "op", "or", "of1"]

    def test_corrupted_checkpoint(self, tmp_path, dataset_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        code = run(["eval", "--checkpoint", str(bad), "--data", str(dataset_file)])
        assert code == 1
        capsys.readouterr()

    def test_ema_checkpoint_prints_both(self, tmp_path, dataset_file, capsys):
        ckpt = tmp_path / "ema.txt"
        assert run(
            ["train", "--data", str(dataset_file), "--out", str(ckpt),
             "--history", str(tmp_path / "h.txt")]
            + "--epochs 2 --batch-size 16 --ema-decay 0.99 --seed 1".split()
        ) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("raw\n")
        assert "\nema\n" in out


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        assert run(["gradcheck", "--trials", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")

    def test_selftest_passes(self, capsys):
        assert run(["selftest", "--trials", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "correction_table" in out
        assert out.strip().endswith("PASS")

    def test_negated_gradient_detected(self, capsys, monkeypatch):
        true_grad = contrast.contrastive_gradient
        monkeypatch.setattr(
            checks.contrast,
            "contrastive_gradient",
            lambda *a, **k: -true_grad(*a, **k),
        )
        assert run(["gradcheck", "--trials", "5", "--seed", "0"]) == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")

    @pytest.mark.parametrize("activation", model.OUTPUT_ACTIVATIONS)
    def test_backward_fault_detected_for_each_activation(
        self, capsys, monkeypatch, activation
    ):
        true_backward = model.backward

        def scaled_for_one_activation(params, *args):
            grads = true_backward(params, *args)
            return 1.1 * grads if params.output_activation == activation else grads

        monkeypatch.setattr(checks.model, "backward", scaled_for_one_activation)
        assert run(["gradcheck", "--trials", "5", "--seed", "0"]) == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")

    def test_deterministic_summary(self, capsys):
        assert run(["gradcheck", "--trials", "6", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert run(["gradcheck", "--trials", "6", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first
