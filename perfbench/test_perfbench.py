"""Tests of the benchmark itself: every check fails on a corrupted output.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from nucontrast import contrast, data, linalg, metrics, trainer  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_oracle_ap_matches_package_with_and_without_ties(rng):
    for trial in range(200):
        n = int(rng.integers(1, 40))
        scores = rng.integers(0, 4, size=n) / 3.0 if trial % 2 else rng.random(n)
        truth = np.where(rng.random(n) < 0.4, 1, -1)
        truth[rng.integers(n)] = 1
        expected = metrics.average_precision(scores, truth)
        assert abs(oracles.average_precision(scores, truth == 1) - expected) < 1e-12


def test_identical_fails_on_a_differing_repeat():
    assert oracles.check_identical("x", ["a", "a", "a"]) == []
    assert oracles.check_identical("x", ["a", "a", "b"])


def test_contrast_nonnegative_fails_on_a_negative_epoch():
    assert oracles.check_contrast_nonnegative("x", [0.3, 0.0, -1e-12]) == []
    assert oracles.check_contrast_nonnegative("x", [0.3, -1e-3])
    assert oracles.check_contrast_nonnegative("x", [float("nan")])


def test_map_fails_on_a_wrong_value_or_wrong_probabilities(rng):
    probs = rng.random((60, 4))
    truth = np.where(rng.random((60, 4)) < 0.3, 1, -1)
    truth[0] = 1
    reported = metrics.report(probs, truth).map
    assert oracles.check_map("x", reported, probs, truth) == []
    assert oracles.check_map("x", reported + 1e-9, probs, truth)
    assert oracles.check_map("x", reported, probs[::-1], truth)


def test_learned_fails_when_training_did_not_help():
    assert oracles.check_learned("x", 0.8, 0.5) == []
    assert oracles.check_learned("x", 0.5, 0.5)
    assert oracles.check_learned("x", float("nan"), 0.5)


def test_same_bytes_fails_on_one_changed_character():
    assert oracles.check_same_bytes("x", "w0 0.5\n", "w0 0.5\n") == []
    assert oracles.check_same_bytes("x", "w0 0.5\n", "w0 0.6\n")


def test_round_trip_fails_on_one_ulp_or_a_dtype_change(rng):
    a = rng.normal(size=(5, 3))
    assert oracles.check_arrays_exact("x", [("a", a, a.copy())]) == []
    nudged = a.copy()
    nudged[2, 1] = np.nextafter(nudged[2, 1], np.inf)
    assert oracles.check_arrays_exact("x", [("a", a, nudged)])
    labels = np.ones((3, 2), dtype=np.int8)
    assert oracles.check_arrays_exact("x", [("l", labels, labels.astype(np.int64))])


def test_dataset_round_trip_is_exact_and_a_corrupted_file_is_caught(tmp_path):
    ds = workloads.make_dataset(30, 3)
    path = tmp_path / "d.txt"
    data.save_dataset(ds, path)
    back = data.load_dataset(path)
    pairs = [("features", ds.features, back.features), ("truth", ds.truth, back.truth)]
    assert oracles.check_arrays_exact("x", pairs) == []
    text = path.read_text().splitlines()
    fields = text[1].split()
    fields[0] = repr(float(fields[0]) * (1 + 1e-15))
    text[1] = " ".join(fields)
    path.write_text("\n".join(text) + "\n")
    bad = data.load_dataset(path)
    assert oracles.check_arrays_exact("x", [("features", ds.features, bad.features)])


def test_loss_value_fails_on_a_shifted_loss(rng):
    z = rng.normal(size=(12, 5))
    labels = np.where(rng.random((12, 4)) < 0.4, 1, -1)
    labels[:, 0] = 1
    value, _ = contrast.contrastive_loss_and_gradient(z, labels)
    assert oracles.check_loss_value("x", value, z, labels) == []
    assert oracles.check_loss_value("x", value + 1e-3, z, labels)
    assert oracles.check_loss_value("x", value, z[::-1], labels)


def test_svd_count_matches_a_traced_call_and_fails_when_off_by_one(rng):
    z = rng.normal(size=(6, 4))
    labels = -np.ones((6, 5), dtype=np.int8)
    labels[:, 0] = 1
    labels[2, 3] = 1  # classes 0 and 3 have positives: 2 class SVDs + 1 batch SVD
    with tracing.Tracer() as tracer:
        contrast.contrastive_loss_and_gradient(z, labels)
    expected = oracles.expected_svd_calls(labels)
    assert expected == 3
    assert oracles.check_svd_count("x", tracer.calls["linalg.svd"], expected) == []
    assert oracles.check_svd_count("x", expected + 1, expected)


def test_tracer_patches_importing_modules_and_restores_them():
    original = linalg.as_matrix
    assert data.as_matrix is original
    with tracing.Tracer() as tracer:
        assert data.as_matrix is not original and linalg.as_matrix is data.as_matrix
        data.Dataset(np.zeros((2, 3)), np.ones((2, 2)), np.ones((2, 2)))
    assert data.as_matrix is original and linalg.as_matrix is original
    assert tracer.calls["linalg.as_matrix"] == 1
    assert tracer.calls["contrast.as_label_matrix"] == 2


def test_tracer_self_time_excludes_children(rng):
    z = rng.normal(size=(20, 6))
    labels = np.where(rng.random((20, 3)) < 0.5, 1, -1)
    labels[:, 0] = 1
    with tracing.Tracer() as tracer:
        contrast.contrastive_loss_and_gradient(z, labels)
    outer = "contrast.loss_grad"
    index = next(i for i, span in enumerate(tracer.spans) if span[0] == outer)
    children = sum(end - start for _, parent, start, end in tracer.spans if parent == index)
    assert tracer.calls[outer] == 1
    assert tracer.self_s[outer] == pytest.approx(tracer.total_s[outer] - children, abs=1e-6)
    assert 0 < tracer.self_s[outer] < tracer.total_s[outer]


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (("gone.fn", "nucontrast.linalg", "no_such"),))
    with tracing.Tracer() as tracer:
        linalg.svd(np.eye(2))
    assert tracer.absent == ["gone.fn"]
    assert tracer.calls["linalg.svd"] == 1


@pytest.fixture
def small_training(tmp_path):
    config = lambda seed: trainer.TrainConfig(
        lr=5e-3, epochs=6, batch_size=8, seed=seed, layer_dims=(workloads.N_FEATURES, 16, 8)
    )
    workload = workloads.TrainingWorkload("small", 160, 2, config, "mixed", contrast_identity=True)
    workload.setup(5, str(tmp_path))
    units = [workload.run_unit(job) for job in (0, 1, 0, 1)]
    return workload, units


def test_training_workload_checks_pass_then_catch_a_corrupted_repeat(small_training):
    workload, units = small_training
    assert workload.check(units) == []
    bad = workloads.Unit(units[2].job, units[2].rows, units[2].map, ("0" * 64, units[2].digests[1]))
    assert any("checkpoint" in f for f in workload.check(units[:2] + [bad] + units[3:]))


def test_training_workload_catches_a_corrupted_history(small_training):
    workload, units = small_training
    trained, history = workload.first[1]
    history.epochs[-1].contrast_loss = -0.5
    history.epochs[-1].val_report = metrics.MetricsReport(
        0.01, 0, 0, 0, 0, 0, 0, np.zeros(workloads.N_CLASSES)
    )
    failures = workload.check(units)
    assert any("contrast_loss" in f for f in failures)
    assert any("oracle" in f for f in failures)
    assert any("untrained" in f for f in failures)


def test_run_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("results", ".tmp-*", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-io", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
