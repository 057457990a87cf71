"""Embedding network, backprop, Adam, EMA, and checkpoint round trips."""

import numpy as np
import pytest

from nucontrast import contrast, losses, model
from nucontrast.linalg import DimensionError
from nucontrast.model import (
    AdamState,
    ModelParams,
    adam_step,
    backward,
    classify,
    ema_update,
    embed_forward,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from nucontrast.seeding import component_rng
from step_reference import reference_backward, reference_embed_forward


def random_params(seed, dims=(6, 8, 4), n_classes=3, activation="linear"):
    rng = component_rng(seed, "check")
    params = init_params(dims, n_classes, rng, activation)
    # move off the zero-classifier init so gradients flow through every path
    for a in params.arrays():
        a += 0.2 * rng.normal(size=a.shape)
    return params


class TestForward:
    def test_zero_params_linear_output(self):
        params = ModelParams(
            (3, 2),
            [np.zeros((3, 2))],
            [np.zeros(2)],
            np.zeros((2, 4)),
            np.zeros(4),
        )
        z, _ = embed_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(z, np.zeros((5, 2)))

    def test_identity_single_linear_layer(self):
        params = ModelParams(
            (3, 3), [np.eye(3)], [np.zeros(3)], np.zeros((3, 2)), np.zeros(2)
        )
        x = np.random.default_rng(1).normal(size=(4, 3))
        z, _ = embed_forward(params, x)
        assert np.array_equal(z, x)

    @pytest.mark.parametrize("activation", model.OUTPUT_ACTIVATIONS)
    def test_random_params_finite(self, activation):
        params = random_params(2, activation=activation)
        x = np.random.default_rng(2).normal(size=(7, 6))
        z, _ = embed_forward(params, x)
        assert z.shape == (7, 4)
        assert np.isfinite(z).all()

    def test_deterministic(self):
        params = random_params(3)
        x = np.random.default_rng(3).normal(size=(4, 6))
        z1, _ = embed_forward(params, x)
        z2, _ = embed_forward(params, x)
        assert np.array_equal(z1, z2)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            embed_forward(random_params(4), np.zeros((2, 5)))


class TestClassify:
    def test_zero_weights_gives_bias(self):
        params = ModelParams(
            (3, 2), [np.eye(3, 2)], [np.zeros(2)], np.zeros((2, 3)), np.array([1.0, -2.0, 0.5])
        )
        logits = classify(params, np.random.default_rng(5).normal(size=(4, 2)))
        assert np.array_equal(logits, np.tile([1.0, -2.0, 0.5], (4, 1)))

    def test_identity_embedding_reads_weight_rows(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 4))
        params = ModelParams((3, 3), [np.eye(3)], [np.zeros(3)], w, np.zeros(4))
        assert np.array_equal(classify(params, np.eye(3)), w)

    def test_matches_naive_product(self):
        rng = np.random.default_rng(7)
        params = random_params(7)
        z = rng.normal(size=(5, 4))
        logits = classify(params, z)
        expected = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    expected[i, j] += z[i, k] * params.classifier_weight[k, j]
                expected[i, j] += params.classifier_bias[j]
        assert np.abs(logits - expected).max() < 1e-12


class TestBackward:
    def test_zero_grads_give_zero(self):
        params = random_params(8)
        x = np.random.default_rng(8).normal(size=(4, 6))
        z, cache = embed_forward(params, x)
        grads = backward(params, cache, np.zeros((4, 3)), np.zeros_like(z))
        assert grads.shape == params.flat.shape
        assert np.abs(grads).max() == 0.0

    def test_single_linear_layer_outer_product(self):
        params = ModelParams(
            (3, 2), [np.zeros((3, 2))], [np.zeros(2)], np.zeros((2, 1)), np.zeros(1)
        )
        x = np.array([[1.0, 2.0, 3.0]])
        a = np.array([[0.5, -1.5]])
        _, cache = embed_forward(params, x)
        grads = params.views(backward(params, cache, np.zeros((1, 1)), a))
        assert np.allclose(grads[0], x.T @ a)  # dW = x outer a
        assert np.allclose(grads[1], a[0])

    @pytest.mark.parametrize("activation", model.OUTPUT_ACTIVATIONS)
    def test_full_model_finite_differences(self, activation):
        rng = np.random.default_rng(9)
        params = random_params(9, activation=activation)
        x = rng.normal(size=(4, 6))
        labels = np.where(rng.random((4, 3)) < 0.5, 1, -1)
        for i in range(4):
            if not (labels[i] == 1).any():
                labels[i, 0] = 1

        def objective(p):
            z, _ = embed_forward(p, x)
            logits = classify(p, z)
            return (
                losses.bce_loss(logits, labels).value
                + contrast.contrastive_loss_and_gradient(z, labels)[0]
            )

        z, cache = embed_forward(params, x)
        logits = classify(params, z)
        grad_logits = losses.bce_loss(logits, labels).grad_logits
        grad_z = contrast.contrastive_loss_and_gradient(z, labels)[1]
        grads = backward(params, cache, grad_logits, grad_z)
        step = 1e-5
        for arr, g in zip(params.arrays(), params.views(grads)):
            flat = arr.ravel()
            fd = np.zeros_like(flat)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                hi = objective(params)
                flat[idx] = orig - step
                lo = objective(params)
                flat[idx] = orig
                fd[idx] = (hi - lo) / (2 * step)
            assert np.abs(g.ravel() - fd).max() / max(np.abs(fd).max(), 1e-6) < 1e-4

    def test_grad_z_skipped_when_none(self):
        params = random_params(10)
        x = np.random.default_rng(10).normal(size=(4, 6))
        z, cache = embed_forward(params, x)
        gl = np.random.default_rng(11).normal(size=(4, 3))
        with_zero = backward(params, cache, gl, np.zeros_like(z)).copy()
        without = backward(params, cache, gl, None)
        assert np.allclose(with_zero, without)

    def test_writes_params_grad_in_place(self):
        params = random_params(23)
        x = np.random.default_rng(23).normal(size=(4, 6))
        z, cache = embed_forward(params, x)
        gl = np.random.default_rng(24).normal(size=(4, 3))
        first = backward(params, cache, gl, None)
        assert first is params.grad
        kept = first.copy()
        second = backward(params, cache, 2.0 * gl, None)
        assert second is first  # the next call overwrites the same buffer
        assert np.allclose(second, 2.0 * kept)


class TestAdam:
    def test_zero_grad_keeps_params(self):
        params = random_params(12)
        before = [a.copy() for a in params.arrays()]
        state = init_adam(params)
        adam_step(params, np.zeros_like(params.flat), state, lr=0.1)
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), before))
        assert state.step == 1

    def test_first_step_magnitude(self):
        # with constant gradient g, the bias-corrected first step is
        # lr * g / (|g| + eps) ~= lr * sign(g)
        params = ModelParams(
            (2, 2), [np.full((2, 2), 5.0)], [np.zeros(2)], np.zeros((2, 1)), np.zeros(1)
        )
        before = params.weights[0].copy()
        grads = np.zeros_like(params.flat)
        params.views(grads)[0][...] = 3.0
        adam_step(params, grads, init_adam(params), lr=1e-3)
        delta = before - params.weights[0]
        assert np.allclose(delta, 1e-3, rtol=1e-6)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = random_params(13)
            state = init_adam(params)
            rng = np.random.default_rng(14)
            for _ in range(5):
                adam_step(params, rng.normal(size=params.flat.shape), state, lr=1e-2)
            results.append([a.copy() for a in params.arrays()])
        assert all(np.array_equal(a, b) for a, b in zip(*results))


def reference_adam_step(arrays, grads, m_list, v_list, step, lr, beta1, beta2, eps):
    """The per-array Adam loop that the flat update replaced, kept as a reference."""
    correction1 = 1.0 - beta1**step
    correction2 = 1.0 - beta2**step
    for p, g, m, v in zip(arrays, grads, m_list, v_list):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)


def reference_ema_update(ema_arrays, arrays, decay):
    """The per-array EMA loop that the flat update replaced."""
    for e, p in zip(ema_arrays, arrays):
        e *= decay
        e += (1.0 - decay) * p


class TestFlatUpdatesBitExact:
    @pytest.mark.parametrize("dims, n_classes", [((6, 8, 4), 3), ((5, 9, 7, 3), 4)])
    @pytest.mark.parametrize("decay", [0.0, 0.9, 0.999])
    def test_matches_per_array_loops(self, dims, n_classes, decay):
        params = random_params(30, dims=dims, n_classes=n_classes)
        ema = random_params(31, dims=dims, n_classes=n_classes)
        state = init_adam(params)
        ref_p = [a.copy() for a in params.arrays()]
        ref_e = [a.copy() for a in ema.arrays()]
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        rng = np.random.default_rng(32)
        for step in range(1, 7):
            grads = rng.normal(size=params.flat.shape) * 10.0 ** rng.integers(-3, 2)
            adam_step(params, grads, state, 1e-2)
            ema_update(ema, params, decay)
            reference_adam_step(
                ref_p, [g.copy() for g in params.views(grads)], ref_m, ref_v,
                step, 1e-2, 0.9, 0.999, 1e-8,
            )
            reference_ema_update(ref_e, ref_p, decay)
            for got, want in [
                (params.arrays(), ref_p),
                (ema.arrays(), ref_e),
                (params.views(state.m), ref_m),
                (params.views(state.v), ref_v),
            ]:
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert state.step == 6

    @pytest.mark.parametrize("activation", model.OUTPUT_ACTIVATIONS)
    @pytest.mark.parametrize("dims", [(6, 8, 4), (5, 9, 7, 3), (4, 2)])
    def test_forward_and_backward_match_reference(self, activation, dims):
        params = random_params(35, dims=dims, n_classes=3, activation=activation)
        rng = np.random.default_rng(36)
        for n in (1, 2, 64):
            x = rng.normal(size=(n, dims[0]))
            z, cache = embed_forward(params, x)
            ref_z, ref_cache = reference_embed_forward(params, x)
            assert z.tobytes() == ref_z.tobytes()
            assert [a.tobytes() for a in cache.activations] == [
                a.tobytes() for a in ref_cache.activations
            ]
            grad_logits = rng.normal(size=(n, 3)) / (n * 3)
            grad_z = rng.normal(size=z.shape)
            for extra in (None, grad_z):
                grads = backward(params, cache, grad_logits, extra)
                want = reference_backward(params, ref_cache, grad_logits, extra)
                assert [a.tobytes() for a in params.views(grads)] == [
                    a.tobytes() for a in want
                ]

    def test_rejects_per_array_gradients(self):
        params = random_params(33)
        with pytest.raises(DimensionError):
            adam_step(params, np.zeros(3), init_adam(params), lr=1e-3)


class TestLayout:
    def check_layout(self, params):
        flat = params.flat
        assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
        assert flat.size == sum(a.size for a in params.arrays())
        for a in params.arrays():
            assert a.base is flat
        params.flat[0] = 123.5
        assert params.weights[0][0, 0] == 123.5
        assert params.grad.shape == flat.shape
        assert not np.shares_memory(params.grad, flat)

    def test_init_params(self):
        self.check_layout(init_params((6, 8, 4), 3, component_rng(0, "init")))

    def test_direct_construction_copies_inputs(self):
        w = np.ones((3, 2))
        params = ModelParams((3, 2), [w], [np.zeros(2)], np.zeros((2, 4)), np.zeros(4))
        self.check_layout(params)
        assert w[0, 0] == 1.0

    def test_copy_shares_no_memory(self):
        params = random_params(34)
        dup = params.copy()
        assert dup.flat.tobytes() == params.flat.tobytes()
        self.check_layout(dup)
        assert not np.shares_memory(dup.flat, params.flat)
        assert dup.flat[0] != params.flat[0]

    def test_load_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, random_params(35), random_params(36))
        loaded, ema = load_checkpoint(path)
        self.check_layout(loaded)
        self.check_layout(ema)

    @pytest.mark.parametrize(
        "dims, weights, activation, error, message",
        [
            # each would save a checkpoint that load_checkpoint refuses
            ((3, 2), [np.ones((3, 2))], "relu", ValueError, "got 'relu'"),
            ((3, 5), [np.ones((3, 2))], "linear", DimensionError,
             "w0 must have shape (3, 5), got (3, 2)"),
            ((3, 2), [np.ones((3, 2)), np.ones((2, 2))], "linear", DimensionError,
             "layer_dims (3, 2) needs 1 weights and biases, got 2 and 1"),
        ],
        ids=["activation", "weight-shape", "layer-count"],
    )
    def test_construction_rejects_what_a_checkpoint_cannot_hold(
        self, dims, weights, activation, error, message
    ):
        with pytest.raises(error) as caught:
            ModelParams(dims, weights, [np.zeros(2)], np.ones((2, 4)), np.zeros(4), activation)
        assert message in str(caught.value)


class TestEma:
    def test_decay_zero_copies(self):
        params = random_params(15)
        ema = random_params(16)
        ema_update(ema, params, 0.0)
        assert all(np.array_equal(e, p) for e, p in zip(ema.arrays(), params.arrays()))

    def test_two_steps_from_zero(self):
        params = ModelParams(
            (2, 2), [np.full((2, 2), 1.0)], [np.ones(2)], np.ones((2, 1)), np.ones(1)
        )
        ema = ModelParams(
            (2, 2), [np.zeros((2, 2))], [np.zeros(2)], np.zeros((2, 1)), np.zeros(1)
        )
        ema_update(ema, params, 0.9)
        ema_update(ema, params, 0.9)
        assert np.allclose(ema.weights[0], 0.19)  # 0.1 + 0.9 * 0.1

    def test_monotone_convergence(self):
        params = random_params(17)
        ema = ModelParams(
            params.layer_dims,
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
            np.zeros_like(params.classifier_weight),
            np.zeros_like(params.classifier_bias),
        )
        prev_gap = np.inf
        for _ in range(5):
            ema_update(ema, params, 0.9)
            gap = max(
                np.abs(e - p).max() for e, p in zip(ema.arrays(), params.arrays())
            )
            assert gap < prev_gap
            prev_gap = gap

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            ema_update(random_params(18), random_params(18), 1.0)


class TestCheckpoint:
    @pytest.mark.parametrize("activation", model.OUTPUT_ACTIVATIONS)
    def test_round_trip_bit_exact(self, tmp_path, activation):
        params = random_params(19, dims=(5, 7, 3), n_classes=4, activation=activation)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        loaded, ema = load_checkpoint(path)
        assert ema is None
        assert loaded.layer_dims == params.layer_dims
        assert loaded.output_activation == activation
        for a, b in zip(loaded.arrays(), params.arrays()):
            assert np.array_equal(a, b)

    def test_round_trip_with_ema(self, tmp_path):
        params = random_params(20)
        ema = random_params(21)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params, ema)
        loaded, loaded_ema = load_checkpoint(path)
        for a, b in zip(loaded_ema.arrays(), ema.arrays()):
            assert np.array_equal(a, b)

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("layered nonsense\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # every embedding row would be 0
            (
                "layer_dims 2 0 3\nclasses 1\nactivation linear\n"
                "w0\nb0\nw1\nb1 0.0 0.0 0.0\nwc 0.0 0.0 0.0\nbc 0.0\n",
                "layer_dims must have >= 2 entries, each >= 1, got (2, 0, 3)",
            ),
            (
                "layer_dims 2 3\nclasses 0\nactivation linear\n"
                "w0 0.0 0.0 0.0 0.0 0.0 0.0\nb0 0.0 0.0 0.0\nwc\nbc\n",
                "n_classes must be >= 1, got 0",
            ),
        ],
        ids=["zero-width", "no-classes"],
    )
    def test_degenerate_header(self, tmp_path, text, message):
        path = tmp_path / "ckpt.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"checkpoint: malformed header ({message})"

    def test_wrong_value_count(self, tmp_path):
        params = random_params(22)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        lines = path.read_text().splitlines()
        lines[3] = "w0 1.0 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_init_params_validation(self):
        rng = component_rng(0, "init")
        with pytest.raises(ValueError):
            init_params((4,), 2, rng)
        with pytest.raises(ValueError):
            init_params((4, 2), 2, rng, "relu")

    @pytest.mark.parametrize(
        "dims, n_classes, message",
        [
            ((4,), 2, "layer_dims must have >= 2 entries, each >= 1, got (4,)"),
            ((8, 0, 4), 2, "layer_dims must have >= 2 entries, each >= 1, got (8, 0, 4)"),
            ((4, 2), 0, "n_classes must be >= 1, got 0"),
            (
                (8, 4.7, 4),
                2,
                "layer_dims must have >= 2 entries, each >= 1, got (8, 4.7, 4): "
                "4.7 is not an integer",
            ),
        ],
    )
    def test_init_params_message_names_the_value(self, dims, n_classes, message):
        with pytest.raises(ValueError) as caught:
            init_params(dims, n_classes, component_rng(0, "init"))
        assert str(caught.value) == message

    def test_classifier_head_starts_at_zero(self):
        params = init_params((4, 3), 2, component_rng(1, "init"))
        assert np.abs(params.classifier_weight).max() == 0.0
        assert np.abs(params.classifier_bias).max() == 0.0
