"""Embedding network and classifier head with manual backpropagation.

The embedding network is a small MLP with tanh hidden layers. The output
layer is configurable: "linear" leaves the embedding free to occupy all of
R^D; "softplus" maps it into the nonnegative orthant, which keeps rank
compaction of same-class rows on a single ray instead of a sign-mixed line
through the origin (a linear classifier can only exploit the former). Both
choices are smooth, so finite-difference gradient checks stay clean. The
classifier is a single linear layer producing one logit per class. Gradients
are exact reverse-mode; the structure loss feeds its gradient in at the
embedding output, the classification loss at the logits.

Every parameter lives in one contiguous float64 vector, ``ModelParams.flat``,
in checkpoint order (w0 b0 w1 b1 ... wc bc); the per-layer arrays are views
into it. ``backward`` writes the gradient into a second vector of that
layout, and ``AdamState`` holds Adam's two moments and two scratch vectors
of it, so an Adam step or an EMA update is a handful of whole-vector
operations instead of a loop over arrays.

Each public function of the training step (``embed_forward``, ``classify``,
``backward``, ``adam_step``, ``ema_update``) checks its arguments and then
calls a private kernel that takes the same arguments, does the same
arithmetic and checks nothing; ``trainer.train`` calls the kernels on arrays
it made itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import atomic_write
from .linalg import DimensionError
from .seeding import check_count, check_real, is_integer


OUTPUT_ACTIVATIONS = ("linear", "softplus", "softplus_unit")

# Adam's moment decays and denominator guard (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def check_activation(output_activation) -> None:
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(
            f"output_activation must be one of {OUTPUT_ACTIVATIONS}, got {output_activation!r}"
        )


def check_decay(decay) -> None:
    check_real("EMA decay", decay)
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"EMA decay must be in [0, 1), got {decay!r}")


def check_layer_dims(layer_dims) -> None:
    """Require (F, H1, ..., D): at least an input and an output width, each an integer >= 1."""
    message = f"layer_dims must have >= 2 entries, each >= 1, got {layer_dims!r}"
    not_integers = [d for d in layer_dims if not is_integer(d)]
    if not_integers:
        raise ValueError(f"{message}: {not_integers[0]!r} is not an integer")
    if len(layer_dims) < 2 or min(layer_dims) < 1:
        raise ValueError(message)


@dataclass
class ModelParams:
    """Embedding-layer weights/biases plus the classifier weight/bias.

    ``layer_dims`` is (F, H1, ..., D): feature width, hidden widths,
    embedding width. ``weights[i]`` maps layer_dims[i] -> layer_dims[i+1].

    Construction checks ``layer_dims`` and ``output_activation`` with their
    rules, the class count (the classifier bias's length) with the count
    rule, and every array's shape against them. It then copies the arrays
    into ``flat``, one float64 vector in ``arrays()`` order, and rebinds
    every array field to a view of it. Writes through either side show on
    the other. ``grad`` is a vector of the same layout that ``backward``
    overwrites. Both sets of views are built here, once, so the training
    step builds none.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    classifier_weight: np.ndarray  # D x C
    classifier_bias: np.ndarray    # C
    output_activation: str = "linear"
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_layer_dims(self.layer_dims)
        check_activation(self.output_activation)
        n_layers = len(self.layer_dims) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise DimensionError(
                f"layer_dims {self.layer_dims!r} needs {n_layers} weights and "
                f"biases, got {len(self.weights)} and {len(self.biases)}"
            )
        n_classes = np.size(self.classifier_bias)
        check_count("n_classes", n_classes, 1)
        for (name, shape), a in zip(_layout(self.layer_dims, n_classes), self.arrays()):
            if np.shape(a) != shape:
                raise DimensionError(f"{name} must have shape {shape}, got {np.shape(a)}")
        self.flat = np.concatenate(
            [np.asarray(a, dtype=np.float64).ravel() for a in self.arrays()]
        )
        views = self.views(self.flat)
        n_layers = len(self.weights)
        self.weights = views[0 : 2 * n_layers : 2]
        self.biases = views[1 : 2 * n_layers : 2]
        self.classifier_weight, self.classifier_bias = views[-2:]
        self.grad = np.zeros_like(self.flat)
        self._grad_views = self.views(self.grad)

    @property
    def n_classes(self) -> int:
        return self.classifier_weight.shape[1]

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in the fixed serialization order."""
        out = [a for pair in zip(self.weights, self.biases) for a in pair]
        return out + [self.classifier_weight, self.classifier_bias]

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of ``vec``, a vector with the layout of ``flat``, shaped and
        ordered like ``arrays()``; e.g. the per-array gradients of ``backward``."""
        out = []
        start = 0
        for a in self.arrays():
            size = int(np.prod(np.shape(a)))
            out.append(vec[start : start + size].reshape(np.shape(a)))
            start += size
        return out

    def copy(self) -> "ModelParams":
        """A deep copy: its ``flat`` shares no memory with this one's."""
        return ModelParams(
            self.layer_dims,
            self.weights,
            self.biases,
            self.classifier_weight,
            self.classifier_bias,
            self.output_activation,
        )


@dataclass
class ForwardCache:
    """Activations retained for the backward pass."""

    x: np.ndarray
    activations: list[np.ndarray]  # output of each embedding layer; last is z
    prenorm: np.ndarray | None = None  # pre-normalization output (softplus_unit)


@dataclass
class AdamState:
    """First and second moments, vectors with the layout of ``ModelParams.flat``,
    and two scratch vectors of that layout, allocated here, that every Adam
    step overwrites."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty(np.shape(self.m)), np.empty(np.shape(self.m)))


def init_params(
    layer_dims,
    n_classes: int,
    rng: np.random.Generator,
    output_activation: str = "linear",
) -> ModelParams:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) embedding weights, zero biases.

    The classifier head starts at exactly zero so an untrained model predicts
    probability 0.5 everywhere: label correction then stays inert until the
    head has learned genuine confidence, instead of flipping labels off the
    random spread of an arbitrary initial logit.
    """
    check_layer_dims(layer_dims)
    check_count("n_classes", n_classes, 1)
    dims = tuple(int(d) for d in layer_dims)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    cw = np.zeros((dims[-1], n_classes))
    return ModelParams(dims, weights, biases, cw, np.zeros(n_classes), output_activation)


def check_input(params: ModelParams, x: np.ndarray) -> None:
    """Require an N x F array, F the network's input width."""
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise DimensionError(
            f"input must be N x {params.layer_dims[0]}, got {x.shape}"
        )


def embed_forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the embedding network; returns (z, cache) with z of shape N x D."""
    x = np.asarray(x, dtype=np.float64)
    check_input(params, x)
    cache = _embed_forward(params, x)
    return cache.activations[-1], cache


def _embed_forward(params: ModelParams, x: np.ndarray) -> ForwardCache:
    """The cache of ``embed_forward`` for a float64 ``x`` of the input width;
    no check of its own.

    Each activation is written in place over its layer's pre-activation.
    """
    acts: list[np.ndarray] = []
    a = x
    prenorm = None
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w
        a += b
        if i != last:
            np.tanh(a, out=a)
        elif params.output_activation != "linear":
            np.logaddexp(0.0, a, out=a)
            if params.output_activation == "softplus_unit":
                prenorm = a
                a = a / np.linalg.norm(a, axis=1, keepdims=True)
        acts.append(a)
    return ForwardCache(x, acts, prenorm)


def classify(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Logits ``z @ W + b``; apply a sigmoid to get per-class probabilities."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.classifier_weight.shape[0]:
        raise DimensionError(
            f"embedding must be N x {params.classifier_weight.shape[0]}, got {z.shape}"
        )
    return _classify(params, z)


def _classify(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """``classify`` of a float64 ``z`` of the embedding width; no check of its own."""
    logits = z @ params.classifier_weight
    logits += params.classifier_bias
    return logits


def backward(
    params: ModelParams,
    cache: ForwardCache,
    grad_logits: np.ndarray,
    grad_z: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of every parameter, as a vector with the layout of
    ``params.flat`` (``params.views`` splits it per array).

    ``grad_logits`` is the loss gradient at the logits (flows through the
    classifier into the embedding network); ``grad_z`` is an extra gradient
    injected directly at the embedding output (the structure-loss path, which
    never touches the classifier).

    The vector returned is ``params.grad``, which the next call on the same
    ``params`` overwrites: copy it to keep it.
    """
    z = cache.activations[-1]
    if grad_logits.shape != (z.shape[0], params.n_classes):
        raise DimensionError("grad_logits shape mismatch")
    if grad_z is not None and grad_z.shape != z.shape:
        raise DimensionError("grad_z shape mismatch")
    return _backward(params, cache, grad_logits, grad_z)


def _backward(
    params: ModelParams,
    cache: ForwardCache,
    grad_logits: np.ndarray,
    grad_z: np.ndarray | None,
) -> np.ndarray:
    """``backward`` of gradients whose shapes match ``cache``; no check of
    its own."""
    acts, prenorm = cache.activations, cache.prenorm
    out = params._grad_views
    np.matmul(acts[-1].T, grad_logits, out=out[-2])
    grad_logits.sum(axis=0, out=out[-1])

    g = grad_logits @ params.classifier_weight.T
    if grad_z is not None:
        g += grad_z

    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        a = acts[i]
        if i != last:  # undo the tanh: times 1 - a**2
            d = np.square(a)
            np.subtract(1.0, d, out=d)
            g *= d
        elif params.output_activation == "softplus_unit":
            # undo the row normalization z = a / |a|, then the softplus
            norms = np.linalg.norm(prenorm, axis=1, keepdims=True)
            g = (g - a * (a * g).sum(axis=1, keepdims=True)) / norms
            g = g * -np.expm1(-prenorm)
        elif params.output_activation == "softplus":
            # softplus'(h) recovered from the activation: sigmoid(h) = 1 - exp(-a)
            d = np.negative(a)
            np.expm1(d, out=d)
            np.negative(d, out=d)
            g *= d
        prev = cache.x if i == 0 else acts[i - 1]
        np.matmul(prev.T, g, out=out[2 * i])
        g.sum(axis=0, out=out[2 * i + 1])
        if i > 0:
            g = g @ params.weights[i].T
    return params.grad


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: ModelParams, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update with the ``ADAM_*`` constants, in place
    on ``params`` and ``state``.

    ``grads`` is a vector with the layout of ``params.flat``, as ``backward``
    returns it.
    """
    if np.shape(grads) != params.flat.shape:
        raise DimensionError(
            f"grads must be a vector of {params.flat.size} values, got shape {np.shape(grads)}"
        )
    _adam_step(params, grads, state, lr)


def _adam_step(params: ModelParams, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """``adam_step`` of ``grads`` with the layout of ``params.flat``; no
    check of its own."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    m, v = state.m, state.v
    a, b = state.scratch
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
    a *= grads
    v += a
    # flat -= lr * (m / correction1) / (sqrt(v / correction2) + eps)
    np.divide(v, correction2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, correction1, out=b)
    b *= lr
    b /= a
    params.flat -= b


def ema_update(ema_params: ModelParams, params: ModelParams, decay: float) -> None:
    """ema <- decay * ema + (1 - decay) * params, elementwise in place."""
    check_decay(decay)
    if ema_params.flat.shape != params.flat.shape:
        raise DimensionError("ema and params have different layouts")
    _ema_update(ema_params, params, decay)


def _ema_update(ema_params: ModelParams, params: ModelParams, decay: float) -> None:
    """``ema_update`` of a checked ``decay`` and equal layouts; no check of its own."""
    step = params.flat * (1.0 - decay)
    ema_params.flat *= decay
    ema_params.flat += step


def _layout(layer_dims, n_classes: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter array, in checkpoint order."""
    out = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        out += [(f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
    return out + [("wc", (layer_dims[-1], n_classes)), ("bc", (n_classes,))]


def _format_arrays(params: ModelParams) -> list[str]:
    layout = _layout(params.layer_dims, params.n_classes)
    return [
        name + " " + " ".join(map(repr, a.ravel().tolist()))
        for (name, _), a in zip(layout, params.arrays())
    ]


def checkpoint_text(params: ModelParams, ema_params: ModelParams | None = None) -> str:
    """Render a checkpoint: header with the architecture, then one named line
    per parameter array. Floats use shortest round-trip decimals, so parsing
    reproduces every parameter bit-exactly."""
    lines = [
        "layer_dims " + " ".join(str(d) for d in params.layer_dims),
        f"classes {params.n_classes}",
        f"activation {params.output_activation}",
    ]
    lines += _format_arrays(params)
    if ema_params is not None:
        lines += ["ema"] + _format_arrays(ema_params)
    return "\n".join(lines) + "\n"


def save_checkpoint(path, params: ModelParams, ema_params: ModelParams | None = None) -> None:
    with atomic_write(path) as fh:
        fh.write(checkpoint_text(params, ema_params))


def _parse_array(line: str, expected_name: str, shape: tuple[int, ...]) -> np.ndarray:
    fields = line.split()
    if not fields or fields[0] != expected_name:
        raise ValueError(f"checkpoint: expected array {expected_name!r}")
    n = int(np.prod(shape))
    if len(fields) - 1 != n:
        raise ValueError(
            f"checkpoint: array {expected_name!r} needs {n} values, got {len(fields) - 1}"
        )
    # numpy's ValueError for a bad token has float()'s text, naming the token
    values = np.array(fields[1:], dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"checkpoint: array {expected_name!r} has non-finite values")
    return values.reshape(shape)


def load_checkpoint(path) -> tuple[ModelParams, ModelParams | None]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    try:
        head = lines[0].split()
        if head[0] != "layer_dims" or len(head) < 3:
            raise ValueError("checkpoint: bad layer_dims header")
        dims = tuple(int(d) for d in head[1:])
        check_layer_dims(dims)
        chead = lines[1].split()
        if chead[0] != "classes" or len(chead) != 2:
            raise ValueError("checkpoint: bad classes header")
        n_classes = int(chead[1])
        check_count("n_classes", n_classes, 1)
        ahead = lines[2].split()
        if ahead[0] != "activation" or len(ahead) != 2 or ahead[1] not in OUTPUT_ACTIVATIONS:
            raise ValueError("checkpoint: bad activation header")
        activation = ahead[1]
    except (IndexError, ValueError) as exc:
        raise ValueError(f"checkpoint: malformed header ({exc})") from None

    layout = _layout(dims, n_classes)

    def read_params(start: int) -> tuple[ModelParams, int]:
        if start + len(layout) > len(lines):
            raise ValueError("checkpoint: truncated parameter section")
        arrays = [_parse_array(line, *spec) for line, spec in zip(lines[start:], layout)]
        weights, biases = arrays[0:-2:2], arrays[1:-2:2]
        params = ModelParams(dims, weights, biases, arrays[-2], arrays[-1], activation)
        return params, start + len(layout)

    params, pos = read_params(3)
    ema = None
    if pos < len(lines) and lines[pos].strip() == "ema":
        ema, pos = read_params(pos + 1)
    if pos != len(lines):
        raise ValueError("checkpoint: unexpected trailing content")
    return params, ema
