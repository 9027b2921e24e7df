"""From-scratch multi-layer perceptron shared by the disaster detector and the
spectrum scorer: sigmoid hidden layers, sigmoid or identity output, full-batch
backpropagation gradient descent, and z-score feature standardization.

The output activation sets the loss: a sigmoid output trains on cross-entropy,
an identity output on half squared error. For both pairs the gradient of the
loss with respect to the output layer's pre-activation is `out - y`.

Passes run on stacks: several batches through one model (`Mlp.predict` on a
3-D input), or several models trained in lockstep (`train` on a list). numpy's
matmul makes one BLAS call per 2-D slice of a stack and every other operation
is elementwise or a per-slice reduce, so each slice gets the floats it gets
alone. Concatenating the rows of several batches into one would not: BLAS
sums a taller matrix's products in another order for some rows, and the
last bit of their outputs changes."""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

INIT_HALF_WIDTH = 0.5


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe for large |z|: 0.5 * (1.0 + tanh(0.5 * z)),
    # the same operations in the same order, without temporaries
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


@dataclass
class Mlp:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feat_mean: np.ndarray
    feat_std: np.ndarray
    output_activation: str = "sigmoid"  # or "identity"

    @classmethod
    def init(cls, layer_sizes: list[int], rng: np.random.Generator,
             output_activation: str = "sigmoid") -> "Mlp":
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ValueError("layer_sizes needs >= 2 positive entries")
        if output_activation not in ("sigmoid", "identity"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        weights = []
        biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, (n_in, n_out)))
            biases.append(rng.uniform(-INIT_HALF_WIDTH, INIT_HALF_WIDTH, n_out))
        return cls(weights=weights, biases=biases,
                   feat_mean=np.zeros(layer_sizes[0]), feat_std=np.ones(layer_sizes[0]),
                   output_activation=output_activation)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        z = x - self.feat_mean
        z /= self.feat_std
        return z

    def _forward_acts(self, x, first: Optional[np.ndarray] = None) -> list[np.ndarray]:
        """Activations per layer of standardized input x (rows = samples): one
        batch, or a stack of batches along leading axes. In a lockstep stack
        (`_Lockstep`) x is the list of each model's batch, the first layer's
        weights are the list of each model's matrix, `first` is the
        (models x rows x units) array each model's first-layer product is
        written into, and every later activation is such a stack too."""
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i == 0 and first is not None:
                for xk, wk, out in zip(x, w, first):
                    np.matmul(xk, wk, out=out)
                z = first
            else:
                z = acts[-1] @ w
            z += b
            if i == last and self.output_activation == "identity":
                acts.append(z)
            else:
                acts.append(_sigmoid_in_place(z))
        return acts

    def predict(self, x) -> np.ndarray:
        """Outputs for raw feature rows: a batch (rows x features) or a stack
        of batches (... x rows x features), each slice as if predicted alone.
        No finiteness check: on each spectrum selection it would add about
        2.7 us to a 16 us call (one SU's 5 rows of 8 features) or a 19 us
        call (five SUs'); 2-vCPU Xeon, Python 3.11, numpy 2.4."""
        x = np.asarray(x, dtype=float)
        if x.ndim < 2 or x.shape[-1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected rows of {self.weights[0].shape[0]} features, got shape {x.shape}")
        return self._forward_acts(self._standardize(x))[-1]


# -- lockstep stacks ------------------------------------------------------------

class _Lockstep:
    """Models that share the row count, every layer size past the input and
    the output activation, trained as one stack.

    `stack` is the Mlp of the stack: its first layer's weights are the list
    of each model's matrix (input widths differ, so the first layer's two
    products run per model); every later weight and every bias carries a
    leading model axis, as does every activation past the input. All
    parameters, each model's `weights` and `biases` among them, are views
    into one flat array and their gradients views into another: a descent
    step is two numpy calls, and it updates the models themselves.

    `first` and `below`, the first layer's activations and delta, are
    allocated once: as fresh arrays of a few hundred kB they would be new
    pages from the OS every epoch. A hidden first layer of 4 or more units is
    stored rows x models x units: its bias-gradient reduce over rows then
    runs (models * units)-wide inner loops, in the sequential row order of
    one model's (rows x units) reduce. Otherwise each model's rows stay
    contiguous, as a lone model's are: the loss and a one-unit bias gradient
    sum each model's rows pairwise, and OpenBLAS's gemv sums a 1-3-row matrix
    in another order when its row stride equals its width."""

    def __init__(self, models: list[Mlp], rows: int):
        k = len(models)
        shapes = ([m.weights[0].shape for m in models]
                  + [(k, *w.shape) for w in models[0].weights[1:]]
                  + [(k, 1, len(b)) for b in models[0].biases])
        self.params = np.empty(sum(math.prod(shape) for shape in shapes))
        self.grads = np.empty_like(self.params)
        params, grads = _views(self.params, shapes), _views(self.grads, shapes)
        layers = len(models[0].weights)
        self.stack = Mlp(weights=[params[:k]] + params[k:k + layers - 1],
                         biases=params[k + layers - 1:], feat_mean=None, feat_std=None,
                         output_activation=models[0].output_activation)
        self.grad_w = [grads[:k]] + grads[k:k + layers - 1]
        self.grad_b = grads[k + layers - 1:]
        for j, model in enumerate(models):
            weights = [params[j]] + [w[j] for w in self.stack.weights[1:]]
            biases = [b[j, 0] for b in self.stack.biases]
            for view, array in zip(weights + biases, model.weights + model.biases):
                view[...] = array
            model.weights, model.biases = weights, biases
        units = len(models[0].biases[0])
        if layers > 1 and units >= 4:
            shape, axes = (rows, k, units), (1, 0, 2)
        else:
            shape, axes = (k, rows, units), (0, 1, 2)
        self.first = np.empty(shape).transpose(axes)
        self.below = np.empty(shape).transpose(axes)


def _views(flat: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Consecutive C-ordered views of `flat` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


def _batch_loss(model: Mlp, out: np.ndarray, y: np.ndarray):
    """Mean per-sample loss of each batch of a stack (a scalar for one batch):
    cross-entropy for a sigmoid output,
    -(y * log(out + eps) + (1 - y) * log(1 - out + eps)), and half squared
    error for an identity output, 0.5 * sum((out - y) ** 2); the terms are
    built in place in the order these expressions evaluate them."""
    if model.output_activation == "sigmoid":
        eps = 1e-12
        pos = out + eps
        np.log(pos, out=pos)
        pos *= y
        neg = 1.0 - out
        neg += eps
        np.log(neg, out=neg)
        neg *= 1.0 - y
        pos += neg
        np.negative(pos, out=pos)
        per_sample = np.add.reduce(pos, axis=-1)
    else:
        err = out - y
        err *= err
        per_sample = np.add.reduce(err, axis=-1)
        per_sample *= 0.5
    # np.mean's sum and division, without its dispatch
    return np.add.reduce(per_sample, axis=-1) / per_sample.shape[-1]


def _backprop(lock: _Lockstep, acts: list, y: np.ndarray) -> None:
    """Gradients of `_batch_loss` for a lockstep stack, into `lock.grad_w` and
    `lock.grad_b`; each layer's delta is (delta @ W.T) * a * (1.0 - a), built
    in place in that order, and stored as that layer's activations are (the
    first layer's in `lock.below`). Each hidden activation is overwritten by
    1.0 - a once its delta no longer needs it."""
    delta = acts[-1] - y
    delta /= y.shape[1]
    for layer in range(len(acts) - 2, -1, -1):
        a = acts[layer]
        if layer:
            np.matmul(a.swapaxes(1, 2), delta, out=lock.grad_w[layer])
        else:
            for x, d, grad in zip(a, delta, lock.grad_w[0]):
                np.matmul(x.T, d, out=grad)
        np.add.reduce(delta, axis=1, keepdims=True, out=lock.grad_b[layer])
        if layer > 0:
            delta = np.matmul(delta, lock.stack.weights[layer].swapaxes(1, 2),
                              out=lock.below if layer == 1 else np.empty_like(a))
            delta *= a
            delta *= np.subtract(1.0, a, out=a)


def gradients(model: Mlp, x: np.ndarray, y: np.ndarray):
    """Backprop gradients of `_batch_loss` over the batch.

    x is raw (unstandardized) input, rows = samples.
    """
    xs = [model._standardize(np.asarray(x, dtype=float))]
    lock = _Lockstep([replace(model)], len(xs[0]))  # the model keeps its own arrays
    _backprop(lock, lock.stack._forward_acts(xs, lock.first), np.asarray(y, dtype=float)[None])
    return lock.grad_w[0] + [g[0] for g in lock.grad_w[1:]], [g[0, 0] for g in lock.grad_b]


def _check_training_set(model: Mlp, x: np.ndarray, y: np.ndarray) -> None:
    sizes = model.layer_sizes
    if x.ndim != 2 or x.shape[1] != sizes[0]:
        raise ValueError(f"expected input rows of {sizes[0]} features, got shape {x.shape}")
    if not len(x):
        raise ValueError("empty training dataset")
    if y.shape != (len(x), sizes[-1]):
        raise ValueError(f"targets must have shape {(len(x), sizes[-1])} (rows of x, "
                         f"output units), got {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training value")
    if model.output_activation == "sigmoid" and not np.all((y >= 0) & (y <= 1)):
        raise ValueError("cross-entropy targets of a sigmoid output must lie in [0, 1]")


def train(models, x, y, *, learning_rate: float, epochs: int,
          standardize: bool = True) -> list:
    """Full-batch gradient descent in place on raw inputs x and targets y (rows
    = samples); with `standardize`, each model's feature standardization is
    first fitted to its x. Every input is checked before any model changes;
    then the models' parameters are views of their stack's (`_Lockstep`), so
    a model that diverges holds those of the failing epoch's step.

    `models` is one Mlp, trained on x and y, or a list of Mlps trained in
    lockstep, x and y then being lists of their inputs and targets. Models in
    lockstep share the row count, every layer size past the input and the
    output activation, and each ends with the floats it gets trained alone.
    Returns the loss per epoch: a float for one model, and for a list the
    list of the models' losses."""
    if isinstance(models, Mlp):
        return [losses[0] for losses in train([models], [x], [y], learning_rate=learning_rate,
                                              epochs=epochs, standardize=standardize)]
    if not 0 < learning_rate < math.inf:  # also rejects NaN
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    if isinstance(epochs, bool) or not isinstance(epochs, (int, np.integer)) or epochs < 1:
        raise ValueError(f"epochs must be an integer >= 1, got {epochs!r}")
    xs = [np.asarray(xk, dtype=float) for xk in x]
    ys = [np.asarray(yk, dtype=float) for yk in y]
    if not len(models) == len(xs) == len(ys) >= 1:
        raise ValueError(f"a lockstep stack needs one input and one target per model, got "
                         f"{len(models)} models, {len(xs)} inputs, {len(ys)} targets")
    for model, xk, yk in zip(models, xs, ys):
        _check_training_set(model, xk, yk)
    lead = models[0]
    for model, xk in zip(models, xs):
        if (model.layer_sizes[1:] != lead.layer_sizes[1:] or len(xk) != len(xs[0])
                or model.output_activation != lead.output_activation):
            raise ValueError("models in lockstep need equal layer sizes past the input, "
                             "rows and output activation")
    if standardize:
        for model, xk in zip(models, xs):
            model.feat_mean = xk.mean(axis=0)
            std = xk.std(axis=0)
            std[std < 1e-9] = 1.0
            model.feat_std = std
    xs = [model._standardize(xk) for model, xk in zip(models, xs)]
    y = np.stack(ys)
    lock = _Lockstep(models, len(y[0]))
    losses = []
    # a model that diverges overflows on its way to a non-finite loss; the
    # DivergenceError naming it and its epoch is the signal, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            # one forward pass serves loss and gradients
            acts = lock.stack._forward_acts(xs, lock.first)
            loss = _batch_loss(lock.stack, acts[-1], y).tolist()
            _backprop(lock, acts, y)
            # params -= learning_rate * grads, reusing the gradients' array
            lock.grads *= learning_rate
            lock.params -= lock.grads
            for k, value in enumerate(loss):
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite loss at epoch {epoch + 1} in model {k}")
            losses.append(loss)
    return losses
