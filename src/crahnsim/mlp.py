"""From-scratch multi-layer perceptron shared by the disaster detector and the
spectrum scorer: sigmoid hidden layers, sigmoid or identity output, full-batch
backpropagation gradient descent, and z-score feature standardization.

The output activation sets the loss: a sigmoid output trains on cross-entropy,
an identity output on half squared error. For both pairs the gradient of the
loss with respect to the output layer's pre-activation is `out - y`."""

import math
from dataclasses import dataclass

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

    def _forward_acts(self, x: np.ndarray) -> list[np.ndarray]:
        """Activations per layer for a batch (rows = samples); x already standardized."""
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            if i == last and self.output_activation == "identity":
                acts.append(z)
            else:
                acts.append(_sigmoid_in_place(z))
        return acts

    def predict(self, x) -> np.ndarray:
        """Outputs for a batch of raw feature rows (rows = samples). Unlike
        `forward`, no finiteness check: on each spectrum hole scan it would add
        about 5 us to a 14 us call (5 rows of 8 features; 2-vCPU Xeon, Python
        3.11, numpy 2.4)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected rows of {self.weights[0].shape[0]} features, got shape {x.shape}")
        return self._forward_acts(self._standardize(x))[-1]

    def forward(self, features) -> np.ndarray:
        """Outputs for one raw feature vector."""
        x = np.asarray(features, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"expected one feature vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite feature value")
        return self.predict(x[None, :])[0]

    def classify_binary(self, features) -> bool:
        """Whether the single sigmoid output for one feature vector exceeds 0.5."""
        if self.weights[-1].shape[1] != 1 or self.output_activation != "sigmoid":
            raise ValueError("binary classification needs a single sigmoid output")
        return bool(self.forward(features)[0] > 0.5)


def _batch_loss(model: Mlp, out: np.ndarray, y: np.ndarray) -> float:
    """Mean per-sample loss: cross-entropy for a sigmoid output,
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
        per_sample = np.add.reduce(pos, axis=1)
    else:
        err = out - y
        err *= err
        per_sample = np.add.reduce(err, axis=1)
        per_sample *= 0.5
    # np.mean's sum and division, without its dispatch
    return float(np.add.reduce(per_sample) / len(per_sample))


def _backprop(model: Mlp, acts: list[np.ndarray], y: np.ndarray):
    """Gradients of `_batch_loss`; each layer's delta is
    (delta @ W.T) * a * (1.0 - a), built in place in that order."""
    n = acts[0].shape[0]
    delta = acts[-1] - y
    delta /= n
    grads_w = []
    grads_b = []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(np.add.reduce(delta, axis=0))
        if layer > 0:
            a = acts[layer]
            delta = delta @ model.weights[layer].T
            delta *= a
            delta *= 1.0 - a
    return list(reversed(grads_w)), list(reversed(grads_b))


def gradients(model: Mlp, x: np.ndarray, y: np.ndarray):
    """Backprop gradients of `_batch_loss` over the batch.

    x is raw (unstandardized) input, rows = samples.
    """
    xs = model._standardize(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    return _backprop(model, model._forward_acts(xs), y)


def train(model: Mlp, x, y, *, learning_rate: float, epochs: int,
          standardize: bool = True) -> list[float]:
    """Full-batch gradient descent in place on raw inputs x and targets y (rows
    = samples); returns the loss per epoch. With `standardize`, the model's
    feature standardization is first fitted to x. Every input is checked
    before the model changes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not 0 < learning_rate < math.inf:  # also rejects NaN
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    if isinstance(epochs, bool) or not isinstance(epochs, (int, np.integer)) or epochs < 1:
        raise ValueError(f"epochs must be an integer >= 1, got {epochs!r}")
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
    if standardize:
        model.feat_mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-9] = 1.0
        model.feat_std = std
    xs = model._standardize(x)
    losses = []
    for epoch in range(epochs):
        # one forward pass serves loss and gradients
        acts = model._forward_acts(xs)
        loss = _batch_loss(model, acts[-1], y)
        gw, gb = _backprop(model, acts, y)
        # w -= learning_rate * dw, reusing the gradient's array
        for w, b, dw, db in zip(model.weights, model.biases, gw, gb):
            dw *= learning_rate
            w -= dw
            db *= learning_rate
            b -= db
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch + 1}")
        losses.append(loss)
    return losses
