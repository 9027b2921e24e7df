"""From-scratch multi-layer perceptron shared by the disaster detector and the
spectrum scorer: sigmoid hidden layers, sigmoid or identity output, full-batch
backpropagation gradient descent, and z-score feature standardization."""

from dataclasses import dataclass, field

import numpy as np

DISASTER_HAPPENED = 101
DISASTER_NOT_HAPPENED = 102

INIT_HALF_WIDTH = 0.5


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 200
    loss: str = "cross-entropy"  # or "squared"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.loss not in ("cross-entropy", "squared"):
            raise ValueError(f"unknown loss {self.loss!r}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass
class Mlp:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = "sigmoid"  # or "identity"
    feat_mean: np.ndarray = field(default=None)
    feat_std: np.ndarray = field(default=None)

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
        return cls(layer_sizes=list(layer_sizes), weights=weights, biases=biases,
                   output_activation=output_activation,
                   feat_mean=np.zeros(layer_sizes[0]),
                   feat_std=np.ones(layer_sizes[0]))

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feat_mean) / self.feat_std

    def _forward_acts(self, x: np.ndarray) -> list[np.ndarray]:
        """Activations per layer for a batch (rows = samples); x already standardized."""
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            if i == last and self.output_activation == "identity":
                acts.append(z)
            else:
                acts.append(sigmoid(z))
        return acts

    def forward(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.layer_sizes[0]:
            raise ValueError(
                f"expected feature vector of length {self.layer_sizes[0]}, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite feature value")
        return self._forward_acts(self._standardize(x)[None, :])[-1][0]

    def classify_binary(self, features) -> int:
        if self.layer_sizes[-1] != 1 or self.output_activation != "sigmoid":
            raise ValueError("binary classification needs a single sigmoid output")
        out = self.forward(features)[0]
        return DISASTER_HAPPENED if out > 0.5 else DISASTER_NOT_HAPPENED


def _batch_loss(model: Mlp, out: np.ndarray, y: np.ndarray, loss: str) -> float:
    if loss == "cross-entropy":
        eps = 1e-12
        return float(np.mean(np.sum(
            -(y * np.log(out + eps) + (1 - y) * np.log(1 - out + eps)), axis=1)))
    return float(np.mean(0.5 * np.sum((out - y) ** 2, axis=1)))


def _backprop(model: Mlp, acts: list[np.ndarray], y: np.ndarray):
    n = acts[0].shape[0]
    # cross-entropy + sigmoid and 0.5*squared + identity share delta = out - y
    delta = (acts[-1] - y) / n
    grads_w = []
    grads_b = []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            a = acts[layer]
            delta = (delta @ model.weights[layer].T) * a * (1.0 - a)
    return list(reversed(grads_w)), list(reversed(grads_b))


def gradients(model: Mlp, x: np.ndarray, y: np.ndarray, loss: str):
    """Backprop gradients of the mean per-sample loss over the batch.

    x is raw (unstandardized) input, rows = samples.
    """
    xs = model._standardize(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    return _backprop(model, model._forward_acts(xs), y)


def train(model: Mlp, dataset: tuple[np.ndarray, np.ndarray], cfg: TrainConfig,
          standardize: bool = True) -> list[float]:
    """Full-batch gradient descent in place on (x, y), rows = samples; returns
    the loss per epoch."""
    x, y = dataset
    if not len(x):
        raise ValueError("empty training dataset")
    if y.shape[1] != model.layer_sizes[-1]:
        raise ValueError("target dimension does not match output layer")
    if standardize:
        model.feat_mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-9] = 1.0
        model.feat_std = std
    xs = model._standardize(x)
    losses = []
    for epoch in range(cfg.epochs):
        # one forward pass serves loss and gradients
        acts = model._forward_acts(xs)
        loss = _batch_loss(model, acts[-1], y, cfg.loss)
        gw, gb = _backprop(model, acts, y)
        for w, b, dw, db in zip(model.weights, model.biases, gw, gb):
            w -= cfg.learning_rate * dw
            b -= cfg.learning_rate * db
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch + 1}")
        losses.append(loss)
    return losses
