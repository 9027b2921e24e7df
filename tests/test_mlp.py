"""MLP correctness: predict arithmetic, gradient checks, training fixtures."""

import copy

import numpy as np
import pytest

from crahnsim.detection import DISASTER_NOT_HAPPENED, detect
from crahnsim.mlp import (DivergenceError, Mlp, _batch_loss, _sigmoid_in_place, gradients,
                         train)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _params(model):
    return [p.copy() for p in model.weights + model.biases + [model.feat_mean, model.feat_std]]


def _unchanged(model, before):
    return all(np.array_equal(b, a) for b, a in zip(before, _params(model)))


def _zero_model(sizes, activation="sigmoid"):
    m = Mlp.init(sizes, _rng(0), output_activation=activation)
    m.weights = [np.zeros_like(w) for w in m.weights]
    m.biases = [np.zeros_like(b) for b in m.biases]
    return m


def test_zero_model_outputs_half():
    m = _zero_model([3, 4, 2])
    assert np.allclose(m.predict([[1.0, -2.0, 0.5]]), 0.5)


def test_zero_model_classifies_not_happened_on_tie():
    m = _zero_model([3, 4, 1])
    assert m.predict([[0.3, 0.1, -0.7]])[0, 0] == 0.5
    assert detect(np.array([0.3, 0.1, -0.7]), m) == DISASTER_NOT_HAPPENED


def test_predict_matches_hand_matrix_arithmetic():
    m = _zero_model([2, 2, 1])
    m.weights[0] = np.array([[0.5, -1.0], [0.25, 0.75]])
    m.biases[0] = np.array([0.1, -0.2])
    m.weights[1] = np.array([[2.0], [-0.5]])
    m.biases[1] = np.array([0.3])
    x = np.array([1.0, 2.0])
    h = 1.0 / (1.0 + np.exp(-(x @ m.weights[0] + m.biases[0])))
    expected = 1.0 / (1.0 + np.exp(-(h @ m.weights[1] + m.biases[1])))
    assert np.allclose(m.predict(x[None, :])[0], expected, atol=1e-12)


def test_sigmoid_output_always_in_open_unit_interval():
    m = Mlp.init([4, 6, 3], _rng(3))
    for seed in range(20):
        out = m.predict(_rng(seed).normal(0, 5, (1, 4)))
        assert np.all(out > 0) and np.all(out < 1)


def test_predict_is_one_row_predict_row_by_row():
    m = Mlp.init([3, 4, 2], _rng(1))
    m.feat_mean = np.array([0.5, -1.0, 2.0])
    m.feat_std = np.array([2.0, 0.5, 1.0])
    x = _rng(2).normal(0, 3, (5, 3))
    out = m.predict(x)
    assert out.shape == (5, 2)
    for row, got in zip(x, out):
        assert np.allclose(m.predict(row[None, :])[0], got, atol=1e-12)
    with pytest.raises(ValueError, match="rows of 3 features"):
        m.predict(x[:, :2])
    with pytest.raises(ValueError, match="rows of 3 features"):
        m.predict(x[0])


def test_layer_sizes_follow_the_weights():
    m = Mlp.init([3, 5, 4, 2], _rng(0))
    assert m.layer_sizes == [3, 5, 4, 2]
    m.weights[-1] = np.zeros((4, 6))
    assert m.layer_sizes == [3, 5, 4, 6]


def finite_difference_check(model, x, y, step=1e-5):
    """Max relative error of backprop against central differences of the
    loss the model's output activation sets (acceptance criterion 2 uses it too)."""

    def loss_at():
        return _batch_loss(model, model.predict(x), y)

    gw, gb = gradients(model, x, y)
    worst = 0.0
    for params, grads in ((model.weights, gw), (model.biases, gb)):
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                up = loss_at()
                p[idx] = orig - step
                down = loss_at()
                p[idx] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(g[idx]), 1e-8)
                worst = max(worst, abs(numeric - g[idx]) / denom)
    return worst


@pytest.mark.parametrize("activation", ["sigmoid", "identity"])
def test_gradients_match_central_finite_differences(activation):
    model = Mlp.init([3, 4, 2], _rng(17), output_activation=activation)
    x = _rng(18).normal(0, 1, (6, 3))
    y = (_rng(19).random((6, 2)) if activation == "sigmoid"
         else _rng(19).normal(0, 2, (6, 2)))
    assert finite_difference_check(model, x, y) < 1e-4


def test_batch_loss_is_set_by_the_output_activation():
    out = np.array([[0.25], [0.5]])
    y = np.array([[1.0], [0.0]])
    sig = Mlp.init([1, 1], _rng(0))
    ident = Mlp.init([1, 1], _rng(0), output_activation="identity")
    assert _batch_loss(sig, out, y) == pytest.approx(-(np.log(0.25) + np.log(0.5)) / 2)
    assert _batch_loss(ident, out, y) == pytest.approx((0.5 * 0.75 ** 2 + 0.5 * 0.5 ** 2) / 2)


def test_identity_output_trains_on_half_squared_error():
    # no loss is named: targets outside [0, 1] train an identity output on
    # half squared error, and each epoch reports that loss before its step
    x = _rng(5).normal(0, 1, (8, 2))
    y = 10.0 * x[:, :1] - 3.0
    model = Mlp.init([2, 3, 1], _rng(4), output_activation="identity")
    probe = copy.deepcopy(model)
    expected = []
    for _ in range(5):
        expected.append(0.5 * np.mean(np.sum((probe.predict(x) - y) ** 2, axis=1)))
        train(probe, x, y, learning_rate=0.05, epochs=1, standardize=False)
    losses = train(model, x, y, learning_rate=0.05, epochs=5, standardize=False)
    assert np.all(np.isfinite(losses))
    assert losses == pytest.approx(expected, rel=1e-12)
    assert losses[-1] < losses[0]


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([[0.0], [1.0], [1.0], [0.0]])


def _xor_correct(seed):
    model = Mlp.init([2, 4, 1], _rng(seed))
    train(model, XOR_X, XOR_Y, learning_rate=1.5, epochs=2000)
    pred = [model.predict(row[np.newaxis])[0, 0] > 0.5 for row in XOR_X]
    return sum(p == (t > 0.5) for p, t in zip(pred, XOR_Y[:, 0]))


def test_xor_learnable_across_seeds():
    scores = [_xor_correct(seed) for seed in range(10)]
    assert all(s >= 3 for s in scores)
    assert max(scores) == 4


def test_loss_decreases_on_separable_blobs():
    rng = _rng(5)
    a = rng.normal((-2.0, -2.0), 0.4, (40, 2))
    b = rng.normal((2.0, 2.0), 0.4, (40, 2))
    x = np.vstack([a, b])
    y = np.vstack([np.zeros((40, 1)), np.ones((40, 1))])
    model = Mlp.init([2, 4, 1], _rng(6))
    losses = train(model, x, y, learning_rate=0.5, epochs=100)
    assert len(losses) == 100
    assert losses[-1] < losses[0]


def test_training_is_seed_deterministic():
    def fit():
        model = Mlp.init([2, 4, 1], _rng(8))
        train(model, XOR_X, XOR_Y, learning_rate=0.5, epochs=50)
        return model

    m1, m2 = fit(), fit()
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        assert np.array_equal(b1, b2)


def test_empty_dataset_and_bad_targets_rejected():
    model = Mlp.init([2, 4, 1], _rng(0))
    before = _params(model)
    with pytest.raises(ValueError, match="empty"):
        train(model, np.zeros((0, 2)), np.zeros((0, 1)), learning_rate=0.5, epochs=1)
    assert _unchanged(model, before)
    with pytest.raises(ValueError):
        train(model, XOR_X, np.zeros((4, 2)), learning_rate=0.5, epochs=1)


# a one-row y used to broadcast against every output row; a 1-D y failed on y.shape[1]
@pytest.mark.parametrize("y", [np.zeros((1, 1)), np.zeros(4), np.zeros((3, 1)),
                               np.zeros((4, 1, 1))], ids=["one-row", "1-D", "short", "3-D"])
def test_train_rejects_targets_not_shaped_rows_by_outputs(y):
    model = Mlp.init([2, 4, 1], _rng(0))
    before = _params(model)
    with pytest.raises(ValueError, match=r"targets must have shape \(4, 1\)"):
        train(model, XOR_X, y, learning_rate=0.5, epochs=3)
    assert _unchanged(model, before)


@pytest.mark.parametrize("x,y,settings,match", [
    (XOR_X, XOR_Y, {"learning_rate": 0.0, "epochs": 1}, "learning_rate"),
    (XOR_X, XOR_Y, {"learning_rate": float("nan"), "epochs": 1}, "learning_rate"),
    (XOR_X, XOR_Y, {"learning_rate": 0.5, "epochs": 0}, "epochs"),
    (XOR_X, XOR_Y, {"learning_rate": 0.5, "epochs": 2.5}, "epochs"),
    (XOR_X[:, :1], XOR_Y, {"learning_rate": 0.5, "epochs": 1}, "input rows of 2"),
    (np.where(XOR_X == 1.0, np.nan, XOR_X), XOR_Y, {"learning_rate": 0.5, "epochs": 1},
     "non-finite"),
    (XOR_X, 2.0 * XOR_Y, {"learning_rate": 0.5, "epochs": 1}, r"\[0, 1\]"),
    # an infinite rate turned the weights into NaN and raised only at epoch 2
    (XOR_X, XOR_Y, {"learning_rate": float("inf"), "epochs": 1}, "learning_rate"),
    # True trained one epoch
    (XOR_X, XOR_Y, {"learning_rate": 0.5, "epochs": True}, "epochs"),
])
def test_train_checks_every_input_before_touching_the_model(x, y, settings, match):
    model = Mlp.init([2, 4, 1], _rng(0))
    before = _params(model)
    with pytest.raises(ValueError, match=match):
        train(model, x, y, **settings)
    assert _unchanged(model, before)


# overflow trips the divergence guard; training raises DivergenceError, not a warning
def test_divergence_error_names_the_epoch():
    model = Mlp.init([1, 2, 1], _rng(0), output_activation="identity")
    x = np.array([[1e3], [-1e3]])
    y = np.array([[1e3], [-1e3]])
    with pytest.raises(DivergenceError, match="epoch"):
        train(model, x, y, learning_rate=1e9, epochs=60, standardize=False)


def test_hidden_unit_permutation_leaves_output_unchanged():
    model = Mlp.init([3, 5, 2], _rng(12))
    x = _rng(13).normal(0, 1, 3)
    base = model.predict(x[None, :])
    perm = _rng(14).permutation(5)
    model.weights[0] = model.weights[0][:, perm]
    model.biases[0] = model.biases[0][perm]
    model.weights[1] = model.weights[1][perm, :]
    assert np.allclose(model.predict(x[None, :]), base, atol=1e-12)


def test_init_validation():
    with pytest.raises(ValueError):
        Mlp.init([3], _rng(0))
    with pytest.raises(ValueError):
        Mlp.init([3, 0, 1], _rng(0))
    with pytest.raises(ValueError):
        Mlp.init([3, 2, 1], _rng(0), output_activation="relu")


def test_sigmoid_matches_logistic_definition():
    z = np.linspace(-30, 30, 101)
    assert np.allclose(_sigmoid_in_place(z.copy()), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)


def test_forward_pass_runs_once_per_predict_and_once_per_epoch(monkeypatch):
    # the benchmark's tracer counts `Mlp._forward_acts` calls as forward
    # passes: one per stacked pass, whatever the stack holds
    assert "_forward_acts" in Mlp.__dict__
    calls = []
    real = Mlp._forward_acts

    def counted(self, x, *args):
        # the rows of a batch or a stack of batches, or of each lockstep model
        calls.append(x.shape[:-1] if isinstance(x, np.ndarray) else [len(xk) for xk in x])
        return real(self, x, *args)
    monkeypatch.setattr(Mlp, "_forward_acts", counted)
    model = Mlp.init([2, 4, 1], _rng(0))
    model.predict(XOR_X)
    model.predict(XOR_X[:1])
    model.predict(np.stack([XOR_X, XOR_X[::-1], XOR_X]))
    assert calls == [(4,), (1,), (3, 4)]
    calls.clear()
    train(model, XOR_X, XOR_Y, learning_rate=0.5, epochs=7)
    assert calls == [[4]] * 7
    calls.clear()
    wider = Mlp.init([3, 4, 1], _rng(1))
    train([model, wider], [XOR_X, _rng(2).normal(0, 1, (4, 3))], [XOR_Y, XOR_Y],
          learning_rate=0.5, epochs=5)
    assert calls == [[4, 4]] * 5
