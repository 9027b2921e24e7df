"""MLP correctness: forward arithmetic, gradient checks, training fixtures."""

import numpy as np
import pytest

from crahnsim.mlp import (DISASTER_HAPPENED, DISASTER_NOT_HAPPENED,
                          DivergenceError, Mlp, TrainConfig, gradients,
                          sigmoid, train)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _zero_model(sizes, activation="sigmoid"):
    m = Mlp.init(sizes, _rng(0), output_activation=activation)
    m.weights = [np.zeros_like(w) for w in m.weights]
    m.biases = [np.zeros_like(b) for b in m.biases]
    return m


def test_zero_model_outputs_half():
    m = _zero_model([3, 4, 2])
    assert np.allclose(m.forward([1.0, -2.0, 0.5]), 0.5)


def test_zero_model_classifies_not_happened_on_tie():
    m = _zero_model([3, 4, 1])
    assert m.classify_binary([0.3, 0.1, -0.7]) == DISASTER_NOT_HAPPENED


def test_forward_matches_hand_matrix_arithmetic():
    m = _zero_model([2, 2, 1])
    m.weights[0] = np.array([[0.5, -1.0], [0.25, 0.75]])
    m.biases[0] = np.array([0.1, -0.2])
    m.weights[1] = np.array([[2.0], [-0.5]])
    m.biases[1] = np.array([0.3])
    x = np.array([1.0, 2.0])
    h = 1.0 / (1.0 + np.exp(-(x @ m.weights[0] + m.biases[0])))
    expected = 1.0 / (1.0 + np.exp(-(h @ m.weights[1] + m.biases[1])))
    assert np.allclose(m.forward(x), expected, atol=1e-12)


def test_sigmoid_output_always_in_open_unit_interval():
    m = Mlp.init([4, 6, 3], _rng(3))
    for seed in range(20):
        out = m.forward(_rng(seed).normal(0, 5, 4))
        assert np.all(out > 0) and np.all(out < 1)


def test_forward_input_validation():
    m = Mlp.init([3, 4, 1], _rng(0))
    with pytest.raises(ValueError):
        m.forward([1.0, 2.0])
    with pytest.raises(ValueError):
        m.forward([1.0, np.nan, 2.0])


def finite_difference_check(model, x, y, loss, step=1e-5):
    """Max relative error of backprop against central differences."""

    def loss_at():
        from crahnsim.mlp import _batch_loss
        xs = model._standardize(x)
        return _batch_loss(model, model._forward_acts(xs)[-1], y, loss)

    gw, gb = gradients(model, x, y, loss)
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


@pytest.mark.parametrize("activation,loss", [("sigmoid", "cross-entropy"),
                                             ("identity", "squared")])
def test_gradients_match_central_finite_differences(activation, loss):
    model = Mlp.init([3, 4, 2], _rng(17), output_activation=activation)
    x = _rng(18).normal(0, 1, (6, 3))
    y = (_rng(19).random((6, 2)) if loss == "cross-entropy"
         else _rng(19).normal(0, 2, (6, 2)))
    assert finite_difference_check(model, x, y, loss) < 1e-4


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([[0.0], [1.0], [1.0], [0.0]])


def _xor_correct(seed):
    model = Mlp.init([2, 4, 1], _rng(seed))
    cfg = TrainConfig(learning_rate=1.5, epochs=2000)
    train(model, (XOR_X, XOR_Y), cfg)
    pred = [model.classify_binary(row) == DISASTER_HAPPENED for row in XOR_X]
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
    losses = train(model, (x, y), TrainConfig(learning_rate=0.5, epochs=100))
    assert len(losses) == 100
    assert losses[-1] < losses[0]


def test_training_is_seed_deterministic():
    def fit():
        model = Mlp.init([2, 4, 1], _rng(8))
        train(model, (XOR_X, XOR_Y),
              TrainConfig(learning_rate=0.5, epochs=50))
        return model

    m1, m2 = fit(), fit()
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        assert np.array_equal(b1, b2)


def test_empty_dataset_and_bad_targets_rejected():
    model = Mlp.init([2, 4, 1], _rng(0))
    before = [p.copy() for p in model.weights + model.biases + [model.feat_mean, model.feat_std]]
    with pytest.raises(ValueError, match="empty"):
        train(model, (np.zeros((0, 2)), np.zeros((0, 1))), TrainConfig())
    after = model.weights + model.biases + [model.feat_mean, model.feat_std]
    assert all(np.array_equal(b, a) for b, a in zip(before, after))
    with pytest.raises(ValueError):
        train(model, (XOR_X, np.zeros((4, 2))), TrainConfig())


# overflow is the expected mechanism that trips the divergence guard
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_names_the_epoch():
    model = Mlp.init([1, 2, 1], _rng(0), output_activation="identity")
    x = np.array([[1e3], [-1e3]])
    y = np.array([[1e3], [-1e3]])
    cfg = TrainConfig(learning_rate=1e9, epochs=60, loss="squared")
    with pytest.raises(DivergenceError, match="epoch"):
        train(model, (x, y), cfg, standardize=False)


def test_hidden_unit_permutation_leaves_output_unchanged():
    model = Mlp.init([3, 5, 2], _rng(12))
    x = _rng(13).normal(0, 1, 3)
    base = model.forward(x)
    perm = _rng(14).permutation(5)
    model.weights[0] = model.weights[0][:, perm]
    model.biases[0] = model.biases[0][perm]
    model.weights[1] = model.weights[1][perm, :]
    assert np.allclose(model.forward(x), base, atol=1e-12)


def test_init_validation():
    with pytest.raises(ValueError):
        Mlp.init([3], _rng(0))
    with pytest.raises(ValueError):
        Mlp.init([3, 0, 1], _rng(0))
    with pytest.raises(ValueError):
        Mlp.init([3, 2, 1], _rng(0), output_activation="relu")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(loss="hinge")


def test_sigmoid_matches_logistic_definition():
    z = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)
