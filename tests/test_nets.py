import math

import numpy as np
import pytest

from cadrepair.config import ConfigError, ModelTraining, RunConfig
from cadrepair.diffusion import build_schedule, chain_constants
from cadrepair.nets import (
    CLASSIFIER_HIDDEN,
    DENOISER_HIDDEN,
    MOMENTUM,
    LinearRegressor,
    Mlp,
    OutputActivation,
    _classification_metrics,
    fit_linear_regressor,
    init_mlp,
    load_model,
    mean_squared_error,
    mlp_forward,
    mlp_grad_input,
    mlp_param_grads,
    r2_score,
    regressor_predict,
    save_model,
    timestep_embedding,
    train_classifier,
    train_denoiser,
    train_regressor,
    undersample_balanced,
)


def tiny_mlp(weights, biases, out=OutputActivation.IDENTITY):
    return Mlp([np.array(w, float) for w in weights], [np.array(b, float) for b in biases], out)


# ---------------------------------------------------------------- forward


def test_zero_network_sigmoid_outputs_half():
    model = tiny_mlp([np.zeros((4, 3)), np.zeros((1, 4))], [np.zeros(4), np.zeros(1)],
                     OutputActivation.SIGMOID)
    out, _ = mlp_forward(model, np.array([1.0, -2.0, 3.0]))
    assert out[0] == 0.5


def test_identity_single_layer_returns_input():
    model = tiny_mlp([np.eye(3)], [np.zeros(3)])
    out, _ = mlp_forward(model, np.array([0.5, -1.5, 2.0]))
    np.testing.assert_array_equal(out, [0.5, -1.5, 2.0])


def test_hand_computed_forward_pass():
    # 2-2-1 by pencil: s1 = (1.1, -0.225), relu -> (1.1, 0), s2 = 2.25
    model = tiny_mlp(
        [[[1.0, -1.0], [0.5, 0.25]], [[2.0, -3.0]]],
        [[0.1, -0.2], [0.05]],
    )
    out, preacts = mlp_forward(model, np.array([0.3, -0.7]))
    np.testing.assert_allclose(preacts[0], [1.1, -0.225], atol=1e-15)
    assert math.isclose(out[0], 2.25, rel_tol=1e-12)
    sig = tiny_mlp(
        [[[1.0, -1.0], [0.5, 0.25]], [[2.0, -3.0]]],
        [[0.1, -0.2], [0.05]],
        OutputActivation.SIGMOID,
    )
    out, _ = mlp_forward(sig, np.array([0.3, -0.7]))
    assert math.isclose(out[0], 1.0 / (1.0 + math.exp(-2.25)), rel_tol=1e-12)


def test_forward_dimension_mismatch():
    model = tiny_mlp([np.eye(3)], [np.zeros(3)])
    with pytest.raises(ValueError, match="input width 4 != expected 3"):
        mlp_forward(model, np.zeros(4))


def test_batched_forward_matches_single():
    rng = np.random.default_rng(0)
    model = init_mlp([5, 8, 1], OutputActivation.SIGMOID, rng)
    batch = rng.normal(size=(6, 5))
    out_batch, _ = mlp_forward(model, batch)
    for row, expected in zip(batch, out_batch):
        out_single, _ = mlp_forward(model, row)
        np.testing.assert_allclose(out_single, expected, atol=1e-14)


# ---------------------------------------------------------------- input gradients


def _scalar_output(model, x):
    out, _ = mlp_forward(model, x)
    return float(out[0])


def _fd_grad(fn, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def _relu_kink_margin(model, x):
    _, preacts = mlp_forward(model, x)
    hidden = preacts[:-1]
    return min((float(np.abs(s).min()) for s in hidden), default=1.0)


def test_grad_input_matches_finite_differences():
    rng = np.random.default_rng(123)
    model = init_mlp([6, 16, 8, 1], OutputActivation.SIGMOID, rng)
    checked = 0
    while checked < 100:
        x = rng.normal(size=6)
        if _relu_kink_margin(model, x) < 1e-4:
            continue  # central differences straddle a ReLU kink here
        analytic = mlp_grad_input(model, x)
        numeric = _fd_grad(lambda v: _scalar_output(model, v), x)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-5
        checked += 1


def test_grad_input_identity_head_finite_differences():
    rng = np.random.default_rng(321)
    model = init_mlp([4, 12, 1], OutputActivation.IDENTITY, rng)
    checked = 0
    while checked < 100:
        x = rng.normal(size=4)
        if _relu_kink_margin(model, x) < 1e-4:
            continue
        analytic = mlp_grad_input(model, x)
        numeric = _fd_grad(lambda v: _scalar_output(model, v), x)
        assert np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12) < 1e-5
        checked += 1


def test_grad_single_linear_sigmoid_layer():
    w = np.array([[0.7, -1.3]])
    model = tiny_mlp([w], [[0.0]], OutputActivation.SIGMOID)
    # at w . x = 0 the sigmoid slope is exactly 1/4
    x = np.array([1.3, 0.7])
    assert math.isclose(float((w @ x)[0]), 0.0, abs_tol=1e-15)
    np.testing.assert_allclose(mlp_grad_input(model, x), 0.25 * w[0], atol=1e-15)


def test_zero_network_zero_gradient():
    model = tiny_mlp([np.zeros((4, 3)), np.zeros((1, 4))], [np.zeros(4), np.zeros(1)],
                     OutputActivation.SIGMOID)
    np.testing.assert_array_equal(mlp_grad_input(model, np.ones(3)), np.zeros(3))


def test_grad_input_requires_scalar_output():
    model = tiny_mlp([np.eye(3)], [np.zeros(3)])
    with pytest.raises(ValueError, match="output width is 3, need 1"):
        mlp_grad_input(model, np.zeros(3))


# ---------------------------------------------------------------- parameter gradients


def test_param_grads_match_finite_differences_mse():
    rng = np.random.default_rng(7)
    model = init_mlp([3, 5, 2], OutputActivation.IDENTITY, rng)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))

    def loss(m):
        out, _ = mlp_forward(m, x)
        return float(((out - y) ** 2).sum(axis=1).mean())

    out, preacts = mlp_forward(model, x)
    grads_w, grads_b = mlp_param_grads(model, x, preacts, 2.0 * (out - y) / len(x))
    h = 1e-6
    for k in range(len(model.weights)):
        for index in np.ndindex(model.weights[k].shape):
            up = Mlp([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                     model.output_activation)
            down = Mlp([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                       model.output_activation)
            up.weights[k][index] += h
            down.weights[k][index] -= h
            numeric = (loss(up) - loss(down)) / (2.0 * h)
            assert abs(grads_w[k][index] - numeric) < 1e-5 * max(abs(numeric), 1.0)
        for i in range(len(model.biases[k])):
            up = Mlp([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                     model.output_activation)
            down = Mlp([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                       model.output_activation)
            up.biases[k][i] += h
            down.biases[k][i] -= h
            numeric = (loss(up) - loss(down)) / (2.0 * h)
            assert abs(grads_b[k][i] - numeric) < 1e-5 * max(abs(numeric), 1.0)


def test_param_grads_match_finite_differences_bce():
    rng = np.random.default_rng(8)
    model = init_mlp([3, 4, 1], OutputActivation.SIGMOID, rng)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5).astype(float)

    def loss(m):
        p, _ = mlp_forward(m, x)
        p = np.clip(p[:, 0], 1e-12, 1 - 1e-12)
        return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())

    p, preacts = mlp_forward(model, x)
    grads_w, grads_b = mlp_param_grads(model, x, preacts, (p - y[:, None]) / len(x))
    h = 1e-6
    for k in range(len(model.weights)):
        flat = model.weights[k]
        for index in np.ndindex(flat.shape):
            up = Mlp([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                     model.output_activation)
            down = Mlp([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                       model.output_activation)
            up.weights[k][index] += h
            down.weights[k][index] -= h
            numeric = (loss(up) - loss(down)) / (2.0 * h)
            assert abs(grads_w[k][index] - numeric) < 1e-5 * max(abs(numeric), 1.0)


# ---------------------------------------------------------------- classifier


def separable_latents(n, rng):
    labels = rng.random(n) < 0.5
    x = rng.normal(size=(n, 21))
    x[:, 0] = np.where(labels, 2.0 + rng.random(n), -2.0 - rng.random(n))
    return x, labels


def test_classifier_on_separable_data():
    rng = np.random.default_rng(42)
    x, y = separable_latents(600, rng)
    _, metrics = train_classifier(
        x, y, ModelTraining(epochs=60, batch_size=32, learning_rate=0.05), seed=1
    )
    assert metrics["accuracy"] >= 0.95
    assert metrics["balanced_accuracy"] >= 0.95
    confusion = ("confusion_tn", "confusion_fp", "confusion_fn", "confusion_tp")
    assert sum(metrics[k] for k in confusion) == metrics["n_test"]


def test_classifier_single_class_raises():
    x = np.random.default_rng(0).normal(size=(50, 21))
    with pytest.raises(ValueError, match="both classes are required"):
        train_classifier(x, np.ones(50, dtype=bool),
                         ModelTraining(epochs=1, batch_size=8, learning_rate=0.1), seed=0)


def test_undersample_exact_balance_no_duplicates():
    rng = np.random.default_rng(3)
    labels = np.array([True] * 90 + [False] * 25)
    chosen = undersample_balanced(labels, rng)
    assert len(chosen) == 50
    assert len(set(chosen.tolist())) == 50
    assert labels[chosen].sum() == 25


def test_classifier_training_bitwise_reproducible():
    rng = np.random.default_rng(9)
    x, y = separable_latents(200, rng)
    cfg = ModelTraining(epochs=10, batch_size=16, learning_rate=0.05)
    a, _ = train_classifier(x, y, cfg, seed=5)
    b, _ = train_classifier(x, y, cfg, seed=5)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


def test_classifier_architecture():
    rng = np.random.default_rng(11)
    x, y = separable_latents(80, rng)
    model, _ = train_classifier(
        x, y, ModelTraining(epochs=1, batch_size=8, learning_rate=0.01), seed=2
    )
    assert model.layer_dims == [21, 128, 64, 1]
    assert model.output_activation is OutputActivation.SIGMOID


def oracle_classification_metrics(y_true, y_pred):
    """_classification_metrics as it was before it returned metrics.csv's keys: a
    per-row confusion loop and per-class values keyed 0 (invalid) and 1 (valid),
    which the CLI then named field by field."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    confusion = np.zeros((2, 2), dtype=int)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    precision, recall, f1 = {}, {}, {}
    for cls in (0, 1):
        tp = confusion[cls, cls]
        predicted = confusion[:, cls].sum()
        actual = confusion[cls, :].sum()
        precision[cls] = tp / predicted if predicted else 0.0
        recall[cls] = tp / actual if actual else 0.0
        denom = precision[cls] + recall[cls]
        f1[cls] = 2.0 * precision[cls] * recall[cls] / denom if denom else 0.0
    return {
        "accuracy": float((y_true == y_pred).mean()),
        "balanced_accuracy": float((recall[0] + recall[1]) / 2.0),
        "precision_valid": precision[1],
        "recall_valid": recall[1],
        "f1_valid": f1[1],
        "precision_invalid": precision[0],
        "recall_invalid": recall[0],
        "f1_invalid": f1[0],
        "confusion_tn": confusion[0, 0],
        "confusion_fp": confusion[0, 1],
        "confusion_fn": confusion[1, 0],
        "confusion_tp": confusion[1, 1],
    }


def assert_metrics_equal_oracle(y_true, y_pred):
    got = _classification_metrics(y_true, y_pred)
    want = oracle_classification_metrics(y_true, y_pred)
    # repr pins every float's bits, and that each value is a plain float or int
    plain = {k: v.item() if isinstance(v, np.generic) else v for k, v in want.items()}
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in plain.items()}
    assert all(type(v) in (float, int) for v in got.values())


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 7), (3, 50), (4, 333), (5, 1000)])
def test_classification_metrics_equal_the_oracle_on_random_labels(seed, n):
    rng = np.random.default_rng(seed)
    assert_metrics_equal_oracle(rng.integers(0, 2, n), rng.integers(0, 2, n))


@pytest.mark.parametrize(
    "y_true, y_pred",
    [
        ([0, 1, 1, 0, 1], [0, 0, 0, 0, 0]),
        ([1, 1, 1, 1], [1, 0, 1, 0]),
        ([0, 1, 1, 0, 1], [0, 1, 1, 0, 1]),
        ([0, 1, 1, 0, 1], [1, 0, 0, 1, 0]),
    ],
    ids=["class-never-predicted", "class-never-present", "all-right", "all-wrong"],
)
def test_classification_metrics_equal_the_oracle_on_edge_cases(y_true, y_pred):
    assert_metrics_equal_oracle(y_true, y_pred)


# ---------------------------------------------------------------- linear regressor


def normal_equation_oracle(x, y, ridge):
    design = np.column_stack([x, np.ones(len(x))])
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    theta = np.linalg.solve(gram, design.T @ y)
    return theta[:-1].T, theta[-1]


def test_identity_fit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    model = fit_linear_regressor(x, x, ridge=0.0)
    np.testing.assert_allclose(model.weights, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(model.bias, np.zeros(4), atol=1e-10)
    assert r2_score(x, regressor_predict(model, x)) > 1.0 - 1e-12


def test_two_point_line():
    model = fit_linear_regressor(np.array([[0.0], [1.0]]), np.array([[1.0], [3.0]]), ridge=0.0)
    assert math.isclose(model.weights[0, 0], 2.0, abs_tol=1e-12)
    assert math.isclose(model.bias[0], 1.0, abs_tol=1e-12)


def test_fit_matches_normal_equations():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(120, 7))
    y = rng.normal(size=(120, 3))
    for ridge in (0.0, 1e-6, 1e-2):
        model = fit_linear_regressor(x, y, ridge)
        w_ref, b_ref = normal_equation_oracle(x, y, ridge)
        np.testing.assert_allclose(model.weights, w_ref, atol=1e-8)
        np.testing.assert_allclose(model.bias, b_ref, atol=1e-8)


def test_rank_deficient_raises_without_ridge():
    x = np.zeros((10, 3))
    y = np.zeros((10, 3))
    with pytest.raises(ValueError, match=r"design rank \d+ < 4; use ridge > 0"):
        fit_linear_regressor(x, y, ridge=0.0)
    fit_linear_regressor(x, y, ridge=1e-6)  # ridge regularizes it away


def test_fit_needs_enough_rows():
    with pytest.raises(ValueError):
        fit_linear_regressor(np.zeros((3, 3)), np.zeros((3, 3)))


def test_regressor_predict_hand_case():
    model = LinearRegressor(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([0.5, 1.0]))
    np.testing.assert_allclose(regressor_predict(model, np.array([2.0, 3.0])), [8.5, -2.0])
    with pytest.raises(ValueError, match="input width 3 != expected 2"):
        regressor_predict(model, np.zeros(3))


def regressor_loss_grad(model, z):
    """Self-consistency loss ||Wz + b - z||^2 at the latent z, and its gradient,
    read off the gradient of the regressor's guide entry in diffusion.chain_constants."""
    residual = regressor_predict(model, z) - z
    (grad, _, _), = chain_constants([(None, model)], RunConfig(classifier_scale=0.0)).guides
    return float(residual @ residual), grad(np.asarray(z, dtype=float)[None])[0]


def test_identity_regressor_zero_loss_grad():
    model = LinearRegressor(np.eye(5), np.zeros(5))
    loss, grad = regressor_loss_grad(model, np.random.default_rng(0).normal(size=5))
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros(5))


def test_scalar_regressor_loss_grad():
    model = LinearRegressor(np.array([[0.0]]), np.array([1.0]))
    loss, grad = regressor_loss_grad(model, np.array([0.0]))
    assert loss == 1.0
    assert grad[0] == -2.0


def test_train_regressor_reports_split_metrics():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 3))
    true_w = np.array([[1.0, -2.0, 0.5]])
    y = x @ true_w.T + 0.3
    _, metrics = train_regressor(x, y, seed=6)
    assert set(metrics) == {"train_r2", "train_mse", "test_r2", "test_mse"}
    assert metrics["train_r2"] > 1.0 - 1e-9
    assert metrics["test_r2"] > 1.0 - 1e-9
    assert metrics["train_mse"] < 1e-12
    assert metrics["test_mse"] < 1e-12


def test_r2_and_mse_basics():
    y = np.array([[1.0], [2.0], [3.0]])
    assert r2_score(y, y) == 1.0
    assert r2_score(y, np.full_like(y, 2.0)) == 0.0
    assert mean_squared_error(y, y + 1.0) == 1.0


# ---------------------------------------------------------------- denoiser


def synthetic_pairs(n, rng):
    conditions = rng.uniform(0.0, 1.0, size=(n, 8))
    latents = np.tanh(conditions @ rng.normal(size=(8, 21)))
    return conditions, latents


def test_denoiser_loss_decreases():
    rng = np.random.default_rng(13)
    conditions, latents = synthetic_pairs(80, rng)
    sched = build_schedule(100, 1e-4, 0.02)
    model, epoch_losses = train_denoiser(
        conditions, latents, sched,
        ModelTraining(epochs=60, batch_size=32, learning_rate=2e-3), seed=1,
    )
    assert epoch_losses[-1] <= 0.5 * epoch_losses[0]
    assert all(np.isfinite(w).all() for w in model.weights)


def test_denoiser_pure_noise_moment_under_full_noising():
    # with a schedule whose terminal alpha_bar is ~0, the clean target for a
    # pure-noise input at t = T is the input itself: unit second moment.
    rng = np.random.default_rng(14)
    conditions, latents = synthetic_pairs(120, rng)
    sched = build_schedule(100, 1e-3, 0.2)
    assert sched.alpha_bars[-1] < 0.01
    model, _ = train_denoiser(
        conditions, latents, sched,
        ModelTraining(epochs=150, batch_size=32, learning_rate=2e-3), seed=2,
    )
    z = rng.standard_normal((400, 21))
    emb = np.broadcast_to(timestep_embedding(sched.T), (400, 8))
    feats = np.concatenate([z, emb, conditions[rng.integers(0, 120, 400)]], axis=1)
    pred, _ = mlp_forward(model, feats)
    second_moment = float((pred**2).mean())
    assert 0.8 < second_moment < 1.2


def test_denoiser_empty_dataset():
    sched = build_schedule(10, 1e-4, 0.02)
    with pytest.raises(ValueError, match="no training pairs"):
        train_denoiser(np.zeros((0, 8)), np.zeros((0, 21)), sched,
                       ModelTraining(epochs=1, batch_size=4, learning_rate=0.01), seed=0)


def test_denoiser_training_bitwise_reproducible():
    rng = np.random.default_rng(15)
    conditions, latents = synthetic_pairs(40, rng)
    sched = build_schedule(50, 1e-4, 0.02)
    cfg = ModelTraining(epochs=5, batch_size=16, learning_rate=1e-3)
    a, losses_a = train_denoiser(conditions, latents, sched, cfg, seed=9)
    b, losses_b = train_denoiser(conditions, latents, sched, cfg, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert losses_a == losses_b


# ---------------------------------------------------------------- the training loop


def oracle_sgd_step(model, grads_w, grads_b, velocity, learning_rate):
    vw, vb = velocity
    for k in range(len(model.weights)):
        vw[k] = MOMENTUM * vw[k] - learning_rate * grads_w[k]
        vb[k] = MOMENTUM * vb[k] - learning_rate * grads_b[k]
        model.weights[k] = model.weights[k] + vw[k]
        model.biases[k] = model.biases[k] + vb[k]


def oracle_zero_velocity(model):
    return [np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases]


def oracle_train_classifier(latents, labels, config, seed, split=0.8):
    """train_classifier's own SGD loop, as it was before both models shared _fit."""
    rng = np.random.default_rng(seed)
    chosen = undersample_balanced(labels, rng)
    x, y = latents[chosen], labels[chosen].astype(float)
    n_train = int(round(len(x) * split))
    x_train, y_train = x[:n_train], y[:n_train]
    model = init_mlp([x.shape[1], *CLASSIFIER_HIDDEN, 1], OutputActivation.SIGMOID, rng)
    velocity = oracle_zero_velocity(model)
    for _ in range(config.epochs):
        order = rng.permutation(len(x_train))
        for start in range(0, len(x_train), config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            probs, preacts = mlp_forward(model, xb)
            d_last = (probs - yb[:, None]) / len(xb)
            grads_w, grads_b = mlp_param_grads(model, xb, preacts, d_last)
            oracle_sgd_step(model, grads_w, grads_b, velocity, config.learning_rate)
    return model, n_train


def oracle_train_denoiser(conditions, latents, schedule, config, seed):
    """train_denoiser's own SGD loop, as it was before both models shared _fit,
    with t's embedding computed per batch."""
    rng = np.random.default_rng(seed)
    dims = [21 + 8 + conditions.shape[1], *DENOISER_HIDDEN, 21]
    model = init_mlp(dims, OutputActivation.IDENTITY, rng)
    velocity = oracle_zero_velocity(model)
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(latents))
        batch_losses = []
        for start in range(0, len(latents), config.batch_size):
            idx = order[start : start + config.batch_size]
            zb, cb = latents[idx], conditions[idx]
            t = rng.integers(1, schedule.T + 1, size=len(idx))
            eps = rng.standard_normal(zb.shape)
            ab = schedule.alpha_bars[t - 1][:, None]
            z_t = np.sqrt(ab) * zb + np.sqrt(1.0 - ab) * eps
            feats = np.concatenate([z_t, timestep_embedding(t), cb], axis=1)
            pred, preacts = mlp_forward(model, feats)
            diff = pred - eps
            batch_losses.append(float((diff * diff).sum(axis=1).mean()))
            grads_w, grads_b = mlp_param_grads(model, feats, preacts, 2.0 * diff / len(idx))
            oracle_sgd_step(model, grads_w, grads_b, velocity, config.learning_rate)
        epoch_losses.append(float(np.mean(batch_losses)))
    return model, epoch_losses


def assert_same_bits(model, oracle):
    assert len(model.weights) == len(oracle.weights)
    for got, want in zip(model.weights + model.biases, oracle.weights + oracle.biases):
        assert got.tobytes() == want.tobytes()


# (seed, batch size, rows): the denoiser's last batch is short (22, 1 and 5
# rows), one batch holds all 200 rows, and a batch size of 256 exceeds them
FIT_CASES = [(0, 64, 150), (1, 16, 97), (2, 200, 200), (3, 256, 200), (4, 7, 40)]


@pytest.mark.parametrize("seed, batch_size, rows", FIT_CASES)
def test_classifier_fit_equals_its_own_loop_bitwise(seed, batch_size, rows):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(rows, 21))
    y = x[:, 0] + 0.5 * rng.normal(size=rows) > 0
    cfg = ModelTraining(epochs=6, batch_size=batch_size, learning_rate=3e-2)
    got, metrics = train_classifier(x, y, cfg, seed)
    model, n_train = oracle_train_classifier(x, y, cfg, seed)
    assert metrics["n_train"] == n_train
    assert_same_bits(got, model)


@pytest.mark.parametrize("seed, batch_size, rows", FIT_CASES)
def test_denoiser_fit_equals_its_own_loop_bitwise(seed, batch_size, rows):
    rng = np.random.default_rng(200 + seed)
    conditions, latents = synthetic_pairs(rows, rng)
    sched = build_schedule(40, 1e-4, 0.02)
    cfg = ModelTraining(epochs=4, batch_size=batch_size, learning_rate=3e-3)
    got, got_losses = train_denoiser(conditions, latents, sched, cfg, seed)
    model, epoch_losses = oracle_train_denoiser(conditions, latents, sched, cfg, seed)
    assert_same_bits(got, model)
    assert np.array(got_losses).tobytes() == np.array(epoch_losses).tobytes()
    assert all(type(v) is float for v in got_losses)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging steps overflow
def test_diverged_fit_is_a_config_error():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(60, 21))
    with pytest.raises(ConfigError, match=r"lower classifier\.learning_rate \(1e\+20\)"):
        train_classifier(x, x[:, 0] > 0, ModelTraining(5, 16, 1e20), seed=0)
    conditions, latents = synthetic_pairs(40, rng)
    with pytest.raises(ConfigError, match=r"lower denoiser\.learning_rate \(1000\.0\)"):
        train_denoiser(conditions, latents, build_schedule(30, 1e-4, 0.02),
                       ModelTraining(20, 16, 1e3), seed=0)


# ---------------------------------------------------------------- embeddings and IO


def test_timestep_embedding_width_and_uniqueness():
    emb = timestep_embedding(np.arange(1, 101))
    assert emb.shape == (100, 8)
    assert len({tuple(np.round(row, 9)) for row in emb}) == 100
    single = timestep_embedding(17)
    np.testing.assert_array_equal(single, emb[16:17])


@pytest.mark.parametrize("T", [2, 100, 500])
def test_timestep_embedding_table_equals_scalar_calls_bitwise(T):
    # diffusion.sample reads step t's embedding from one table per call
    table = timestep_embedding(np.arange(1, T + 1))
    for t in range(1, T + 1):
        assert table[t - 1].tobytes() == timestep_embedding(t)[0].tobytes(), t


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    mlp = init_mlp([4, 6, 1], OutputActivation.SIGMOID, rng)
    path = tmp_path / "model.json"
    save_model(path, mlp)
    loaded = load_model(path)
    assert isinstance(loaded, Mlp)
    for wa, wb in zip(mlp.weights, loaded.weights):
        np.testing.assert_array_equal(wa, wb)
    assert loaded.output_activation is OutputActivation.SIGMOID

    reg = LinearRegressor(rng.normal(size=(3, 3)), rng.normal(size=3))
    save_model(path, reg)
    loaded = load_model(path)
    assert isinstance(loaded, LinearRegressor)
    np.testing.assert_array_equal(loaded.weights, reg.weights)
    np.testing.assert_array_equal(loaded.bias, reg.bias)


def test_model_file_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(17)
    mlp = init_mlp([3, 4, 1], OutputActivation.SIGMOID, rng)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, mlp)
    save_model(b, mlp)
    assert a.read_bytes() == b.read_bytes()
