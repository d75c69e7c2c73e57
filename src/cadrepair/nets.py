"""Minimal dense-network kit with analytic numpy gradients.

Provides the feasibility classifier (ReLU MLP with sigmoid head), the
noise-prediction network for the diffusion prior, and closed-form linear
regressors, plus deterministic mini-batch SGD training. No autodiff
framework; every gradient is written out and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ModelTraining

CLASSIFIER_HIDDEN = (128, 64)
DENOISER_HIDDEN = (128, 128)
TIMESTEP_EMBED_DIM = 8
MOMENTUM = 0.9


class NeuralError(Exception):
    pass


class DimensionMismatch(NeuralError):
    pass


class NonScalarOutput(NeuralError):
    pass


class SingleClassData(NeuralError):
    pass


class RankDeficient(NeuralError):
    pass


class EmptyDataset(NeuralError):
    pass


class OutputActivation(Enum):
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


@dataclass
class Mlp:
    """Affine->ReLU chain with a sigmoid or identity head. Weights are (out, in)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: OutputActivation

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class LinearRegressor:
    """Affine map y = W z + b."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mlp_forward(model: Mlp, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass for one vector or a batch; returns output and pre-activations."""
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != model.weights[0].shape[1]:
        raise DimensionMismatch(
            f"input width {a.shape[-1]} != expected {model.weights[0].shape[1]}"
        )
    preacts = []
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        s = a @ w.T + b
        preacts.append(s)
        if k < last:
            a = np.maximum(s, 0.0)
        elif model.output_activation is OutputActivation.SIGMOID:
            a = _sigmoid(s)
        else:
            a = s
    return a, preacts


def mlp_grad_input(model: Mlp, x) -> np.ndarray:
    """Exact gradient of the scalar output with respect to the input vector."""
    if model.weights[-1].shape[0] != 1:
        raise NonScalarOutput(f"output width is {model.weights[-1].shape[0]}, need 1")
    out, preacts = mlp_forward(model, np.asarray(x, dtype=float))
    if model.output_activation is OutputActivation.SIGMOID:
        delta = out * (1.0 - out)
    else:
        delta = np.ones_like(out)
    for k in range(len(model.weights) - 1, 0, -1):
        delta = (delta @ model.weights[k]) * (preacts[k - 1] > 0)
    return delta @ model.weights[0]


def init_mlp(dims, output_activation: OutputActivation, rng) -> Mlp:
    """He-initialized MLP; deterministic for a given generator state."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases, output_activation)


def mlp_param_grads(model: Mlp, x, preacts, d_preact_last):
    """Backpropagate d(loss)/d(last pre-activation) into per-layer (dW, db).

    ``x`` is an (n, d) batch and ``preacts`` the pre-activations that
    ``mlp_forward`` returned for it; the hidden layers' inputs are rebuilt
    from them, so no second forward pass runs.
    """
    delta = d_preact_last
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    for k in range(len(model.weights) - 1, -1, -1):
        grads_w[k] = delta.T @ (np.maximum(preacts[k - 1], 0.0) if k > 0 else x)
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k]) * (preacts[k - 1] > 0)
    return grads_w, grads_b


def _sgd_step(model: Mlp, grads_w, grads_b, velocity, learning_rate):
    vw, vb = velocity
    for k in range(len(model.weights)):
        vw[k] = MOMENTUM * vw[k] - learning_rate * grads_w[k]
        vb[k] = MOMENTUM * vb[k] - learning_rate * grads_b[k]
        model.weights[k] = model.weights[k] + vw[k]
        model.biases[k] = model.biases[k] + vb[k]


def _zero_velocity(model: Mlp):
    return (
        [np.zeros_like(w) for w in model.weights],
        [np.zeros_like(b) for b in model.biases],
    )


@dataclass(frozen=True)
class ClassifierMetrics:
    accuracy: float
    balanced_accuracy: float
    precision: dict[int, float]
    recall: dict[int, float]
    f1: dict[int, float]
    confusion: np.ndarray  # rows true class (0, 1), columns predicted class


@dataclass(frozen=True)
class ClassifierResult:
    model: Mlp
    metrics: ClassifierMetrics
    n_train: int
    n_test: int


def undersample_balanced(labels, rng) -> np.ndarray:
    """Indices keeping all minority samples and an equal-size majority subset."""
    labels = np.asarray(labels, dtype=bool)
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    if len(pos) == 0 or len(neg) == 0:
        raise SingleClassData("both classes are required")
    if len(pos) > len(neg):
        pos = pos[rng.permutation(len(pos))[: len(neg)]]
    elif len(neg) > len(pos):
        neg = neg[rng.permutation(len(neg))[: len(pos)]]
    chosen = np.concatenate([pos, neg])
    return chosen[rng.permutation(len(chosen))]


def _classification_metrics(y_true, y_pred) -> ClassifierMetrics:
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    confusion = np.zeros((2, 2), dtype=int)
    for t, p in zip(y_true, y_pred):
        confusion[t, p] += 1
    precision = {}
    recall = {}
    f1 = {}
    for cls in (0, 1):
        tp = confusion[cls, cls]
        predicted = confusion[:, cls].sum()
        actual = confusion[cls, :].sum()
        precision[cls] = tp / predicted if predicted else 0.0
        recall[cls] = tp / actual if actual else 0.0
        denom = precision[cls] + recall[cls]
        f1[cls] = 2.0 * precision[cls] * recall[cls] / denom if denom else 0.0
    accuracy = float((y_true == y_pred).mean())
    balanced = float((recall[0] + recall[1]) / 2.0)
    return ClassifierMetrics(accuracy, balanced, precision, recall, f1, confusion)


def train_classifier(
    latents, labels, config: ModelTraining, seed: int, split: float = 0.8
) -> ClassifierResult:
    """Train the feasibility classifier on labeled latents.

    Undersamples the majority class to exact balance, shuffles by ``seed``,
    splits by ``split``, and fits input->128->64->1 with binary cross-entropy via
    mini-batch SGD with momentum.
    """
    x = np.asarray(latents, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if x.ndim != 2 or len(x) != len(y):
        raise DimensionMismatch("latents must be (n, d) with one label per row")
    rng = np.random.default_rng(seed)
    chosen = undersample_balanced(y, rng)
    x, y = x[chosen], y[chosen].astype(float)
    n_train = int(round(len(x) * split))
    x_train, y_train = x[:n_train], y[:n_train]
    x_test, y_test = x[n_train:], y[n_train:]
    model = init_mlp(
        [x.shape[1], *CLASSIFIER_HIDDEN, 1], OutputActivation.SIGMOID, rng
    )
    velocity = _zero_velocity(model)
    for _ in range(config.epochs):
        order = rng.permutation(len(x_train))
        for start in range(0, len(x_train), config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            probs, preacts = mlp_forward(model, xb)
            d_last = (probs - yb[:, None]) / len(xb)  # BCE through the sigmoid
            grads_w, grads_b = mlp_param_grads(model, xb, preacts, d_last)
            _sgd_step(model, grads_w, grads_b, velocity, config.learning_rate)
    probs, _ = mlp_forward(model, x_test)
    metrics = _classification_metrics(y_test.astype(int), (probs[:, 0] >= 0.5).astype(int))
    return ClassifierResult(model, metrics, len(x_train), len(x_test))


def fit_linear_regressor(inputs, targets, ridge: float = 0.0) -> LinearRegressor:
    """Closed-form (ridge) least squares on the augmented design, via SVD.

    With ridge > 0 the solve uses the stacked system [X 1; sqrt(ridge) I];
    with ridge = 0 a rank-deficient design raises instead of silently picking
    the minimum-norm solution.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim != 2 or len(x) != len(y):
        raise DimensionMismatch("inputs must be (n, p) with matching target rows")
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    n, p = x.shape
    if n < p + 1:
        raise ValueError(f"need at least {p + 1} rows to fit, got {n}")
    design = np.column_stack([x, np.ones(n)])
    if ridge > 0.0:
        design = np.vstack([design, np.sqrt(ridge) * np.eye(p + 1)])
        y = np.vstack([y, np.zeros((p + 1, y.shape[1]))])
    theta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if ridge == 0.0 and rank < p + 1:
        raise RankDeficient(f"design rank {rank} < {p + 1}; use ridge > 0")
    return LinearRegressor(theta[:-1].T.copy(), theta[-1].copy())


def regressor_predict(model: LinearRegressor, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.weights.shape[1]:
        raise DimensionMismatch(
            f"input width {z.shape[-1]} != expected {model.weights.shape[1]}"
        )
    return z @ model.weights.T + model.bias


def regressor_loss_grad(model: LinearRegressor, z) -> tuple[np.ndarray, np.ndarray]:
    """Squared-norm self-consistency loss ||Wz + b - z||^2 and its z-gradient,
    for one latent (d,) or per row of a batch (B, d).

    The prediction is a function of z, so the gradient carries the Jacobian:
    2 (W - I)^T (Wz + b - z), written row-wise as 2 residual (W - I).
    """
    z = np.asarray(z, dtype=float)
    out_dim, in_dim = model.weights.shape
    if out_dim != in_dim:
        raise DimensionMismatch("self-consistency loss needs a square regressor")
    if z.ndim not in (1, 2) or z.shape[-1] != in_dim:
        raise DimensionMismatch(f"latent shape {z.shape} != expected (..., {in_dim})")
    residual = z @ model.weights.T + model.bias - z
    loss = (residual * residual).sum(axis=-1)
    grad = 2.0 * residual @ (model.weights - np.eye(in_dim))
    return loss, grad


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination, uniformly averaged over output columns."""
    y_true = np.atleast_2d(np.asarray(y_true, dtype=float).T).T
    y_pred = np.atleast_2d(np.asarray(y_pred, dtype=float).T).T
    ss_res = ((y_true - y_pred) ** 2).sum(axis=0)
    ss_tot = ((y_true - y_true.mean(axis=0)) ** 2).sum(axis=0)
    scores = np.where(ss_tot > 0.0, 1.0 - ss_res / np.where(ss_tot > 0.0, ss_tot, 1.0), 0.0)
    scores = np.where((ss_tot == 0.0) & (ss_res == 0.0), 1.0, scores)
    return float(scores.mean())


def mean_squared_error(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(((y_true - y_pred) ** 2).mean())


@dataclass(frozen=True)
class RegressorResult:
    model: LinearRegressor
    train_r2: float
    train_mse: float
    test_r2: float
    test_mse: float


def train_regressor(
    inputs, targets, seed: int, split: float = 0.8, ridge: float = 0.0
) -> RegressorResult:
    """Shuffle by ``seed``, fit on the first ``split`` share of the rows, and
    report R^2 / MSE on both splits."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    n_train = int(round(len(x) * split))
    model = fit_linear_regressor(x[:n_train], y[:n_train], ridge)
    pred_train = regressor_predict(model, x[:n_train])
    pred_test = regressor_predict(model, x[n_train:])
    return RegressorResult(
        model,
        r2_score(y[:n_train], pred_train),
        mean_squared_error(y[:n_train], pred_train),
        r2_score(y[n_train:], pred_test),
        mean_squared_error(y[n_train:], pred_test),
    )


def timestep_embedding(t) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps: (B, 8) for B timesteps, (1, 8) for a scalar."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    half = TIMESTEP_EMBED_DIM // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    angles = t_arr[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def denoiser_features(z_t, t, condition) -> np.ndarray:
    """Assemble the denoiser input rows: noisy latent, timestep embedding, condition.

    ``z_t`` is a (B, d) batch; a scalar timestep and a single condition are
    broadcast over its rows.
    """
    z_t = np.asarray(z_t, dtype=float)
    condition = np.asarray(condition, dtype=float)
    emb = np.broadcast_to(timestep_embedding(t), (len(z_t), TIMESTEP_EMBED_DIM))
    cond = np.broadcast_to(condition, (len(z_t), condition.shape[-1]))
    return np.concatenate([z_t, emb, cond], axis=1)


@dataclass(frozen=True)
class DenoiserResult:
    model: Mlp
    epoch_losses: list[float]


def train_denoiser(
    conditions, latents, schedule, config: ModelTraining, seed: int
) -> DenoiserResult:
    """Train the noise-prediction network on (condition, clean latent) pairs.

    Each example in each batch gets a fresh uniform timestep and Gaussian
    noise; the loss is the batch mean of the squared noise-prediction error.
    """
    c = np.asarray(conditions, dtype=float)
    z0 = np.asarray(latents, dtype=float)
    if len(c) == 0:
        raise EmptyDataset("no training pairs")
    if len(c) != len(z0):
        raise DimensionMismatch("conditions and latents must pair up")
    latent_dim = z0.shape[1]
    rng = np.random.default_rng(seed)
    model = init_mlp(
        [latent_dim + TIMESTEP_EMBED_DIM + c.shape[1], *DENOISER_HIDDEN, latent_dim],
        OutputActivation.IDENTITY,
        rng,
    )
    velocity = _zero_velocity(model)
    alpha_bars = schedule.alpha_bars
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(z0))
        batch_losses = []
        for start in range(0, len(z0), config.batch_size):
            idx = order[start : start + config.batch_size]
            zb, cb = z0[idx], c[idx]
            t = rng.integers(1, schedule.T + 1, size=len(idx))
            eps = rng.standard_normal(zb.shape)
            ab = alpha_bars[t - 1][:, None]
            z_t = np.sqrt(ab) * zb + np.sqrt(1.0 - ab) * eps
            feats = denoiser_features(z_t, t, cb)
            pred, preacts = mlp_forward(model, feats)
            diff = pred - eps
            batch_losses.append(float((diff * diff).sum(axis=1).mean()))
            d_last = 2.0 * diff / len(idx)
            grads_w, grads_b = mlp_param_grads(model, feats, preacts, d_last)
            _sgd_step(model, grads_w, grads_b, velocity, config.learning_rate)
        epoch_losses.append(float(np.mean(batch_losses)))
    return DenoiserResult(model, epoch_losses)


def save_model(path, model: Mlp | LinearRegressor) -> None:
    if isinstance(model, Mlp):
        payload = {
            "format_version": 1,
            "kind": "mlp",
            "layer_dims": model.layer_dims,
            "activations": {"hidden": "relu", "output": model.output_activation.value},
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
        }
    else:
        payload = {
            "format_version": 1,
            "kind": "linear_regressor",
            "in_dim": int(model.weights.shape[1]),
            "out_dim": int(model.weights.shape[0]),
            "weights": model.weights.tolist(),
            "bias": model.bias.tolist(),
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_model(path) -> Mlp | LinearRegressor:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path} holds no JSON object")
    kind = payload.get("kind")
    if kind == "mlp":
        return Mlp(
            [np.asarray(w, dtype=float) for w in payload["weights"]],
            [np.asarray(b, dtype=float) for b in payload["biases"]],
            OutputActivation(payload["activations"]["output"]),
        )
    if kind == "linear_regressor":
        return LinearRegressor(
            np.asarray(payload["weights"], dtype=float),
            np.asarray(payload["bias"], dtype=float),
        )
    raise ValueError(f"unknown model kind {kind!r} in {path}")
