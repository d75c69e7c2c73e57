"""Minimal dense-network kit with analytic numpy gradients.

Provides the feasibility classifier (ReLU MLP with sigmoid head), the
noise-prediction network for the diffusion prior, and closed-form linear
regressors. Both MLPs train in one deterministic mini-batch SGD loop,
``_fit``: each epoch permutes the rows, and each batch of rows gives its
inputs and the loss's gradient at the last pre-activation, which
``mlp_param_grads`` backpropagates into a momentum step. No autodiff
framework; every gradient is written out and checked against finite
differences in the test suite.

``Mlp`` weights are (out, in) matrices, in training and in model files.
``diffusion.sample`` multiplies by per-call copies whose ``w.T`` is a
C-contiguous (in, out) matrix, which OpenBLAS multiplies by faster; the
layer loop, ``mlp_forward``, is the same for both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ConfigError, ModelTraining

CLASSIFIER_HIDDEN = (128, 64)
DENOISER_HIDDEN = (128, 128)
TIMESTEP_EMBED_DIM = 8
MOMENTUM = 0.9


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
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def mlp_forward(model: Mlp, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass for one vector or a batch; returns output and pre-activations."""
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != model.weights[0].shape[1]:
        raise ValueError(f"input width {a.shape[-1]} != expected {model.weights[0].shape[1]}")
    preacts = []
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        s = a @ w.T
        s += b
        preacts.append(s)
        if k < last:
            a = np.maximum(s, 0.0)
        elif model.output_activation is OutputActivation.SIGMOID:
            a = _sigmoid(s)
        else:
            a = s
    return a, preacts


def mlp_grad_input(model: Mlp, x, forward=None) -> np.ndarray:
    """Exact gradient of the scalar output with respect to the input vector.
    ``forward`` is the ``mlp_forward`` result at ``x`` that the gradient
    backpropagates through, if the caller holds it; otherwise it runs here."""
    if model.weights[-1].shape[0] != 1:
        raise ValueError(f"output width is {model.weights[-1].shape[0]}, need 1")
    if forward is None:
        forward = mlp_forward(model, np.asarray(x, dtype=float))
    out, preacts = forward
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


def _fit(name: str, model: Mlp, n_rows: int, batch, config: ModelTraining, rng) -> None:
    """Train ``model`` in place by mini-batch SGD with momentum. Each epoch cuts
    ``rng.permutation(n_rows)`` into batches of ``config.batch_size`` indices;
    ``batch(idx)`` gives the batch's inputs and a function from their outputs to
    d(loss)/d(last pre-activation). A non-finite result is a ConfigError."""
    params = [*model.weights, *model.biases]
    velocity = [np.zeros_like(p) for p in params]
    for _ in range(config.epochs):
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, config.batch_size):
            x, d_loss = batch(order[start : start + config.batch_size])
            out, preacts = mlp_forward(model, x)
            grads_w, grads_b = mlp_param_grads(model, x, preacts, d_loss(out))
            for p, v, g in zip(params, velocity, grads_w + grads_b):
                v *= MOMENTUM
                v -= config.learning_rate * g
                p += v
    if not all(np.isfinite(p).all() for p in params):
        raise ConfigError(
            f"{name} training diverged to non-finite parameters; "
            f"lower {name}.learning_rate ({config.learning_rate})"
        )


def undersample_balanced(labels, rng) -> np.ndarray:
    """Indices keeping all minority samples and an equal-size majority subset."""
    labels = np.asarray(labels, dtype=bool)
    pos = np.flatnonzero(labels)
    neg = np.flatnonzero(~labels)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes are required")
    if len(pos) > len(neg):
        pos = pos[rng.permutation(len(pos))[: len(neg)]]
    elif len(neg) > len(pos):
        neg = neg[rng.permutation(len(neg))[: len(pos)]]
    chosen = np.concatenate([pos, neg])
    return chosen[rng.permutation(len(chosen))]


def _classification_metrics(y_true, y_pred) -> dict:
    """Accuracy, balanced accuracy, each class's precision, recall and F1 (class 1
    is ``valid``, 0 ``invalid``) and the confusion counts, by their metrics.csv names."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    # rows true class (0, 1), columns predicted class
    confusion = np.bincount(2 * y_true + y_pred, minlength=4).reshape(2, 2)
    metrics = {"accuracy": float((y_true == y_pred).mean())}
    recall = []
    for cls, name in ((0, "invalid"), (1, "valid")):
        tp = confusion[cls, cls]
        predicted = confusion[:, cls].sum()
        actual = confusion[cls, :].sum()
        precision = tp / predicted if predicted else 0.0
        recall.append(tp / actual if actual else 0.0)
        denom = precision + recall[cls]
        metrics[f"precision_{name}"] = float(precision)
        metrics[f"recall_{name}"] = float(recall[cls])
        metrics[f"f1_{name}"] = float(2.0 * precision * recall[cls] / denom if denom else 0.0)
    metrics["balanced_accuracy"] = float((recall[0] + recall[1]) / 2.0)
    (tn, fp), (fn, tp) = confusion.tolist()
    metrics.update(confusion_tn=tn, confusion_fp=fp, confusion_fn=fn, confusion_tp=tp)
    return metrics


def train_classifier(
    latents, labels, config: ModelTraining, seed: int, split: float = 0.8
) -> tuple[Mlp, dict]:
    """Train the feasibility classifier on labeled latents; returns the model and
    its held-out ``_classification_metrics`` with ``n_train`` and ``n_test``.

    Undersamples the majority class to exact balance, shuffles by ``seed``,
    splits by ``split``, and fits input->128->64->1 with binary cross-entropy via
    mini-batch SGD with momentum.
    """
    x = np.asarray(latents, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("latents must be (n, d) with one label per row")
    rng = np.random.default_rng(seed)
    chosen = undersample_balanced(y, rng)
    x, y = x[chosen], y[chosen].astype(float)
    n_train = int(round(len(x) * split))
    x_train, y_train = x[:n_train], y[:n_train]
    x_test, y_test = x[n_train:], y[n_train:]
    model = init_mlp([x.shape[1], *CLASSIFIER_HIDDEN, 1], OutputActivation.SIGMOID, rng)

    def batch(idx):
        yb = y_train[idx, None]
        return x_train[idx], lambda probs: (probs - yb) / len(idx)  # BCE through the sigmoid

    _fit("classifier", model, len(x_train), batch, config, rng)
    probs, _ = mlp_forward(model, x_test)
    metrics = _classification_metrics(y_test.astype(int), (probs[:, 0] >= 0.5).astype(int))
    return model, {**metrics, "n_train": len(x_train), "n_test": len(x_test)}


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
        raise ValueError("inputs must be (n, p) with matching target rows")
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
        raise ValueError(f"design rank {rank} < {p + 1}; use ridge > 0")
    return LinearRegressor(theta[:-1].T.copy(), theta[-1].copy())


def regressor_predict(model: LinearRegressor, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.weights.shape[1]:
        raise ValueError(f"input width {z.shape[-1]} != expected {model.weights.shape[1]}")
    return z @ model.weights.T + model.bias


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


def train_regressor(
    inputs, targets, seed: int, split: float = 0.8, ridge: float = 0.0
) -> tuple[LinearRegressor, dict[str, float]]:
    """Shuffle by ``seed``, fit on the first ``split`` share of the rows, and
    return the model with R^2 and MSE on both splits: ``train_r2``, ``train_mse``,
    ``test_r2`` and ``test_mse``."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    n_train = int(round(len(x) * split))
    model = fit_linear_regressor(x[:n_train], y[:n_train], ridge)
    pred_train = regressor_predict(model, x[:n_train])
    pred_test = regressor_predict(model, x[n_train:])
    return model, {
        "train_r2": r2_score(y[:n_train], pred_train),
        "train_mse": mean_squared_error(y[:n_train], pred_train),
        "test_r2": r2_score(y[n_train:], pred_test),
        "test_mse": mean_squared_error(y[n_train:], pred_test),
    }


def timestep_embedding(t) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps: (B, 8) for B timesteps, (1, 8) for a scalar."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    half = TIMESTEP_EMBED_DIM // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    angles = t_arr[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def train_denoiser(
    conditions, latents, schedule, config: ModelTraining, seed: int
) -> tuple[Mlp, list[float]]:
    """Train the noise-prediction network on (condition, clean latent) pairs;
    returns the model and the mean batch loss of each epoch.

    Each example in each batch gets a fresh uniform timestep and Gaussian
    noise; the loss is the batch mean of the squared noise-prediction error.
    """
    c = np.asarray(conditions, dtype=float)
    z0 = np.asarray(latents, dtype=float)
    if len(c) == 0:
        raise ValueError("no training pairs")
    if len(c) != len(z0):
        raise ValueError("conditions and latents must pair up")
    latent_dim = z0.shape[1]
    rng = np.random.default_rng(seed)
    model = init_mlp(
        [latent_dim + TIMESTEP_EMBED_DIM + c.shape[1], *DENOISER_HIDDEN, latent_dim],
        OutputActivation.IDENTITY,
        rng,
    )
    embeddings = timestep_embedding(np.arange(1, schedule.T + 1))
    batch_losses = []

    def batch(idx):
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        eps = rng.standard_normal((len(idx), latent_dim))
        ab = schedule.alpha_bars[t - 1][:, None]
        z_t = np.sqrt(ab) * z0[idx] + np.sqrt(1.0 - ab) * eps

        def d_loss(pred):
            diff = pred - eps
            batch_losses.append(float((diff * diff).sum(axis=1).mean()))
            return 2.0 * diff / len(idx)

        # the rows diffusion.sample feeds the denoiser: [z_t, embedding of t, condition]
        return np.concatenate([z_t, embeddings[t - 1], c[idx]], axis=1), d_loss

    _fit("denoiser", model, len(z0), batch, config, rng)
    # every epoch runs the same number of batches
    epoch_losses = np.reshape(batch_losses, (config.epochs, -1)).mean(axis=1)
    return model, epoch_losses.tolist()


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
    # one dumps call: json.dump streams through the pure-Python encoder, while
    # dumps encodes with the C one, to the same text
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


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
