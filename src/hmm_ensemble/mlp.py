"""Fully-connected classifier head trained on likelihood feature vectors.

Each hidden layer is linear -> batch norm -> ReLU -> inverted dropout,
followed by a final linear to a single logit. Training minimizes binary
cross-entropy with Adam, drawing minibatches with replacement where each
example's weight is inversely proportional to its class frequency. The
backward pass is written out by hand and validated against central finite
differences (see gradient_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_int, check_real

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_PER_CLASS = 2  # the fewest training examples of either class mlp_train accepts


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and training hyperparameters."""

    hidden_dims: tuple[int, ...] = (512, 256, 128)
    dropout: float = 0.25
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.hidden_dims:
            raise ParameterError("hidden_dims must be non-empty")
        dims = tuple(check_int("hidden dim", h, 1) for h in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", dims)
        check_real("dropout", self.dropout, "[0, 1)")
        check_real("learning_rate", self.learning_rate, "(0, inf)")
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)
        check_int("seed", self.seed, 0)


class MlpModel:
    """Parameters and batch-norm running statistics.

    ``params`` maps names (W0, b0, gamma0, beta0, ..., W_out, b_out) to
    arrays; gradient and optimizer state dictionaries mirror its keys.
    ``hidden_dims`` may be empty, giving a bare logistic-regression layer
    (no batch norm), which is handy for validating gradients in closed form.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...],
        dropout: float = 0.0,
        seed: int = 0,
    ):
        check_real("dropout", dropout, "[0, 1)")
        self.input_dim = check_int("input_dim", input_dim, 1)
        self.hidden_dims = tuple(check_int("hidden dim", h, 1) for h in hidden_dims)
        self.dropout = float(dropout)
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        self.running_mean: list[np.ndarray] = []
        self.running_var: list[np.ndarray] = []
        fan_in = self.input_dim
        for l, width in enumerate(self.hidden_dims):
            self.params[f"W{l}"] = rng.normal(0.0, math.sqrt(2.0 / fan_in), (width, fan_in))
            self.params[f"b{l}"] = np.zeros(width)
            self.params[f"gamma{l}"] = np.ones(width)
            self.params[f"beta{l}"] = np.zeros(width)
            self.running_mean.append(np.zeros(width))
            self.running_var.append(np.ones(width))
            fan_in = width
        self.params["W_out"] = rng.normal(0.0, math.sqrt(2.0 / fan_in), (1, fan_in))
        self.params["b_out"] = np.zeros(1)

    def forward_train(self, x, rng: np.random.Generator | None = None) -> tuple[np.ndarray, list]:
        """Forward pass with per-batch normalization statistics.

        With ``rng`` this is a training step: dropout masks are drawn (rate
        > 0) and the running statistics move. Without it the pass draws
        nothing and changes nothing, so the loss is a deterministic function
        of the parameters. Returns (logits, caches) for backward().
        """
        return self._forward(x, rng, batch_stats=True)

    def forward_eval(self, x) -> np.ndarray:
        """Inference-mode logits: running statistics, no dropout."""
        return self._forward(x, None, batch_stats=False)[0]

    def _forward(self, x, rng, batch_stats: bool) -> tuple[np.ndarray, list]:
        # the one layer loop: batch statistics for training, running ones for inference
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if h.shape[1] != self.input_dim:
            raise ParameterError(f"feature dimension {h.shape[1]} != input_dim {self.input_dim}")
        caches = []
        for l in range(len(self.hidden_dims)):
            z = h @ self.params[f"W{l}"].T + self.params[f"b{l}"]
            if batch_stats:
                mu, var = z.mean(axis=0), z.var(axis=0)
            else:
                mu, var = self.running_mean[l], self.running_var[l]
            std = np.sqrt(var + BN_EPS)
            z_centered = z - mu
            z_hat = z_centered / std
            y = self.params[f"gamma{l}"] * z_hat + self.params[f"beta{l}"]
            # mask: the ReLU's 0/1 gate, times the dropout mask in a training step
            mask = y > 0
            out = np.where(mask, y, 0.0)
            if rng is not None:
                self.running_mean[l] = (1 - BN_MOMENTUM) * self.running_mean[l] + BN_MOMENTUM * mu
                self.running_var[l] = (1 - BN_MOMENTUM) * self.running_var[l] + BN_MOMENTUM * var
                if self.dropout > 0.0:
                    drop_mask = (rng.random(out.shape) >= self.dropout) / (1.0 - self.dropout)
                    out *= drop_mask
                    mask = mask * drop_mask
            if batch_stats:
                caches.append((h, z_centered, std, z_hat, mask))
            h = out
        logits = (h @ self.params["W_out"].T + self.params["b_out"]).ravel()
        caches.append(h)
        return logits, caches

    def backward(self, logits: np.ndarray, targets: np.ndarray, caches: list) -> dict:
        """Gradients of the mean binary cross-entropy w.r.t. every parameter."""
        batch = logits.shape[0]
        d_logit = (_sigmoid(logits) - targets) / batch
        grads = {"W_out": d_logit[None, :] @ caches[-1], "b_out": np.array([d_logit.sum()])}
        dh = d_logit[:, None] @ self.params["W_out"]
        for l in range(len(self.hidden_dims) - 1, -1, -1):
            h_in, zc, std, z_hat, mask = caches[l]
            dy = dh * mask
            grads[f"gamma{l}"] = (dy * z_hat).sum(axis=0)
            grads[f"beta{l}"] = dy.sum(axis=0)
            dz_hat = dy * self.params[f"gamma{l}"]
            d_var = (dz_hat * zc).sum(axis=0) * (-0.5) / std**3
            d_mu = -(dz_hat.sum(axis=0)) / std + d_var * (-2.0) * zc.mean(axis=0)
            dz = dz_hat / std + d_var * 2.0 * zc / batch + d_mu / batch
            grads[f"W{l}"] = dz.T @ h_in
            grads[f"b{l}"] = dz.sum(axis=0)
            dh = dz @ self.params[f"W{l}"]
        return grads

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "dropout": self.dropout,
            "params": {
                k: {"shape": list(v.shape), "data": v.ravel().tolist()}
                for k, v in self.params.items()
            },
            "running_mean": [v.tolist() for v in self.running_mean],
            "running_var": [v.tolist() for v in self.running_var],
        }


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy on logits, computed stably."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def class_balance_weights(labels) -> np.ndarray:
    """Per-example sampling weights inversely proportional to class frequency."""
    labels = np.asarray(labels, dtype=np.int64)
    # bincount, not unique: np.unique imports numpy.ma
    weights = 1.0 / np.bincount(labels)[labels]
    return weights / weights.sum()


def adam_init(params: dict[str, np.ndarray]) -> dict:
    return {
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "t": 0,
    }


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
) -> None:
    """One Adam step (Kingma & Ba 2015) that updates params and moments in place."""
    state["t"] += 1
    t = state["t"]
    for k, g in grads.items():
        m, v = state["m"][k], state["v"][k]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g**2
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        params[k] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def mlp_train(features, labels, config: MlpConfig) -> MlpModel:
    """Train the classifier head on (already normalized) feature vectors.

    Deterministic for a fixed config seed when run serially: one generator
    drives minibatch sampling and dropout masks in a fixed order.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ParameterError("features and labels must be equal length")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ParameterError(f"feature row {bad[0]} is not finite")
    if not np.all((y == 0) | (y == 1)):
        raise ParameterError("labels must be 0 or 1")
    if np.sum(y == 1) < MIN_PER_CLASS or np.sum(y == 0) < MIN_PER_CLASS:
        raise ParameterError(f"need at least {MIN_PER_CLASS} examples per class")
    model = MlpModel(x.shape[1], config.hidden_dims, config.dropout, seed=config.seed)
    weights = class_balance_weights(y.astype(np.int64))
    rng = np.random.default_rng(config.seed)
    state = adam_init(model.params)
    n = x.shape[0]
    steps_per_epoch = math.ceil(n / config.batch_size)
    for _ in range(config.epochs):
        for _ in range(steps_per_epoch):
            idx = rng.choice(n, size=config.batch_size, replace=True, p=weights)
            logits, caches = model.forward_train(x[idx], rng=rng)
            grads = model.backward(logits, y[idx], caches)
            adam_step(model.params, grads, state, config.learning_rate)
    return model


def mlp_predict(model: MlpModel, features) -> np.ndarray:
    """Scores in (0, 1); independent of how inputs are batched."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ParameterError(f"feature row {bad[0]} is not finite")
    return _sigmoid(model.forward_eval(x))


def gradient_check(model: MlpModel, x, y, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Uses the pure training pass (no generator): per-batch normalization, no
    dropout and no running-statistics update, so the loss is a deterministic
    function of the parameters.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)

    def loss_at() -> float:
        logits, _ = model.forward_train(x)
        return bce_loss(logits, y)

    logits, caches = model.forward_train(x)
    analytic = model.backward(logits, y, caches)
    worst = 0.0
    for name, param in model.params.items():
        flat = param.ravel()
        grad_flat = analytic[name].ravel()
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_at()
            flat[i] = orig - step
            down = loss_at()
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            # the denominator floor sits above the finite-difference noise
            # floor (~eps * |loss| / step) so dead-unit parameters with an
            # exactly zero gradient do not register as disagreement
            scale = max(abs(grad_flat[i]) + abs(numeric), 1e-6)
            worst = max(worst, abs(grad_flat[i] - numeric) / scale)
    return worst
