import json

import numpy as np
import pytest

from hmm_ensemble import MlpConfig, MlpModel, ParameterError, gradient_check, mlp_predict, mlp_train
from hmm_ensemble.mlp import (
    adam_init,
    adam_step,
    bce_loss,
    class_balance_weights,
    _sigmoid,
)


def separable_toy(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x_pos = rng.normal(loc=[2.0, 2.0], scale=0.4, size=(n // 2, 2))
    x_neg = rng.normal(loc=[-2.0, -2.0], scale=0.4, size=(n // 2, 2))
    x = np.vstack([x_pos, x_neg])
    y = np.array([1] * (n // 2) + [0] * (n // 2))
    return x, y


class TestConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ParameterError):
            MlpConfig(epochs=0)

    def test_empty_hidden_dims_rejected(self):
        with pytest.raises(ParameterError):
            MlpConfig(hidden_dims=())

    def test_dropout_range(self):
        with pytest.raises(ParameterError):
            MlpConfig(dropout=1.0)


class TestGradientCheck:
    def test_small_models_over_seeds(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for seed in range(20):
            model = MlpModel(4, (6, 5), dropout=0.0, seed=seed)
            x = rng.normal(size=(5, 4))
            y = rng.integers(0, 2, size=5).astype(float)
            worst = max(worst, gradient_check(model, x, y))
        assert worst < 1e-4

    def test_linear_model_matches_logistic_regression(self):
        rng = np.random.default_rng(1)
        model = MlpModel(3, (), seed=7)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6).astype(float)
        logits, caches = model.forward_train(x, update_running=False, use_dropout=False)
        grads = model.backward(logits, y, caches)
        resid = (_sigmoid(x @ model.params["W_out"].T.ravel() + model.params["b_out"]) - y)
        assert grads["W_out"] == pytest.approx((resid[None, :] @ x) / 6, abs=1e-12)
        assert grads["b_out"][0] == pytest.approx(resid.mean(), abs=1e-12)
        assert gradient_check(model, x, y) < 1e-6

    def test_duplicated_rows_leave_mean_gradient_unchanged(self):
        # with sum reduction the duplicated batch doubles the gradient;
        # equivalently the mean-reduction gradient is identical
        rng = np.random.default_rng(2)
        model = MlpModel(3, (4,), dropout=0.0, seed=3)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4).astype(float)
        logits, caches = model.forward_train(x, update_running=False, use_dropout=False)
        single = model.backward(logits, y, caches)
        x2, y2 = np.vstack([x, x]), np.concatenate([y, y])
        logits2, caches2 = model.forward_train(x2, update_running=False, use_dropout=False)
        double = model.backward(logits2, y2, caches2)
        for key in single:
            assert double[key] == pytest.approx(single[key], abs=1e-12)


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        x, y = separable_toy()
        cfg = MlpConfig(
            hidden_dims=(8, 4), dropout=0.1, batch_size=16,
            learning_rate=0.01, seed=0,
        )
        model = mlp_train(x, y, cfg)
        preds = (mlp_predict(model, x) >= 0.5).astype(int)
        assert np.mean(preds == y) == 1.0

    def test_deterministic_for_seed(self):
        x, y = separable_toy(n=40)
        cfg = MlpConfig(hidden_dims=(6,), epochs=3, seed=11)
        a = mlp_train(x, y, cfg)
        b = mlp_train(x, y, cfg)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ParameterError):
            mlp_train(x, np.ones(4), MlpConfig())

    def test_label_outside_zero_one_rejected(self):
        x, y = separable_toy(n=20)
        y[0] = 2
        with pytest.raises(ParameterError, match="0 or 1"):
            mlp_train(x, y, MlpConfig())

    def test_loss_decreases_on_fixed_batch(self):
        x, y = separable_toy(n=32, seed=4)
        model = MlpModel(2, (8,), dropout=0.0, seed=5)
        state = adam_init(model.params)
        losses = []
        for _ in range(10):
            logits, caches = model.forward_train(x, use_dropout=False)
            losses.append(bce_loss(logits, y))
            grads = model.backward(logits, y.astype(float), caches)
            adam_step(model.params, grads, state, lr=1e-3)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestWeightedSampling:
    def test_balanced_data_uniform_weights(self):
        w = class_balance_weights([0, 0, 1, 1])
        assert np.allclose(w, 0.25)

    def test_minority_frequency_near_half(self):
        labels = np.array([1] * 20 + [0] * 1000)  # 50:1
        w = class_balance_weights(labels)
        rng = np.random.default_rng(6)
        draws = rng.choice(len(labels), size=100_000, replace=True, p=w)
        minority_freq = np.mean(labels[draws] == 1)
        assert minority_freq == pytest.approx(0.5, abs=0.01)


class TestPredict:
    def test_zeroed_model_outputs_half(self):
        model = MlpModel(3, (4,), seed=0)
        for key in model.params:
            model.params[key] = np.zeros_like(model.params[key])
        scores = mlp_predict(model, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.allclose(scores, 0.5)

    def test_batch_independence(self):
        x, y = separable_toy(n=40)
        model = mlp_train(x, y, MlpConfig(hidden_dims=(6,), epochs=2, seed=1))
        batch_scores = mlp_predict(model, x)
        single_scores = np.array([mlp_predict(model, row[None, :])[0] for row in x])
        assert np.allclose(batch_scores, single_scores, atol=1e-9)

    def test_scores_in_open_unit_interval(self):
        x, y = separable_toy(n=40)
        model = mlp_train(x, y, MlpConfig(hidden_dims=(6,), epochs=2, seed=2))
        scores = mlp_predict(model, x * 100)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_input_dim_checked(self):
        model = MlpModel(3, (4,), seed=0)
        with pytest.raises(ParameterError):
            mlp_predict(model, np.zeros((2, 5)))


class TestSerialization:
    def test_json_roundtrip_preserves_predictions(self):
        x, y = separable_toy(n=40)
        model = mlp_train(x, y, MlpConfig(hidden_dims=(6, 3), epochs=2, seed=9))
        blob = json.dumps(model.to_dict())
        back = MlpModel.from_dict(json.loads(blob))
        assert np.array_equal(mlp_predict(back, x), mlp_predict(model, x))
