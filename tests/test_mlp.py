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
        logits, caches = model.forward_train(x)
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
        logits, caches = model.forward_train(x)
        single = model.backward(logits, y, caches)
        x2, y2 = np.vstack([x, x]), np.concatenate([y, y])
        logits2, caches2 = model.forward_train(x2)
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

    def test_non_finite_feature_rejected(self):
        # one NaN feature would train a model with NaN parameters
        x, y = separable_toy(n=20)
        x[7, 1] = np.nan
        x[9, 0] = np.inf
        with pytest.raises(ParameterError, match="feature row 7 is not finite"):
            mlp_train(x, y, MlpConfig(hidden_dims=(6,), epochs=2, seed=1))

    def test_loss_decreases_on_fixed_batch(self):
        x, y = separable_toy(n=32, seed=4)
        model = MlpModel(2, (8,), dropout=0.0, seed=5)
        state = adam_init(model.params)
        losses = []
        for _ in range(10):
            logits, caches = model.forward_train(x)
            losses.append(bce_loss(logits, y))
            grads = model.backward(logits, y.astype(float), caches)
            adam_step(model.params, grads, state, lr=1e-3)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestTrainingPass:
    def test_without_generator_draws_nothing_and_changes_nothing(self):
        x, _ = separable_toy(n=16)
        model = MlpModel(2, (6, 4), dropout=0.5, seed=0)
        means = [m.copy() for m in model.running_mean]
        variances = [v.copy() for v in model.running_var]
        first, _ = model.forward_train(x)
        second, _ = model.forward_train(x)
        assert np.array_equal(first, second)  # no dropout mask was drawn
        for before, after in zip(means + variances, model.running_mean + model.running_var):
            assert np.array_equal(before, after)

    def test_with_generator_is_a_training_step(self):
        x, _ = separable_toy(n=16)
        model = MlpModel(2, (6, 4), dropout=0.5, seed=0)
        means = [m.copy() for m in model.running_mean]
        rng = np.random.default_rng(3)
        model.forward_train(x, rng=rng)
        assert all(not np.array_equal(a, b) for a, b in zip(means, model.running_mean))
        # the step drew one uniform per row and hidden unit, layer by layer
        fresh = np.random.default_rng(3)
        for width in (6, 4):
            fresh.random((16, width))
        assert rng.random() == fresh.random()


class TestAdam:
    def test_step_updates_in_place_with_the_out_of_place_values(self):
        rng = np.random.default_rng(8)
        params = {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}
        state = adam_init(params)
        objects = [params["W"], params["b"], state["m"]["W"], state["v"]["b"]]
        expected = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
        for t in (1, 2, 3):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            adam_step(params, grads, state, lr)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g**2
                m_hat, v_hat = m[k] / (1 - b1**t), v[k] / (1 - b2**t)
                expected[k] = expected[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        now = [params["W"], params["b"], state["m"]["W"], state["v"]["b"]]
        assert all(a is b for a, b in zip(now, objects))
        for k in params:
            assert np.all(params[k] == expected[k])
            assert np.all(state["m"][k] == m[k]) and np.all(state["v"][k] == v[k])


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

    @pytest.mark.parametrize("bad, row", [([(1, np.inf)], 1), ([(3, np.nan)], 3),
                                          ([(2, np.nan), (1, -np.inf)], 1)])
    def test_non_finite_feature_rejected(self, bad, row):
        # ReLU's np.where would score a NaN row as 0.502 and an inf row as 0.0
        x, y = separable_toy(n=40)
        model = mlp_train(x, y, MlpConfig(hidden_dims=(6,), epochs=2, seed=1))
        x = x[:5].copy()
        for i, value in bad:
            x[i, 0] = value
        with pytest.raises(ParameterError, match=f"feature row {row} is not finite"):
            mlp_predict(model, x)
