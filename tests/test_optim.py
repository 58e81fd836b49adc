import numpy as np
import pytest

from terragp.errors import TrainingDivergedError
from terragp.optim import (
    AdamConfig,
    adam_init,
    adam_step,
    check_gradient,
    epoch_batches,
)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        cfg = AdamConfig(learning_rate=0.1)
        params = np.array([1.0, -2.0])
        state = adam_init(2)
        new, state = adam_step(state, params, np.zeros(2), cfg)
        np.testing.assert_array_equal(new, params)
        assert state.step == 1

    def test_first_step_bias_corrected(self):
        # t=1: m_hat = g, v_hat = g^2, update = lr * g/(|g| + eps)
        cfg = AdamConfig(learning_rate=0.1)
        params = np.array([0.5])
        new, _ = adam_step(adam_init(1), params, np.array([1.0]), cfg)
        expected_delta = 0.1 * 1.0 / (1.0 + cfg.epsilon)
        assert params[0] - new[0] == pytest.approx(expected_delta, abs=1e-15)

    def test_deterministic_trajectories(self):
        cfg = AdamConfig(learning_rate=0.05)
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(30, 4))

        def run():
            p = np.ones(4)
            st = adam_init(4)
            for g in grads:
                p, st = adam_step(st, p, g, cfg)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_zero_learning_rate_freezes(self):
        cfg = AdamConfig(learning_rate=0.0)
        p = np.array([3.0, -1.0])
        st = adam_init(2)
        for _ in range(10):
            p, st = adam_step(st, p, np.array([1.0, -2.0]), cfg)
        np.testing.assert_allclose(p, [3.0, -1.0], atol=1e-12)

    def test_nonfinite_gradient_raises_with_name(self):
        cfg = AdamConfig()
        with pytest.raises(TrainingDivergedError, match="log_lengthscale"):
            adam_step(
                adam_init(2),
                np.zeros(2),
                np.array([np.nan, 1.0]),
                cfg,
                name_of=lambda i: ["log_lengthscale", "log_outputscale"][i],
            )
        with pytest.raises(TrainingDivergedError, match="index 1"):
            adam_step(adam_init(2), np.zeros(2), np.array([0.0, np.inf]), cfg)


class TestCheckGradient:
    def test_quadratic(self):
        err = check_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), np.array([6.0]))
        assert err < 1e-8

    def test_constant(self):
        err = check_gradient(lambda x: 7.0, np.array([1.0, 2.0]), np.zeros(2))
        assert err == 0.0

    def test_exponential_at_zero(self):
        err = check_gradient(
            lambda x: float(np.exp(x[0])), np.array([0.0]), np.array([1.0])
        )
        assert err < 1e-8

    def test_detects_wrong_gradient(self):
        err = check_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), np.array([5.0]))
        assert err > 0.1


class TestEpochBatches:
    def test_full_batch(self):
        rng = np.random.default_rng(0)
        batches = list(epoch_batches(10, None, rng))
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], np.arange(10))

    def test_partition_keeps_short_batch(self):
        rng = np.random.default_rng(0)
        batches = list(epoch_batches(10, 4, rng))
        assert [len(b) for b in batches] == [4, 4, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))

    def test_shuffle_changes_between_epochs(self):
        rng = np.random.default_rng(0)
        first = np.concatenate(list(epoch_batches(32, 8, rng)))
        second = np.concatenate(list(epoch_batches(32, 8, rng)))
        assert not np.array_equal(first, second)
