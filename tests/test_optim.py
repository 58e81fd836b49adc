import numpy as np
import pytest

from terragp import kernels, two_stage
from terragp.datasets import from_arrays
from terragp.errors import TrainingDivergedError
from terragp.methods import LOG_NOISE_VARIANCE, NOISE_FLOOR, method_defaults, with_overrides
from terragp.optim import (
    AdamConfig,
    adam_init,
    adam_step,
    check_gradient,
    epoch_batches,
    flatten,
    label,
    minimize,
    unflatten,
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


class TestBlocks:
    BLOCKS = {
        "log_lengthscale": 0.5,
        "inducing": np.arange(6.0).reshape(3, 2),
        "variational_mean": np.array([6.0, 7.0]),
    }

    def test_flatten_then_unflatten_round_trips(self):
        vec = flatten(self.BLOCKS)
        np.testing.assert_array_equal(vec, [0.5, 0, 1, 2, 3, 4, 5, 6, 7])
        back = unflatten(vec, self.BLOCKS)
        assert list(back) == list(self.BLOCKS)
        assert isinstance(back["log_lengthscale"], float)
        np.testing.assert_array_equal(back["inducing"], self.BLOCKS["inducing"])
        back["inducing"][0, 0] = -1.0  # a copy, not a view of the vector
        assert vec[1] == 0.0

    def test_flatten_follows_order_and_skips_other_blocks(self):
        grads = {"extra": 9.0, "variational_mean": np.array([1.0, 2.0]), "log_lengthscale": 3.0}
        order = {"log_lengthscale": 0.0, "variational_mean": np.zeros(2)}
        np.testing.assert_array_equal(flatten(grads, order), [3.0, 1.0, 2.0])

    def test_label_names_block_and_index(self):
        assert label(self.BLOCKS, 0) == "log_lengthscale"
        # entry 3 of the (3, 2) inducing block, in row-major order
        assert label(self.BLOCKS, 4) == "inducing[1,1]"
        assert label(self.BLOCKS, 8) == "variational_mean[1]"

    def test_minimize_floors_noise_and_ignores_extra_gradients(self):
        seen = []
        blocks = {"x": np.array([1.0, 2.0]), LOG_NOISE_VARIANCE: np.log(NOISE_FLOOR)}
        history = minimize(
            # ascent pushes x up and the noise below its floor
            lambda _: (1.0, {"x": np.ones(2), LOG_NOISE_VARIANCE: -1.0, "pinned": np.nan}),
            seen.append, blocks, 0.1, 2, lambda: (None,),
        )
        assert history == [-1.0, -1.0]
        assert seen[-1][LOG_NOISE_VARIANCE] == np.log(NOISE_FLOOR)
        assert np.all(seen[-1]["x"] > blocks["x"])


def _poison_log_alpha(monkeypatch):
    """Make every log_alpha kernel gradient NaN; both trainers take their
    kernel gradients from the fused pass."""
    original = kernels.gram_and_gradients

    def poisoned(cfg, r2):
        K, grads = original(cfg, r2)
        grads[kernels.LOG_ALPHA] = np.full_like(grads[kernels.LOG_ALPHA], np.nan)
        return K, grads

    monkeypatch.setattr(kernels, "gram_and_gradients", poisoned)


@pytest.mark.parametrize("method_id", ["hayner", "torroba"])
def test_trainer_names_the_non_finite_parameter(monkeypatch, rng, method_id):
    data = from_arrays(rng.normal(size=(24, 2)), rng.normal(size=24))
    # the exact trainer ignores the inducing and batch settings
    method = with_overrides(
        method_defaults(method_id), kernel_family=kernels.RATIONAL_QUADRATIC,
        epochs=2, num_inducing=6, batch_size=8,
    )
    _poison_log_alpha(monkeypatch)
    with pytest.raises(TrainingDivergedError, match="parameter log_alpha$"):
        two_stage.fit_gp(data, method, seed=0)


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
