import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terragp import pipeline
from terragp.errors import InvalidConfigError, TerraGpError
from terragp.methods import METHOD_IDS, method_defaults, with_overrides
from terragp.synth import SynthParams


@pytest.mark.parametrize("overrides", [
    {"epochs": 2.5},
    {"epochs": math.inf},
    {"epochs": True},
    {"batch_size": True},
    {"batch_size": 2.0},
    {"num_inducing": 2.5},
    {"num_inducing": np.True_},
    {"learning_rate": "0.1"},
    {"learning_rate": False},
    {"fixed_noise_var": "0.1"},
])
def test_non_numbers_of_the_wrong_kind_are_config_errors(overrides):
    with pytest.raises(InvalidConfigError):
        with_overrides(method_defaults("torroba"), **overrides)


def test_numpy_numbers_are_accepted():
    method = with_overrides(
        method_defaults("torroba"),
        epochs=np.int64(3), batch_size=np.int32(8), learning_rate=np.float32(0.5),
    )
    assert method.epochs == 3 and method.batch_size == 8


# junk of every kind, and numbers near the limits, for each checked field;
# integers stay small so that a valid config trains in milliseconds
_JUNK = st.sampled_from([None, True, False, np.True_, "1", "", math.nan, math.inf, -math.inf,
                         2.5, -0.0, 1e308, [1], np.float64(2.0)])
_INTS = st.one_of(st.integers(-2, 4), st.sampled_from([np.int64(2), np.int32(0)]))
_FIELDS = {
    "learning_rate": st.one_of(_JUNK, st.floats(-1.0, 1.0), st.integers(-1, 1)),
    "epochs": st.one_of(_JUNK, _INTS),
    "batch_size": st.one_of(_JUNK, _INTS, st.integers(20, 40)),
    "num_inducing": st.one_of(_JUNK, _INTS, st.integers(8, 40)),
    "fixed_noise_var": st.one_of(_JUNK, st.floats(-1.0, 1.0)),
}


@pytest.fixture(scope="module")
def tiny_scene():
    return pipeline.make_scene(SynthParams(size=12, seed=3), noise_mode="split")


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(
    method_id=st.sampled_from(METHOD_IDS),
    overrides=st.fixed_dictionaries({}, optional=_FIELDS),
)
def test_any_method_config_fits_or_is_a_config_error(tiny_scene, method_id, overrides):
    """A config either refuses its values or trains on a 6 x 6 grid; every
    failure on the way is a TerraGpError with the config exit code 2."""
    try:
        method = with_overrides(method_defaults(method_id), **overrides)
        _, _, history = pipeline.fit_method(
            method, tiny_scene.train, tiny_scene.uncertainty, tiny_scene.prior, seed=0
        )
    except TerraGpError as exc:
        assert exc.exit_code == 2, exc
        return
    assert len(history) == method.epochs
