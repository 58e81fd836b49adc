"""Reference computations that only the tests use: a direct exact LML, a
central-difference gradient checker, the SVGP state flattened in its
trainer's block order, a traced peak of memory, and a raster with
nodata cells."""

import tracemalloc

import numpy as np

from terragp import exact_gp, kernels, svgp
from terragp.methods import check_noise
from terragp.optim import flatten, unflatten


def log_marginal_likelihood(X, Y, mean_fn, kernel, noise_var) -> float:
    """log N(Y | m(X), K + diag(noise)) via Cholesky."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    noise_vec = check_noise(noise_var, X.shape[0])
    return exact_gp._factorize(kernels.gram(kernel, X, X), X, Y, mean_fn, noise_vec)[2]


def check_gradient(f, x, analytic_grad, step: float = 1e-5) -> float:
    """Max relative error between `analytic_grad` and central differences.

    Per coordinate the error is |analytic - numeric| / max(1, |numeric|);
    the maximum over coordinates is returned.
    """
    x = np.asarray(x, dtype=float)
    analytic_grad = np.asarray(analytic_grad, dtype=float)
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        numeric = (f(xp) - f(xm)) / (2.0 * step)
        err = abs(analytic_grad[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst


def pack_state(state: svgp.SvgpState) -> np.ndarray:
    return flatten(svgp._state_blocks(state))


def unpack_state(state: svgp.SvgpState, vec: np.ndarray) -> svgp.SvgpState:
    return svgp._from_blocks(state, unflatten(vec, svgp._state_blocks(state)))


def pack_gradients(state: svgp.SvgpState, grads: dict) -> np.ndarray:
    return flatten(grads, svgp._state_blocks(state))


def peak_bytes(fn, *args) -> int:
    """Peak bytes tracemalloc sees during fn(*args), after one untraced
    warm call for any lazy set-up.  The warm call takes copies of the
    array arguments, so a function that overwrites its input is traced
    on the input as given."""
    fn(*(a.copy(order="K") if isinstance(a, np.ndarray) else a for a in args))
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_nodata(grid, cells):
    """`grid` with the cells at the flat indices `cells` set to nodata."""
    values = grid.values.copy()
    values.ravel()[list(cells)] = grid.nodata
    return grid.with_values(values)
