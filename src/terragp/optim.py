"""Adam optimizer and the training loop.

Each trainer names its free parameters once, as an ordered dict of
blocks (name -> scalar or array), and runs `minimize` over it: the
exact fit on the LML, one full batch per epoch, the variational fit on
the ELBO over shuffled minibatches.  With everything seeded, two runs
over identical inputs produce bitwise-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import TrainingDivergedError
from .methods import LOG_NOISE_VARIANCE, NOISE_FLOOR


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def adam_init(dim: int) -> AdamState:
    return AdamState(step=0, m=np.zeros(dim), v=np.zeros(dim))


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grad: np.ndarray,
    learning_rate: float,
    name_of=None,
) -> tuple[np.ndarray, AdamState]:
    """One minimization step; returns fresh params and `state`, whose
    step count and moment arrays are updated in place.  `params` and
    `grad` are left as they are.

    `name_of` optionally maps a parameter index to a human-readable name
    used when a non-finite gradient aborts training.
    """
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError("parameter, gradient and state dimensions must agree")
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        i = int(bad[0])
        label = name_of(i) if name_of is not None else f"index {i}"
        raise TrainingDivergedError(f"non-finite gradient for parameter {label}")

    state.step += 1
    t = state.step
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grad
    state.v *= BETA2
    state.v += (1.0 - BETA2) * grad**2
    m_hat = state.m / (1.0 - BETA1**t)
    v_hat = state.v / (1.0 - BETA2**t)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON), state


def _layout(blocks) -> dict:
    """name -> (shape, slice of the flattened vector) for each block."""
    layout, i = {}, 0
    for name, value in blocks.items():
        layout[name] = np.shape(value), slice(i, i + np.size(value))
        i += np.size(value)
    return layout


def flatten(blocks, order=None) -> np.ndarray:
    """The blocks named in `order` (default: all), raveled and concatenated."""
    names = blocks if order is None else order
    return np.concatenate([np.ravel(blocks[name]) for name in names])


def unflatten(vec: np.ndarray, like) -> dict:
    """Cut `vec` back into blocks with the names, order and shapes of
    `like`; scalar blocks come back as floats, array blocks as copies."""
    return {
        name: vec[sl].reshape(shape).copy() if shape else float(vec[sl.start])
        for name, (shape, sl) in _layout(like).items()
    }


def label(blocks, index: int) -> str:
    """Name of entry `index` of `flatten(blocks)`: the block name, plus
    the index within the block for an array block."""
    for name, (shape, sl) in _layout(blocks).items():
        if index < sl.stop:
            where = ",".join(map(str, np.unravel_index(index - sl.start, shape)))
            return f"{name}[{where}]" if shape else name


def minimize(objective_grad, unpack, blocks, learning_rate, epochs, batches):
    """Adam ascent over `epochs` passes of `batches()`; returns each epoch's
    mean loss, the negated objective.  Each step calls `objective_grad(batch)`
    for the objective and its gradient blocks at the current state, steps
    the parameter `blocks` (other gradient blocks are ignored), floors a
    `LOG_NOISE_VARIANCE` block at log(NOISE_FLOOR) and hands the new blocks
    to `unpack`."""
    params = flatten(blocks)
    state = adam_init(params.size)
    noise = _layout(blocks).get(LOG_NOISE_VARIANCE, (None, None))[1]
    name_of = partial(label, blocks)
    history: list[float] = []
    for _ in range(epochs):
        losses = []
        for batch in batches():
            objective, grads = objective_grad(batch)
            if not np.isfinite(objective):
                raise TrainingDivergedError("training loss became non-finite")
            losses.append(-objective)
            params, state = adam_step(state, params, -flatten(grads, blocks), learning_rate, name_of)
            if noise is not None:
                params[noise] = np.maximum(params[noise], np.log(NOISE_FLOOR))
            unpack(unflatten(params, blocks))
        history.append(float(np.mean(losses)))
    return history


def epoch_batches(n: int, batch_size: int | None, rng: np.random.Generator):
    """Yield index arrays for one epoch: a fresh uniform shuffle, cut into
    batches, keeping the final short batch."""
    if batch_size is None or batch_size >= n:
        yield np.arange(n)
        return
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
