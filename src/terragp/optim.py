"""Adam optimizer, the training loop, and a finite-difference checker.

Both GP trainers run `minimize`: the exact fit on the negative LML, one
full batch per epoch, the variational fit on the negative ELBO over
shuffled minibatches.  With everything seeded, two runs over identical
inputs produce bitwise-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError


@dataclass
class AdamConfig:
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


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
    cfg: AdamConfig,
    name_of=None,
) -> tuple[np.ndarray, AdamState]:
    """One minimization step; returns updated params and state.

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

    t = state.step + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad**2
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return new_params, AdamState(step=t, m=m, v=v)


def minimize(loss_grad, unpack, params, learning_rate, epochs, batches, label, floor=None):
    """Adam descent over `epochs` passes of `batches()`; returns each
    epoch's mean loss.  Each step evaluates `loss_grad(batch) -> (loss,
    grad)` at the current state, steps `params`, clamps the last one (a
    learned log noise) at `floor` if given, and passes them to `unpack`.
    `label(i)` names parameter i in a non-finite-gradient error."""
    cfg = AdamConfig(learning_rate=learning_rate)
    state = adam_init(params.size)
    history: list[float] = []
    for _ in range(epochs):
        losses = []
        for batch in batches():
            loss, grad = loss_grad(batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError("training loss became non-finite")
            losses.append(loss)
            params, state = adam_step(state, params, grad, cfg, name_of=label)
            if floor is not None:
                params[-1] = max(params[-1], floor)
            unpack(params)
        history.append(float(np.mean(losses)))
    return history


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


def epoch_batches(n: int, batch_size: int | None, rng: np.random.Generator):
    """Yield index arrays for one epoch: a fresh uniform shuffle, cut into
    batches, keeping the final short batch."""
    if batch_size is None or batch_size >= n:
        yield np.arange(n)
        return
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]
