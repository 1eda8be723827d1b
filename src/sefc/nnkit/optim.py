"""Adam/AdamW updates and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(n_params: int) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grads: np.ndarray,
    lr: float,
    weight_decay: float = 0.0,
    decoupled: bool = False,
) -> np.ndarray:
    """One Adam update; returns the new parameter vector.

    Plain Adam folds weight decay into the gradient (L2 penalty); AdamW
    (``decoupled=True``) shrinks the parameters directly and feeds the raw
    gradient to the moment estimates.
    """
    g = grads if (decoupled or weight_decay == 0.0) else grads + weight_decay * params
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * g
    state.v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    new = params - lr * m_hat / (np.sqrt(v_hat) + EPS)
    if decoupled and weight_decay != 0.0:
        new = new - lr * weight_decay * params
    return new


def cosine_lr(lr0: float, epoch: int, max_epochs: int) -> float:
    """Half-cosine decay from lr0 at epoch 0 to 0 at max_epochs."""
    return lr0 * (1.0 + math.cos(math.pi * min(epoch, max_epochs) / max_epochs)) / 2.0
