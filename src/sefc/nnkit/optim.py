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
    t: int


def init_adam(n_params: int) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grads: np.ndarray,
    lr: float,
    weight_decay: float,
    decoupled: bool,
) -> np.ndarray:
    """One Adam update; returns the new parameter vector.

    Plain Adam folds weight decay into the gradient (L2 penalty); AdamW
    (``decoupled=True``) shrinks the parameters directly and feeds the raw
    gradient to the moment estimates.
    """
    if decoupled or weight_decay == 0.0:
        g = grads
    else:
        g = params * weight_decay
        g += grads
    state.t += 1
    # m and v update in place and two parameter-sized arrays hold the rest,
    # with the float operations of m*B1 + (1-B1)*g, v*B2 + (1-B2)*g*g and
    # params - lr*m_hat / (sqrt(v_hat) + EPS) in that order.
    m, v = state.m, state.v
    tmp = g * (1.0 - BETA1)
    m *= BETA1
    m += tmp
    np.multiply(g, 1.0 - BETA2, out=tmp)
    tmp *= g
    v *= BETA2
    v += tmp
    new = v / (1.0 - BETA2 ** state.t)
    np.sqrt(new, out=new)
    new += EPS
    np.divide(m, 1.0 - BETA1 ** state.t, out=tmp)
    tmp *= lr
    tmp /= new
    np.subtract(params, tmp, out=new)
    if decoupled and weight_decay != 0.0:
        np.multiply(params, lr * weight_decay, out=tmp)
        new -= tmp
    return new


def cosine_lr(lr0: float, epoch: int, max_epochs: int) -> float:
    """Half-cosine decay from lr0 at epoch 0 to 0 at max_epochs."""
    return lr0 * (1.0 + math.cos(math.pi * min(epoch, max_epochs) / max_epochs)) / 2.0
