"""Central-difference gradient verification, and the full-sequence forward
and ReLU kink distance it needs.  The models' step caches keep each ReLU's
output only, so the pre-activations are recomputed here from cached inputs."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from sefc.nnkit import DenseNet, Model, SeqNet


def forward_seq(net: SeqNet, x: np.ndarray, cache: Optional[dict] = None) -> np.ndarray:
    """Outputs (B, T, out_dim) of a SeqNet or TCNNet at every step."""
    x = net._check_input(x)
    return net._forward(x, cache, x.shape[1])


def _pre_activations(model: Model, x: np.ndarray) -> list[np.ndarray]:
    """Every ReLU input, recomputed from the forward cache with the forward
    pass's own ops, so each has the same bits as the one the model saw."""
    p, cache = model._params, {}
    if isinstance(model, DenseNet):
        model._forward(model._check_input(x), cache)
        return [h @ p[f"W{l}"] + p[f"b{l}"] for l, h in enumerate(cache["hs"][:-1])]
    forward_seq(model, x, cache)
    stack, T, zs = model.stack, x.shape[1], []
    for l, (d, hp) in enumerate(zip(stack.dilations, cache["inputs"])):
        w = p[f"{stack.prefix}.W{l}"]
        taps = np.concatenate([hp[:, k * d:k * d + T] for k in range(stack.kernel)], axis=2)
        zs.append(taps @ w.reshape(-1, w.shape[2]) + p[f"{stack.prefix}.b{l}"])
    for block, bc in zip(model.blocks, cache["blocks"]):
        zs.append(bc["yn"] @ block._p("F1") + block._p("f1"))
    return zs


def relu_margin(model: Model, x: np.ndarray) -> float:
    """Smallest |pre-activation| over every ReLU input (kink distance)."""
    return min((float(np.abs(z).min()) for z in _pre_activations(model, x)),
               default=math.inf)


def gradient_check(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    n_probes: int = 150,
    eps: float = 1e-6,
    seed: int = 0,
    margin_factor: float = 10.0,
) -> float:
    """Compare analytic gradients against central finite differences.

    Probes ``n_probes`` random parameters and returns the max relative
    error.  Inputs are rejected (and deterministically re-jittered) while
    any ReLU pre-activation sits within ``margin_factor * eps`` of its
    kink, where the loss is not differentiable.
    """
    rng = np.random.default_rng(seed)
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)

    for _ in range(50):
        if relu_margin(model, x) >= margin_factor * eps:
            break
        x = x + rng.normal(0.0, 1e-3, size=x.shape)
    else:
        raise RuntimeError("could not find inputs clear of ReLU kinks")

    base_loss, analytic = model.loss_and_grad(x, y)
    flat = model.get_params()
    n = min(n_probes, flat.size)
    probe_idx = rng.choice(flat.size, size=n, replace=False)

    # Central differences resolve gradients down to ~|loss|*ulp/eps; below
    # that, relative error is dominated by rounding of the loss itself, so
    # the denominator is floored at the corresponding noise scale.
    noise_floor = 1e-4 * max(1.0, abs(base_loss))

    max_rel = 0.0
    try:
        for i in probe_idx:
            orig = flat[i]
            flat[i] = orig + eps
            model.set_params(flat)
            loss_plus = model.loss(x, y)
            flat[i] = orig - eps
            model.set_params(flat)
            loss_minus = model.loss(x, y)
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            rel = abs(numeric - analytic[i]) / max(
                abs(numeric), abs(analytic[i]), noise_floor
            )
            max_rel = max(max_rel, rel)
    finally:
        model.set_params(flat)
    return max_rel
