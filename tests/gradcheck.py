"""Central-difference gradient verification."""

from __future__ import annotations

import numpy as np

from sefc.nnkit import Model


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
        if model.relu_margin(x) >= margin_factor * eps:
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
