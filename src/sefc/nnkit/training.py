"""Mini-batch training loop with early stopping on validation loss."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyDataset
from .models import Model
from .optim import adam_step, cosine_lr, init_adam

log = logging.getLogger(__name__)

#: The L2 penalty of every optimizer step; ``adamw`` decouples it from the gradient.
_WEIGHT_DECAY = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str          # adam | adamw
    lr0: float
    batch_size: int
    max_epochs: int
    patience: int
    seed: int

    def __post_init__(self):
        if not 0 < self.lr0 < np.inf:
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0!r}")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if self.optimizer not in ("adam", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_loss: list[float]
    lr: list[float]
    best_epoch: int
    stopped_early: bool

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def train(
    model: Model,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> TrainHistory:
    """Train in place; the model ends at its best-validation-epoch weights.

    Shuffling is driven by the config seed, so identical seeds give
    bit-identical histories.  Stops after ``patience`` consecutive epochs
    without validation improvement (patience=0 stops after one epoch).
    Each epoch logs one INFO line: epoch, train and validation loss, lr and
    the epoch's wall seconds.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    if len(x_train) == 0 or len(x_val) == 0:
        raise EmptyDataset("train and validation sets must be non-empty")

    rng = np.random.default_rng(config.seed)
    state = init_adam(model.n_params)
    params = model.get_params()
    history = TrainHistory([], [], [], -1, False)
    best_val = np.inf
    best_params = params.copy()
    bad_epochs = 0

    n = len(x_train)
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        lr = cosine_lr(config.lr0, epoch, config.max_epochs)
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, grads = model.loss_and_grad(x_train[idx], y_train[idx])
            total += loss * len(idx)
            params = adam_step(
                state, params, grads, lr,
                weight_decay=_WEIGHT_DECAY,
                decoupled=config.optimizer == "adamw",
            )
            del grads  # not held through the next step's forward pass
            model.set_params(params)
        val = model.loss(x_val, y_val)
        history.train_loss.append(total / n)
        history.val_loss.append(val)
        history.lr.append(lr)
        log.info("epoch %d train_loss %.6g val_loss %.6g lr %.6g epoch_s %.3f",
                 epoch, history.train_loss[-1], val, lr, time.perf_counter() - t0)

        if val < best_val:
            best_val = val
            best_params = params.copy()
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= config.patience:
            history.stopped_early = epoch + 1 < config.max_epochs
            break

    model.set_params(best_params)
    return history
