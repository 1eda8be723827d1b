"""Minimal from-scratch differentiable-model kit (float64, CPU).

Dense networks, dilated causal temporal convolutions, pre-norm
self-attention encoder blocks, MSE loss, Adam/AdamW, cosine learning-rate
schedule and early stopping.
"""

from .models import DenseNet, Model, SeqNet, TCNNet  # noqa: F401
from .optim import AdamState, adam_step, cosine_lr, init_adam  # noqa: F401
from .training import TrainConfig, TrainHistory, train  # noqa: F401
from .checkpoint import load_model, save_model  # noqa: F401
