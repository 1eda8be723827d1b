"""Control-loop signal schema and evaluation toolkit for industrial telemetry.

Subsystems:
  schema    -- signal roles, adapter specs, canonical episodes
  ingest    -- raw CSV parsing, resampling, gap filling, canonical file I/O
  synthgen  -- domain-randomized synthetic episode generator with fault injection
  nnkit     -- from-scratch differentiable models (dense, TCN, attention) + Adam
  anomaly   -- setpoint->effort anomaly scoring, AUROC, bootstrap CIs
  forecast  -- acceleration forecasting, Euler rollouts, transfer metrics
  gap       -- phase-aware sim-to-real gap metrics
  parallel  -- one process per CPU (generate, gap, raw CSV blocks)
  cli       -- batch command-line surface
"""

__version__ = "0.1.0"

from .schema import (  # noqa: F401
    AdapterSpec,
    ChannelDescriptor,
    Episode,
    EpisodeMeta,
    SignalRole,
    SignalSpec,
    apply_adapter,
    builtin_adapter,
    load_adapter,
)
