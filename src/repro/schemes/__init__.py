"""``repro.schemes`` — the training schemes compared in the paper.

* :class:`CentralizedLearning` (CL) — pooled-data edge training;
* :class:`FederatedLearning` (FL) — FedAvg over full local models;
* :class:`SplitLearning` (SL) — sequential relay split learning;
* :class:`SplitFedLearning` — per-client-replica hybrid (the §I strawman),
  run as GSFL with singleton groups;
* :class:`ParallelSplitLearning` (PSL) — parallel clients against one
  shared server-side model.

GSFL itself lives in :mod:`repro.core.gsfl` (it is the paper's
contribution, not a baseline); import it from ``repro.core``.  The
relay-chain engine SL and GSFL share is :mod:`repro.schemes.split_common`.
"""

from repro.schemes.base import (
    Activity,
    RoundTiming,
    Scheme,
    SchemeConfig,
    Stage,
    replay_stages,
)
from repro.schemes.centralized import CentralizedLearning
from repro.schemes.federated import FederatedLearning
from repro.schemes.parallel_split import ParallelSplitLearning
from repro.schemes.pricing import LatencyModel
from repro.schemes.split import SplitLearning
from repro.schemes.splitfed import SplitFedLearning

__all__ = [
    "Activity",
    "Stage",
    "RoundTiming",
    "replay_stages",
    "Scheme",
    "SchemeConfig",
    "LatencyModel",
    "CentralizedLearning",
    "FederatedLearning",
    "SplitLearning",
    "SplitFedLearning",
    "ParallelSplitLearning",
]
