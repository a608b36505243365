"""SplitFed learning (SFL) — the hybrid scheme the paper argues against.

Thapa et al.'s SplitFed-V1: *every* client trains in parallel against its
*own* server-side model replica, then both halves are FedAvg-aggregated.
This removes SL's sequential latency but "when there are many clients,
the number of server-side models is large, consuming prohibitive storage
resources" (paper §I) — exactly the gap GSFL fills with M ≪ N replicas.

Included as (a) the storage-footprint comparator and (b) the M=N extreme
of the grouping ablation.  Protocol-wise it *is* GSFL with singleton
groups, so it runs on GSFL's round engine; only two details differ:

* a sync round splits the whole band evenly among that round's
  participants, where GSFL keeps fixed per-group shares;
* mid-activity recovery retries the aborted leg: a singleton chain has
  no relay to re-route around its dead client.

Convergence-wise it matches FL's averaging frequency (every
``local_steps`` updates) while moving only smashed data and half-models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import nn
from repro.core.gsfl import GroupSplitFederatedLearning
from repro.data.dataset import Dataset
from repro.exec import Executor
from repro.sim.cross_traffic import CrossTrafficConfig
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - type-only (experiments imports us)
    from repro.experiments.dynamics import ClientDynamics
    from repro.schemes.base import SchemeConfig

__all__ = ["SplitFedLearning"]


class SplitFedLearning(GroupSplitFederatedLearning):
    """SplitFed-V1: fully parallel split learning, one replica per client."""

    name = "SplitFed"
    supports_regroup = False
    _unit_label = "client"
    #: mid-activity failure recovery: singleton "chains" have no relay to
    #: fall back on, so SplitFed retries the aborted leg after the client
    #: recovers (bounded by the retry budget) and surrenders otherwise.
    _recovery_mode = "retry"

    def __init__(
        self,
        model: nn.Sequential,
        client_datasets: list[Dataset],
        test_dataset: Dataset,
        system: "object | None" = None,
        profile: nn.ModelProfile | None = None,
        config: "SchemeConfig | None" = None,
        recorder: TraceRecorder | None = None,
        executor: Executor | None = None,
        dynamics: "ClientDynamics | None" = None,
        cross_traffic: CrossTrafficConfig | None = None,
        *,
        cut_layer: int = 1,
    ) -> None:
        super().__init__(
            model, client_datasets, test_dataset, system, profile, config,
            recorder, executor, dynamics, cross_traffic,
            cut_layer=cut_layer,
            groups=[[c] for c in range(len(client_datasets))],
        )

    def _round_bandwidth(self, group: int, num_participants: int) -> float:
        """The whole band, split evenly among this round's participants."""
        return self._pricing.total_bandwidth_hz / num_participants
