"""Parallel split learning (PSL) — the paper's reference [2] baseline.

Wu et al. (JSAC 2023) parallelize split learning differently from both
SplitFed and GSFL: all clients run their client-side forward **in
parallel**, upload smashed data concurrently, and the edge server
processes the *concatenated* batch through a **single** server-side
model (one replica — minimal storage, like vanilla SL).  Gradients fan
back out to the clients, whose client-side models are then aggregated.

Comparison axes against the other schemes:

================  ==================  ====================  ============
scheme            client parallelism  server-side replicas  averaging
================  ==================  ====================  ============
SL                none (serial)       1                     never
SplitFed          full                N                     every round
GSFL              M groups            M                     every round
PSL (this)        full                1                     every round
================  ==================  ====================  ============

PSL's server step uses an effective batch of ``N × batch_size``, so its
gradient is lower-variance than GSFL's but it averages client halves as
often as FL — convergence sits between FL and GSFL.  Included as an
extension baseline (the paper cites it as the state of the art its
grouping improves on).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.core.aggregation import fedavg
from repro.nn.split import ClientHalf, SmashedBatch, split_model
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import (
    SplitHyperParams,
    price_model_downlink,
    price_model_uplink,
)

__all__ = ["ParallelSplitLearning"]


@dataclass
class _ClientPhaseTask:
    """One client's share of a PSL lockstep phase (forward or backward)."""

    client: int
    state: dict[str, np.ndarray]
    xb: np.ndarray
    grad: np.ndarray | None = None  # None → forward-only phase
    half: ClientHalf = field(repr=False, default=None)  # type: ignore[assignment]
    private_replica: bool = True


def _client_forward(task: _ClientPhaseTask) -> np.ndarray:
    """Forward phase: produce the smashed values that go on the wire."""
    task.half.load_state_dict(task.state)
    return task.half.forward_to_smashed(Tensor(task.xb)).values


def _client_backward(
    task: _ClientPhaseTask, hp: SplitHyperParams
) -> dict[str, np.ndarray]:
    """Backward phase: re-run the forward to rebuild this client's graph,
    inject the fused gradient slice, step, and return the new half-state.

    (The re-run is inherent to PSL's single-server design: the worker's
    module may have served another client since the forward phase.
    Deterministic layers reproduce the same smashed values; batch-norm
    running stats are touched twice per step, which only perturbs the
    aggregated buffers slightly.)
    """
    task.half.load_state_dict(task.state)
    task.half.forward_to_smashed(Tensor(task.xb))
    opt = nn.SGD(
        task.half.parameters(),
        lr=hp.lr,
        momentum=hp.momentum,
        weight_decay=hp.weight_decay,
    )
    opt.zero_grad()
    task.half.backward_from_gradient(task.grad)
    opt.step()
    return task.half.state_dict(copy=not task.private_replica)


class ParallelSplitLearning(Scheme):
    """PSL: concurrent client forward, single server model, FedAvg of
    client halves."""

    name = "PSL"

    def __init__(self, *args: object, cut_layer: int = 1, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.cut_layer = cut_layer
        self.split = split_model(self.model, cut_layer)
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            transport=self.config.transport,
        )
        self._server_opt = self._make_sgd(self.split.server.parameters())
        self._global_client_state = self.split.client.state_dict()
        self._client_replicas: list[ClientHalf] | None = None

    def _phase_tasks(
        self, tasks: list[_ClientPhaseTask]
    ) -> list[_ClientPhaseTask]:
        """Attach a client-half model to each lockstep task (see
        :func:`repro.schemes.split_common.run_group_tasks` for the
        per-backend ownership rules)."""
        ex = self.executor
        if ex.concurrent and ex.shares_address_space:
            if self._client_replicas is None or len(self._client_replicas) < len(tasks):
                self.split.client._last_output = None
                self._client_replicas = [
                    copy.deepcopy(self.split.client) for _ in tasks
                ]
            for task, replica in zip(tasks, self._client_replicas):
                task.half = replica
                task.private_replica = True
        else:
            self.split.client._last_output = None
            for task in tasks:
                task.half = self.split.client
                task.private_replica = ex.concurrent
        return tasks

    def _run_round(self, round_index: int) -> list[Stage]:
        cfg = self.config
        pricing = self._pricing
        participants = self._round_participants()
        if not participants:
            return []
        share = pricing.total_bandwidth_hz / len(participants)
        client_model_bytes = pricing.client_model_nbytes(self.cut_layer)
        codec = pricing.codec
        lossy = codec.lossy
        smashed_scalars = pricing.smashed_scalars(self.cut_layer) if lossy else 0

        distribution = Stage("distribution")
        if pricing.enabled:
            for c in participants:
                distribution.extend(
                    f"client-{c}",
                    price_model_downlink(pricing, c, client_model_bytes, share),
                )

        training = Stage("parallel_steps")
        client_states: list[dict[str, np.ndarray]] = []
        total_loss = 0.0
        hp = SplitHyperParams.from_config(cfg)
        # Every client starts from what the codec preserved of the
        # broadcast global half (identity codec: the global itself).
        distributed_state = (
            codec.apply_state(self._global_client_state)
            if lossy
            else self._global_client_state
        )

        # Per-client working copies of the client half, trained in
        # lockstep; the server half is shared and sees the fused batch.
        # Each lockstep phase (client forwards, client backwards) is a set
        # of independent per-client tasks dispatched on the executor; the
        # fused server step between them stays in the parent.
        for step in range(cfg.local_steps):
            step_batches = []
            for c in participants:
                xb, yb = self.client_loaders[c].sample_batch()
                step_batches.append((xb, yb))

            def state_for(position: int) -> dict[str, np.ndarray]:
                return (
                    distributed_state if step == 0 else client_states[position]
                )

            # --- parallel client forwards; smashed data crosses the cut --
            forward_tasks = self._phase_tasks(
                [
                    _ClientPhaseTask(client=c, state=state_for(i), xb=xb)
                    for i, (c, (xb, _)) in enumerate(zip(participants, step_batches))
                ]
            )
            smashed_per_client = self.executor.map_groups(
                _client_forward, forward_tasks
            )
            if lossy:
                smashed_per_client = [
                    codec.apply(values) for values in smashed_per_client
                ]
            for c in participants:
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.client_forward_demand(c, self.cut_layer),
                        "client_compute",
                        f"client-{c}",
                        detail="forward",
                    ),
                )
                if lossy:
                    training.add(
                        f"client-{c}",
                        Activity(
                            pricing.client_encode_demand(c, smashed_scalars),
                            "encode",
                            f"client-{c}",
                            detail="smashed",
                        ),
                    )
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.uplink_smashed_demand(c, self.cut_layer, share),
                        "uplink_smashed",
                        f"client-{c}",
                        nbytes=pricing.smashed_nbytes(self.cut_layer),
                    ),
                )
            if lossy:
                # The server decodes all N arrivals before the fused step.
                training.add(
                    "edge-server",
                    Activity(
                        pricing.server_decode_demand(
                            smashed_scalars * len(participants)
                        ),
                        "decode",
                        "edge-server",
                        detail="fused smashed",
                    ),
                )

            # --- single server step over the fused batch ----------------
            fused = SmashedBatch(values=np.concatenate(smashed_per_client, axis=0))
            fused_targets = np.concatenate([yb for _, yb in step_batches])
            self._server_opt.zero_grad()
            loss, fused_grad, _ = self.split.server.forward_backward(
                fused, fused_targets, self._loss_fn
            )
            self._server_opt.step()
            if lossy:
                fused_grad = codec.apply(fused_grad)
            total_loss += loss
            # Server compute scales with the fused batch (N x batch).
            training.add(
                "edge-server",
                Activity(
                    pricing.server_split_step_demand(
                        self.cut_layer, multiplier=len(participants)
                    ),
                    "server_compute",
                    "edge-server",
                    detail="fused batch",
                ),
            )
            if lossy:
                # One fused encode for all N gradient slices.
                training.add(
                    "edge-server",
                    Activity(
                        pricing.server_encode_demand(
                            smashed_scalars * len(participants)
                        ),
                        "encode",
                        "edge-server",
                        detail="fused gradient",
                    ),
                )

            # --- gradients fan back out; client halves step in parallel --
            backward_tasks = []
            offset = 0
            for i, (c, (xb, _)) in enumerate(zip(participants, step_batches)):
                batch = xb.shape[0]
                backward_tasks.append(
                    _ClientPhaseTask(
                        client=c,
                        state=state_for(i),
                        xb=xb,
                        grad=fused_grad[offset : offset + batch],
                    )
                )
                offset += batch
            client_states = self.executor.map_groups(
                functools.partial(_client_backward, hp=hp),
                self._phase_tasks(backward_tasks),
            )
            for c in participants:
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.downlink_gradient_demand(c, self.cut_layer, share),
                        "downlink_gradient",
                        f"client-{c}",
                        nbytes=pricing.smashed_nbytes(self.cut_layer),
                    ),
                )
                if lossy:
                    training.add(
                        f"client-{c}",
                        Activity(
                            pricing.client_decode_demand(c, smashed_scalars),
                            "decode",
                            f"client-{c}",
                            detail="gradient",
                        ),
                    )
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.client_backward_demand(c, self.cut_layer),
                        "client_compute",
                        f"client-{c}",
                        detail="backward",
                    ),
                )

        self._last_train_loss = total_loss / cfg.local_steps

        upload = Stage("upload")
        if pricing.enabled:
            for c in participants:
                upload.extend(
                    f"client-{c}",
                    price_model_uplink(pricing, c, client_model_bytes, share),
                )

        aggregation = Stage("aggregation")
        if lossy:
            # The server averages what survived the uplink codec.
            client_states = [codec.apply_state(s) for s in client_states]
        self._global_client_state = fedavg(
            client_states, self._client_sample_counts(participants)
        )
        self.split.client.load_state_dict(self._global_client_state, copy=False)
        aggregation.add(
            "edge-server",
            Activity(
                pricing.aggregation_demand(
                    len(participants), self.model.num_parameters()
                ),
                "aggregation",
                "edge-server",
            ),
        )
        return [distribution, training, upload, aggregation]

    def server_side_replicas(self) -> int:
        """PSL keeps a single server-side model (like vanilla SL)."""
        return 1

    def server_storage_bytes(self) -> int:
        if not self._pricing.enabled:
            return 0
        return self.profile.server_model_bytes(self.cut_layer)
