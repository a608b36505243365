"""Federated learning (FL / FedAvg) baseline.

Per round: the AP broadcasts the global model, every client trains the
*full* model locally for ``local_steps`` mini-batches in parallel, all
clients upload their full models concurrently (sharing the uplink), and
the server FedAvg-aggregates.  This is the scheme the paper beats by
"nearly 500% in convergence speed": FL takes only ``local_steps`` serial
SGD steps per round (parallel training then averaging) where GSFL's
groups take ``(N/M) * local_steps`` sequential steps, and FL moves the
whole model over the air every round.
"""

from __future__ import annotations

from repro import nn
from repro.core.aggregation import fedavg, mix_states
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import price_model_downlink, price_model_uplink
from repro.sim.server import RetryAt, UnitRoundWork

__all__ = ["FederatedLearning"]


class FederatedLearning(Scheme):
    """FL: parallel full-model local training + FedAvg."""

    name = "FL"
    supports_async = True
    #: mid-activity failure recovery: a preempted download/compute/upload
    #: is re-attempted after the client's ``next_recovery_s``, up to the
    #: retry budget; a client that stays unreachable surrenders its round
    #: (no commit — there is no other member to fall back on).
    _recovery_mode = "retry"

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            transport=self.config.transport,
        )
        self._global_state = self.model.state_dict()

    def _run_round(self, round_index: int) -> list[Stage]:
        cfg = self.config
        pricing = self._pricing
        participants = self._round_participants()
        if not participants:
            return []
        model_bytes = pricing.full_model_nbytes()
        lossy = pricing.codec.lossy
        wire_bytes = pricing.model_wire_nbytes(model_bytes)
        scalars = pricing.model_scalars(model_bytes) if lossy else 0

        # --- stage 1: model distribution (single AP broadcast) --------
        distribution = Stage("distribution")
        if pricing.enabled:
            if lossy:
                distribution.add(
                    "access-point",
                    Activity(
                        pricing.server_encode_demand(scalars),
                        "encode",
                        "access-point",
                        detail="model broadcast",
                    ),
                )
            distribution.add(
                "access-point",
                Activity(
                    pricing.broadcast_model_demand(
                        participants, wire_bytes, pricing.total_bandwidth_hz
                    ),
                    "model_distribution",
                    "access-point",
                    nbytes=wire_bytes,
                ),
            )

        # --- stage 2: parallel local training --------------------------
        local = Stage("local_training")
        local_states = []
        total_loss = 0.0
        for c in participants:
            if pricing.enabled and lossy:
                # Each client unpacks the coded broadcast before training.
                local.add(
                    f"client-{c}",
                    Activity(
                        pricing.client_decode_demand(c, scalars),
                        "decode",
                        f"client-{c}",
                        detail="model",
                    ),
                )
            state, step_losses, activities = self._local_training_round(c)
            for activity in activities:
                local.add(f"client-{c}", activity)
            local_states.append(state)
            for step_loss in step_losses:  # one running sum, legacy order
                total_loss += step_loss
        self._last_train_loss = total_loss / (len(participants) * cfg.local_steps)

        # --- stage 3: concurrent full-model uploads at B/N -------------
        upload = Stage("upload")
        if pricing.enabled:
            share = pricing.total_bandwidth_hz / len(participants)
            for c in participants:
                upload.extend(
                    f"client-{c}",
                    price_model_uplink(pricing, c, model_bytes, share),
                )

        # --- stage 4: FedAvg at the server ------------------------------
        aggregation = Stage("aggregation")
        weights = self._client_sample_counts(participants)
        self._global_state = fedavg(local_states, weights)
        self.model.load_state_dict(self._global_state)
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

        return [distribution, local, upload, aggregation]

    def _local_training_round(
        self, client: int
    ) -> tuple[dict, float, list[Activity]]:
        """One client's local round from the current global state.

        Shared by the barriered and barrier-free paths (same op order —
        and per-step losses returned unreduced so the sync driver can
        keep its legacy one-running-sum accumulation across clients,
        bitwise): returns ``(trained_state, step_losses, activities)``.

        With a lossy transport codec the client trains from what the
        codec preserved of the broadcast global, and the returned state
        is the coded upload the server will actually average.
        """
        codec = self._pricing.codec
        start_state = self._global_state
        if codec.lossy:
            start_state = codec.apply_state(start_state)
        self.model.load_state_dict(start_state)
        optimizer = self._make_sgd(self.model.parameters())
        step_losses: list[float] = []
        activities: list[Activity] = []
        for _ in range(self.config.local_steps):
            xb, yb = self.client_loaders[client].sample_batch()
            optimizer.zero_grad()
            loss = self._loss_fn(self.model(Tensor(xb)), yb)
            loss.backward()
            optimizer.step()
            step_losses.append(float(loss.item()))
            activities.append(
                Activity(
                    self._pricing.client_full_step_demand(client),
                    "client_compute",
                    f"client-{client}",
                    detail="local step",
                )
            )
        trained = self.model.state_dict()
        if codec.lossy:
            trained = codec.apply_state(trained)
        return trained, step_losses, activities

    # ------------------------------------------------------------------
    # asynchronous aggregation (barrier-free policies)
    # ------------------------------------------------------------------
    def _async_units(self) -> list[int]:
        return list(range(self.num_clients))

    def _async_unit_weight(self, unit: int) -> float:
        return float(len(self.client_datasets[unit]))

    def _async_unit_round(
        self, unit: int, unit_round: int
    ) -> "UnitRoundWork | RetryAt":
        """One client's barrier-free round: download → train → upload.

        The broadcast distribution stage of the sync protocol has no
        barrier-free analogue — each client fetches the current global
        model over its own downlink at the nominal ``B/N`` share.
        """
        resolved = self._async_unit_dynamics([unit])
        if isinstance(resolved, RetryAt):
            return resolved
        present, slowdowns = resolved
        if not present:
            return UnitRoundWork(activities=[], payload=None, weight=0.0)

        pricing = self._pricing
        share = pricing.total_bandwidth_hz / self.num_clients
        model_bytes = pricing.full_model_nbytes()
        activities = price_model_downlink(
            pricing, unit, model_bytes, share, phase="model_download"
        )
        state, step_losses, compute = self._local_training_round(unit)
        activities.extend(compute)
        total_loss = 0.0
        for step_loss in step_losses:
            total_loss += step_loss
        activities.extend(price_model_uplink(pricing, unit, model_bytes, share))
        activities.append(
            Activity(
                pricing.aggregation_demand(2, self.model.num_parameters()),
                "aggregation",
                "edge-server",
                detail=f"async merge client-{unit}",
            )
        )
        return UnitRoundWork(
            activities=activities,
            payload=state,
            weight=float(len(self.client_datasets[unit])),
            slowdowns=slowdowns or None,
            loss_sum=total_loss / self.config.local_steps,
            num_contributors=1,
        )

    def _async_apply_update(self, payload: object, alpha: float) -> None:
        self._global_state = mix_states(self._global_state, payload, alpha)

    def _async_load_eval_model(self) -> None:
        # mix_states allocates fresh arrays and the global is only read
        # afterwards, so the model can adopt them without re-copying.
        self.model.load_state_dict(self._global_state, copy=False)
