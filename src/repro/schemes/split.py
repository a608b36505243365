"""Vanilla split learning (SL) baseline.

Gupta & Raskar's sequential protocol: one client-side model is relayed
client-to-client (through the AP, as in the paper's model-sharing step)
while a single server-side model at the edge absorbs every client's
smashed data in turn.  All N clients train *sequentially* within a round
— the "long training latency" (§I) that motivates GSFL.  The whole round
is one serial track, with the full system bandwidth available to the
single active transmitter.
"""

from __future__ import annotations

from repro import nn
from repro.nn.split import split_model
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import (
    price_model_downlink,
    price_model_uplink,
    split_local_round,
)

__all__ = ["SplitLearning"]


class SplitLearning(Scheme):
    """SL: sequential relay split learning with a single server model."""

    name = "SL"

    def __init__(self, *args: object, cut_layer: int = 1, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.cut_layer = cut_layer
        self.split = split_model(self.model, cut_layer)
        self._client_opt = self._make_sgd(self.split.client.parameters())
        self._server_opt = self._make_sgd(self.split.server.parameters())
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            transport=self.config.transport,
        )

    def _code_client_half(self) -> None:
        """Round-trip the client half through a lossy wire codec in place.

        ``load_state_dict`` rebinds parameter data without changing
        parameter identity, so the persistent optimizer keeps stepping
        the same parameters.
        """
        codec = self._pricing.codec
        if codec.lossy:
            self.split.client.load_state_dict(
                codec.apply_state(self.split.client.state_dict())
            )

    def _run_round(self, round_index: int) -> list[Stage]:
        pricing = self._pricing
        bandwidth = pricing.total_bandwidth_hz  # sole transmitter gets all of it
        client_model_bytes = pricing.client_model_nbytes(self.cut_layer)
        lossy = pricing.codec.lossy
        wire_bytes = pricing.model_wire_nbytes(client_model_bytes)
        scalars = pricing.model_scalars(client_model_bytes) if lossy else 0
        participants = self._round_participants()
        if not participants:
            return []
        stage = Stage("sequential_training")
        track = "sl-relay"
        total_loss = 0.0

        for position, client in enumerate(participants):
            if position == 0:
                # Round start: AP sends the client-side model to the first
                # client (paper §II-A model distribution).
                stage.extend(
                    track,
                    price_model_downlink(
                        pricing, client, client_model_bytes, bandwidth
                    ),
                )
                self._code_client_half()
            loss, activities = split_local_round(
                client_id=client,
                split=self.split,
                client_opt=self._client_opt,
                server_opt=self._server_opt,
                loader=self.client_loaders[client],
                loss_fn=self._loss_fn,
                local_steps=self.config.local_steps,
                pricing=pricing,
                bandwidth_hz=bandwidth,
            )
            total_loss += loss
            stage.extend(track, activities)

            if position < len(participants) - 1:
                # Relay the client-side model to the next client via the AP.
                nxt = participants[position + 1]
                if lossy:
                    stage.add(
                        track,
                        Activity(
                            pricing.client_encode_demand(client, scalars),
                            "encode",
                            f"client-{client}",
                            detail="relay model",
                        ),
                    )
                stage.add(
                    track,
                    Activity(
                        pricing.relay_model_demand(
                            client,
                            nxt,
                            wire_bytes,
                            bandwidth,
                        ),
                        "model_relay",
                        f"client-{client}",
                        nbytes=2 * wire_bytes,
                    ),
                )
                if lossy:
                    stage.add(
                        track,
                        Activity(
                            pricing.client_decode_demand(nxt, scalars),
                            "decode",
                            f"client-{nxt}",
                            detail="relay model",
                        ),
                    )
                self._code_client_half()
            else:
                # Last client returns the client-side model to the AP
                # (paper §II-B-3).
                stage.extend(
                    track,
                    price_model_uplink(
                        pricing, client, client_model_bytes, bandwidth
                    ),
                )
                self._code_client_half()

        self._last_train_loss = total_loss / len(participants)
        return [stage]

    def server_side_replicas(self) -> int:
        """Vanilla SL hosts a single server-side model."""
        return 1

    def server_storage_bytes(self) -> int:
        if not self._pricing.enabled:
            return 0
        return self.profile.server_model_bytes(self.cut_layer)
