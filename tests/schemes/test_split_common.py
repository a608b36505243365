"""split_common engine tests: activity structure and wire semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import DataLoader
from repro.nn.split import split_model
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import (
    price_local_round,
    price_relay_chain,
    split_step_math,
)


@pytest.fixture
def setup(small_cnn, small_dataset):
    split = split_model(small_cnn, 2)
    loader = DataLoader(small_dataset, batch_size=8, seed=0)
    c_opt = nn.SGD(split.client.parameters(), lr=0.05)
    s_opt = nn.SGD(split.server.parameters(), lr=0.05)
    return split, loader, c_opt, s_opt


def _train(split, c_opt, s_opt, loader, local_steps, codec=None):
    """One client's local round of split steps; returns the mean loss."""
    total = 0.0
    for _ in range(local_steps):
        xb, yb = loader.sample_batch()
        total += split_step_math(
            split, c_opt, s_opt, xb, yb, nn.CrossEntropyLoss(), codec
        )
    return total / local_steps


class TestActivityStructure:
    def test_activities_per_step(self):
        activities = price_local_round(
            client_id=0,
            cut=2,
            local_steps=3,
            pricing=LatencyModel(None, None, 8),
            bandwidth_hz=1e6,
        )
        # 5 activities per batch: fwd, up, server, down, bwd
        assert len(activities) == 3 * 5
        phases = [a.phase for a in activities[:5]]
        assert phases == [
            "client_compute",
            "uplink_smashed",
            "server_compute",
            "downlink_gradient",
            "client_compute",
        ]

    def test_relay_chain_structure(self, small_dataset):
        """Downlink, each member's local round joined by relays, upload."""
        loaders = [DataLoader(small_dataset, batch_size=8, seed=s) for s in range(3)]
        activities, batches = price_relay_chain(
            LatencyModel(None, None, 8), loaders, [2, 0], 2, 3, 1e6, 1000
        )
        assert [len(b) for b in batches] == [3, 3]
        assert [(a.phase, a.actor) for a in activities if a.phase.startswith("model")] == [
            ("model_distribution", "client-2"),
            ("model_relay", "client-2"),
            ("model_upload", "client-0"),
        ]
        assert len(activities) == 3 + 2 * 3 * 5

    def test_zero_priced_without_system(self):
        activities = price_local_round(0, 2, 2, LatencyModel(None, None, 8), 1e6)
        assert all(a.duration_s == 0.0 for a in activities)

    def test_loss_decreases_over_rounds(self, setup):
        split, loader, c_opt, s_opt = setup
        losses = []
        for _ in range(8):
            losses.append(_train(split, c_opt, s_opt, loader, 4))
        assert losses[-1] < losses[0]


def _intk(bits):
    return "float32" if bits is None else f"intk:{bits}"


class TestWireQuantization:
    def test_quantization_changes_training(self, small_cnn, small_dataset):
        """With an intk transport, the server trains on lossy activations,
        so the parameter trajectory must diverge from float32."""

        def run(bits):
            model = nn.Sequential(
                nn.Conv2d(2, 3, 3, padding=1, seed=1),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(3 * 4 * 4, 5, seed=2),
            )
            split = split_model(model, 2)
            loader = DataLoader(small_dataset, batch_size=8, seed=0)
            c_opt = nn.SGD(split.client.parameters(), lr=0.05)
            s_opt = nn.SGD(split.server.parameters(), lr=0.05)
            pricing = LatencyModel(None, None, 8, transport=_intk(bits))
            _train(split, c_opt, s_opt, loader, 2, pricing.codec)
            return model.state_dict()

        full = run(None)
        quant = run(4)
        assert any(not np.allclose(full[k], quant[k]) for k in full)

    def test_high_bit_quantization_stays_close(self, small_dataset):
        """16-bit wire should barely perturb the trajectory."""

        def run(bits):
            model = nn.Sequential(
                nn.Flatten(), nn.Linear(2 * 8 * 8, 16, seed=3), nn.ReLU(),
                nn.Linear(16, 5, seed=4),
            )
            split = split_model(model, 2)
            loader = DataLoader(small_dataset, batch_size=8, seed=0)
            c_opt = nn.SGD(split.client.parameters(), lr=0.05)
            s_opt = nn.SGD(split.server.parameters(), lr=0.05)
            pricing = LatencyModel(None, None, 8, transport=_intk(bits))
            return _train(split, c_opt, s_opt, loader, 2, pricing.codec)

        assert run(16) == pytest.approx(run(None), rel=0.05)
