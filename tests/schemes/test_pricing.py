"""LatencyModel pricing tests."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import fast_scenario
from repro.schemes.pricing import LatencyModel
from repro.sim.runtime import demand_lower_bound_s, demand_nominal_s


@pytest.fixture(scope="module")
def built():
    from dataclasses import replace

    scenario = fast_scenario(with_wireless=True)
    scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
    return scenario.build()


@pytest.fixture(scope="module")
def pricing(built):
    return LatencyModel(built.system, built.profile, batch_size=16)


class TestDisabledMode:
    def test_all_zero_without_system(self):
        p = LatencyModel(None, None, batch_size=8)
        assert not p.enabled
        assert demand_lower_bound_s(p.client_forward_demand(0, 1)) == 0.0
        assert demand_nominal_s(p.uplink_smashed_demand(0, 1, 1e6)) == 0.0
        assert p.smashed_nbytes(1) == 0
        assert p.full_model_nbytes() == 0
        assert demand_lower_bound_s(p.aggregation_demand(5, 1000)) == 0.0
        assert p.dataset_nbytes(10) == 0

    def test_partial_args_rejected(self, built):
        with pytest.raises(ValueError):
            LatencyModel(built.system, None, 8)

    def test_transport_validated(self, built):
        with pytest.raises(ValueError):
            LatencyModel(built.system, built.profile, 8, transport="intk:0")


class TestComputePricing:
    def test_client_slower_than_server(self, pricing):
        cut = 2
        client = demand_lower_bound_s(pricing.client_forward_demand(0, cut))
        # same FLOPs on the edge server
        server_equiv = pricing.system.fleet.server.compute_time(
            pricing.profile.client_forward_flops(cut) * pricing.batch_size
        )
        assert client > server_equiv

    def test_backward_costs_more_than_forward(self, pricing):
        backward = demand_lower_bound_s(pricing.client_backward_demand(0, 2))
        assert backward > demand_lower_bound_s(pricing.client_forward_demand(0, 2))

    def test_full_step_exceeds_split_client_step(self, pricing):
        full = demand_lower_bound_s(pricing.client_full_step_demand(0))
        split = demand_lower_bound_s(
            pricing.client_forward_demand(0, 1)
        ) + demand_lower_bound_s(pricing.client_backward_demand(0, 1))
        assert full > split

    def test_aggregation_scales_with_participants(self, pricing):
        assert demand_lower_bound_s(pricing.aggregation_demand(10, 1000)) == pytest.approx(
            10 * demand_lower_bound_s(pricing.aggregation_demand(1, 1000)), rel=1e-9
        )


class TestTransmissionPricing:
    def test_more_bandwidth_is_faster(self, pricing):
        slow = demand_nominal_s(pricing.uplink_smashed_demand(0, 2, 1e6))
        fast = demand_nominal_s(pricing.uplink_smashed_demand(0, 2, 10e6))
        assert fast < slow

    def test_smashed_bytes_scale_with_batch(self, built):
        p8 = LatencyModel(built.system, built.profile, batch_size=8)
        p16 = LatencyModel(built.system, built.profile, batch_size=16)
        assert p16.smashed_nbytes(2) == 2 * p8.smashed_nbytes(2)

    def test_broadcast_gated_by_weakest_client(self, pricing, built):
        clients = list(range(built.system.num_clients))
        broadcast = demand_nominal_s(
            pricing.broadcast_model_demand(clients, 10_000, 1e6)
        )
        singles = [
            demand_nominal_s(pricing.downlink_model_demand(c, 10_000, 1e6))
            for c in clients
        ]
        assert broadcast == pytest.approx(max(singles), rel=0.35)

    def test_dataset_bytes(self, pricing, built):
        per_sample = 1
        import numpy as np

        per_sample = int(np.prod(built.profile.input_shape)) + 1
        assert pricing.dataset_nbytes(10) == 10 * per_sample * 4

    def test_zero_byte_transfers_free(self, pricing):
        assert demand_nominal_s(pricing.uplink_model_demand(0, 0, 1e6)) == 0.0
        assert demand_nominal_s(pricing.downlink_model_demand(0, 0, 1e6)) == 0.0
