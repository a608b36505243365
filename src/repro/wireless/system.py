"""Facade tying topology, channel, devices and bandwidth policy together.

:class:`WirelessSystem` is what the training schemes talk to: it owns the
channel (rates and fading), the device fleet (FLOP rates) and the
bandwidth policy that :class:`~repro.schemes.pricing.LatencyModel` turns
into demands.  The schemes themselves stay pure protocol logic over the
discrete-event kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.validation import check_positive
from repro.wireless.bandwidth import BandwidthAllocator, make_allocator
from repro.wireless.channel import ChannelConfig, WirelessChannel
from repro.wireless.devices import DeviceFleet
from repro.wireless.topology import NetworkTopology

__all__ = ["WirelessConfig", "WirelessSystem"]


@dataclass
class WirelessConfig:
    """End-to-end wireless scenario parameters.

    Defaults follow the paper's scale: 30 clients in one small cell with
    an edge server at the AP and 20 MHz of system bandwidth.
    """

    num_clients: int = 30
    total_bandwidth_hz: float = 20e6
    cell_radius_m: float = 120.0
    min_distance_m: float = 10.0
    client_flops: float = 2.5e8
    server_flops: float = 1.0e12
    heterogeneity: float = 0.0
    #: named compute tiers assigned round-robin (None = uniform fleet at
    #: ``client_flops``); see :class:`repro.wireless.devices.DeviceFleet`
    device_classes: "tuple[tuple[str, float], ...] | None" = None
    allocator: str = "equal"
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    deterministic_rates: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_clients", self.num_clients)
        check_positive("total_bandwidth_hz", self.total_bandwidth_hz)


class WirelessSystem:
    """Runtime wireless scenario: channel, device fleet and bandwidth policy."""

    def __init__(self, config: WirelessConfig | None = None) -> None:
        self.config = config or WirelessConfig()
        cfg = self.config
        topo_rng, chan_rng, fleet_rng, fade_rng = spawn_rngs(cfg.seed, 4)
        self.topology = NetworkTopology(
            cfg.num_clients,
            cell_radius_m=cfg.cell_radius_m,
            min_distance_m=cfg.min_distance_m,
            seed=topo_rng,
        )
        channel_cfg = cfg.channel
        if cfg.deterministic_rates:
            channel_cfg = ChannelConfig(
                **{
                    **channel_cfg.__dict__,
                    "rayleigh_fading": False,
                    "shadowing_std_db": 0.0,
                }
            )
        self.channel = WirelessChannel(
            self.topology.distances(), config=channel_cfg, rng=chan_rng
        )
        self.fleet = DeviceFleet(
            cfg.num_clients,
            client_flops=cfg.client_flops,
            server_flops=cfg.server_flops,
            heterogeneity=cfg.heterogeneity,
            seed=fleet_rng,
            device_classes=cfg.device_classes,
        )
        self.allocator: BandwidthAllocator = make_allocator(
            cfg.allocator, cfg.total_bandwidth_hz
        )
        self._fade_rng = new_rng(fade_rng)

    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    # ------------------------------------------------------------------
    # bandwidth shares
    # ------------------------------------------------------------------
    def share_for(self, client: int, num_concurrent: int) -> float:
        """Bandwidth share under an *equal* split with ``num_concurrent`` links.

        Convenience for schemes whose concurrency level is known statically
        (GSFL: M; SL/CL: 1; FL upload: N).
        """
        check_positive("num_concurrent", num_concurrent)
        return self.allocator.total_bandwidth_hz / num_concurrent

    def shares(self, active_clients: list[int]) -> dict[int, float]:
        """Policy-driven shares for an explicit concurrent set."""
        return self.allocator.shares(active_clients, self.channel)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def link_report(self, bandwidth_hz: float | None = None) -> list[dict[str, float]]:
        """Per-client distance / SNR / mean-rate table for inspection."""
        bw = bandwidth_hz or self.allocator.total_bandwidth_hz
        rows = []
        for c in range(self.num_clients):
            rows.append(
                {
                    "client": c,
                    "distance_m": float(self.topology.distance(c)),
                    "snr_db": self.channel.expected_snr_db(c, bw),
                    "mean_uplink_mbps": self.channel.mean_uplink_rate_bps(c, bw, 50) / 1e6,
                }
            )
        return rows
