"""Abl-3 — bandwidth/compute resource allocation (paper §IV future work).

Compares the equal inter-group bandwidth split (the paper's implicit
baseline) against the min-max optimizer from ``repro.core.resource``,
then replays a real GSFL round under each split.

The workload curves handed to the optimizer are priced by the *same*
:class:`~repro.schemes.pricing.LatencyModel` the scheme itself uses, on a
deterministic-rate channel, so the optimizer's min-max guarantee must
carry over to the simulated round.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import run_once
from repro.core.resource import GroupWorkload, equal_bandwidth_split, minmax_bandwidth_split
from repro.experiments import fast_scenario, make_scheme
from repro.schemes.pricing import LatencyModel
from repro.sim.runtime import demand_lower_bound_s, demand_nominal_s


def _group_workloads(built, scenario, groups):
    """Per-group latency curves priced exactly like split_local_round."""
    pricing = LatencyModel(built.system, built.profile, scenario.scheme.batch_size)
    cut = scenario.resolved_cut_layer()
    steps = scenario.scheme.local_steps
    model_bytes = pricing.client_model_nbytes(cut)

    def latency_fn_for(members):
        def fn(bandwidth_hz: float) -> float:
            total = demand_nominal_s(
                pricing.downlink_model_demand(members[0], model_bytes, bandwidth_hz)
            )
            for pos, client in enumerate(members):
                per_batch = (
                    demand_lower_bound_s(pricing.client_forward_demand(client, cut))
                    + demand_nominal_s(
                        pricing.uplink_smashed_demand(client, cut, bandwidth_hz)
                    )
                    + demand_lower_bound_s(pricing.server_split_step_demand(cut))
                    + demand_nominal_s(
                        pricing.downlink_gradient_demand(client, cut, bandwidth_hz)
                    )
                    + demand_lower_bound_s(pricing.client_backward_demand(client, cut))
                )
                total += steps * per_batch
                total += demand_nominal_s(
                    pricing.uplink_model_demand(client, model_bytes, bandwidth_hz)
                )
                if pos < len(members) - 1:
                    total += demand_nominal_s(
                        pricing.downlink_model_demand(
                            members[pos + 1], model_bytes, bandwidth_hz
                        )
                    )
            return total

        return fn

    return [GroupWorkload(g, latency_fn_for(m)) for g, m in enumerate(groups)]


def test_ablation_resource_allocation(benchmark):
    scenario = fast_scenario(with_wireless=True, num_clients=12, num_groups=3)
    # Deterministic rates make the analytic curves exact; channel-side
    # imbalance comes from the distance spread across groups.
    scenario.wireless = replace(scenario.wireless, deterministic_rates=True)
    built = scenario.build()
    total_bw = built.system.allocator.total_bandwidth_hz
    groups = make_scheme("GSFL", built).groups
    workloads = _group_workloads(built, scenario, groups)

    def experiment():
        eq = equal_bandwidth_split(total_bw, len(workloads))
        t_eq = max(w.latency_fn(b) for w, b in zip(workloads, eq))
        shares, t_opt = minmax_bandwidth_split(workloads, total_bw)
        round_eq = make_scheme("GSFL", built, bandwidth_shares=eq).run(1).total_latency_s
        round_opt = (
            make_scheme("GSFL", built, bandwidth_shares=shares).run(1).total_latency_s
        )
        return {
            "analytic_equal_s": t_eq,
            "analytic_minmax_s": t_opt,
            "round_equal_s": round_eq,
            "round_minmax_s": round_opt,
            "shares_mhz": [b / 1e6 for b in shares],
        }

    result = run_once(benchmark, experiment)

    print()
    print("Abl-3: inter-group bandwidth allocation")
    print(f"analytic round time  equal: {result['analytic_equal_s']:.3f} s, "
          f"min-max: {result['analytic_minmax_s']:.3f} s")
    print(f"simulated round      equal: {result['round_equal_s']:.3f} s, "
          f"min-max: {result['round_minmax_s']:.3f} s")
    print("min-max shares (MHz):", [round(b, 2) for b in result["shares_mhz"]])

    # The optimizer can never lose on its own objective...
    assert result["analytic_minmax_s"] <= result["analytic_equal_s"] * 1.001
    # ...and with exact pricing the simulated round must agree (only the
    # aggregation-stage constant separates them).
    assert result["round_minmax_s"] <= result["round_equal_s"] * 1.02
    benchmark.extra_info.update(
        {k: round(v, 4) for k, v in result.items() if isinstance(v, float)}
    )
