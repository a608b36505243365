"""The benchmark's workloads: one GSFL configuration each, built from a seed.

Each workload names a scenario, the executor it runs on and the number of
rounds one repetition trains.  The seed is the only input: the same seed
gives the same datasets, wireless fleet, dynamics and initial weights.  Why
each workload exists is recorded next to its name in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.experiments import ExperimentScenario, fast_scenario, paper_scenario
from repro.experiments.dynamics import DynamicsConfig


@dataclass(frozen=True)
class Workload:
    name: str
    executor: str
    workers: int | None
    rounds: int
    scenario: Callable[[int], ExperimentScenario]


def _paper_threads(seed: int) -> ExperimentScenario:
    return paper_scenario(seed=seed)


# The fast scenario tests on 6 images per class; 60 per class keeps the
# binomial noise of final_accuracy across seeds near 2% instead of 7%.
FAST_TEST_PER_CLASS = 60
FLEET_SEED = 0


def _fleet_churn(seed: int) -> ExperimentScenario:
    sc = fast_scenario(num_clients=300, num_groups=30, seed=seed)
    sc.model_name = "mlp"
    sc.dataset = replace(
        sc.dataset, train_per_class=120, test_per_class=FAST_TEST_PER_CLASS
    )
    sc.scheme = replace(sc.scheme, medium="contended", eval_every=5)
    sc.dynamics = DynamicsConfig(
        churn_uptime_s=0.6,
        churn_downtime_s=0.1,
        failure_model="mid-activity",
        max_retries=2,
        seed=seed,
    )
    return sc


def _async_int8(seed: int) -> ExperimentScenario:
    sc = fast_scenario(num_clients=120, num_groups=24, seed=seed)
    sc.model_name = "mlp"
    sc.dataset = replace(
        sc.dataset, train_per_class=48, test_per_class=FAST_TEST_PER_CLASS
    )
    # With device speeds log-normal at sigma 0.8 the slowest group of a
    # fleet draw sets the simulated latency (quartile spread 24% across
    # fleet seeds), so the fleet and its channel are fixed and the seed
    # draws everything else: data, initial weights, batches, stragglers.
    sc.wireless = replace(sc.wireless, heterogeneity=0.8, seed=FLEET_SEED)
    sc.scheme = replace(
        sc.scheme, aggregation="async", transport="int8", eval_every=2
    )
    sc.dynamics = DynamicsConfig(straggler_rate=0.2, straggler_slowdown=4.0, seed=seed)
    return sc


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-threads", "thread", 2, 3, _paper_threads),
        Workload("fleet-churn", "serial", None, 5, _fleet_churn),
        Workload("async-int8", "serial", None, 20, _async_int8),
    )
}
