"""Smoke check of the benchmark itself at toy size.

Runs the benchmark's measurement loop on two small GSFL configurations
(sync on the thread executor, async with the int8 codec) and checks that
the printed metrics match BENCHMARK.json by name and unit, that the
traced and untraced runs both complete, and that the correctness checks
fire on broken results.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from repro.exec import make_executor  # noqa: E402
from repro.experiments import fast_scenario, make_scheme  # noqa: E402
from repro.nn.split import ClientHalf  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _toy_async(seed: int):
    sc = fast_scenario(seed=seed)
    sc.scheme = replace(sc.scheme, aggregation="async", transport="int8")
    return sc


TOY_SYNC = Workload("toy-sync", "thread", 2, 2, lambda seed: fast_scenario(seed=seed))
TOY_ASYNC = Workload("toy-async", "serial", None, 2, _toy_async)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == run.E2E_UNITS
    assert _units("per_layer") == run.LAYER_UNITS


def test_real_workloads_set_up():
    for workload in WORKLOADS.values():
        built = workload.scenario(0).build()
        with make_executor(workload.executor, workload.workers) as executor:
            make_scheme("GSFL", built, executor=executor)


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.measure(TOY_SYNC, seed=0, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [TOY_SYNC, TOY_ASYNC], ids=lambda w: w.name)
def test_traced_run_reports_every_layer(workload):
    original = vars(ClientHalf)["forward_to_smashed"]
    result = run.measure(workload, seed=0, seconds=0, trace=True)
    assert result["correct"]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units("per_layer")
    assert all(math.isfinite(v) for v in values.values())
    # every wrapped call is restored once the traced repetition ends
    assert vars(ClientHalf)["forward_to_smashed"] is original
    assert values["nn.client_forward_calls"] > 0
    assert values["schemes.train_group_calls"] > 0
    assert values["sim.events"] > 0
    if workload is TOY_SYNC:
        assert values["sim.resolve_round_s"] > 0
        assert 0 < values["exec.busy_ratio"] <= 1
        # worker-thread spans are parented onto the fan-out, so it keeps
        # only its own bookkeeping as self time
        nn_s = sum(v for n, v in values.items() if n.startswith("nn.") and n.endswith("_s"))
        assert values["exec.map_groups_s"] < 0.2 * nn_s
    else:
        assert values["sim.async_server_s"] > 0
        assert values["sim.codec_calls"] > 0


def test_self_time_excludes_children_in_worker_threads():
    tracer = Tracer()
    executor = make_executor("thread", 2)
    with tracer.installed(), executor:
        def task(_):
            with tracer.span("child"):
                time.sleep(0.05)

        executor.map_groups(task, [0, 1, 2, 3])
    totals = tracer.layer_totals()
    fanout_self, calls = totals["exec.map_groups"]
    assert calls == 1 and totals["child"][1] == 4
    # a fan-out that counted its workers' time would keep half of it here
    assert fanout_self < 0.2 * totals["child"][0]
    tasks, wall = tracer.fanout_busy()
    assert 0 < tasks / (2 * wall) <= 1.0 + 1e-9


def _finished_toy_scheme():
    built = fast_scenario(seed=0).build()
    scheme = make_scheme("GSFL", built)
    scheme.run(2)
    return scheme


def test_checks_fire_on_broken_results():
    scheme = _finished_toy_scheme()
    assert checks.check_run(scheme, 2) == []
    points = scheme.history.points
    good = list(points)
    for broken in (
        replace(good[-1], test_accuracy=1.5),
        replace(good[-1], train_loss=float("nan")),
    ):
        points[-1] = broken
        assert checks.check_run(scheme, 2)
    points[:] = good[:-1]
    assert checks.check_run(scheme, 2)
    points[:] = good
    timing = scheme.round_timings[0]
    scheme.round_timings[0] = replace(timing, des_s=timing.lower_bound_s / 2)
    assert checks.check_run(scheme, 2)


def test_a_changed_simulated_result_counts_as_failed(monkeypatch):
    digests = iter(str(i) for i in range(100))
    monkeypatch.setattr(checks, "digest", lambda scheme: next(digests))
    result = run.measure(TOY_ASYNC, seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1 >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "async-int8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
