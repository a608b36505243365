"""JSONL export of a finished run's trace (``--trace-out``)."""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.devtools.trace_schema import validate_row
from repro.schemes.base import Scheme
from repro.wireless.energy import EnergyModel, EnergyReport

__all__ = ["export_trace"]


def export_trace(path: str, scheme: Scheme, scenario_name: str | None = None) -> None:
    """Write the run's per-activity trace + energy summary as JSONL.

    This is the ``--trace-out`` file of ``repro.cli run``.  The export
    doubles as a trace-*in* format: the ``meta`` row carries the full
    dynamics config (and scenario name/seed), and per-client
    ``availability`` rows record the realized churn toggle streams, so
    ``--scenario replay:<path>`` can re-drive the same fleet history.
    Every row is checked against :mod:`repro.devtools.trace_schema`.
    """
    recorder = scheme.recorder
    dynamics = scheme.dynamics
    total_span = scheme.runtime.now
    energy = EnergyModel()
    with open(path, "w") as fh:
        def emit(row: "dict[str, object]") -> None:
            # Every exported row must match the canonical schema registry
            # (repro.devtools.trace_schema) — the runtime half of TRC001.
            validate_row(row)
            fh.write(json.dumps(row) + "\n")

        emit(
            {
                "type": "meta",
                "scheme": scheme.name,
                "scenario": scenario_name,
                "seed": scheme.config.seed,
                "rounds": len(scheme.round_timings),
                "medium": scheme.config.medium,
                "transport": scheme.config.transport,
                "aggregation": scheme.config.aggregation,
                "failure_model": getattr(scheme, "failure_model", "none"),
                "grouping": getattr(scheme, "grouping", None),
                "regroup": scheme.config.regroup,
                "regroup_every": scheme.config.regroup_every,
                "num_clients": scheme.num_clients,
                "num_groups": getattr(scheme, "num_groups", None),
                "dynamics": asdict(dynamics.config) if dynamics is not None else None,
                "total_latency_s": total_span,
                "events": len(recorder),
                "aborts": len(recorder.aborts),
                "retries": len(recorder.retries),
                "regroups": len(recorder.regroups),
            }
        )
        if dynamics is not None and dynamics.config.has_churn:
            for c in range(dynamics.num_clients):
                emit(
                    {
                        "type": "availability",
                        "client": c,
                        "toggles": dynamics.availability_toggles(c, total_span),
                    }
                )
        if dynamics is not None:
            for rc in dynamics.round_log:
                emit(
                    {
                        "type": "round_conditions",
                        "round": rc.round_index,
                        "time_s": rc.now_s,
                        "available": list(rc.available),
                        "participants": list(rc.participants),
                        "slowdowns": {str(k): v for k, v in rc.slowdowns.items()},
                    }
                )
        for row in recorder.to_rows():
            emit(row)
        for row in recorder.abort_rows():
            emit(row)
        for row in recorder.retry_rows():
            emit(row)
        for row in recorder.regroup_rows():
            emit(row)
        for t in scheme.round_timings:
            emit(
                {
                    "type": "round_timing",
                    "round": t.round_index,
                    "des_s": t.des_s,
                    "analytic_s": t.analytic_s,
                    "lower_bound_s": t.lower_bound_s,
                }
            )
        for u in scheme.aggregation_updates:
            emit(
                {
                    "type": "aggregation_update",
                    "unit": u.unit,
                    "unit_round": u.round_index,
                    "time_s": u.time_s,
                    "staleness": u.staleness,
                    "alpha": u.alpha,
                    "weight": u.weight,
                }
            )
        reports = energy.per_client_energy(recorder, total_span)
        fleet = sum(reports.values(), EnergyReport.zero())
        for actor, report in sorted(reports.items()):
            emit(
                {
                    "type": "energy",
                    "actor": actor,
                    "tx_j": report.tx_j,
                    "rx_j": report.rx_j,
                    "compute_j": report.compute_j,
                    "idle_j": report.idle_j,
                    "total_j": report.total_j,
                }
            )
        emit(
            {
                "type": "energy_summary",
                "tx_j": fleet.tx_j,
                "rx_j": fleet.rx_j,
                "compute_j": fleet.compute_j,
                "idle_j": fleet.idle_j,
                "total_j": fleet.total_j,
            }
        )
