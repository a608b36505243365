"""Canonical schema of the ``--trace-out`` JSONL export.

This module is the *single* source of truth for every trace-row type
and its exact field set.  Three previously independent copies now all
import from here:

* the recorder (:mod:`repro.sim.trace`) validates the rows it renders,
* the exporter (:func:`repro.experiments.trace_export.export_trace`,
  behind ``--trace-out``) validates every row it writes,
* the replay parsers (:mod:`repro.experiments.catalog` meta reader,
  :class:`repro.experiments.availability.TraceReplay`) validate the
  rows they consume,
* the schema-pin tests (``tests/test_cli.py``) assert exported files
  against it.

On top of the runtime checks, lint rule ``TRC001``
(:mod:`repro.devtools.rules`) statically cross-checks every trace-row
dict literal in the source tree against this registry, so a field added
in only one place fails either the lint or the pin suite.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "TRACE_SCHEMAS",
    "ROW_TYPES",
    "REPLAY_META_REQUIRED",
    "REPLAY_AVAILABILITY_REQUIRED",
    "fields_of",
    "validate_row",
]

#: exact key sets of every ``--trace-out`` JSONL record type
TRACE_SCHEMAS: dict[str, frozenset[str]] = {
    "meta": frozenset({
        "type", "scheme", "scenario", "seed", "rounds", "medium", "transport",
        "aggregation", "failure_model", "grouping", "regroup", "regroup_every",
        "num_clients", "num_groups", "dynamics", "total_latency_s", "events",
        "aborts", "retries", "regroups",
    }),
    "availability": frozenset({"type", "client", "toggles"}),
    "round_conditions": frozenset({
        "type", "round", "time_s", "available", "participants", "slowdowns",
    }),
    "activity": frozenset({
        "type", "start_s", "end_s", "duration_s", "phase", "actor", "round",
        "nbytes", "detail",
    }),
    "activity_abort": frozenset({
        "type", "start_s", "time_s", "phase", "actor", "round", "client",
        "resolution",
    }),
    "retry": frozenset({"type", "time_s", "actor", "round", "client", "attempt"}),
    "regroup": frozenset({"type", "time_s", "round", "policy", "groups", "changed"}),
    "round_timing": frozenset({
        "type", "round", "des_s", "analytic_s", "lower_bound_s",
    }),
    "aggregation_update": frozenset({
        "type", "unit", "unit_round", "time_s", "staleness", "alpha", "weight",
    }),
    "energy": frozenset({
        "type", "actor", "tx_j", "rx_j", "compute_j", "idle_j", "total_j",
    }),
    "energy_summary": frozenset({
        "type", "tx_j", "rx_j", "compute_j", "idle_j", "total_j",
    }),
}

#: every registered row type, in a stable order
ROW_TYPES: tuple[str, ...] = tuple(sorted(TRACE_SCHEMAS))

#: ``meta`` fields the trace-replay scenario builder actually reads —
#: a recorded trace missing one of these cannot be replayed faithfully.
REPLAY_META_REQUIRED: frozenset[str] = frozenset(
    {"type", "scheme", "scenario", "seed", "num_clients", "num_groups", "dynamics"}
)

#: ``availability`` fields :class:`TraceReplay` reads per client row.
REPLAY_AVAILABILITY_REQUIRED: frozenset[str] = frozenset(
    {"type", "client", "toggles"}
)


def fields_of(row_type: str) -> frozenset[str]:
    """The exact field set of ``row_type`` (raises on unknown types)."""
    try:
        return TRACE_SCHEMAS[row_type]
    except KeyError:
        raise ValueError(
            f"unknown trace row type {row_type!r}; expected one of {ROW_TYPES}"
        ) from None


def validate_row(row: Mapping[str, Any]) -> None:
    """Check one rendered trace row against the registry.

    Raises ``ValueError`` when the row's ``type`` is unregistered or its
    key set drifts from the canonical schema — the runtime counterpart
    of lint rule TRC001.
    """
    row_type = row.get("type")
    if not isinstance(row_type, str):
        raise ValueError(f"trace row has no string 'type' field: {dict(row)!r}")
    expected = fields_of(row_type)
    got = frozenset(row)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValueError(
            f"trace row {row_type!r} drifts from repro.devtools.trace_schema: "
            f"missing={missing} extra={extra}"
        )
