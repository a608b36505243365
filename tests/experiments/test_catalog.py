"""Scenario catalog: registry API, world presets, record -> replay."""

from __future__ import annotations

import json

import pytest

from repro.experiments.catalog import (
    SCENARIO_REGISTRY,
    describe_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario, paper_scenario
from repro.experiments.trace_export import export_trace


class TestRegistryAPI:
    def test_catalog_ships_at_least_six_worlds_beyond_presets(self):
        worlds = [e for e in list_scenarios() if "preset" not in e.tags]
        assert len(worlds) >= 6
        names = {e.name for e in worlds}
        assert {"churn", "diurnal", "cell-outage", "mobility",
                "device-classes", "cross-traffic"} <= names

    def test_entries_carry_metadata(self):
        for entry in list_scenarios():
            assert entry.summary
            assert entry.name in SCENARIO_REGISTRY
            assert callable(entry.builder)

    def test_list_is_sorted(self):
        names = [e.name for e in list_scenarios()]
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("fast", summary="dup")(lambda seed=0: None)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown scenario") as excinfo:
            get_scenario("astrology")
        assert "churn" in str(excinfo.value)
        assert "replay:" in str(excinfo.value)

    def test_describe_every_world(self):
        for entry in list_scenarios():
            text = describe_scenario(entry.name)
            assert f"scenario : {entry.name}" in text
            assert "fleet" in text

    def test_describe_device_classes_lists_tiers(self):
        text = describe_scenario("device-classes")
        assert "phone" in text and "edge-box" in text

    def test_describe_cross_traffic_lists_link_load(self):
        text = describe_scenario("cross-traffic")
        assert "burst source" in text and "60%" in text


class TestPresetEquality:
    """``--scenario fast|paper`` must be the flag-built presets, exactly."""

    def test_fast_matches_flag_built(self):
        assert get_scenario("fast", seed=3) == fast_scenario(
            with_wireless=True, seed=3
        )

    def test_paper_matches_flag_built(self):
        assert get_scenario("paper", seed=1) == paper_scenario(
            with_wireless=True, seed=1
        )

    def test_registered_fast_history_is_bitwise_identical(self):
        """Same world -> same run: losses/accuracies match to the bit."""
        runs = []
        for scenario in (get_scenario("fast"), fast_scenario(with_wireless=True)):
            scheme = make_scheme("GSFL", scenario.build())
            history = scheme.run(1)
            runs.append((history.losses, history.accuracies, history.latencies))
        assert runs[0] == runs[1]

    def test_every_world_builds_and_validates(self):
        for entry in list_scenarios():
            scenario = entry.builder(0)
            assert scenario.num_clients >= scenario.num_groups
            if scenario.dynamics is not None:
                scenario.dynamics.validate()


class TestRecordReplay:
    def _record(self, tmp_path, rounds=2):
        path = str(tmp_path / "rec.jsonl")
        scenario = get_scenario("churn")
        scheme = make_scheme("GSFL", scenario.build())
        scheme.run(rounds)
        export_trace(path, scheme, scenario_name="churn")
        return path, scheme

    def test_round_trip_reproduces_round_conditions(self, tmp_path):
        """The replay world re-drives availability exactly: every round
        resolves the same available set and participant list."""
        path, recorded = self._record(tmp_path)
        replayed = make_scheme("GSFL", get_scenario(f"replay:{path}").build())
        replayed.run(2)

        def log(scheme):
            return [
                (rc.round_index, rc.available, rc.participants)
                for rc in scheme.dynamics.round_log
            ]

        assert log(recorded) == log(replayed)

    def test_replay_scenario_carries_recorded_world_shape(self, tmp_path):
        path, recorded = self._record(tmp_path)
        scenario = get_scenario(f"replay:{path}")
        assert scenario.num_clients == 12 and scenario.num_groups == 4
        dyn = scenario.dynamics
        assert dyn.availability == f"trace:{path}"
        assert dyn.failure_model == "mid-activity"
        assert dyn.churn_uptime_s == 0.15

    def test_replay_of_unregistered_scenario_falls_back_to_fast(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        # repro: disable=TRC001 (deliberately partial meta: foreign/older traces fall back to the base world)
        path.write_text(json.dumps({
            "type": "meta", "scenario": "retired-world", "seed": 2,
            "num_clients": 6, "num_groups": 2,
            "dynamics": {"churn_uptime_s": 0.2, "churn_downtime_s": 0.1},
        }) + "\n")
        scenario = get_scenario(f"replay:{path}")
        assert scenario.num_clients == 6
        assert scenario.dynamics.availability == f"trace:{path}"
        assert scenario.dynamics.churn_uptime_s == 0.2

    def test_replay_rebuilds_fleet_on_size_mismatch(self, tmp_path):
        path = tmp_path / "big.jsonl"
        # repro: disable=TRC001 (deliberately partial meta: replay must rebuild the fleet from the shape fields alone)
        path.write_text(json.dumps({
            "type": "meta", "scenario": "fast", "seed": 0,
            "num_clients": 9, "num_groups": 3, "dynamics": None,
        }) + "\n")
        scenario = get_scenario(f"replay:{path}")
        assert scenario.num_clients == 9 and scenario.num_groups == 3

    def test_replay_without_meta_row_rejected(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        # repro: disable=TRC001 (bare row on purpose: a trace with no meta must be rejected)
        path.write_text(json.dumps({"type": "activity"}) + "\n")
        with pytest.raises(ValueError, match="no leading 'meta' row"):
            get_scenario(f"replay:{path}")

    def test_replay_missing_file_rejected(self):
        with pytest.raises(ValueError, match="cannot read"):
            get_scenario("replay:/nonexistent.jsonl")
