"""Parameter-sweep and multi-seed aggregation tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import make_executor
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.experiments.sweep import ParameterSweep, SweepAxis
from repro.metrics.history import TrainingHistory
from repro.metrics.multiseed import aggregate_metric, mean_curve, run_multiseed


def _scenario_factory():
    return fast_scenario(with_wireless=True)


class TestSweep:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("x", [])
        with pytest.raises(ValueError):
            SweepAxis("x", [1], target="nowhere")

    def test_scenario_axis(self):
        sweep = ParameterSweep(_scenario_factory)
        rows = sweep.run("GSFL", num_rounds=1, axis=SweepAxis("num_groups", [1, 3]))
        assert [r.value for r in rows] == [1, 3]
        # more groups -> cheaper round
        assert rows[1].total_latency_s < rows[0].total_latency_s

    def test_scheme_config_axis(self):
        sweep = ParameterSweep(_scenario_factory)
        rows = sweep.run(
            "GSFL",
            num_rounds=1,
            axis=SweepAxis("transport", ["float32", "int8"], target="scheme_config"),
        )
        assert rows[1].total_latency_s < rows[0].total_latency_s

    def test_scheme_kwargs_axis(self):
        sweep = ParameterSweep(_scenario_factory)
        rows = sweep.run(
            "GSFL",
            num_rounds=1,
            axis=SweepAxis("failure_rate", [0.0, 1.0], target="scheme_kwargs"),
        )
        assert rows[1].total_latency_s == 0.0

    def test_unknown_scenario_attribute(self):
        sweep = ParameterSweep(_scenario_factory)
        with pytest.raises(AttributeError):
            sweep.run("GSFL", 1, SweepAxis("warp_factor", [9]))

    def test_mutators_apply(self):
        def drop_wireless(scenario):
            scenario.wireless = None
            return scenario

        sweep = ParameterSweep(_scenario_factory, mutators=[drop_wireless])
        rows = sweep.run("SL", num_rounds=1, axis=SweepAxis("num_groups", [2]))
        assert rows[0].total_latency_s == 0.0

    def test_table_renders(self):
        sweep = ParameterSweep(_scenario_factory)
        axis = SweepAxis("num_groups", [2])
        rows = sweep.run("GSFL", 1, axis)
        text = ParameterSweep.table(axis, rows)
        assert "num_groups" in text and "final_acc" in text

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_executor_fanout_matches_serial(self, kind):
        """Each sweep point builds its own independently seeded scenario,
        so fanning points out cannot change any result."""
        axis = SweepAxis("num_groups", [1, 3])
        serial_rows = ParameterSweep(_scenario_factory).run("GSFL", 1, axis)
        with make_executor(kind, 2) as ex:
            fanned_rows = ParameterSweep(_scenario_factory).run(
                "GSFL", 1, axis, executor=ex
            )
        for a, b in zip(serial_rows, fanned_rows):
            assert a.value == b.value
            assert a.final_accuracy == b.final_accuracy
            assert a.total_latency_s == b.total_latency_s


class TestAggregateMetric:
    def test_mean_std(self):
        summary = aggregate_metric("m", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.ci_low < 2.0 < summary.ci_high
        assert summary.num_seeds == 3

    def test_single_value_collapses_ci(self):
        summary = aggregate_metric("m", [5.0])
        assert summary.ci_low == summary.ci_high == 5.0

    def test_nan_filtered(self):
        summary = aggregate_metric("m", [1.0, float("nan"), 3.0])
        assert summary.num_seeds == 2

    def test_all_nan_raises(self):
        with pytest.raises(ValueError):
            aggregate_metric("m", [float("nan")])

    def test_str_renders(self):
        assert "95% CI" in str(aggregate_metric("m", [1.0, 2.0]))


class TestRunMultiseed:
    @staticmethod
    def _fake_experiment(seed: int) -> TrainingHistory:
        h = TrainingHistory(scheme="fake")
        rng = np.random.default_rng(seed)
        acc = 0.0
        for round_index in range(1, 5):
            acc = min(1.0, acc + 0.2 + 0.02 * rng.random())
            h.add(round_index, float(round_index), 1.0 - acc, acc)
        return h

    def test_summaries_present(self):
        out = run_multiseed(self._fake_experiment, seeds=[0, 1, 2], target_accuracy=0.5)
        assert set(out) >= {
            "final_accuracy",
            "best_accuracy",
            "total_latency_s",
            "rounds_to_target",
            "latency_to_target",
        }
        assert out["final_accuracy"].num_seeds == 3

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_multiseed(self._fake_experiment, seeds=[])

    def test_real_scheme_two_seeds(self):
        def experiment(seed: int) -> TrainingHistory:
            built = fast_scenario(with_wireless=False, seed=seed).build()
            return make_scheme("GSFL", built).run(2)

        out = run_multiseed(experiment, seeds=[0, 1])
        assert 0.0 <= out["final_accuracy"].mean <= 1.0

    def test_executor_fanout_matches_serial(self):
        def experiment(seed: int) -> TrainingHistory:
            built = fast_scenario(with_wireless=False, seed=seed).build()
            return make_scheme("GSFL", built).run(1)

        serial = run_multiseed(experiment, seeds=[0, 1])
        with make_executor("thread", 2) as ex:
            fanned = run_multiseed(experiment, seeds=[0, 1], executor=ex)
        assert serial["final_accuracy"].values == fanned["final_accuracy"].values


class TestMeanCurve:
    def test_pointwise_stats(self):
        hs = []
        for offset in (0.0, 0.2):
            h = TrainingHistory(scheme="x")
            for r in (1, 2):
                h.add(r, float(r), 0.0, 0.4 + offset)
            hs.append(h)
        rounds, mean, std = mean_curve(hs)
        np.testing.assert_array_equal(rounds, [1, 2])
        np.testing.assert_allclose(mean, [0.5, 0.5])
        np.testing.assert_allclose(std, [0.1, 0.1])

    def test_mismatched_schedules_rejected(self):
        a = TrainingHistory("a")
        a.add(1, 1.0, 0.0, 0.5)
        b = TrainingHistory("b")
        b.add(2, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            mean_curve([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_curve([])
