"""Parameter-sweep harness.

Grid sweeps over scenario knobs (group count, cut layer, quantization
bits, bandwidth, ...) with a uniform result-table interface — the
machinery behind the ablation studies, exposed so downstream users can
define their own sweeps in a few lines::

    sweep = ParameterSweep(base_scenario_factory=fast_scenario)
    rows = sweep.run(
        scheme="GSFL",
        num_rounds=2,
        axis=SweepAxis("num_groups", [1, 2, 3, 6]),
    )

Each row carries the varied value, final accuracy, total latency and the
full history for custom post-processing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.exec import Executor
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import ExperimentScenario
from repro.metrics.history import TrainingHistory

__all__ = ["SweepAxis", "SweepRow", "ParameterSweep"]


@dataclass(frozen=True)
class SweepAxis:
    """One swept knob: a scenario/scheme attribute and its values.

    ``target`` selects where the knob lives:

    * ``"scenario"`` — attribute of :class:`ExperimentScenario`
      (e.g. ``num_groups``, ``cut_layer``, ``partition``);
    * ``"scheme_config"`` — field of the nested
      :class:`~repro.schemes.base.SchemeConfig` (e.g. ``lr``,
      ``transport``, ``local_steps``);
    * ``"scheme_kwargs"`` — extra constructor kwargs of the scheme class
      (e.g. GSFL's ``failure_rate`` or ``grouping``).
    """

    name: str
    values: list[Any]
    target: str = "scenario"

    def __post_init__(self) -> None:
        if self.target not in ("scenario", "scheme_config", "scheme_kwargs"):
            raise ValueError(f"unknown sweep target {self.target!r}")
        if not self.values:
            raise ValueError("sweep axis needs at least one value")


@dataclass
class SweepRow:
    """Result of one sweep point."""

    value: Any
    final_accuracy: float
    best_accuracy: float
    total_latency_s: float
    history: TrainingHistory


@dataclass
class ParameterSweep:
    """Runs one scheme across an axis of scenario variations.

    ``base_scenario_factory`` is called once per sweep point so every
    point gets a fresh, independently seeded scenario (fading streams do
    not leak across points).
    """

    base_scenario_factory: Callable[[], ExperimentScenario]
    mutators: list[Callable[[ExperimentScenario], ExperimentScenario]] = field(
        default_factory=list
    )

    def _apply(self, scenario: ExperimentScenario, axis: SweepAxis, value: Any
               ) -> tuple[ExperimentScenario, dict[str, Any]]:
        extra_kwargs: dict[str, Any] = {}
        if axis.target == "scenario":
            if not hasattr(scenario, axis.name):
                raise AttributeError(f"scenario has no attribute {axis.name!r}")
            setattr(scenario, axis.name, value)
        elif axis.target == "scheme_config":
            scenario.scheme = replace(scenario.scheme, **{axis.name: value})
        else:
            extra_kwargs[axis.name] = value
        return scenario, extra_kwargs

    def _run_point(self, value: Any, scheme: str, num_rounds: int, axis: SweepAxis
                   ) -> SweepRow:
        """One sweep point: fresh scenario, fresh scheme, full run."""
        scenario = self.base_scenario_factory()
        for mutate in self.mutators:
            scenario = mutate(scenario)
        scenario, extra = self._apply(scenario, axis, value)
        built = scenario.build()
        instance = make_scheme(scheme, built, **extra)
        history = instance.run(num_rounds)
        return SweepRow(
            value=value,
            final_accuracy=history.final_accuracy,
            best_accuracy=history.best_accuracy,
            total_latency_s=history.total_latency_s,
            history=history,
        )

    def run(
        self,
        scheme: str,
        num_rounds: int,
        axis: SweepAxis,
        verbose: bool = False,
        executor: Executor | None = None,
    ) -> list[SweepRow]:
        """Execute the sweep; one fresh scenario + scheme run per value.

        ``executor`` fans the sweep points out as one task each (every
        point builds its own independently seeded scenario, so results
        are identical across backends).  The process backend additionally
        requires ``base_scenario_factory`` and ``mutators`` to be
        picklable (module-level functions, not lambdas).
        """
        point = functools.partial(
            self._run_point, scheme=scheme, num_rounds=num_rounds, axis=axis
        )

        def report(row: SweepRow) -> None:
            print(
                f"{axis.name}={row.value}: acc={row.final_accuracy:.3f}, "
                f"latency={row.total_latency_s:.3f}s"
            )

        if executor is None:
            rows = []
            for value in axis.values:
                row = point(value)
                if verbose:
                    report(row)  # stream progress as each point finishes
                rows.append(row)
        else:
            rows = executor.map_groups(point, axis.values)
            if verbose:
                for row in rows:
                    report(row)
        return rows

    @staticmethod
    def table(axis: SweepAxis, rows: list[SweepRow]) -> str:
        """Render sweep rows as an aligned text table."""
        lines = [f"{axis.name:>16} {'final_acc':>10} {'best_acc':>9} {'latency_s':>10}"]
        for row in rows:
            lines.append(
                f"{str(row.value):>16} {row.final_accuracy:>10.3f} "
                f"{row.best_accuracy:>9.3f} {row.total_latency_s:>10.3f}"
            )
        return "\n".join(lines)
