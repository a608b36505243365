"""Span recorder that times the library's layers from outside.

``Tracer.installed()`` swaps a timed wrapper in for each public call named
in :data:`TARGETS` and restores the originals on exit, so untraced runs in
the same process execute the library's own functions.  Spans live in
memory; :meth:`Tracer.layer_totals` turns them into per-layer self time
and call counts.

A span's self time is its duration minus the union of its children's
intervals.  Executor worker threads start with an empty span stack, so a
span opened there is parented onto the ``exec.map_groups`` span open in
the submitting thread; without that, the fan-out would count its workers'
time as its own.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core import gsfl
from repro.data.gtsrb import SyntheticGTSRB
from repro.exec import executors
from repro.experiments.dynamics import ClientDynamics
from repro.experiments.scenario import ExperimentScenario
from repro.nn.optim import SGD
from repro.nn.split import ClientHalf, ServerHalf
from repro.schemes import base, split_common
from repro.sim.server import AggregationServer, SyncBarrier
from repro.sim.transport import TransportCodec

FANOUT = "exec.map_groups"


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, layer) for every public call the benchmark times."""
    targets: list[tuple[object, str, str]] = [
        (SyntheticGTSRB, "train_test", "data.synthesize"),
        (ExperimentScenario, "build", "experiments.build"),
        (ClientHalf, "forward_to_smashed", "nn.client_forward"),
        (ServerHalf, "forward_backward", "nn.server_step"),
        (ClientHalf, "backward_from_gradient", "nn.client_backward"),
        (SGD, "step", "nn.optim_step"),
        # GSFL's sync path reaches it through run_group_tasks, its async
        # path through its own module-level import.
        (split_common, "train_split_group", "schemes.train_group"),
        (gsfl, "train_split_group", "schemes.train_group"),
        (gsfl, "fedavg", "core.fedavg"),
        (SyncBarrier, "resolve_round", "sim.resolve_round"),
        (AggregationServer, "run", "sim.async_server"),
        (TransportCodec, "apply_state", "sim.codec"),
        (ClientDynamics, "begin_round", "experiments.dynamics"),
        (ClientDynamics, "unit_round_conditions", "experiments.dynamics"),
        (base, "evaluate_model", "metrics.evaluate"),
    ]
    targets += [
        (codec, "apply", "sim.codec")
        for codec in TransportCodec.__subclasses__()
        if "apply" in vars(codec)
    ]
    owners = {
        next(k for k in kind.__mro__ if "map_groups" in vars(k))
        for kind in executors.EXECUTOR_KINDS.values()
    }
    targets += [(owner, "map_groups", FANOUT) for owner in sorted(owners, key=str)]
    return targets


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else self._fanout
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        if name == FANOUT:

            @functools.wraps(fn)
            def fanout(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name) as sid:
                    outer, tracer._fanout = tracer._fanout, sid
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._fanout = outer

            return fanout

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (self seconds, calls)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            entry = totals[s.name]
            entry[0] += s.end - s.start - covered
            entry[1] += 1
        return {name: (v[0], int(v[1])) for name, v in totals.items()}

    def fanout_busy(self) -> tuple[float, float]:
        """(summed task seconds, summed fan-out wall seconds) of map_groups."""
        fanouts = {s.id: s for s in self.spans if s.name == FANOUT}
        wall = sum(s.end - s.start for s in fanouts.values())
        tasks = sum(s.end - s.start for s in self.spans if s.parent in fanouts)
        return tasks, wall
