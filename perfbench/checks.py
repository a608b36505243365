"""Per-repetition correctness checks and the simulated-result digest."""

from __future__ import annotations

import hashlib
import math

from repro.schemes.base import Scheme


def check_run(scheme: Scheme, num_rounds: int) -> list[str]:
    """Every invariant a finished run must satisfy; returns the violations."""
    problems = []
    points = scheme.history.points
    rounds = [p.round_index for p in points]
    # the scheme driver evaluates every eval_every rounds and after the last
    every = scheme.config.eval_every
    expected = [r for r in range(1, num_rounds + 1) if r % every == 0 or r == num_rounds]
    if rounds != expected:
        problems.append(f"history rounds {rounds} != expected evals {expected}")
    for p in points:
        if not 0.0 <= p.test_accuracy <= 1.0:
            problems.append(f"round {p.round_index}: accuracy {p.test_accuracy}")
        if not math.isfinite(p.train_loss):
            problems.append(f"round {p.round_index}: loss {p.train_loss}")
    if len(scheme.round_timings) != num_rounds:
        problems.append(f"{len(scheme.round_timings)} round timings for {num_rounds} rounds")
    aborted = {a.round_index for a in scheme.recorder.aborts}
    for t in scheme.round_timings:
        # The scheme driver's own floor: a round without aborts can never
        # resolve faster than its contention-free lower bound.
        if t.round_index not in aborted and t.des_s < t.lower_bound_s * (1 - 1e-9) - 1e-12:
            problems.append(
                f"round {t.round_index}: des_s {t.des_s} < lower bound {t.lower_bound_s}"
            )
    return problems


def digest(scheme: Scheme) -> str:
    """Hash of everything the simulation computed, independent of host time."""
    rec = scheme.recorder
    parts = [
        repr([(p.round_index, p.latency_s, p.train_loss, p.test_accuracy)
              for p in scheme.history.points]),
        repr([(t.round_index, t.des_s, t.analytic_s, t.lower_bound_s)
              for t in scheme.round_timings]),
        repr((len(rec), len(rec.aborts), len(rec.retries))),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
