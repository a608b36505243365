"""End-to-end GSFL benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload paper-threads --seed 0 --seconds 25 --trace 0

Each repetition builds the workload's scenario from the seed, starts its
executor, constructs the GSFL scheme (together: set-up) and trains the
workload's rounds.  Repetitions run until ``--seconds`` is spent (at least
two), every one is checked, and all must produce the same simulated
result.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
split of the traced ones plus the tracing overhead.

Standard output holds a ``meta`` line describing the machine, then one
line per metric with its unit, then the result as one JSON object on the
last line; each repetition's timings go to standard error.  BLAS threads
are left as the environment sets them: pinning them would hide the
oversubscription the threaded workload exists to show.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_latency_s": "s",
    "final_accuracy": "fraction",
}
LAYER_TIMES = [
    "data.synthesize",
    "experiments.build",
    "nn.client_forward",
    "nn.server_step",
    "nn.client_backward",
    "nn.optim_step",
    "schemes.train_group",
    "exec.map_groups",
    "core.fedavg",
    "sim.resolve_round",
    "sim.async_server",
    "sim.codec",
    "experiments.dynamics",
    "metrics.evaluate",
]
LAYER_CALLS = [
    "nn.client_forward",
    "nn.server_step",
    "nn.client_backward",
    "nn.optim_step",
    "schemes.train_group",
    "core.fedavg",
    "sim.codec",
    "metrics.evaluate",
]
LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **{f"{name}_calls": "count" for name in LAYER_CALLS},
    "exec.busy_ratio": "ratio",
    "sim.us_per_event": "us",
    "sim.events": "count",
    "sim.aborts": "count",
    "sim.retries": "count",
    "tracing_overhead_s": "s",
}
MIN_REPS = 2
SETUP_REPEATS = 8


@dataclass
class Rep:
    setup_s: float
    run_s: float
    cpu_s: float
    samples: int
    sim_latency_s: float
    final_accuracy: float
    digest: str
    layers: dict[str, float] | None = None


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {SRC}")


def machine_meta(executor: str, workers: int) -> dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta: dict[str, Any] = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "executor": executor,
        "workers": workers,
        "git_sha": _git_sha(),
    }
    # numpy's bundled OpenBLAS reports the thread count it actually uses.
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_int
            meta["blas"]["threads"] = get()
    return meta


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def run_rep(workload: Any, seed: int, executor_kind: str, workers: int | None,
            tracer: Any = None) -> Rep:
    """One repetition: set up, train, check.  Raises on any failure."""
    from checks import check_run, digest
    from repro.exec import make_executor
    from repro.experiments import make_scheme
    from repro.nn.split import ClientHalf

    # Training samples are counted at the client forward, the one call
    # every trained batch passes through.  Executor threads append to one
    # list (atomic) instead of sharing a counter.
    forward = ClientHalf.forward_to_smashed
    batches: list[int] = []

    def counted(self: Any, x: Any) -> Any:
        out = forward(self, x)
        batches.append(out.batch_size)
        return out

    ClientHalf.forward_to_smashed = counted
    try:
        t0 = time.perf_counter()
        built = workload.scenario(seed).build()
        executor = make_executor(executor_kind, workers)
        with executor:
            scheme = make_scheme("GSFL", built, executor=executor)
            t1 = time.perf_counter()
            c1 = time.process_time()
            history = scheme.run(workload.rounds)
            t2 = time.perf_counter()
            c2 = time.process_time()
    finally:
        ClientHalf.forward_to_smashed = forward
    problems = check_run(scheme, workload.rounds)
    if problems:
        raise AssertionError("; ".join(problems))
    rep = Rep(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        cpu_s=c2 - c1,
        samples=sum(batches),
        sim_latency_s=history.points[-1].latency_s,
        final_accuracy=history.points[-1].test_accuracy,
        digest=digest(scheme),
    )
    if tracer is not None:
        rep.layers = _layer_metrics(tracer, scheme, getattr(executor, "workers", 1))
    return rep


def _layer_metrics(tracer: Any, scheme: Any, workers: int) -> dict[str, float]:
    totals = tracer.layer_totals()
    out: dict[str, float] = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = totals.get(name, (0.0, 0))[0]
    for name in LAYER_CALLS:
        out[f"{name}_calls"] = totals.get(name, (0.0, 0))[1]
    tasks, wall = tracer.fanout_busy()
    out["exec.busy_ratio"] = tasks / (workers * wall) if wall > 0 else 0.0
    rec = scheme.recorder
    out["sim.events"] = len(rec)
    out["sim.aborts"] = len(rec.aborts)
    out["sim.retries"] = len(rec.retries)
    out["sim.us_per_event"] = out["sim.resolve_round_s"] * 1e6 / max(len(rec), 1)
    return out


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    executor_kind: str | None = None,
) -> dict[str, Any]:
    """Run repetitions for ``seconds`` and return the result object."""
    from repro.exec import make_executor
    from repro.experiments import make_scheme
    from tracing import Tracer

    kind = executor_kind or workload.executor
    workers = None if kind == "serial" else workload.workers
    print("meta " + json.dumps(machine_meta(kind, workers or 1)), flush=True)

    # Set-up alone, a few times, so its median rests on more samples than
    # the repetitions give.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = workload.scenario(seed).build()
        with make_executor(kind, workers) as executor:
            make_scheme("GSFL", built, executor=executor)
        setups.append(time.perf_counter() - t0)

    plain: list[Rep] = []
    traced: list[Rep] = []
    attempted = failed = 0
    reference: str | None = None
    start = time.perf_counter()
    last = 0.0
    while attempted < MIN_REPS or time.perf_counter() - start + last <= seconds:
        use_trace = trace and attempted % 2 == 1
        attempted += 1
        t = time.perf_counter()
        try:
            if use_trace:
                tracer = Tracer()
                with tracer.installed():
                    rep = run_rep(workload, seed, kind, workers, tracer)
            else:
                rep = run_rep(workload, seed, kind, workers)
            if reference is None:
                reference = rep.digest
            elif rep.digest != reference:
                raise AssertionError("simulated result differs from the first repetition")
        except Exception:
            failed += 1
            traceback.print_exc()
        else:
            print(
                f"rep {attempted}{' traced' if use_trace else ''}: setup {rep.setup_s:.3f} s, "
                f"run {rep.run_s:.3f} s, cpu {rep.cpu_s:.3f} s",
                file=sys.stderr,
            )
            if use_trace:
                traced.append(rep)
            else:
                plain.append(rep)
                setups.append(rep.setup_s)
        last = time.perf_counter() - t
        # Free the finished repetition's reference cycles before the next
        # one allocates, so peak memory does not grow with the rep count.
        gc.collect()

    med = statistics.median
    metrics: dict[str, float] = {}
    if plain and not trace:
        metrics = {
            "setup_s": med(setups),
            "run_s": med(r.run_s for r in plain),
            "cpu_s": med(r.cpu_s for r in plain),
            "train_samples_per_s": med(r.samples / r.run_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_latency_s": plain[0].sim_latency_s,
            "final_accuracy": plain[0].final_accuracy,
        }
    elif plain and traced:
        layers = [r.layers for r in traced if r.layers is not None]
        metrics = {name: med(x[name] for x in layers) for name in layers[0]}
        metrics["tracing_overhead_s"] = med(r.run_s for r in traced) - med(
            r.run_s for r in plain
        )
    units = LAYER_UNITS if trace else E2E_UNITS
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    print(f"{'failed_frac':28s} {failed / attempted:16.6f} fraction")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--executor", choices=("serial", "thread"), default=None,
        help="override the workload's executor (single-worker reference runs)",
    )
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.executor
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
