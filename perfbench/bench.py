"""Set up a workload, measure it in a closed loop, check it, and report metrics.

One process, one client: each operation starts only after the previous
one returned.  End-to-end metrics come from an untraced run, with each
time scaled by the host speed that ``reference`` samples just before and
just after it.
A traced run (``trace=True``) traces every second operation, reports the
per-layer metrics from the traced ones, and states the tracing overhead
as the difference between traced and untraced operations.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from reference import NOMINAL_S, Reference
from workloads import WORKLOADS, Scale, Workload

SETUP_BUDGET_S = 1.0  # set-ups repeat until this much time has passed ...
MIN_SETUPS = 30  # ... and at least this many ran; setup_s is their median
WARMUP_S = 0.3  # untimed operations (at least one) before measuring
MAX_REPORTED_FAILURES = 5


@dataclass
class Measurement:
    durations: list[float] = field(default_factory=list)
    marks: list[int] = field(default_factory=list)  # reference samples taken before each timed operation
    attempted: int = 0
    failed: int = 0

    def add(self, other: "Measurement") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def _attempt(workload: Workload, op, i: int, m: Measurement, timed: bool) -> None:
    """Run one operation; an exception or a failed check counts as a failure."""
    m.attempted += 1
    t1 = None
    t0 = perf_counter()
    try:
        result = op(i)
        t1 = perf_counter()
        error = workload.check(result)
    except Exception:  # the loop must keep running; the failure is counted and shown
        error = traceback.format_exc(limit=3)
    if t1 is None:
        t1 = perf_counter()
    if timed:
        m.durations.append(t1 - t0)
    if error is not None:
        m.failed += 1
        if m.failed <= MAX_REPORTED_FAILURES:
            kind = "operation" if timed else "warm-up operation"
            print(f"{kind} {i} failed: {error}", file=sys.stderr)


def measure(workload: Workload, seconds: float, reference: Reference, timed: bool = True) -> Measurement:
    """Closed loop for ``seconds`` (at least one operation), sampling the reference between operations."""
    m = Measurement()
    start = perf_counter()
    i = 0
    while True:
        if timed:
            m.marks.append(len(reference.samples))
        _attempt(workload, workload.op, i, m, timed)
        reference.maybe_sample()
        i += 1
        if perf_counter() - start >= seconds:
            return m


def measure_alternating(workload: Workload, seconds: float, tracer: tracing.Tracer) -> tuple[Measurement, Measurement]:
    """Closed loop that traces every second operation; returns (untraced, traced).

    Pairing neighbouring operations keeps machine drift out of the
    tracing-overhead estimate.
    """
    plain, traced = Measurement(), Measurement()
    instrumented = tracing.Installed(tracer)
    traced_op = tracer.wrap("op", workload.op)
    start = perf_counter()
    i = 0
    while True:
        if i % 2:
            with instrumented:
                _attempt(workload, traced_op, i, traced, timed=True)
        else:
            _attempt(workload, workload.op, i, plain, timed=True)
        i += 1
        if i % 2 == 0 and perf_counter() - start >= seconds:
            return plain, traced


def setup_times(workload: Workload, seed: int, reference: Reference) -> Measurement:
    """Set-up times, at least ``MIN_SETUPS`` over at least ``SETUP_BUDGET_S``; the reference is sampled around each."""
    m = Measurement()
    reference.sample()
    start = perf_counter()
    while len(m.durations) < MIN_SETUPS or perf_counter() - start < SETUP_BUDGET_S:
        m.marks.append(len(reference.samples))
        t0 = perf_counter()
        workload.setup(seed)
        m.durations.append(perf_counter() - t0)
        reference.sample()
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "note": "not pinned to a CPU and no cache dropped: figures include whatever else the host runs",
    }


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(workload: Workload, m: Measurement, speeds, setups: Measurement, setup_speeds) -> dict[str, float]:
    """End-to-end metrics; each time is scaled by the host speed sampled around it."""
    d = np.asarray(m.durations) * speeds
    return {
        "windows_per_s": workload.windows_per_op * len(d) / float(d.sum()),
        "op_ms_p90": _percentile(d, 90) * 1e3,
        "setup_s": float(np.median(np.asarray(setups.durations) * setup_speeds)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (m.attempted - m.failed) / m.attempted,
    }


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict, workdir: Path,
        scale: Scale | None = None, say=print) -> dict:
    """Run one workload and return the result object the benchmark prints last."""
    scale = Scale() if scale is None else scale
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](scale, workdir)
    env = environment()
    say(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    say("env " + json.dumps(env, sort_keys=True))
    try:
        setup_tracer = tracing.Tracer()
        installed = tracing.Installed(setup_tracer) if trace else contextlib.nullcontext()
        setup_reference = Reference()
        with installed:
            setups = setup_times(workload, seed, setup_reference)
        reference = Reference()
        reference.sample()
        total = measure(workload, WARMUP_S, reference, timed=False)
        if not trace:
            m = measure(workload, seconds, reference)
            total.add(m)
            speeds, setup_speeds = reference.speeds(m.marks), setup_reference.speeds(setups.marks)
            values = end_to_end(workload, m, speeds, setups, setup_speeds)
            raw = end_to_end(workload, m, 1.0, setups, 1.0)
            say(f"host speed: median {np.median(speeds):.4f} (range {speeds.min():.4f}-{speeds.max():.4f}) "
                f"while measuring, {np.median(setup_speeds):.4f} while setting up, from "
                f"{len(reference.samples) + len(setup_reference.samples)} reference kernel samples, nominal "
                f"{1e3 * NOMINAL_S:.4g} ms; unscaled windows_per_s {raw['windows_per_s']:.6g}, "
                f"op_ms_p90 {raw['op_ms_p90']:.6g}, setup_s {raw['setup_s']:.6g}")
            wanted = spec["end_to_end"]
        else:
            tracer = tracing.Tracer()
            plain, m = measure_alternating(workload, seconds, tracer)
            total.add(plain)
            total.add(m)
            wanted = spec["per_layer"]
            values = tracing.layer_metrics(
                [w["name"] for w in wanted], setup_tracer, len(setups.durations), tracer,
                n_ops=m.attempted, n_windows=m.attempted * workload.windows_per_op,
            )
            _report_trace(name, seed, env, plain, m, setup_tracer, len(setups.durations), tracer, installed.missing,
                          workdir, say)
        say(f"samples: {len(m.durations)} timed operations of {workload.windows_per_op} window(s), "
            f"op_ms p50 {_percentile(m.durations, 50) * 1e3:.6g}, mean {1e3 * sum(m.durations) / len(m.durations):.6g}; "
            f"set-up median of {len(setups.durations)}")
        for key, val in workload.detail().items():
            say(f"{key}: {val}")
    finally:
        workload.cleanup()
    metrics = {}
    for w in wanted:
        metrics[w["name"]] = {"value": values[w["name"]], "unit": w["unit"]}
        say(f"{w['name']:44s} {values[w['name']]:.6g} {w['unit']}")
    return {"correct": total.failed == 0, "attempted": total.attempted, "failed": total.failed, "metrics": metrics}


def _report_trace(name, seed, env, plain: Measurement, traced: Measurement, setup_tracer, n_setups: int,
                  tracer, missing: list[str], workdir: Path, say) -> None:
    """Print the tracing overhead and per-span table; write spans and summary to ``workdir``."""
    p_plain = _percentile(plain.durations, 50) * 1e3
    p_traced = _percentile(traced.durations, 50) * 1e3
    overhead = {
        "op_ms_p50_untraced": p_plain,
        "op_ms_p50_traced": p_traced,
        "overhead_ms": p_traced - p_plain,
        "overhead_share": (p_traced - p_plain) / p_plain,
        "untraced_ops": len(plain.durations),
        "traced_ops": len(traced.durations),
    }
    say(f"tracing overhead: op_ms_p50 {p_plain:.6g} untraced (n={len(plain.durations)}) vs "
        f"{p_traced:.6g} traced (n={len(traced.durations)}): {overhead['overhead_ms']:+.4g} ms "
        f"({100 * overhead['overhead_share']:+.2f}%)")
    # a target the program no longer has reads 0, which must not pass for a speed-up
    say(f"missing targets: {', '.join(missing) if missing else 'none'}")
    tables = {"setup": tracing.span_table(setup_tracer), "measured": tracing.span_table(tracer)}
    units = {"setup": n_setups, "measured": len(traced.durations)}
    for phase, table in tables.items():
        say(f"{phase} spans, per {'set-up' if phase == 'setup' else 'operation'}: calls, total s, self s")
        for span, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
            if not row["calls"]:
                continue
            n = units[phase]
            say(f"  {span:36s} {row['calls'] / n:10.4g} {row['total_s'] / n:12.6g} {row['self_s'] / n:12.6g}")
    stem = workdir / f"trace-{name}-seed{seed}"
    for phase, t in (("setup", setup_tracer), ("measured", tracer)):
        np.savez_compressed(f"{stem}-{phase}.npz", names=np.array(t.names), **t.arrays())
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": env, "overhead": overhead, "units": units,
                   "missing_targets": missing, "spans": tables}, fh, indent=1, sort_keys=True)
    say(f"spans written to {stem}-setup.npz, {stem}-measured.npz and {stem}.json")

