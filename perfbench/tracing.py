"""Spans around calls into freqlens, recorded from outside the program.

A traced run replaces each function in ``TARGETS`` with a wrapper that
records one span per call: name, start, end and the span that was open
when it was called.  Wrappers are installed at the name callers look up,
so ``training.train`` calling ``backward`` (imported by name) is seen at
``freqlens.training.backward``, and ``model`` calling ``ad.einsum`` is
seen at ``freqlens.autodiff.einsum``.  Spans stay in memory and are
written out when the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

from freqlens.autodiff import Tensor

# (module, attribute path, span name); the span name is "<layer>.<function>"
TARGETS = [
    ("freqlens.training", "backward", "autodiff.backward"),
    ("freqlens.autodiff", "einsum", "autodiff.einsum"),
    ("freqlens.autodiff", "matmul", "autodiff.matmul"),
    ("freqlens.model", "project", "model.project"),
    ("freqlens.model", "build_bases", "model.build_bases"),
    ("freqlens.model", "FreqLens.forward", "model.forward"),
    ("freqlens.model", "FreqLens.score_and_select", "model.score_and_select"),
    ("freqlens.model", "FreqLens.head_contribution", "model.head_contribution"),
    ("freqlens.model", "FreqLens.masked_forward", "model.masked_forward"),
    ("freqlens.model", "FreqLens.attribute", "model.attribute"),
    ("freqlens.model", "save_checkpoint", "model.save_checkpoint"),
    ("freqlens.model", "load_checkpoint", "model.load_checkpoint"),
    ("freqlens.training", "train", "training.train"),
    ("freqlens.training", "total_loss", "training.total_loss"),
    ("freqlens.training", "Adam.step", "training.Adam.step"),
    ("freqlens.training", "evaluate_mse", "training.evaluate_mse"),
    ("freqlens.interpret", "faithfulness_test", "interpret.faithfulness_test"),
    ("freqlens.interpret", "per_frequency_impacts", "interpret.per_frequency_impacts"),
    ("freqlens.interpret", "verify_axioms", "interpret.verify_axioms"),
    ("freqlens.interpret", "shapley_bruteforce", "interpret.shapley_bruteforce"),
    ("freqlens.data", "synth_series", "data.synth_series"),
    ("freqlens.data", "fit_apply_zscore", "data.fit_apply_zscore"),
    ("freqlens.data", "make_windows", "data.make_windows"),
    ("freqlens.data", "save_csv", "data.save_csv"),
    ("freqlens.data", "load_csv", "data.load_csv"),
    ("freqlens.stats", "compute_metrics", "stats.compute_metrics"),
]

# spans that also record the autodiff node counter on entry and exit
PROBED = frozenset({"model.forward", "training.Adam.step"})

# functions the benchmark calls only while setting up; their metrics are
# seconds per set-up, every other metric is per measured operation
SETUP_SPANS = frozenset({
    "data.synth_series",
    "data.fit_apply_zscore",
    "data.make_windows",
    "data.save_csv",
    "data.load_csv",
    "model.save_checkpoint",
    "model.load_checkpoint",
})


def _node_counter() -> int:
    """Current autodiff node id; the probe tensor itself takes one id."""
    return Tensor(0.0).node_id


class Tracer:
    """In-memory span log: name, start, end and parent index per call."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.probes: dict[int, tuple[int, int]] = {}  # span index -> node ids at entry, exit
        self._open: list[int] = []

    def wrap(self, name: str, fn, probe: bool = False):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        nid = self.ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(idx)
            entry = _node_counter() if probe else 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if probe:
                    self.probes[idx] = (entry, _node_counter())
                self._open.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


class Installed:
    """Context manager that puts every target's traced wrapper in place and restores it.

    Wrappers are built once, so entering and leaving costs only the
    attribute swaps and a run can switch tracing on for single operations.
    """

    def __init__(self, tracer: Tracer):
        self.swaps = []
        self.missing: list[str] = []  # targets the program no longer has; their metrics read 0
        for module_name, path, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = tracer.wrap(span_name, original, probe=span_name in PROBED)
            self.swaps.append((owner, attr, original, wrapped))

    def __enter__(self):
        for owner, attr, _, wrapped in self.swaps:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self.swaps):
            setattr(owner, attr, original)


def span_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name."""
    a = tracer.arrays()
    if a["start"].size == 0:
        return {}
    dur = a["end"] - a["start"]
    nested = a["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, a["parent"][nested], dur[nested])
    n = len(tracer.names)
    calls = np.bincount(a["name_id"], minlength=n)
    total = np.bincount(a["name_id"], weights=dur, minlength=n)
    self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(tracer.names)
    }


def _tensors_per_forward(tracer: Tracer) -> float:
    """Median tensors created by one evaluation forward.

    Training-mode forwards are the ones ``training.train`` calls
    directly; every other forward is an evaluation forward.  The exit
    probe's own tensor is not counted.
    """
    ids = tracer.ids
    if "model.forward" not in ids:
        return 0.0
    fwd, train = ids["model.forward"], ids.get("training.train", -1)
    deltas = [
        exit_id - entry_id - 1
        for idx, (entry_id, exit_id) in tracer.probes.items()
        if tracer.name_id[idx] == fwd
        and not (tracer.parent[idx] >= 0 and tracer.name_id[tracer.parent[idx]] == train)
    ]
    return float(np.median(deltas)) if deltas else 0.0


def _tensors_per_step(tracer: Tracer) -> float:
    """Median tensors created from a training forward to the end of its optimizer step.

    That covers forward, loss, backward and ``Adam.step``.  Three probe
    tensors fall inside the interval (forward exit, step entry, step
    exit) and are not counted.
    """
    ids = tracer.ids
    if "training.Adam.step" not in ids or "training.train" not in ids:
        return 0.0
    fwd, step, train = ids["model.forward"], ids["training.Adam.step"], ids["training.train"]
    deltas = []
    last_forward_entry = None
    for idx in sorted(tracer.probes):
        nid = tracer.name_id[idx]
        parent = tracer.parent[idx]
        if nid == fwd and parent >= 0 and tracer.name_id[parent] == train:
            last_forward_entry = tracer.probes[idx][0]
        elif nid == step and last_forward_entry is not None:
            deltas.append(tracer.probes[idx][1] - last_forward_entry - 3)
            last_forward_entry = None
    return float(np.median(deltas)) if deltas else 0.0


def _child_calls(tracer: Tracer, child: str, parent: str) -> int:
    ids = tracer.ids
    if child not in ids or parent not in ids:
        return 0
    c, p = ids[child], ids[parent]
    return sum(
        1 for nid, par in zip(tracer.name_id, tracer.parent)
        if nid == c and par >= 0 and tracer.name_id[par] == p
    )


def layer_metrics(names, setup: Tracer, n_setups: int, measured: Tracer,
                  n_ops: int, n_windows: int) -> dict[str, float]:
    """Value of every per-layer metric named in ``names``.

    ``<span>.s`` is total and ``<span>.self_s`` self seconds, per set-up
    for ``SETUP_SPANS`` and per measured operation otherwise.  A span the
    workload never reaches reads 0.
    """
    setup_table, measured_table = span_table(setup), span_table(measured)
    forwards = measured_table.get("model.forward", {}).get("calls", 0)
    out = {}
    for name in names:
        if name == "autodiff.tensors_per_forward":
            out[name] = _tensors_per_forward(measured)
        elif name == "autodiff.tensors_per_step":
            out[name] = _tensors_per_step(measured)
        elif name == "model.head_contribution.calls_per_forward":
            calls = _child_calls(measured, "model.head_contribution", "model.forward")
            out[name] = calls / forwards if forwards else 0.0
        elif name == "model.masked_forward.calls_per_window":
            calls = measured_table.get("model.masked_forward", {}).get("calls", 0)
            out[name] = calls / n_windows
        else:
            span, _, kind = name.rpartition(".")
            key = {"s": "total_s", "self_s": "self_s"}[kind]
            if span in SETUP_SPANS:
                out[name] = setup_table.get(span, {}).get(key, 0.0) / n_setups
            else:
                out[name] = measured_table.get(span, {}).get(key, 0.0) / n_ops
    return out
