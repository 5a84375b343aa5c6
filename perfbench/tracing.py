"""In-memory spans around seldkit's public functions, and the metrics derived from them.

Tracing is installed from outside the library: every traced function is
looked up by name in its home module and then found by object identity in
every ``seldkit`` module that imported it, and each of those references is
swapped for a wrapper that records a span. Predictor classes are traced
through their ``predict`` method. A function that no longer exists is
skipped, so its metrics read 0 instead of failing the benchmark.

Spans are kept in memory and written out as JSON lines at the end; the
metrics are derived from the lines read back, so any producer of the same
format (for example a trace written by the program itself) feeds the same
reader.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import pkgutil
import statistics
import threading
import time

import seldkit

# Attributes computed at the boundary, from a call's arguments and result.
# Each returns a dict of numbers summed per span name.


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(str(args[0]))}


def _stft_bytes(args, kwargs, result):
    return {"bytes_out_computed": result.nbytes}


def _aggregate_counts(args, kwargs, result):
    cells = getattr(args[0], "cells", {})
    config = args[1] if len(args) > 1 else kwargs.get("config")
    min_candidates = getattr(config, "min_candidates", None)
    if min_candidates is None:
        min_candidates = seldkit.TtaConfig().min_candidates
    sizes = [len(c) for c in cells.values()]
    return {
        "candidates": sum(sizes),
        "cells": len(sizes),
        "cells_below_min": sum(1 for s in sizes if s < min_candidates),
        "events_out": len(result),
    }


def _noise_points(args, kwargs, result):
    return {"noise_points": int((result == -1).sum())}


# (module, function, attribute hook); the span name is "module.function".
TRACED = (
    ("pipeline", "run_pipeline", None),
    ("audio", "read_wav", _file_bytes),
    ("labels", "read_labels", None),
    ("augment", "augment_waveform", None),
    ("augment", "pitch_shift", None),
    ("augment", "band_pass", None),
    ("features", "extract_features", None),
    ("features", "stft", _stft_bytes),
    ("features", "intensity_vector", None),
    ("features", "mel_filterbank", None),
    ("rotation", "apply_to_audio", None),
    ("tensorio", "load_tensor", _file_bytes),
    ("tta", "run_tta", None),
    ("tta", "collect_candidates", None),
    ("tta", "aggregate", _aggregate_counts),
    ("tta", "dbscan_sphere", _noise_points),
    ("accdoa", "decode", None),
    ("accdoa", "encode", None),
    ("metrics", "evaluate_stats", None),
    ("metrics", "match_frame", None),
    ("emulate", "mix_scene", None),
    ("emulate", "render_event", None),
    ("emulate", "synth_srir", None),
)
PREDICT_SPAN = "predict.predict"
ENTRY_SPAN = "audio.read_wav"  # the first call of every entry; its path names the entry


def _seldkit_modules():
    mods = [seldkit]
    for info in pkgutil.iter_modules(seldkit.__path__):
        if info.name == "__main__":
            continue
        try:
            mods.append(importlib.import_module(f"seldkit.{info.name}"))
        except ImportError:  # an optional dependency is missing; nothing it imports runs
            continue
    return mods


class Tracer:
    """Records spans of the traced functions while installed (a context manager)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._undo: list[tuple] = []
        self._root = None  # the open outermost span; worker threads' spans are its children

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if name == ENTRY_SPAN and args:
                local.entry = str(args[0])
            span_id = next(tracer._ids)
            is_root = not stack and tracer._root is None
            if is_root:
                tracer._root = span_id
            parent = stack[-1] if stack else (None if is_root else tracer._root)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
            span = {
                "id": span_id,
                "name": name,
                "start": start - tracer._epoch,
                "end": end - tracer._epoch,
                "parent": parent,
                "thread": threading.get_ident(),
                "entry": getattr(local, "entry", None),
                "phase": tracer.phase,
            }
            if hook is not None:
                try:
                    span["attrs"] = hook(args, kwargs, result)
                except Exception as exc:  # a refactored signature must not stop the run
                    span["attrs_error"] = f"{type(exc).__name__}: {exc}"
            tracer.spans.append(span)  # list.append is atomic under the GIL
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = _seldkit_modules()
        homes = {m.__name__.removeprefix("seldkit."): m for m in modules}
        for mod_name, fn_name, hook in TRACED:
            original = getattr(homes.get(mod_name), fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for mod in modules:
            for cls in list(vars(mod).values()):
                if (
                    isinstance(cls, type)
                    and cls.__module__ == mod.__name__
                    and callable(cls.__dict__.get("predict"))
                    and not getattr(cls, "_is_protocol", False)
                ):
                    original = cls.__dict__["predict"]
                    self._undo.append((cls, "predict", original))
                    setattr(cls, "predict", self._wrap(PREDICT_SPAN, original, None))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True))
                f.write("\n")


def read_spans(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover.

    Children on the parent's thread nest and never overlap; children on
    worker threads may overlap each other, hence the union. So the self
    time of a span that waits on a pool is its orchestration plus the time
    no worker was busy.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: s["end"] - s["start"] - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def phase_metrics(spans) -> dict:
    """Per span name: self_s, calls, and the sums of its attributes."""
    self_s = self_times(spans)
    out: dict = {}
    for s in spans:
        name = s["name"]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s[s["id"]]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in (s.get("attrs") or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out


def layer_metrics(spans, names) -> dict:
    """The named per-layer metrics: each timed call's own value, median over calls.

    Phase ``setup`` feeds the ``emulate.*`` metrics; every other phase is
    one timed pipeline call. Metrics whose spans never occurred read 0.
    """
    by_phase: dict = {}
    for s in spans:
        by_phase.setdefault(s["phase"], []).append(s)
    setup = phase_metrics(by_phase.pop("setup", []))
    calls = [phase_metrics(group) for group in by_phase.values()] or [{}]
    out = {}
    for name in names:
        if name.startswith("emulate."):
            out[name] = setup.get(name, 0)
        else:
            out[name] = statistics.median(_derived(c, name) for c in calls)
    return out


_ALIASES = {
    "tta.candidates": "tta.aggregate.candidates",
    "tta.cells": "tta.aggregate.cells",
    "tta.cells_below_min": "tta.aggregate.cells_below_min",
    "tta.events_out": "tta.aggregate.events_out",
    "tta.dbscan_noise_points": "tta.dbscan_sphere.noise_points",
}


def _derived(metrics: dict, name: str):
    if name == "tta.useful_cell_ratio":
        # cells clustered / cells holding any candidate; 0 when TTA never ran
        cells = metrics.get("tta.aggregate.cells", 0)
        below = metrics.get("tta.aggregate.cells_below_min", 0)
        return (cells - below) / cells if cells else 0.0
    return metrics.get(_ALIASES.get(name, name), 0)
