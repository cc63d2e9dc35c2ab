"""Spans and counters around gestrec's public functions, installed from outside
the package.

`Tracer.install` replaces each traced function with a wrapper in every loaded
`gestrec` module that holds a reference to it (the package imports functions
by name, so `features.finger_features` and `finger_motion.finger_features`
are the same object and both must be swapped). `uninstall` puts the
originals back. Spans are kept in memory and written out with `dump`.

FLOP and byte counts are computed from tensor shapes and file sizes, not
measured, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    root: int    # index of the root span: spans of one request share it


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def lstm_fc_flops(model, batch: int, steps: int) -> tuple[int, int]:
    """Matrix-multiply FLOPs (2 per multiply-add) of one forward and one
    backward pass over a padded (batch, steps) input.

    Every padded step is computed, so `steps` is the padded length. The
    backward pass of each LSTM step does four products (dW, dU, dX, dH) to
    the forward's two; each FC layer does two (dW, dA) to the forward's one.
    Element-wise gate arithmetic is not counted.
    """
    h = model.hidden
    dirs = len(model.directions)
    fwd = bwd = 0
    for name in model.branches:
        for in_dim in (model.input_dims[name], model.summary_dim):
            per_step = 2 * batch * 4 * h * (in_dim + h) * dirs
            fwd += steps * per_step
            bwd += 2 * steps * per_step
        fc = 2 * batch * model.summary_dim * model.fc_out
        fwd += fc
        bwd += 2 * fc
    widths = (len(model.branches) * model.fc_out,) + tuple(model.head) + (model.classes,)
    for a, b in zip(widths[:-1], widths[1:]):
        fwd += 2 * batch * a * b
        bwd += 2 * 2 * batch * a * b
    return fwd, bwd


class Tracer:
    """Records one span per wrapped call plus named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else index
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, root))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrapper(self, fn, name, namer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs) if namer else name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        """Wrap every (module, function, span-name override, counter) in
        `targets`; see LAYERS."""
        for module_name, attr, namer, counter in targets:
            original = getattr(sys.modules[f"gestrec.{module_name}"], attr)
            wrapper = self._wrapper(original, f"{module_name}.{attr}", namer, counter)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("gestrec") and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _top_spans(self, name):
        """Spans of `name` not nested inside another span of the same name."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            p = span.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                out.append(span)
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def busy_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self._top_spans(name))

    def self_s(self, name: str) -> float:
        """Busy time minus the time covered by direct children (one thread,
        so children never overlap)."""
        indices = {i for i, s in enumerate(self.spans) if s.name == name}
        child = sum(s.end - s.start for s in self.spans if s.parent in indices)
        return sum(self.spans[i].end - self.spans[i].start for i in indices) - child

    def dump(self, path, extra: dict) -> None:
        """Write spans (times relative to the first span) and counters as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = dict(extra, counters=self.counters, spans=[
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.root]
            for s in self.spans])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _count_frames(tracer, args, kwargs, result):
    tracer.count("finger_motion.frames", result.shape[0])


def _count_read(tracer, args, kwargs, result):
    tracer.count("dataset.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "entry").path))


def _count_written(tracer, args, kwargs, result):
    tracer.count("features.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_padding(tracer, args, kwargs, result):
    _, mask = result
    tracer.count("network.valid_steps", int(mask.sum()))
    tracer.count("network.padded_steps", mask.size)


def _count_forward(tracer, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    batch, steps = np.shape(_arg(args, kwargs, 2, "mask"))
    tracer.count("network.forward.flop", lstm_fc_flops(model, batch, steps)[0])


def _count_backward(tracer, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    batch, steps = _arg(args, kwargs, 1, "cache")["mask"].shape
    tracer.count("network.backward.flop", lstm_fc_flops(model, batch, steps)[1])


def _count_step(tracer, args, kwargs, result):
    tracer.count("network.steps")


def _forward_name(args, kwargs):
    return "network.forward.train" if kwargs.get("train_mode") else "network.forward.infer"


# (module, public function, span-name override, counter). Every call site in
# the package passes `train_mode` to `forward` by keyword.
LAYERS = (
    ("skeleton", "validate_sequence", None, None),
    ("skeleton", "normalize_skeleton_branch", None, None),
    ("global_motion", "dad_config_for_sequence", None, None),
    ("global_motion", "global_features", None, None),
    ("finger_motion", "finger_features", None, _count_frames),
    ("features", "extract_features", None, None),
    ("features", "write_feature_file", None, _count_written),
    ("dataset", "scan_dataset", None, None),
    ("dataset", "load_sequence", None, _count_read),
    ("network", "forward", _forward_name, _count_forward),
    ("network", "backward", None, _count_backward),
    ("network", "adam_step", None, _count_step),
    ("network", "clip_gradients", None, None),
    ("network", "pad_batch", None, _count_padding),
    ("network", "fit_normalization", None, None),
    ("network", "evaluate", None, None),
    ("network", "predict", None, None),
    ("network", "train", None, None),
    ("network", "save_checkpoint", None, None),
    ("network", "load_checkpoint", None, None),
    ("evaluation", "run_loocv", None, None),
    ("synth", "generate_dataset", None, None),
    ("synth", "export_dhg_tree", None, None),
)

# Layers whose work happens while the benchmark sets up; their metrics come
# from the traced set-up, all others from the traced measurement.
SETUP_LAYERS = ("network.save_checkpoint", "network.load_checkpoint",
                "synth.generate_dataset", "synth.export_dhg_tree")


def layer_metrics(setup: Tracer, measure: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    busy = ("finger_motion.finger_features", "global_motion.global_features",
            "global_motion.dad_config_for_sequence", "skeleton.validate_sequence",
            "skeleton.normalize_skeleton_branch", "dataset.scan_dataset",
            "dataset.load_sequence", "features.write_feature_file",
            "network.forward.infer", "network.predict", "network.forward.train",
            "network.backward", "network.adam_step", "network.clip_gradients",
            "network.pad_batch", "network.evaluate", "network.fit_normalization")
    for name in busy:
        out[f"{name}.busy_s"] = (measure.busy_s(name), "s")
    for name in SETUP_LAYERS:
        out[f"{name}.busy_s"] = (setup.busy_s(name), "s")
    for name in ("features.extract_features", "evaluation.run_loocv"):
        out[f"{name}.self_s"] = (measure.self_s(name), "s")
    c = measure.counters
    out["global_motion.dad_config_for_sequence.calls"] = (
        measure.calls("global_motion.dad_config_for_sequence"), "count")
    out["finger_motion.frames"] = (c.get("finger_motion.frames", 0), "count")
    out["dataset.bytes_read"] = (c.get("dataset.bytes_read", 0), "bytes")
    out["features.bytes_written"] = (c.get("features.bytes_written", 0), "bytes")
    out["network.steps"] = (c.get("network.steps", 0), "count")
    padded = c.get("network.padded_steps", 0)
    # No padded batch means no wasted timesteps.
    out["network.pad_efficiency"] = (
        c.get("network.valid_steps", 0) / padded if padded else 1.0, "ratio")
    out["network.forward.gflop"] = (c.get("network.forward.flop", 0) / 1e9, "GFLOP")
    out["network.backward.gflop"] = (c.get("network.backward.flop", 0) / 1e9, "GFLOP")
    return out
