"""The three benchmark workloads: recognize, loocv and extract.

Each workload builds its inputs from the seed in `setup`, runs a measured
loop in `measure`, and checks the outputs in `check`, which returns
(accuracy, errors). `measure` runs until it has done `min_items` items and
`seconds` have passed, always under a Tracer: the untraced run installs only
the `probes` its latency needs (none, or one or two wrappers costing about a
microsecond per call), the traced run installs every layer in
tracing.LAYERS. A traced run repeats `unit_items` of work `trace_rounds`
times and `same_outputs` compares its traced and untraced rounds.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import platform
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

# Layer functions are called through their modules so that the wrappers
# Tracer.install puts on the modules see the benchmark's own calls too.
from gestrec import cli, dataset, evaluation, features, network, synth
from gestrec.config import PipelineConfig
from gestrec.evaluation import CATEGORIES
from gestrec.features import FEATURE_KINDS, FeatureError, feature_filename, read_feature_file
from gestrec.network import Sample, TrainConfig

from tracing import Tracer

CLASSES = 14
REFERENCE = PipelineConfig()  # 3 branches, hidden 100, fc 128, head 256/128, bidirectional
SHORT = (26, 28, 30, 33, 35, 38)        # the built-in scripts' 26-38 frame range
LONG = (100, 110, 120, 130, 140, 150)


def _fixed_length_scripts(lengths):
    """The built-in scripts with one fixed length each and no speed jitter.

    Sequence length sets the cost of every layer, so fixing the length
    multiset keeps throughput comparable across seeds; shapes, amplitudes
    and noise still vary with the seed.
    """
    return [replace(s, duration=(n, n), speed_jitter=0.0)
            for s, n in zip(synth.builtin_scripts(), lengths)]


@dataclass
class Measurement:
    wall_s: float = 0.0
    items: float = 0.0           # requests, sequences or training sample-epochs
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


def _failed(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", end="", file=sys.stderr)


class Recognize:
    """Serving path: one closed-loop client sends raw held-out sequences
    through extract_features then predict on a checkpointed model."""

    name = "recognize"
    tail_pct = 90
    probes = ()
    subjects = 3  # the first two train the checkpoint, the last sends requests

    def __init__(self, config=REFERENCE, trials=2, train_epochs=2,
                 min_samples=200, trace_rounds=4):
        self.config = config
        self.trials = trials
        self.train_epochs = train_epochs
        self.min_samples = min_samples
        self.trace_rounds = trace_rounds

    def setup(self, seed, workdir):
        c = self.config
        seqs = synth.generate_dataset(_fixed_length_scripts(SHORT), self.subjects,
                                      self.trials, seed)
        held_out = self.subjects
        samples = [Sample(features.extract_features(s, c), s.gesture - 1)
                   for s in seqs if s.subject != held_out]
        dims = {k: v.shape[1] for k, v in samples[0].streams.items()}
        model = network.init_model(c.branches, dims, CLASSES, hidden=c.lstm_hidden,
                                   fc_out=c.fc_out, head=c.head, dropout=c.dropout,
                                   bidirectional=c.bidirectional, seed=seed)
        network.train(model, samples, TrainConfig(
            epochs=self.train_epochs, batch_size=c.batch_size,
            learning_rate=c.learning_rate, rng_seed=seed))
        path = Path(workdir) / "model.ckpt"
        network.save_checkpoint(model, path)
        return {"model": network.load_checkpoint(path),
                "requests": [s for s in seqs if s.subject == held_out]}

    def measure(self, state, seconds, min_items, tracer: Tracer) -> Measurement:
        model, requests = state["model"], state["requests"]
        m = Measurement()
        min_items = max(min_items, len(requests))
        start = time.perf_counter()
        while m.attempted < min_items or time.perf_counter() - start < seconds:
            seq = requests[m.attempted % len(requests)]
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("request"):
                    streams = features.extract_features(seq, self.config)
                    label, probs = network.predict(model, streams)
            except Exception:
                _failed("request")
                m.failed += 1
                continue
            m.latencies_s.append(time.perf_counter() - t0)
            m.outputs.append((m.attempted - 1, label, probs))
        m.wall_s = time.perf_counter() - start
        m.items = m.attempted - m.failed
        return m

    def unit_items(self, state):
        """Work in one traced round: every request once."""
        return len(state["requests"])

    def check(self, state, m: Measurement):
        """Returns (accuracy, errors)."""
        requests = state["requests"]
        errors, first = [], {}
        for i, label, probs in m.outputs:
            k = i % len(requests)
            if probs.shape != (CLASSES,) or not np.all(np.isfinite(probs)) \
                    or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
                errors.append(f"request {i}: not a probability vector")
            elif label != int(np.argmax(probs)):
                errors.append(f"request {i}: label {label} is not the argmax")
            elif k in first and first[k].tobytes() != probs.tobytes():
                errors.append(f"request {i}: output differs from an earlier identical request")
            first.setdefault(k, probs)
        if len(first) < len(requests):
            errors.append("not every request sequence was answered")
            return 0.0, errors
        correct = [int(np.argmax(first[k])) == requests[k].gesture - 1 for k in first]
        return float(np.mean(correct)), errors

    def same_outputs(self, a: Measurement, b: Measurement) -> bool:
        # both runs send the requests in the same order from the first one
        return all(x[2].tobytes() == y[2].tobytes() for x, y in zip(a.outputs, b.outputs))


class Loocv:
    """The paper's evaluation: leave-one-subject-out training on precomputed
    features, 5 subjects x 6 scripts x 4 trials, so each split trains on 96
    sequences (3 batches of 32)."""

    name = "loocv"
    tail_pct = 66  # 2 epochs x 3 steps x 5 splits = 30 steps: 10 lie beyond p66
    probes = (("network", "pad_batch", None, None), ("network", "adam_step", None, None))

    def __init__(self, config=replace(REFERENCE, epochs=2, stop_accuracy=0.0),
                 subjects=5, trials=4):
        self.config = config
        self.subjects, self.trials = subjects, trials
        self.min_samples = 0
        self.trace_rounds = 1

    def setup(self, seed, workdir):
        seqs = synth.generate_dataset(_fixed_length_scripts(SHORT), self.subjects,
                                      self.trials, seed)
        return {"seed": seed, "workdir": Path(workdir), "sequences": seqs,
                "features": [features.extract_features(s, self.config) for s in seqs]}

    def measure(self, state, seconds, min_items, tracer: Tracer) -> Measurement:
        m = Measurement()
        seqs = state["sequences"]
        start = time.perf_counter()
        while m.attempted == 0 or time.perf_counter() - start < seconds:
            m.attempted += 1
            try:
                with tracer.span("loocv"):
                    report = evaluation.run_loocv(seqs, self.config, classes=CLASSES,
                                                  seed=state["seed"],
                                                  features=state["features"])
            except Exception:
                _failed("run_loocv")
                m.failed += 1
                break
            trained = sum(len(seqs) - s.n_test for s in report.splits)
            m.items += trained * self.config.epochs
            m.outputs.append(report)
        m.wall_s = time.perf_counter() - start
        pad_start = None
        for span in tracer.spans:  # one optimizer step: pad_batch entry to adam_step exit
            if span.name == "network.pad_batch":
                pad_start = span.start
            elif span.name == "network.adam_step":
                m.latencies_s.append(span.end - pad_start)
        return m

    def unit_items(self, state):
        """Work in one traced round: one LOOCV."""
        return 0

    def check(self, state, m: Measurement):
        errors = []
        if not m.outputs:
            return 0.0, ["no LOOCV completed"]
        report = m.outputs[0]
        outdir = state["workdir"] / "report"
        evaluation.write_report(report, outdir)
        rows = (outdir / "summary.csv").read_text().splitlines()
        if rows[0] != "category,best,worst,avg,std" or len(rows) != 1 + len(CATEGORIES):
            errors.append("summary.csv has an unexpected layout")
        else:
            for row, category in zip(rows[1:], CATEGORIES):
                cells = row.split(",")
                stats = report.aggregates[category]
                want = [] if stats is None else [stats.best, stats.worst, stats.avg, stats.std]
                got = [float(x) for x in cells[1:] if x]
                if cells[0] != category or len(got) != len(want) \
                        or any(abs(g - w) > 5e-7 for g, w in zip(got, want)):
                    errors.append(f"summary.csv row {category!r} does not match the report")
        for other in m.outputs[1:]:
            if not self._same(report, other):
                errors.append("a repeated LOOCV gave different predictions")
        return report.aggregates["both"].avg, errors

    @staticmethod
    def _same(a, b) -> bool:
        return all(np.array_equal(x.predictions, y.predictions)
                   for x, y in zip(a.splits, b.splits)) and a.aggregates == b.aggregates

    def same_outputs(self, a: Measurement, b: Measurement) -> bool:
        return self._same(a.outputs[0], b.outputs[0])


class Extract:
    """Batch `gestrec extract` with default flags over a DHG-format tree of
    long sequences written in setup."""

    name = "extract"
    tail_pct = 80
    probes = (("dataset", "load_sequence", None, None),)
    dims = {"global": 30, "finger": 100, "skeleton": 66}

    def __init__(self, trials=2, min_samples=100, trace_rounds=3, lengths=LONG, sampled=3):
        self.trials = trials
        self.min_samples = min_samples
        self.trace_rounds = trace_rounds
        self.lengths = lengths
        self.sampled = sampled

    def setup(self, seed, workdir):
        tree = Path(workdir) / "dhg"
        shutil.rmtree(tree, ignore_errors=True)
        seqs = synth.generate_dataset(_fixed_length_scripts(self.lengths), 1, self.trials, seed)
        synth.export_dhg_tree(seqs, tree)
        frames = {(s.gesture, s.finger, s.subject, s.trial): s.num_frames for s in seqs}
        return {"seed": seed, "tree": tree, "out": Path(workdir) / "features",
                "frames": frames}

    def measure(self, state, seconds, min_items, tracer: Tracer) -> Measurement:
        m = Measurement()
        argv = ["extract", "--dataset", str(state["tree"]), "--out", str(state["out"])]
        per_pass = len(state["frames"])
        start = time.perf_counter()
        while m.attempted < min_items or time.perf_counter() - start < seconds:
            m.attempted += per_pass
            with tracer.span("extract.pass"), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except Exception:
                    _failed("extract pass")
                    code = -1
            if code != 0:
                m.failed += per_pass
                break
        m.wall_s = time.perf_counter() - start
        m.items = m.attempted - m.failed
        m.outputs = [{p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(state["out"].glob("*.feat"))}]
        starts, pass_end = [], None
        for span in tracer.spans:  # one sequence: its load_sequence entry to the next
            if span.name == "extract.pass":
                self._close(m, starts, pass_end)
                starts, pass_end = [], span.end
            elif span.name == "dataset.load_sequence":
                starts.append(span.start)
        self._close(m, starts, pass_end)
        return m

    @staticmethod
    def _close(m, starts, pass_end):
        if starts:
            m.latencies_s.extend(np.diff(starts + [pass_end]).tolist())

    def unit_items(self, state):
        """Work in one traced round: one pass over the tree."""
        return len(state["frames"])

    def check(self, state, m: Measurement):
        """Every file reads back with the right dims and the source frame
        count; a seeded sample is bit-identical to in-memory extraction.
        Accuracy is the share of files that pass."""
        errors, bad = [], set()
        out, frames = state["out"], state["frames"]
        for key, n in frames.items():
            for kind in FEATURE_KINDS:
                name = feature_filename(*key, kind)
                try:
                    header, array = read_feature_file(out / name)
                except (OSError, FeatureError) as e:
                    errors.append(f"{name}: {e}")
                    bad.add(name)
                    continue
                if array.shape != (n, self.dims[kind]) or header["kind"] != kind:
                    errors.append(f"{name}: shape {array.shape}, expected {(n, self.dims[kind])}")
                    bad.add(name)
        entries = dataset.scan_dataset(state["tree"]).entries
        rng = np.random.default_rng(state["seed"])
        for i in rng.choice(len(entries), min(self.sampled, len(entries)), replace=False):
            entry = entries[int(i)]
            streams = features.extract_features(dataset.load_sequence(entry))
            for kind in FEATURE_KINDS:
                name = feature_filename(*entry.key, kind)
                if name in bad:
                    continue
                _, array = read_feature_file(out / name)
                if array.tobytes() != np.ascontiguousarray(streams[kind], "<f8").tobytes():
                    errors.append(f"{name}: differs from in-memory extract_features")
                    bad.add(name)
        total = len(frames) * len(FEATURE_KINDS)
        return (total - len(bad)) / total, errors

    def same_outputs(self, a: Measurement, b: Measurement) -> bool:
        return a.outputs == b.outputs


WORKLOADS = {w.name: w for w in (Recognize, Loocv, Extract)}


def describe_env() -> dict:
    """Interpreter, library and BLAS details recorded with every result."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs, key=lambda path: "numpy" not in path):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None

