#!/usr/bin/env python3
"""Train the three-branch recurrent classifier on a small synthetic set.

Thirty sequences, three gesture classes, a deliberately small network: shows
the epoch log, the checkpoint round-trip, and per-class predictions.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from gestrec.config import PipelineConfig
from gestrec.evaluation import train_from_config
from gestrec.features import extract_features
from gestrec.network import Sample, load_checkpoint, predict, save_checkpoint
from gestrec.synth import builtin_scripts, generate_dataset

scripts = builtin_scripts()[:3]
sequences = generate_dataset(scripts, subjects=2, trials=5, seed=11)
print(f"dataset: {len(sequences)} sequences, classes: "
      f"{sorted({s.gesture for s in sequences})}")

config = PipelineConfig()
samples = [Sample(extract_features(s, config), s.gesture - 1) for s in sequences]

# each branch takes its input width from the first sample's streams
small = replace(config, lstm_hidden=32, fc_out=32, head=(48, 24), dropout=0.2,
                learning_rate=0.003, epochs=40)
model, log = train_from_config(small, samples, 3, seed=4, record_accuracy=True)

print("\nepoch log (last 5):")
for entry in log[-5:]:
    print(f"  epoch {entry.epoch:>3}: loss {entry.loss:.4f}, "
          f"train accuracy {entry.accuracy:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    save_checkpoint(model, path)
    reloaded = load_checkpoint(path)
    print(f"\ncheckpoint round-trip: {path.stat().st_size} bytes, "
          f"parameters identical: "
          f"{all(np.array_equal(model.params[k], reloaded.params[k]) for k in model.params)}")

print("\npredictions on one trial per class:")
for script in scripts:
    seq = next(s for s in sequences if s.gesture == script.gesture and s.trial == 5)
    label, probs = predict(reloaded, extract_features(seq, config))
    print(f"  true {script.name:<10} -> predicted class {label + 1} "
          f"(p = {probs[label]:.3f})")
