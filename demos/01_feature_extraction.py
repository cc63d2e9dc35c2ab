#!/usr/bin/env python3
"""Walk through the two motion-feature extractors on a synthetic gesture.

Generates a grab-like gesture, estimates the per-frame rigid pose of the
hand, shows how the translation amplitude falls into distance-adaptive bins,
and prints the shapes and a few rows of all three network input streams.
"""

import numpy as np

from gestrec.config import PipelineConfig
from gestrec.features import extract_features
from gestrec.global_motion import dad_config_for_sequence, frame_global_pose
from gestrec.skeleton import palm_radius
from gestrec.synth import builtin_scripts, generate_dataset

np.set_printoptions(precision=4, suppress=True)

scripts = {s.name: s for s in builtin_scripts()}
seq = generate_dataset([scripts["grab"], scripts["pinch"]],
                       subjects=1, trials=1, seed=3)[0]
print(f"synthetic '{'grab' if seq.gesture == scripts['grab'].gesture else 'pinch'}' "
      f"gesture: {seq.num_frames} frames x 22 joints")

radius = palm_radius(seq.positions[0])
edges = dad_config_for_sequence(seq)    # the last edge is sigma
print(f"\nfirst-frame palm radius: {radius * 100:.2f} cm")
print(f"DAD sigma = 1.5 * r_palm = {edges[-1] * 100:.2f} cm")
print("equal-Gaussian-mass bin edges (cm):", np.round(edges * 100, 2))

print("\nper-frame rigid pose (every 6th frame):")
print(f"{'frame':>5} {'rho (cm)':>9} {'theta':>7} {'phi':>7} {'r_x':>7} {'r_y':>7} {'r_z':>7}")
frames = np.arange(0, seq.num_frames, 6)
pose = frame_global_pose(seq.positions[frames])    # one call on the frame stack
for row in zip(frames, *pose.translation_spherical, *pose.rotation):
    t, rho, theta, phi, rx, ry, rz = row
    print(f"{t:>5} {rho * 100:>9.2f} {theta:>7.3f} {phi:>7.3f} "
          f"{rx:>7.3f} {ry:>7.3f} {rz:>7.3f}")

streams = extract_features(seq, PipelineConfig())
print("\nnetwork input streams:")
for name, arr in streams.items():
    print(f"  {name:<9} {arr.shape}")

g = streams["global"]
print("\nglobal features of the middle frame")
print("  pose      [rho_bin, theta, phi, r_x, r_y, r_z]:", g[seq.num_frames // 2, :6])
print("  offset    (vs frame 1):                        ", g[seq.num_frames // 2, 6:12])
print("  dynamic   (lag 5):                             ", g[seq.num_frames // 2, 18:24])

print("\nrho_bin over time (amplitude builds up, then releases):")
print(" ".join(str(int(b)) for b in g[:, 0]))
