#!/usr/bin/env python3
"""Forward and inverse kinematics of the 20-DoF hand model.

Poses the template hand with known joint angles, recovers them with the
closed-form inverse kinematics, and demonstrates that the angles ignore any
rigid motion of the whole hand.
"""

import numpy as np

from gestrec.finger_motion import inverse_kinematics
from gestrec.geometry import rotation_to_euler
from gestrec.hand_model import ANGLE_CHANNELS, forward_kinematics, hand_pose

rng = np.random.default_rng(7)
np.set_printoptions(precision=6, suppress=True)

print("rest pose: all 20 joint angles are zero")
rest = forward_kinematics(np.zeros(6), np.zeros(20))
print("max |IK(rest)| =", np.max(np.abs(inverse_kinematics(rest))))

print("\ncurl the index finger: PIP = 0.9 rad, DIP = 0.5 rad")
angles = np.zeros(20)
angles[ANGLE_CHANNELS.index("index_pip")] = 0.9
angles[ANGLE_CHANNELS.index("index_dip")] = 0.5
frame = forward_kinematics(np.zeros(6), angles)
recovered = inverse_kinematics(frame)
for name, value in zip(ANGLE_CHANNELS, recovered):
    if abs(value) > 1e-9:
        print(f"  {name:<12} {value:.6f}")

print("\nround-trip over 1000 random poses in the +/-1.2 rad joint box:")
worst = 0.0
for _ in range(1000):
    theta = rng.uniform(-1.2, 1.2, 20)
    pose = np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, 3)])
    worst = max(worst, np.max(np.abs(
        inverse_kinematics(forward_kinematics(pose, theta)) - theta)))
print(f"  max |IK(FK(theta)) - theta| = {worst:.2e}")

print("\nthe global pose factors out: move the hand, angles stay put")
theta = rng.uniform(-1.0, 1.0, 20)
frame = forward_kinematics(np.zeros(6), theta)
pose = np.array([0.4, -0.8, 1.2, 0.3, -0.2, 0.5])
moved = forward_kinematics(pose, theta)
delta = np.max(np.abs(inverse_kinematics(moved) - inverse_kinematics(frame)))
print(f"  max angle change under rigid motion: {delta:.2e}")

rot, trans = hand_pose(moved)
print(f"  Kabsch recovers the planted pose: rotation {np.array(rotation_to_euler(rot))},"
      f" translation {trans}")
