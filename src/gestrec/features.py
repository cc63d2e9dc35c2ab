"""Feature extraction pipeline and the on-disk feature-file format."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import container
from .config import PipelineConfig
from .errors import GestrecError
from .finger_motion import finger_features
from .global_motion import dad_config_for_sequence, global_features
from .hand_model import hand_pose
from .skeleton import (
    SkeletonSequence,
    normalize_skeleton_branch,
    validate_sequence,
)

FEATURE_MAGIC = "GESTREC-FEAT 1"
FEATURE_KINDS = ("global", "finger", "skeleton")
_HEADER_COUNTS = ("dims", "frames", "gesture", "finger", "subject", "trial")


class FeatureError(GestrecError):
    pass


def extract_features(seq: SkeletonSequence, config: PipelineConfig = PipelineConfig(),
                     kinds: tuple[str, ...] = FEATURE_KINDS) -> dict[str, np.ndarray]:
    """All requested per-frame feature streams for one validated sequence."""
    validate_sequence(seq)
    streams = {}
    if "global" in kinds:
        thresholds = dad_config_for_sequence(seq, config.dad_bins, config.sigma_scale)
    if "global" in kinds or "finger" in kinds:
        # one rigid pose per sequence serves both motion streams
        pose = hand_pose(seq.positions)
    if "global" in kinds:
        streams["global"] = global_features(seq, thresholds, config.lags,
                                            config.euler_convention, pose=pose)
    if "finger" in kinds:
        streams["finger"] = finger_features(seq, config.lags, pose=pose)
    if "skeleton" in kinds:
        streams["skeleton"] = normalize_skeleton_branch(seq)
    return streams


def feature_filename(gesture: int, finger: int, subject: int, trial: int, kind: str) -> str:
    return f"g{gesture:02d}_f{finger:02d}_s{subject:02d}_t{trial:02d}_{kind}.feat"


def write_feature_file(path: str | Path, kind: str, array: np.ndarray,
                       gesture: int, finger: int, subject: int, trial: int) -> None:
    """Self-describing header + frame-major float64 LE payload, written atomically."""
    array = np.asarray(array, dtype=np.float64)
    header = {
        "kind": kind,
        "dims": int(array.shape[1]),
        "frames": int(array.shape[0]),
        "gesture": gesture,
        "finger": finger,
        "subject": subject,
        "trial": trial,
    }
    container.write(path, FEATURE_MAGIC, header, [array])


def read_feature_file(path: str | Path):
    """Returns (metadata dict, (frames, dims) float64 array); a malformed
    file, or a payload holding NaN or inf, raises `FeatureError`."""
    header, payload = container.read(path, FEATURE_MAGIC, FeatureError)
    if not isinstance(header.get("kind"), str) \
            or not all(type(header.get(k)) is int and header[k] >= 0 for k in _HEADER_COUNTS):
        raise FeatureError(f"{path}: header needs a string 'kind' and non-negative "
                           f"integers {', '.join(_HEADER_COUNTS)}")
    expected = header["frames"] * header["dims"]
    if payload.size != expected:
        raise FeatureError(f"{path}: payload is {8 * payload.size} bytes, expected {8 * expected}")
    array = payload.reshape(header["frames"], header["dims"])
    bad = ~np.isfinite(array)
    if bad.any():
        frame, dim = np.argwhere(bad)[0]
        raise FeatureError(f"{path}: non-finite value {array[frame, dim]} at frame {frame}, "
                           f"dim {dim} (0-based)")
    return header, array.copy()


def load_feature_dir(directory: str | Path, kinds: tuple[str, ...] = FEATURE_KINDS):
    """Group feature files by sequence.

    Returns a list of (meta, streams) sorted by (gesture, finger, subject,
    trial); every requested kind must be present for every sequence, with
    the same number of dims in every sequence.
    """
    directory = Path(directory)
    groups: dict[tuple, dict] = {}
    for path in sorted(directory.glob("*.feat")):
        header, array = read_feature_file(path)
        key = (header["gesture"], header["finger"], header["subject"], header["trial"])
        groups.setdefault(key, {})[header["kind"]] = array
    if not groups:
        raise FeatureError(f"no .feat files under {directory}")
    out = []
    dims: dict[str, int] = {}
    for key in sorted(groups):
        streams = groups[key]
        missing = [k for k in kinds if k not in streams]
        if missing:
            raise FeatureError(f"sequence {key}: missing feature kind(s) {missing}")
        for k in kinds:
            width = dims.setdefault(k, streams[k].shape[1])
            if streams[k].shape[1] != width:
                raise FeatureError(f"sequence {key}: {k} features have {streams[k].shape[1]} "
                                   f"dims, earlier sequences have {width}")
        lengths = {k: streams[k].shape[0] for k in kinds}
        if len(set(lengths.values())) != 1:
            raise FeatureError(f"sequence {key}: inconsistent frame counts {lengths}")
        meta = dict(zip(("gesture", "finger", "subject", "trial"), key))
        out.append((meta, {k: streams[k] for k in kinds}))
    return out
