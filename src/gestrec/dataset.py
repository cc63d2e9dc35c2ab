"""DHG-14/28 on-disk reading and leave-one-subject-out split generation.

Expected tree: gesture_<g>/finger_<f>/subject_<s>/essai_<t>/skeletons_world.txt,
one frame per line, 3J whitespace-separated decimals (x y z per joint).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GestrecError
from .skeleton import DEFAULT_LAYOUT, JointLayout, SkeletonSequence, WrongJointCount


class DatasetError(GestrecError):
    pass


class MissingRoot(DatasetError):
    pass


class EmptyDataset(DatasetError):
    pass


class MissingSubject(DatasetError):
    def __init__(self, subject: int):
        self.subject = subject
        super().__init__(f"no entries for subject {subject}")


class ParseError(DatasetError):
    def __init__(self, path, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class DatasetEntry:
    gesture: int
    finger: int
    subject: int
    trial: int
    path: Path | None = None

    @property
    def key(self):
        return (self.gesture, self.finger, self.subject, self.trial)


@dataclass(frozen=True)
class DatasetIndex:
    entries: tuple[DatasetEntry, ...]

    def __post_init__(self):
        keys = [e.key for e in self.entries]
        if len(set(keys)) != len(keys):
            raise DatasetError("duplicate (gesture, finger, subject, trial) keys")

    def __len__(self):
        return len(self.entries)

    @property
    def subjects(self) -> tuple[int, ...]:
        return tuple(sorted({e.subject for e in self.entries}))


@dataclass(frozen=True)
class LoocvSplit:
    held_out_subject: int
    train_entries: tuple[DatasetEntry, ...]
    test_entries: tuple[DatasetEntry, ...]


_ENTRY_RE = re.compile(
    r"gesture_(\d+)/finger_(\d+)/subject_(\d+)/essai_(\d+)/skeletons_world\.txt$"
)


def scan_dataset(root: str | Path) -> DatasetIndex:
    """Index every skeleton file under a DHG-style tree, sorted by (g,f,s,t)."""
    root = Path(root)
    if not root.is_dir():
        raise MissingRoot(f"not a directory: {root}")
    entries = []
    for path in root.glob("gesture_*/finger_*/subject_*/essai_*/skeletons_world.txt"):
        match = _ENTRY_RE.search(path.as_posix())
        if match is None:
            continue
        g, f, s, t = (int(x) for x in match.groups())
        entries.append(DatasetEntry(g, f, s, t, path))
    if not entries:
        raise EmptyDataset(f"no skeleton files under {root}")
    entries.sort(key=lambda e: e.key)
    return DatasetIndex(tuple(entries))


def load_sequence(entry: DatasetEntry,
                  layout: JointLayout = DEFAULT_LAYOUT) -> SkeletonSequence:
    """Parse one skeleton file into a labelled sequence."""
    expected = 3 * layout.joint_count
    try:
        with open(entry.path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        # read() decodes the whole file at once, so e.object holds all its bytes
        raise ParseError(entry.path, e.object.count(b"\n", 0, e.start) + 1,
                         f"byte 0x{e.object[e.start]:02x} is not UTF-8 text ({e.reason})") from e
    tokens = []
    for raw in lines:
        row = raw.split()
        if row and len(row) != expected:
            raise WrongJointCount(len(tokens) // expected, len(row), expected)
        tokens += row
    frames = len(tokens) // expected
    if not frames:
        raise ParseError(entry.path, 0, "file contains no frames")
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        # the same conversion line by line, only to name the bad line
        for lineno, raw in enumerate(lines, start=1):
            try:
                np.array(raw.split(), dtype=np.float64)
            except ValueError as e:
                raise ParseError(entry.path, lineno, str(e)) from e
        raise
    positions = values.reshape(frames, layout.joint_count, 3)
    return SkeletonSequence(positions, gesture=entry.gesture, finger=entry.finger,
                            subject=entry.subject, trial=entry.trial)


def make_loocv_splits(index: DatasetIndex) -> list[LoocvSplit]:
    """One split per subject: that subject's entries test, the rest train.

    Subjects must be contiguous from 1 to the maximum present; a gap raises
    MissingSubject.
    """
    present = set(index.subjects)
    if not present:
        raise EmptyDataset("empty index")
    for subject in range(1, max(present) + 1):
        if subject not in present:
            raise MissingSubject(subject)
    splits = []
    for subject in sorted(present):
        test = tuple(e for e in index.entries if e.subject == subject)
        train = tuple(e for e in index.entries if e.subject != subject)
        splits.append(LoocvSplit(subject, train, test))
    return splits
