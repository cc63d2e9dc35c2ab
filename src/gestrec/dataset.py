"""DHG-14/28 on-disk reading.

Expected tree: gesture_<g>/finger_<f>/subject_<s>/essai_<t>/skeletons_world.txt,
one frame per line, 3J whitespace-separated decimals (x y z per joint).
Each file is converted with one numpy call; a file it refuses is read
line by line only to name the bad line or frame in a typed error.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GestrecError
from .skeleton import JOINT_COUNT, SkeletonSequence, WrongJointCount


class DatasetError(GestrecError):
    pass


class MissingRoot(DatasetError):
    pass


class EmptyDataset(DatasetError):
    pass


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
    path: Path

    @property
    def key(self):
        return (self.gesture, self.finger, self.subject, self.trial)


@dataclass(frozen=True)
class DatasetIndex:
    entries: tuple[DatasetEntry, ...]
    skipped: tuple[Path, ...] = ()

    def __post_init__(self):
        # two files of one key would be written to the same feature files
        first = {}
        for entry in self.entries:
            if entry.key in first:
                paths = sorted(map(str, (first[entry.key], entry.path)))
                raise DatasetError(f"duplicate (gesture, finger, subject, trial) key "
                                   f"{entry.key}: {paths[0]} and {paths[1]}")
            first[entry.key] = entry.path

    def __len__(self):
        return len(self.entries)


_ENTRY_RE = re.compile(
    r"gesture_(\d+)/finger_(\d+)/subject_(\d+)/essai_(\d+)/skeletons_world\.txt$"
)


def scan_dataset(root: str | Path) -> DatasetIndex:
    """Index every skeleton file under a DHG-style tree, sorted by (g,f,s,t);
    files under unnumbered directories (`gesture_x/`) go, sorted, to `skipped`."""
    root = Path(root)
    if not root.is_dir():
        raise MissingRoot(f"not a directory: {root}")
    entries, skipped = [], []
    for path in root.glob("gesture_*/finger_*/subject_*/essai_*/skeletons_world.txt"):
        match = _ENTRY_RE.search(path.as_posix())
        if match is None:
            skipped.append(path)
            continue
        g, f, s, t = (int(x) for x in match.groups())
        entries.append(DatasetEntry(g, f, s, t, path))
    if not entries:
        raise EmptyDataset(f"no skeleton files under {root}" + (
            f" in numbered directories; {len(skipped)} skipped, first {min(skipped)}"
            if skipped else ""))
    entries.sort(key=lambda e: e.key)
    return DatasetIndex(tuple(entries), tuple(sorted(skipped)))


def load_sequence(entry: DatasetEntry) -> SkeletonSequence:
    """Parse one skeleton file into a labelled sequence."""
    width = 3 * JOINT_COUNT
    try:
        with open(entry.path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        # read() decodes the whole file at once, so e.object holds all its bytes
        raise ParseError(entry.path, e.object.count(b"\n", 0, e.start) + 1,
                         f"byte 0x{e.object[e.start]:02x} is not UTF-8 text ({e.reason})") from e
    values = _convert_whole(lines, width)
    if values is None:
        raise _first_error(entry.path, lines, width)
    positions = values.reshape(len(values), JOINT_COUNT, 3)
    return SkeletonSequence(positions, gesture=entry.gesture, finger=entry.finger,
                            subject=entry.subject, trial=entry.trial)


def _convert_whole(lines: list[str], width: int) -> np.ndarray | None:
    """Every frame in one C-level conversion, or None when the file is not
    plainly ASCII text of `width` numbers per non-blank line.

    loadtxt splits lines on Unicode whitespace, as str.split does, and
    reads a subset of what float() reads: no underscores, ASCII digits
    only. DHG files are ASCII, so any other character marks a corrupt file.
    """
    if not all(map(str.isascii, lines)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on an empty file
            values = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return values if values.shape[1] == width and len(values) else None


def _first_error(path, lines: list[str], width: int) -> GestrecError:
    """The typed error for a file `_convert_whole` refused, read line by line
    only to name its first bad frame or line: a frame without `width`
    values, then a value float() cannot read, then a line loadtxt does not
    read, such as one holding `1_0`, a non-ASCII digit or a no-break space."""
    frames = 0
    for raw in lines:
        row = raw.split()
        if row and len(row) != width:
            return WrongJointCount(frames, len(row), width)
        frames += bool(row)
    if not frames:
        return ParseError(path, 0, "file contains no frames")
    for lineno, raw in enumerate(lines, start=1):
        try:
            np.array(raw.split(), dtype=np.float64)
        except ValueError as e:
            return ParseError(path, lineno, str(e))
        if not raw.isascii() or raw.split() and _convert_whole([raw], width) is None:
            return ParseError(path, lineno, "a value or separator is not plain ASCII decimal text")
    return ParseError(path, 0, "a value or separator is not plain ASCII decimal text")
