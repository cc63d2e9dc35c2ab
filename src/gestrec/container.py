"""The on-disk container shared by feature files and checkpoints: a magic
line, a one-line JSON header (keys sorted), a `BINARY` line, then the arrays
back to back as little-endian float64."""

import json
import os
from pathlib import Path

import numpy as np

_MARKER = b"BINARY\n"


def write(path, magic: str, header: dict, arrays) -> None:
    """Write through a sibling temp file and `os.replace`, so `path` holds
    either its old bytes or the whole new file, never a truncated one."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{magic}\n{json.dumps(header, sort_keys=True)}\n".encode() + _MARKER)
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read(path, magic: str, error_cls: type[Exception]):
    """Returns (header dict, flat read-only float64 payload); a malformed
    file raises `error_cls` naming `path`."""
    with open(path, "rb") as fh:
        first = fh.readline().decode(errors="replace").rstrip("\n")
        if first != magic:
            raise error_cls(f"{path}: bad magic line {first!r}")
        try:
            header = json.loads(fh.readline())
        except ValueError as e:
            raise error_cls(f"{path}: header is not JSON: {e}") from e
        if not isinstance(header, dict):
            raise error_cls(f"{path}: header is not a JSON object")
        if fh.readline() != _MARKER:
            raise error_cls(f"{path}: missing BINARY marker")
        payload = fh.read(os.fstat(fh.fileno()).st_size - fh.tell())
    if len(payload) % 8:
        raise error_cls(f"{path}: payload of {len(payload)} bytes is not whole float64 values")
    return header, np.frombuffer(payload, dtype="<f8")
