"""Saving and loading of model parameters and experiment results.

Two formats are used:

* ``.npz`` archives for numeric arrays (network weights, activation caches),
* ``.json`` files for metadata (configs, table rows, measured accuracies).
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from typing import Any, Dict, Iterator, Mapping

import numpy as np


@contextlib.contextmanager
def _atomic_open(path: str, mode: str) -> Iterator[Any]:
    """Open a temporary file beside ``path`` and move it over ``path`` on success.

    The rename is atomic, so readers (and crashed writers) never observe a
    half-written file; on any error the temporary file is removed and
    ``path`` keeps its previous content.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    temp_path = f"{path}.{secrets.token_hex(8)}.tmp"
    # Created like ``open`` creates files, so the umask sets the mode.
    fd = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def save_arrays(path: str, arrays: Mapping[str, np.ndarray]) -> str:
    """Save a mapping of named arrays to a compressed ``.npz`` archive.

    The archive is written atomically (see :func:`_atomic_open`), so a run
    killed mid-save leaves the previous archive or none, never a torn one.
    Returns the path written (with ``.npz`` appended if missing).
    """
    if not arrays:
        raise ValueError("refusing to save an empty array mapping")
    if not path.endswith(".npz"):
        path = path + ".npz"
    with _atomic_open(path, "wb") as handle:
        np.savez_compressed(handle, **{str(k): np.asarray(v) for k, v in arrays.items()})
    return path


def load_arrays(path: str) -> Dict[str, np.ndarray]:
    """Load a ``.npz`` archive previously written by :func:`save_arrays`."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path, allow_pickle=False) as data:
        return {key: np.array(data[key]) for key in data.files}


class _NumpyJSONEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars and arrays."""

    def default(self, obj: Any) -> Any:  # noqa: D102 - inherited
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def save_json(path: str, payload: Any, indent: int = 2, atomic: bool = False) -> str:
    """Write ``payload`` as JSON, creating parent directories as needed.

    With ``atomic=True`` the document is written through
    :func:`_atomic_open`, so readers (and crashed writers) never observe a
    half-written file -- the result store and the conversion document
    beside the trained weights rely on this.
    """
    if atomic:
        opened = _atomic_open(path, "w")
    else:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        opened = open(path, "w", encoding="utf-8")
    with opened as handle:
        json.dump(payload, handle, indent=indent, cls=_NumpyJSONEncoder)
        handle.write("\n")
    return path


def load_json(path: str) -> Any:
    """Load a JSON document written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
