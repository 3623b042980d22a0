"""Shared output helpers: stable number formatting, atomic file writes."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional, TextIO


def fmt(x: float) -> str:
    """Locale-independent decimal with '.' separator, stable across reruns."""
    return format(float(x), ".10g")


def _new_file_mode() -> int:
    """The permission bits ``open`` gives a new file under the current umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextlib.contextmanager
def write_atomic(path: Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for writing that appears at ``path`` only when
    the block completes: it is written to a temp file in the same directory
    and renamed over ``path``, so readers never see partial output and an
    exception leaves any earlier file untouched. ``newline`` is as for
    ``open`` ("" for csv writers)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        os.fchmod(fd, _new_file_mode())
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic_json(path: Path, obj) -> None:
    """Write JSON through ``write_atomic``."""
    with write_atomic(path) as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")
