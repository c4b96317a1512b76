"""Crash-safe filesystem primitives.

Index artifact bundles (:mod:`repro.index.artifacts`) persist state
that other runs read back later — a writer killed mid-write must never
leave a truncated file where a complete one used to be. Every component
goes through :func:`atomic_write_text`: the bytes land in a
uniquely-named temp file *in the same directory* (so the final rename
cannot cross filesystems) and are published with ``os.replace``, which
is atomic on POSIX and Windows. Readers see either the old complete
file or the new complete file, never a partial one — including under
concurrent writers, since every writer gets its own temp name from
:func:`tempfile.mkstemp`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: Path | str, text: str, encoding: str = "utf-8") -> Path:
    """Write *text* to *path* atomically; returns the final path.

    The parent directory is created as needed. The temp file is fsynced
    before the rename so a crash right after the replace cannot publish
    an empty file, and unlinked on any failure so aborted writes leave
    no litter behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as sink:
            sink.write(text)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path

