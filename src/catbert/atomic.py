"""The one way catbert writes a file: into a temporary file beside the target,
flushed to disk, then renamed over it, so a crash leaves the old file or the
new one. Bit rot after the rename is not detected."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """Yield a file opened with ``mode`` ("w": UTF-8 text, "wb": bytes) that
    replaces ``path`` once the block exits. On any error the temporary file
    is removed and ``path`` keeps its old bytes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
