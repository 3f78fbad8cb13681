"""The one way catbert writes a file (into a temporary file beside the target,
flushed to disk, then renamed over it, so a crash leaves the old file or the
new one; bit rot after the rename is not detected), writes JSON, and reads it."""

from __future__ import annotations

import contextlib
import json
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


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key[:80]!r}")  # short, however long the key
        obj[key] = value
    return obj


def json_object(text: str | bytes) -> dict:
    """``text`` (bytes as UTF-8) as a JSON object with unique keys, or a
    ValueError whose message follows the name of what held the text."""
    try:
        obj = json.loads(text.decode() if isinstance(text, bytes) else text,
                         object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:  # bad UTF-8, the int digit limit, deep nesting
        raise ValueError(f"is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError("must hold a JSON object")
    return obj


def read_json_object(path) -> dict:
    with open(path, "rb") as f:
        return json_object(f.read())
