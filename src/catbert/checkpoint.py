"""Checkpoint directory format: ``manifest.json`` + ``tensors.bin``.

The manifest carries the format version, the model config, and a tensor
directory (name, shape, dtype, byte offset, byte length) plus per-tensor
provenance. The blob is raw little-endian float32, row-major, in manifest
order. Loading validates the whole directory against the config-derived
shapes before mapping the blob, and a save/load round trip is
bit-identical.
"""

from __future__ import annotations

import math
import mmap
import os
from pathlib import Path

import numpy as np

from .atomic import json_text, read_json_object, replacing
from .model import CatBertModel, ConfigError, ModelConfig, param_shapes
from .tensor import Parameter

FORMAT_VERSION = 1
MANIFEST = "manifest.json"
BLOB = "tensors.bin"
_DTYPE = np.dtype("<f4")


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: CatBertModel, out_dir) -> None:
    """Write the blob, then the manifest, each replacing its file whole. A
    re-save with one config keeps the manifest's bytes, so a crash leaves the
    old model or the new one; a save that changes the manifest deletes the old
    one first, so a crash leaves no manifest, never one over another blob."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    offset = 0
    for name, p in model.params.items():
        nbytes = p.data.size * _DTYPE.itemsize
        entries.append({"name": name, "shape": list(p.data.shape), "dtype": "f32",
                        "offset": offset, "nbytes": nbytes})
        offset += nbytes
    manifest = json_text({
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "tensors": entries,
        "provenance": model.provenance,
    })
    manifest_path = Path(out_dir, MANIFEST)
    if manifest_path.exists() and manifest_path.read_bytes() != manifest.encode():
        manifest_path.unlink()
    with replacing(os.path.join(out_dir, BLOB), "wb") as f:
        for p in model.params.values():
            f.write(memoryview(np.ascontiguousarray(p.data, dtype=_DTYPE)))
    with replacing(manifest_path) as f:
        f.write(manifest)


def read_manifest(ckpt_dir) -> tuple[dict, ModelConfig]:
    """A checkpoint's manifest and model config, read without touching the
    blob: what a caller needs to check its flags against the model."""
    manifest_path = os.path.join(ckpt_dir, MANIFEST)
    try:
        manifest = read_json_object(manifest_path)
    except FileNotFoundError:
        raise CheckpointError(f"no {MANIFEST} in {ckpt_dir}") from None
    except ValueError as e:
        raise CheckpointError(f"unreadable manifest: {manifest_path} {e}") from None
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    if not isinstance(manifest.get("config"), dict):
        raise CheckpointError(f"{MANIFEST} has no 'config' object")
    try:
        return manifest, ModelConfig.from_dict(manifest["config"])
    except (TypeError, ConfigError) as e:  # a field missing or out of range
        raise CheckpointError(f"bad 'config' in {MANIFEST}: {e}") from e


def load_checkpoint(ckpt_dir) -> CatBertModel:
    """Rebuild a model from a checkpoint directory, validating the manifest
    (version, tensor set, shapes, aligned and disjoint blob ranges) before
    the blob is mapped. Each parameter is a view of one private
    (copy-on-write) mapping of ``tensors.bin``: processes that load one
    checkpoint share its clean pages, and the first write to a page copies
    that page, so no write reaches the file. Until the model is freed it
    holds the mapping and an open descriptor of the file, so a file that
    ``save_checkpoint`` replaced keeps its disk blocks until then.
    Rewriting the file in place while the model lives would change its
    unwritten weights, or kill the process with SIGBUS; ``save_checkpoint``
    replaces it whole."""
    manifest, config = read_manifest(ckpt_dir)
    expected = param_shapes(config)

    tensors = manifest.get("tensors", [])
    if not isinstance(tensors, list) or not all(isinstance(e, dict) for e in tensors):
        raise CheckpointError("'tensors' is not a list of objects")
    entries = {e.get("name"): e for e in tensors}
    missing = sorted(set(expected) - set(entries))
    if missing:
        raise CheckpointError(f"manifest missing tensors: {missing[:5]}")
    extra = sorted(set(entries) - set(expected), key=str)
    if extra:
        raise CheckpointError(f"manifest has unexpected tensors: {extra[:5]}")
    provenance = manifest.get("provenance", {})
    if not isinstance(provenance, dict) or not all(isinstance(v, str) for v in provenance.values()):
        raise CheckpointError(f"'provenance' is not an object of strings: {str(provenance)[:80]}")
    try:
        f = open(os.path.join(ckpt_dir, BLOB), "rb")
    except OSError:
        raise CheckpointError(f"no {BLOB} in {ckpt_dir}") from None
    with f:
        _check_entries(expected, entries, os.fstat(f.fileno()).st_size)
        blob = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    params: dict[str, Parameter] = {}
    for name, shape in expected.items():
        arr = np.frombuffer(blob, _DTYPE, count=math.prod(shape), offset=entries[name]["offset"])
        params[name] = Parameter._adopt(name, arr.reshape(shape).astype(np.float32, copy=False))
    return CatBertModel(config, params, provenance or {name: "fresh" for name in params})


def _check_entries(expected: dict[str, tuple[int, ...]], entries: dict, blob_size: int) -> None:
    """Each expected tensor's entry: int fields, its config shape, f32, and a
    4-byte aligned range inside the blob that no other tensor's overlaps
    (views of one mapping alias where their ranges do, so an Adam step on
    one tensor would write the other)."""
    for name, shape in expected.items():
        e = entries[name]
        for key in ("shape", "offset", "nbytes"):  # a list of ints, an int, an int
            v = e.get(key)
            ints = v if key == "shape" and type(v) is list else [v]
            if not all(type(x) is int for x in ints):
                raise CheckpointError(f"tensor {name!r} has a bad {key!r}: {v!r}")
        if tuple(e["shape"]) != shape:
            raise CheckpointError(
                f"tensor {name!r} has manifest shape {tuple(e['shape'])}, config requires {shape}"
            )
        if e.get("dtype") != "f32":
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {e.get('dtype')!r}")
        want = math.prod(shape) * _DTYPE.itemsize
        if e["nbytes"] != want:
            raise CheckpointError(f"tensor {name!r} nbytes {e['nbytes']} != shape size {want}")
        if e["offset"] < 0 or e["offset"] + e["nbytes"] > blob_size:
            raise CheckpointError(
                f"tensor {name!r} spans [{e['offset']}, {e['offset'] + e['nbytes']}) "
                f"outside blob of {blob_size} bytes"
            )
        if e["offset"] % _DTYPE.itemsize:
            raise CheckpointError(
                f"tensor {name!r} offset {e['offset']} is not a multiple of {_DTYPE.itemsize}"
            )
    spans = sorted((entries[name]["offset"], name) for name in expected)
    for (start, a), (next_start, b) in zip(spans, spans[1:]):
        if next_start < start + entries[a]["nbytes"]:
            raise CheckpointError(f"tensors {a!r} and {b!r} overlap in {BLOB}")
