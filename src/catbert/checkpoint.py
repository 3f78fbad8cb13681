"""Checkpoint directory format: ``manifest.json`` + ``tensors.bin``.

The manifest carries the format version, the model config, and a tensor
directory (name, shape, dtype, byte offset, byte length) plus per-tensor
provenance. The blob is raw little-endian float32, row-major, in manifest
order. Loading validates the whole directory against the config-derived
shapes before reading a single blob byte, and a save/load round trip is
bit-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .atomic import replacing
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
    manifest = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "tensors": entries,
        "provenance": model.provenance,
    }, indent=2, sort_keys=True) + "\n"
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
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"no {MANIFEST} in {ckpt_dir}") from None
    except json.JSONDecodeError as e:
        raise CheckpointError(f"unreadable manifest: {e}") from e

    if not isinstance(manifest, dict):
        raise CheckpointError(f"{MANIFEST} holds no JSON object")
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
    (version, tensor set, shapes, blob bounds) before any blob read."""
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
    blob_path = os.path.join(ckpt_dir, BLOB)
    try:
        blob_size = os.path.getsize(blob_path)
    except OSError:
        raise CheckpointError(f"no {BLOB} in {ckpt_dir}") from None
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
        want = int(np.prod(shape, dtype=np.int64)) * _DTYPE.itemsize
        if e["nbytes"] != want:
            raise CheckpointError(f"tensor {name!r} nbytes {e['nbytes']} != shape size {want}")
        if e["offset"] < 0 or e["offset"] + e["nbytes"] > blob_size:
            raise CheckpointError(
                f"tensor {name!r} spans [{e['offset']}, {e['offset'] + e['nbytes']}) "
                f"outside blob of {blob_size} bytes"
            )

    params: dict[str, Parameter] = {}
    with open(blob_path, "rb") as f:
        for name, shape in expected.items():
            f.seek(entries[name]["offset"])
            arr = np.fromfile(f, dtype=_DTYPE, count=int(np.prod(shape, dtype=np.int64)))
            params[name] = Parameter._adopt(name, arr.reshape(shape).astype(np.float32, copy=False))
    return CatBertModel(config, params, provenance or {name: "fresh" for name in params})
