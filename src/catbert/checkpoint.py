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

import numpy as np

from .model import CatBertModel, ModelConfig, param_shapes
from .tensor import Parameter

FORMAT_VERSION = 1
MANIFEST = "manifest.json"
BLOB = "tensors.bin"
_DTYPE = np.dtype("<f4")


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: CatBertModel, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    offset = 0
    with open(os.path.join(out_dir, BLOB), "wb") as f:
        for name, p in model.params.items():
            arr = np.ascontiguousarray(p.data, dtype=_DTYPE)
            entries.append({
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f32",
                "offset": offset,
                "nbytes": arr.nbytes,
            })
            f.write(memoryview(arr))
            offset += arr.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "tensors": entries,
        "provenance": model.provenance,
    }
    with open(os.path.join(out_dir, MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


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

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    return manifest, ModelConfig.from_dict(manifest["config"])


def load_checkpoint(ckpt_dir) -> CatBertModel:
    """Rebuild a model from a checkpoint directory, validating the manifest
    (version, tensor set, shapes, blob bounds) before any blob read."""
    manifest, config = read_manifest(ckpt_dir)
    expected = param_shapes(config)

    entries = {e["name"]: e for e in manifest.get("tensors", [])}
    missing = sorted(set(expected) - set(entries))
    if missing:
        raise CheckpointError(f"manifest missing tensors: {missing[:5]}")
    extra = sorted(set(entries) - set(expected))
    if extra:
        raise CheckpointError(f"manifest has unexpected tensors: {extra[:5]}")
    blob_path = os.path.join(ckpt_dir, BLOB)
    try:
        blob_size = os.path.getsize(blob_path)
    except OSError:
        raise CheckpointError(f"no {BLOB} in {ckpt_dir}") from None
    for name, shape in expected.items():
        e = entries[name]
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
    provenance = manifest.get("provenance") or {name: "fresh" for name in params}
    return CatBertModel(config, params, provenance)
