"""Checkpoint directory format: ``manifest.json`` + ``tensors.bin``.

The manifest carries the format version, the model config, the tensor
directory (name, shape, dtype, byte offset, byte length) and per-tensor
provenance. The directory is a function of the config alone (``_layout``):
every parameter in canonical order, raw little-endian float32, row-major,
packed from byte 0. Save writes that directory and load requires the
manifest's to equal it and the blob to end where it ends, so a save/load
round trip is bit-identical.
"""

from __future__ import annotations

import json
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


def _layout(config: ModelConfig) -> list[dict]:
    """The tensor directory of a checkpoint of ``config``: each parameter of
    ``param_shapes`` in order, f32, packed from byte 0."""
    entries, offset = [], 0
    for name, shape in param_shapes(config).items():
        nbytes = math.prod(shape) * _DTYPE.itemsize
        entries.append({"name": name, "shape": list(shape), "dtype": "f32",
                        "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return entries


def _difference(tensors, layout: list[dict]) -> str:
    """Why the directory ``tensors`` is not ``layout``: the first tensor and
    field that differ, compared as JSON so ``1280.0`` is not ``1280``, nor
    ``true`` ``1``. Run only once they are known to differ."""
    if type(tensors) is not list or not all(type(e) is dict for e in tensors):
        return "'tensors' is not a list of objects"
    names, want = [e.get("name") for e in tensors], [e["name"] for e in layout]
    missing = [name for name in want if name not in names]
    if missing:
        return f"missing tensors: {missing[:5]}"
    extra = [name for name in names if name not in want]
    if extra:
        return f"unexpected tensors: {extra[:5]!r:.200}"
    for got, entry in zip(tensors, layout):
        for key in {**entry, **got}:
            if key not in got or key not in entry or json.dumps(got[key]) != json.dumps(entry[key]):
                return (f"tensor {entry['name']!r} has a bad {key!r}: {got.get(key)!r:.80}, "
                        f"expected {entry.get(key)!r}")
    return f"{len(tensors)} tensors, expected {len(layout)}"


def save_checkpoint(model: CatBertModel, out_dir) -> None:
    """Write the blob, then the manifest, each replacing its file whole. A
    re-save with one config keeps the manifest's bytes, so a crash leaves the
    old model or the new one; a save that changes the manifest deletes the old
    one first, so a crash leaves no manifest, never one over another blob. A
    model whose tensors do not fit its config's layout touches no file."""
    layout = _layout(model.config)
    shapes = [{"name": name, "shape": list(p.data.shape)} for name, p in model.params.items()]
    want = [{"name": e["name"], "shape": e["shape"]} for e in layout]
    if shapes != want:
        raise CheckpointError(f"model does not fit its config, nothing saved: "
                              f"{_difference(shapes, want)}")
    manifest = json_text({
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "tensors": layout,
        "provenance": model.provenance,
    })
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = Path(out_dir, MANIFEST)
    if manifest_path.exists() and manifest_path.read_bytes() != manifest.encode():
        manifest_path.unlink()
    with replacing(os.path.join(out_dir, BLOB), "wb") as f:
        for e in layout:
            f.write(memoryview(np.ascontiguousarray(model.params[e["name"]].data, dtype=_DTYPE)))
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
        raise CheckpointError(f"unsupported format_version {version!r}, expected "
                              f"{FORMAT_VERSION}, in {manifest_path}")
    if not isinstance(manifest.get("config"), dict):
        raise CheckpointError(f"no 'config' object in {manifest_path}")
    try:
        return manifest, ModelConfig.from_dict(manifest["config"])
    except ConfigError as e:  # a field out of range; every field has a default
        raise CheckpointError(f"bad 'config' in {manifest_path}: {e}") from e


def load_checkpoint(ckpt_dir) -> CatBertModel:
    """Rebuild a model from a checkpoint directory whose tensor directory
    equals its config's layout and whose blob ends where the layout ends.
    Each parameter is a view of one private (copy-on-write) mapping of
    ``tensors.bin``: processes that load one checkpoint share its clean
    pages, and the first write to a page copies that page, so no write
    reaches the file. Until the model is freed it holds the mapping and an
    open descriptor of the file, so a file that ``save_checkpoint``
    replaced keeps its disk blocks until then. Rewriting the file in place
    while the model lives would change its unwritten weights, or kill the
    process with SIGBUS; ``save_checkpoint`` replaces it whole."""
    manifest, config = read_manifest(ckpt_dir)
    manifest_path, blob_path = os.path.join(ckpt_dir, MANIFEST), os.path.join(ckpt_dir, BLOB)
    layout = _layout(config)
    tensors = manifest.get("tensors")
    if json.dumps(tensors, sort_keys=True) != json.dumps(layout, sort_keys=True):  # JSON types too
        raise CheckpointError(f"{_difference(tensors, layout)}, in {manifest_path}")
    provenance = manifest.get("provenance", {})
    if not isinstance(provenance, dict) or not all(isinstance(v, str) for v in provenance.values()):
        raise CheckpointError(f"'provenance' is not an object of strings: {str(provenance)[:80]}, "
                              f"in {manifest_path}")
    try:
        f = open(blob_path, "rb")
    except OSError:
        raise CheckpointError(f"no {BLOB} in {ckpt_dir}") from None
    with f:
        size, end = os.fstat(f.fileno()).st_size, layout[-1]["offset"] + layout[-1]["nbytes"]
        if size != end:
            raise CheckpointError(f"{blob_path} holds {size} bytes, but its tensors end at byte "
                                  f"{end}, after {layout[-1]['name']!r}")
        blob = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    params = {e["name"]: Parameter._adopt(e["name"], np.frombuffer(
        blob, _DTYPE, count=e["nbytes"] // _DTYPE.itemsize, offset=e["offset"]
    ).reshape(e["shape"]).astype(np.float32, copy=False)) for e in layout}
    return CatBertModel(config, params, provenance or {name: "fresh" for name in params})
