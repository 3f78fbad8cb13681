import json
import re
import tracemalloc

import numpy as np
import pytest

from catbert.checkpoint import (BLOB, MANIFEST, CheckpointError, load_checkpoint, read_manifest,
                                save_checkpoint)
from catbert.model import ModelConfig, forward_probs, init_random, surgery_from_donor
from catbert.tensor import Parameter

from oracles import astype


@pytest.fixture
def tiny():
    cfg = ModelConfig(vocab_size=40, hidden=8, ffn_dim=16, heads=2,
                      max_positions=16, block_plan=("T", "A"))
    return init_random(cfg, 1)


class TestRoundTrip:
    def test_bit_exact(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.config == tiny.config
        for name, p in tiny.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name

    def test_save_load_save_byte_identical(self, tiny, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_checkpoint(tiny, d1)
        save_checkpoint(load_checkpoint(d1), d2)
        assert (d1 / BLOB).read_bytes() == (d2 / BLOB).read_bytes()
        assert (d1 / MANIFEST).read_bytes() == (d2 / MANIFEST).read_bytes()

    def test_provenance_survives(self, tmp_path):
        cfg = ModelConfig(vocab_size=40, hidden=8, ffn_dim=16, heads=2,
                          max_positions=16, block_plan=("T",) * 4, context_dim=0)
        donor = init_random(cfg, 2)
        m = surgery_from_donor(donor, keep=[0, 2])
        save_checkpoint(m, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.provenance == m.provenance

    def test_loaded_params_are_writable(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        loaded = load_checkpoint(tmp_path)
        loaded.params["classifier.out.b"].data[:] = 5.0  # must not raise


def test_no_two_parameters_share_memory(tmp_path):
    """Adam writes parameters in place, so no parameter built by
    ``init_random``, ``surgery_from_donor``, ``astype`` or
    ``load_checkpoint`` may share memory with another one, in its own model
    or in the model it came from."""
    cfg = ModelConfig(vocab_size=40, hidden=8, ffn_dim=16, heads=2,
                      max_positions=16, block_plan=("T",) * 4)
    donor = init_random(cfg, 2)
    compressed = surgery_from_donor(donor)
    save_checkpoint(compressed, tmp_path)
    models = [donor, init_random(cfg, 2), compressed, astype(compressed, np.float32),
              astype(compressed, np.float64), load_checkpoint(tmp_path)]
    arrays = [p.data for m in models for p in m.parameters()]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i


class TestMappedLoad:
    """A load maps the blob copy-on-write: it allocates no copy of it, and a
    write to a parameter stays in the process, whatever becomes of the file."""

    def test_load_allocates_no_copy_of_the_blob(self, tmp_path):
        cfg = ModelConfig(vocab_size=32768, hidden=64, ffn_dim=128, heads=2,
                          max_positions=16, block_plan=("T", "A"))
        save_checkpoint(init_random(cfg, 0), tmp_path)
        assert (tmp_path / BLOB).stat().st_size >= 8 << 20
        tracemalloc.start()
        try:
            model = load_checkpoint(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert model.params["embeddings.token"].data.shape == (32768, 64)

    def test_a_write_reaches_neither_the_file_nor_the_next_load(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        blob = (tmp_path / BLOB).read_bytes()
        loaded = load_checkpoint(tmp_path)
        for p in loaded.parameters():
            p.data[...] = 7.0
        assert (tmp_path / BLOB).read_bytes() == blob
        again = load_checkpoint(tmp_path)
        for name, p in tiny.params.items():
            assert np.array_equal(again.params[name].data, p.data), name

    def test_a_resave_into_the_directory_leaves_a_loaded_model_as_it_was(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        loaded = load_checkpoint(tmp_path)
        other = init_random(tiny.config, 2)
        save_checkpoint(other, tmp_path)  # a new file renamed over the mapped one
        for name, p in tiny.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name
        assert np.array_equal(load_checkpoint(tmp_path).params["embeddings.token"].data,
                              other.params["embeddings.token"].data)


class TestRetiredOptions:
    def test_old_manifest_loads_and_scores_identically(self, tiny, tmp_path):
        # written while cls_from and classifier_hidden were config fields
        save_checkpoint(tiny, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        manifest["config"].update(cls_from="last_block", classifier_hidden=8)
        (tmp_path / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        loaded = load_checkpoint(tmp_path)
        assert loaded.config == tiny.config
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 40, size=(3, 10))
        mask = np.ones((3, 10), dtype=np.int64)
        ctx = rng.random((3, 4)).astype(np.float32)
        assert np.array_equal(forward_probs(loaded, ids, mask, ctx).data,
                              forward_probs(tiny, ids, mask, ctx).data)

class TestValidation:
    def test_truncated_blob_names_tensor(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        blob = (tmp_path / BLOB).read_bytes()
        (tmp_path / BLOB).write_bytes(blob[:-5])
        with pytest.raises(CheckpointError, match="classifier.out"):
            load_checkpoint(tmp_path)

    def test_wrong_shape_in_manifest(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        for e in manifest["tensors"]:
            if e["name"] == "blocks.0.ffn.w1":
                e["shape"] = [8, 99]
        (tmp_path / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="blocks.0.ffn.w1"):
            load_checkpoint(tmp_path)

    def test_missing_tensor(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        manifest["tensors"] = [e for e in manifest["tensors"]
                               if e["name"] != "embeddings.ln.gain"]
        (tmp_path / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="embeddings.ln.gain"):
            load_checkpoint(tmp_path)

    def test_version_mismatch(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        manifest["format_version"] = 99
        (tmp_path / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(tmp_path)

    def test_missing_blob(self, tiny, tmp_path):
        save_checkpoint(tiny, tmp_path)
        (tmp_path / BLOB).unlink()
        with pytest.raises(CheckpointError, match="tensors.bin"):
            load_checkpoint(tmp_path)

    def test_overlapping_tensors_are_named(self, tiny, tmp_path):
        # two views of one mapping would alias: a step on one writes the other
        save_checkpoint(tiny, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        entries = {e["name"]: e for e in manifest["tensors"]}
        entries["classifier.out.b"]["offset"] = entries["classifier.out.w"]["offset"] + 4
        (tmp_path / MANIFEST).write_text(json.dumps(manifest))
        message = (f"tensor 'classifier.out.b' has a bad 'offset': "
                   f"{entries['classifier.out.w']['offset'] + 4}, "
                   f"expected {entries['classifier.out.w']['offset'] + 32}")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path)

    def test_offset_not_a_multiple_of_the_item_size(self, tiny, tmp_path):
        # the tensor's bytes moved to the end of the blob, 2 bytes past alignment
        save_checkpoint(tiny, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        entry = next(e for e in manifest["tensors"] if e["name"] == "classifier.fusion.b")
        blob = (tmp_path / BLOB).read_bytes()
        offset = entry["offset"]
        moved = blob[offset:offset + entry["nbytes"]]
        entry["offset"] = len(blob) + 2
        (tmp_path / BLOB).write_bytes(blob + b"\0\0" + moved)
        (tmp_path / MANIFEST).write_text(json.dumps(manifest))
        message = (f"tensor 'classifier.fusion.b' has a bad 'offset': {len(blob) + 2}, "
                   f"expected {offset}")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path)



def _set_entry(m, key, value):
    entry = m["tensors"][0]
    if value is None:
        del entry[key]
    else:
        entry[key] = value
    return m


@pytest.mark.parametrize("edit, message", [
    (lambda m: [m], "unreadable manifest: {manifest} must hold a JSON object"),
    (lambda m: {k: v for k, v in m.items() if k != "config"}, "no 'config' object"),
    (lambda m: {**m, "config": {**m["config"], "hidden": "8"}},
     "bad 'config' in {manifest}: hidden must be an int >= 1, got '8'"),
    (lambda m: {**m, "config": {**m["config"], "heads": 0}},
     "bad 'config' in {manifest}: heads must be an int >= 1, got 0"),
    (lambda m: {k: v for k, v in m.items() if k != "config"} | {"config": {"hidden": 8}},
     "bad 'config' in {manifest}: "),
    (lambda m: {**m, "tensors": 5}, "'tensors' is not a list of objects"),
    (lambda m: _set_entry(m, "shape", None), "tensor 'embeddings.token' has a bad 'shape': None"),
    (lambda m: _set_entry(m, "shape", [40, "8"]), "has a bad 'shape': [40, '8']"),
    (lambda m: _set_entry(m, "offset", "0"), "tensor 'embeddings.token' has a bad 'offset': '0'"),
    (lambda m: _set_entry(m, "nbytes", 1280.0), "has a bad 'nbytes': 1280.0"),
    (lambda m: _set_entry(m, "name", None), "missing tensors: ['embeddings.token']"),
    (lambda m: {**m, "tensors": m["tensors"] + [{"shape": [1]}, {"name": "extra"}]},
     "unexpected tensors: [None, 'extra']"),
    (lambda m: {**m, "config": {**m["config"], "block_plan": 5}},
     "bad 'config' in {manifest}: block_plan must be a list of block kinds, got 5"),
    (lambda m: {**m, "config": {**m["config"], "seed": "x"}},
     "bad 'config' in {manifest}: seed must be an int >= 0, got 'x'"),
    (lambda m: {**m, "provenance": ["fresh"]}, "'provenance' is not an object of strings"),
    (lambda m: {**m, "provenance": {**m["provenance"], "embeddings.token": 5}},
     "'provenance' is not an object of strings"),
    (lambda m: json.dumps(m)[:-1], "unreadable manifest: "),
    (lambda m: _set_entry(m, "dtype", "f16"),
     "tensor 'embeddings.token' has a bad 'dtype': 'f16', expected 'f32', in {manifest}"),
    (lambda m: _set_entry(m, "nbytes", m["tensors"][0]["nbytes"] - 4),
     "tensor 'embeddings.token' has a bad 'nbytes': 1276, expected 1280, in {manifest}"),
    (lambda m: json.dumps(m)[:-1] + ', "format_version": 1}',
     "{manifest} is not valid JSON: repeated key 'format_version'"),
    (lambda m: json.dumps(m).replace('"format_version": 1', '"format_version": ' + "1" * 5000),
     "{manifest} is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["json-list", "no-config", "string-hidden", "zero-heads", "no-vocab-size",
        "tensors-not-a-list", "entry-without-shape", "string-in-shape", "string-offset",
        "float-nbytes", "entry-without-name", "extra-entries-with-and-without-name",
        "int-block-plan", "string-seed", "provenance-not-an-object", "provenance-with-a-number",
        "unparsable-json", "f16-dtype", "nbytes-not-the-shape-size", "repeated-key",
        "int-past-digit-limit"])
def test_malformed_manifest_is_a_checkpoint_error_naming_the_field(tiny, tmp_path, edit,
                                                                   message):
    """A hand-edited manifest fails as a CheckpointError that says what is
    wrong, never as a raw KeyError, TypeError or AttributeError. An edit that
    returns text is written as it is; ``{manifest}`` stands for its path."""
    save_checkpoint(tiny, tmp_path)
    edited = edit(json.loads((tmp_path / MANIFEST).read_text()))
    (tmp_path / MANIFEST).write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(tmp_path)
    assert message.format(manifest=tmp_path / MANIFEST) in str(exc.value)
    assert str(tmp_path / MANIFEST) in str(exc.value)


def _swap_offsets(m, blob):
    gain, bias = (e for e in m["tensors"] if e["name"] in ("embeddings.ln.gain",
                                                           "embeddings.ln.bias"))
    gain["offset"], bias["offset"] = bias["offset"], gain["offset"]
    return m, blob


def _gap_after_the_first_tensor(m, blob):
    first = m["tensors"][0]["nbytes"]
    for e in m["tensors"][1:]:
        e["offset"] += 4
    return m, blob[:first] + bytes(4) + blob[first:]


@pytest.mark.parametrize("edit, message", [
    (_swap_offsets,
     "tensor 'embeddings.ln.gain' has a bad 'offset': 1824, expected 1792, in {manifest}"),
    (lambda m, blob: (m, blob + bytes(64)),
     "{blob} holds {size} bytes, but its tensors end at byte {end}, after 'classifier.out.b'"),
    (_gap_after_the_first_tensor,
     "tensor 'embeddings.position' has a bad 'offset': 1284, expected 1280, in {manifest}"),
], ids=["swapped-same-size-offsets", "trailing-blob-bytes", "gap-between-tensors"])
def test_a_layout_its_config_does_not_give_is_refused(tiny, tmp_path, edit, message):
    """Each tensor sits where its config's layout puts it, and the blob ends
    where the last one does; an edit of the manifest and the blob that
    keeps every range in bounds, aligned and disjoint is still refused."""
    save_checkpoint(tiny, tmp_path)
    end = (tmp_path / BLOB).stat().st_size
    manifest, blob = edit(json.loads((tmp_path / MANIFEST).read_text()),
                          (tmp_path / BLOB).read_bytes())
    (tmp_path / MANIFEST).write_text(json.dumps(manifest))
    (tmp_path / BLOB).write_bytes(blob)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(tmp_path)
    assert str(exc.value) == message.format(manifest=tmp_path / MANIFEST, blob=tmp_path / BLOB,
                                            size=len(blob), end=end)


def test_a_save_that_does_not_fit_the_config_leaves_the_old_checkpoint(tiny, tmp_path):
    save_checkpoint(tiny, tmp_path)
    files = {name: (tmp_path / name).read_bytes() for name in (MANIFEST, BLOB)}
    bad = init_random(tiny.config, 2)
    bad.params["classifier.out.b"] = Parameter._adopt("classifier.out.b",
                                                      np.zeros(2, np.float32))
    with pytest.raises(CheckpointError, match=re.escape(
            "tensor 'classifier.out.b' has a bad 'shape': [2], expected [1]")):
        save_checkpoint(bad, tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in (MANIFEST, BLOB)} == files
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    loaded = load_checkpoint(tmp_path)
    for name, p in tiny.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


def test_a_manifest_byte_that_is_not_utf8_is_a_checkpoint_error(tiny, tmp_path):
    save_checkpoint(tiny, tmp_path)
    text = (tmp_path / MANIFEST).read_bytes()
    (tmp_path / MANIFEST).write_bytes(text.replace(b'"format_version"', b'"format\xff"', 1))
    manifest = re.escape(str(tmp_path / MANIFEST))
    with pytest.raises(CheckpointError, match=f"unreadable manifest: {manifest} is not valid JSON: "
                                              "'utf-8' codec can't decode"):
        read_manifest(tmp_path)
