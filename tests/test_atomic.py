"""One write path: every file catbert writes goes through
``atomic.replacing``, and a crash at any step of any writer leaves the old
file or the new one, and no temporary file."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import catbert
from catbert import atomic
from catbert.checkpoint import BLOB, MANIFEST, CheckpointError, load_checkpoint, save_checkpoint
from catbert.cli import _write_text
from catbert.mail import save_dataset
from catbert.model import ModelConfig, init_random
from catbert.synthetic import make_corpus
from catbert.tokenizer import save_vocab

SRC = Path(catbert.__file__).parent
SCRIPTS = SRC.parent.parent / "scripts"


def _file_writes(tree: ast.AST):
    """(line, call) for each call that writes or renames a file: ``open`` with
    a mode holding w, a, x or + (or a mode that is not a literal),
    ``os.replace``/``os.rename``, and ``write_text``/``write_bytes``/``tofile``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set("wax+") & set(mode.value):
                yield node.lineno, "open for writing"
        elif isinstance(f, ast.Attribute):
            if isinstance(f.value, ast.Name) and f.value.id == "os" and f.attr in ("replace",
                                                                                   "rename"):
                yield node.lineno, f"os.{f.attr}"
            elif f.attr in ("write_text", "write_bytes", "tofile"):
                yield node.lineno, f.attr


def test_only_the_writer_module_writes_files():
    """The package and the scripts beside it write through ``atomic.replacing``."""
    paths = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert any(p.parent == SCRIPTS for p in paths)
    found = {f"{p.parent.name}/{p.name}": list(_file_writes(ast.parse(p.read_text(), str(p))))
             for p in paths}
    assert found.pop("catbert/atomic.py"), "the writer itself should be seen writing"
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_write_finder_sees_each_form():
    tree = ast.parse("open(p, 'wb')\nopen(p, mode='a')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\n"
                     "os.replace(a, b)\nPath(p).write_text(s)\narr.tofile(p)\ns.replace(a, b)\n")
    assert [line for line, _ in _file_writes(tree)] == [1, 2, 3, 6, 7, 8]


class Crash(BaseException):
    """Stands in for the process dying: no handler of the program catches it."""


STEPS = ("write", "fsync", "replace")


def crash_at(monkeypatch, step: str, nth: int = 1) -> None:
    """Make the ``nth`` ``step`` of the writer raise ``Crash``: a write after
    half its data is written, an fsync or a replace before it acts."""
    calls = []

    def due() -> bool:
        calls.append(step)
        return len(calls) == nth

    if step == "write":
        real_open = open

        class Torn:
            def __init__(self, f):
                self.f = f

            def write(self, data):
                if due():
                    half = (data if isinstance(data, str) else memoryview(data).cast("B"))
                    self.f.write(half[: len(half) // 2])
                    raise Crash
                return self.f.write(data)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

        monkeypatch.setattr(atomic, "open", lambda *a, **k: Torn(real_open(*a, **k)),
                            raising=False)
    else:
        real = getattr(os, step)

        def failing(*args):
            if due():
                raise Crash
            return real(*args)

        monkeypatch.setattr(os, step, failing)


WRITERS = {
    "report": lambda data, path: _write_text(data, str(path)),
    "dataset": save_dataset,
    "vocab": save_vocab,
}
OLD_NEW = {
    "report": ('{"old": 1}\n', '{"new": 2}\n'),
    "dataset": (make_corpus(n=6, malicious_frac=0.5, seed=0),
                make_corpus(n=9, malicious_frac=0.5, seed=1)),
    "vocab": (["[PAD]", "[UNK]", "old"], ["[PAD]", "[UNK]", "new", "words"]),
}


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_crashed_write_keeps_the_old_file(tmp_path, monkeypatch, writer, step):
    write, (old, new) = WRITERS[writer], OLD_NEW[writer]
    target = tmp_path / "target"
    write(old, target)
    old_bytes = target.read_bytes()
    write(new, tmp_path / "reference")
    new_bytes = (tmp_path / "reference").read_bytes()
    (tmp_path / "reference").unlink()
    assert old_bytes != new_bytes

    with monkeypatch.context() as m:
        crash_at(m, step)
        with pytest.raises(Crash):
            write(new, target)
    assert target.read_bytes() == old_bytes
    assert os.listdir(tmp_path) == ["target"]
    write(new, target)
    assert target.read_bytes() == new_bytes
    assert os.listdir(tmp_path) == ["target"]


CFG = dict(vocab_size=40, hidden=8, ffn_dim=16, heads=2, max_positions=16, block_plan=("T", "A"))
# (step, which of its calls) for each step of a save: the blob's, then the manifest's
SAVE_STEPS = {"blob-write": ("write", 1), "blob-fsync": ("fsync", 1),
              "blob-replace": ("replace", 1), "manifest-write": ("write", None),
              "manifest-fsync": ("fsync", 2), "manifest-replace": ("replace", 2)}


def _same_params(a, b) -> bool:
    return all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)


@pytest.mark.parametrize("at", sorted(SAVE_STEPS))
def test_a_crashed_resave_loads_the_old_or_the_new_model(tmp_path, monkeypatch, at):
    """``train`` re-saves ``best/`` with one config, so the manifest keeps its
    bytes: a crash before the blob is replaced leaves the old model, after it
    the new one."""
    old, new = init_random(ModelConfig(**CFG), 1), init_random(ModelConfig(**CFG), 2)
    save_checkpoint(old, tmp_path)
    manifest = (tmp_path / MANIFEST).read_bytes()
    step, nth = SAVE_STEPS[at]
    with monkeypatch.context() as m:
        crash_at(m, step, nth or len(new.params) + 1)
        with pytest.raises(Crash):
            save_checkpoint(new, tmp_path)
    assert sorted(os.listdir(tmp_path)) == [MANIFEST, BLOB]
    assert (tmp_path / MANIFEST).read_bytes() == manifest
    assert _same_params(load_checkpoint(tmp_path), old if at.startswith("blob") else new)


@pytest.mark.parametrize("at", sorted(SAVE_STEPS))
def test_a_crashed_save_of_another_config_leaves_no_manifest(tmp_path, monkeypatch, at):
    """A save whose manifest differs deletes the old one first, so a crash
    never pairs one model's manifest with another model's blob."""
    save_checkpoint(init_random(ModelConfig(**CFG), 1), tmp_path)
    new = init_random(ModelConfig(**{**CFG, "vocab_size": 41}), 2)
    step, nth = SAVE_STEPS[at]
    with monkeypatch.context() as m:
        crash_at(m, step, nth or len(new.params) + 1)
        with pytest.raises(Crash):
            save_checkpoint(new, tmp_path)
    assert os.listdir(tmp_path) == [BLOB]
    with pytest.raises(CheckpointError, match=f"no {MANIFEST}"):
        load_checkpoint(tmp_path)
    save_checkpoint(new, tmp_path)
    assert _same_params(load_checkpoint(tmp_path), new)
