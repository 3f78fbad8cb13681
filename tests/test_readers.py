"""Every reader of a file refuses a hostile one the same way.

Hypothesis mutates a valid fixture for each reader: dataset JSONL (``ingest
--strict``), config (``params --config``), synonyms (``attack
--synonyms``), checkpoint manifest and vocabulary. A mutation truncates the
file, flips a byte, inserts a byte that is not UTF-8, a NUL or 1 MB of
spaces, replaces a value with 10^5 nested ``[`` or a 5,000-digit int, or
repeats a key (in a vocabulary, a line).

A refused mutation gives the reader's exit code or error class, no output
file and no traceback, and its message names the file. Bytes the standard
parser cannot read must be refused, and so must the mutations that no valid
file holds.

An accepted mutation reads as the values the standard parser reads in the
same bytes. A file that holds those values and nothing else reads the same,
and a mutation that changed no value reads as the clean fixture.

The checkpoint blob and argv are left out. A flipped blob byte is another
valid float, which nothing can detect until the format carries a checksum.
argv holds no file, and argparse types each flag.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert.checkpoint import MANIFEST, CheckpointError, load_checkpoint, save_checkpoint
from catbert.cli import main
from catbert.mail import save_dataset
from catbert.model import ModelConfig, init_random
from catbert.synthetic import SYNONYM_TABLE, make_corpus, synthetic_vocab
from catbert.tokenizer import VocabularyError, load_vocab, save_vocab

KINDS = ("truncate", "flip", "non-utf8", "nul", "long-line", "nesting", "digits", "repeated-key")
INSERTED = {"non-utf8": b"\xff", "nul": b"\x00", "long-line": b" " * (1 << 20)}
REPLACEMENT = {"nesting": b"[" * 100_000, "digits": b"1" * 5000}
JSON_REFUSED = {"non-utf8", "nul", "nesting", "digits", "repeated-key"}
VOCAB_REFUSED = {"non-utf8", "repeated-key"}
# a JSON string (group 1 set when it is a key) or a number
TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"(\s*:)?|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')

MUTATIONS = st.tuples(st.sampled_from(KINDS), st.integers(0, 2**31), st.integers(1, 255))


def mutate(data: bytes, kind: str, at: int, mask: int, lines: bool = False) -> bytes:
    """``data`` with one mutation; ``at`` picks where. With ``lines`` (a
    vocabulary) a line is repeated, or a line of the replacement inserted."""
    pos = at % (len(data) + 1)
    if kind == "truncate":
        return data[:pos]
    if kind == "flip":
        pos = at % len(data)
        return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
    if kind in INSERTED:
        return data[:pos] + INSERTED[kind] + data[pos:]
    if lines:
        rows = data.splitlines(keepends=True)
        i = at % len(rows)
        new = rows[i] if kind == "repeated-key" else REPLACEMENT[kind] + b"\n"
        return b"".join(rows[:i] + [new] + rows[i:])
    keys = kind == "repeated-key"
    spans = [m for m in TOKEN.finditer(data) if (m.group(1) is not None) == keys]
    m = spans[at % len(spans)]
    if keys:  # "k": 0, "k": <its value>
        return data[:m.start()] + m.group() + b" 0, " + data[m.start():]
    return data[:m.start()] + REPLACEMENT[kind] + data[m.end():]


def json_reference(data: bytes):
    """The object the standard parser reads in ``data``, or None."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return value if isinstance(value, dict) else None


def jsonl_reference(data: bytes):
    """The objects the standard parser reads in ``data``'s lines, split as a
    text file splits them, or None."""
    text = data.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
    try:
        values = [json.loads(line) for line in text.split("\n") if line.strip()]
    except (ValueError, RecursionError):
        return None
    return values if all(isinstance(v, dict) for v in values) else None


def vocab_reference(data: bytes):
    """The lines of ``data`` as a text file splits them, or None."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return rows[:-1] if rows[-1] == "" else rows


def check(read, clean: bytes, mutation, refused: set, reference, rewrite, lines=False):
    """Run ``read(folder, data)`` -> (message or None, result) on the mutated
    fixture and hold it to the module's contract; ``rewrite`` turns values
    back into bytes."""
    kind, at, mask = mutation
    data = mutate(clean, kind, at, mask, lines)
    value = reference(data)
    with tempfile.TemporaryDirectory() as d:
        message, result = read(Path(d), data, value)
    if message is not None:
        assert "Traceback" not in message
        return
    assert kind not in refused, f"{kind} accepted"
    assert value is not None, "accepted what the standard parser cannot read"
    if value == reference(clean):
        data = clean
    else:
        data = rewrite(value)
    with tempfile.TemporaryDirectory() as d:
        assert read(Path(d), data, value) == (None, result)


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def dumped(value) -> bytes:
    return json.dumps(value, indent=2).encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny checkpoint, the synthetic vocabulary and three records."""
    root = tmp_path_factory.mktemp("readers")
    save_vocab(synthetic_vocab(), root / "vocab.txt")
    save_dataset(make_corpus(n=3, malicious_frac=0.34, seed=0), root / "corpus.jsonl")
    cfg = ModelConfig(vocab_size=len(synthetic_vocab()), hidden=8, ffn_dim=16, heads=2,
                      max_positions=16, block_plan=("T", "A"))
    model = init_random(cfg, 1)
    save_checkpoint(model, root / "ckpt")
    return {"root": root, "model": model, "config": cfg}


@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS)
def test_dataset_lines(inputs, mutation):
    def read(folder, data, value):
        path, out = folder / "in.jsonl", folder / "out.jsonl"
        path.write_bytes(data)
        rc, err = run_cli(["ingest", "--in", str(path), "--out", str(out), "--strict"])
        if rc:
            assert rc == 2 and err.startswith("error: line ") and str(path) in err
            assert os.listdir(folder) == ["in.jsonl"]
            return err, None
        return None, out.read_bytes()

    check(read, (inputs["root"] / "corpus.jsonl").read_bytes(), mutation, JSON_REFUSED,
          jsonl_reference, lambda values: "".join(json.dumps(v) + "\n" for v in values).encode())


@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS)
def test_config_file(inputs, mutation):
    def read(folder, data, value):
        path, out = folder / "config.json", folder / "report.json"
        path.write_bytes(data)
        rc, err = run_cli(["params", "--config", str(path), "--out", str(out)])
        if rc:
            assert rc == 1 and err.startswith("usage error: ") and str(path) in err
            assert os.listdir(folder) == ["config.json"]
            return err, None
        return None, out.read_bytes()

    clean = dumped({"model": inputs["config"].to_dict()})
    check(read, clean, mutation, JSON_REFUSED, json_reference, dumped)


@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS)
def test_synonyms_file(inputs, mutation):
    root = inputs["root"]

    def read(folder, data, value):
        path, out = folder / "synonyms.json", folder / "report.json"
        path.write_bytes(data)
        rc, err = run_cli(["attack", "--model", str(root / "ckpt"),
                           "--in", str(root / "corpus.jsonl"), "--vocab", str(root / "vocab.txt"),
                           "--kind", "synonym", "--rate", "1.0", "--synonyms", str(path),
                           "--out", str(out)])
        if rc:
            assert rc == 1 and err.startswith("usage error: ")
            assert str(path) in err
            assert os.listdir(folder) == ["synonyms.json"]
            return err, None
        return None, out.read_bytes()

    clean = dumped({**SYNONYM_TABLE, "meeting": "gathering", "report": ["summary", "memo"]})
    check(read, clean, mutation, JSON_REFUSED, json_reference, dumped)


@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS)
def test_checkpoint_manifest(inputs, mutation):
    source = inputs["root"] / "ckpt"

    def read(folder, data, value):
        for name in os.listdir(source):
            (folder / name).write_bytes((source / name).read_bytes())
        (folder / MANIFEST).write_bytes(data)
        before = sorted(os.listdir(folder))
        try:
            model = load_checkpoint(folder)
        except CheckpointError as e:
            assert str(folder / MANIFEST) in str(e)
            assert sorted(os.listdir(folder)) == before
            return str(e), None
        for name, p in inputs["model"].params.items():
            assert np.array_equal(model.params[name].data, p.data), name
        return None, (model.config, model.provenance)

    check(read, (source / MANIFEST).read_bytes(), mutation, JSON_REFUSED, json_reference,
          dumped)


@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS)
def test_vocabulary(inputs, mutation):
    def read(folder, data, value):
        path = folder / "vocab.txt"
        path.write_bytes(data)
        try:
            vocab = load_vocab(path)
        except VocabularyError as e:
            assert str(path) in str(e)
            return str(e), None
        assert vocab.tokens == value
        return None, vocab.tokens

    check(read, (inputs["root"] / "vocab.txt").read_bytes(), mutation, VOCAB_REFUSED,
          vocab_reference, lambda tokens: "".join(t + "\n" for t in tokens).encode(), lines=True)
