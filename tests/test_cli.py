"""End-to-end checks of the command-line interface.

Everything runs ``cli.main`` in-process so exit codes and stderr text are
observable without subprocesses. A single tiny checkpoint is trained once
per module and shared by the read-only subcommand tests.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from catbert import cli
from catbert.atomic import json_text
from catbert.cli import build_parser, main
from catbert.mail import EmailRecord, save_dataset
from catbert.metrics import summary
from catbert.model import ModelConfig, count_params, row_width
from catbert.synthetic import SYNONYM_TABLE, make_corpus, synthetic_vocab
from catbert.tokenizer import save_vocab
from catbert.train import TrainConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, vocab, config, and a one-epoch trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    vocab = root / "vocab.txt"
    config = root / "config.json"
    save_dataset(make_corpus(n=160, malicious_frac=0.3, seed=0), corpus)
    save_vocab(synthetic_vocab(), vocab)
    config.write_text(json.dumps({
        "model": {"vocab_size": 100, "hidden": 16, "ffn_dim": 32, "heads": 2,
                  "max_positions": 16, "block_plan": ["T", "A"]},
        "train": {"epochs": 1, "batch_size": 32, "learning_rate": 1e-3},
    }))
    run = root / "run"
    rc = main(["train", "--train", str(corpus), "--vocab", str(vocab),
               "--config", str(config), "--out-dir", str(run), "--seed", "0"])
    assert rc == 0
    return {"root": root, "corpus": corpus, "vocab": vocab, "config": config,
            "ckpt": run / "best", "run": run}


class TestExitCodes:
    def test_no_args_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "subcommand" not in err.lower().split("usage")[0]

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["eval", "--bogus"]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["split", "--in", "x.jsonl"]) == 1
        assert "--out-dir" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, workdir, capsys):
        rc = main(["eval", "--model", str(workdir["root"] / "nope"),
                   "--in", str(workdir["corpus"])])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, flag", [
        ("ingest", "--out"), ("eval", "--out"), ("eval", "--roc"), ("explain", "--out")])
    def test_missing_output_directory_fails_before_any_work(self, tmp_path, capsys, sub,
                                                             flag):
        missing = str(tmp_path / "missing")
        argv = [sub, "--in", f"{missing}.jsonl", flag, os.path.join(missing, "result")]
        if sub != "ingest":
            argv += ["--model", missing]
        assert main(argv) == 1
        assert f"output directory {missing} does not exist" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("sub, flag", [
        ("ingest", "--in"), ("train", "--config"), ("train", "--val"), ("params", "--out"),
        ("eval", "--out"), ("eval", "--roc"), ("predict", "--out"), ("attack", "--out"),
        ("attack", "--synonyms"), ("explain", "--out"), ("bench", "--config"),
        ("bench", "--out")])
    def test_an_empty_flag_value_is_a_usage_error(self, tmp_path, capsys, sub, flag):
        """An empty path names no file: it is refused, not read as an absent
        flag (stdout, no config, no validation), before any input is read."""
        missing = str(tmp_path / "missing")
        scoring = ["--in", missing, "--model", missing]
        required = {
            "ingest": ["--in", missing, "--out", missing],
            "train": ["--train", missing, "--vocab", missing, "--out-dir", missing],
            "params": ["--config", missing],
            "attack": [*scoring, "--kind", "typo", "--rate", "0.5"],
            "bench": ["--config", missing, "--repetitions", "1"]}.get(sub, scoring)
        assert main([sub, *required, flag, ""]) == 1  # the last value of a flag wins
        assert f"usage error: argument {flag}: wants a non-empty value" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, message", [
        (["split", "--fractions", "a,b,c"], "argument --fractions: wants "),
        (["split", "--fractions", "0.5,0.5"], "argument --fractions: wants "),
        (["split", "--fractions", "1.5,-0.25,-0.25"], "argument --fractions: wants "),
        (["eval", "--fprs", "0.01,x"], "argument --fprs: wants "),
        (["eval", "--fprs", "0.01,2"], "argument --fprs: wants "),
        (["surgery", "--keep", "0,two"], "argument --keep: wants "),
        (["surgery", "--keep", "0,-1"], "argument --keep: wants "),
        (["explain", "--n-samples", "10"], "argument --n-samples: wants one int in [50, inf]"),
        (["explain", "--index", "-1"], "argument --index: wants one int in [0, inf], got '-1'"),
        (["attack", "--kind", "typo", "--rate", "2"], "rate must be in [0,1], got 2.0"),
        (["attack", "--kind", "typo", "--rate", "0.5", "--threshold", "1.5"],
         "threshold must be in (0,1), got 1.5"),
        (["attack", "--kind", "synonym", "--rate", "0.5"],
         "synonym attack needs a non-empty synonym table"),
        (["bench", "--batch", "0"], "argument --batch: wants one int in [1, inf], got '0'"),
        (["bench", "--repetitions", "0"], "argument --repetitions: wants one int in [1, inf]"),
        (["bench", "--config", {"hidden": 0}], "bad config: hidden must be an int >= 1, got 0"),
        (["bench", "--config", {"ffn_dim": -1}],
         "bad config: ffn_dim must be an int >= 1, got -1"),
        (["bench", "--config", {"heads": 0}], "bad config: heads must be an int >= 1, got 0"),
        (["bench", "--config", {"vocab_size": 0}],
         "bad config: vocab_size must be an int >= 1, got 0"),
        (["bench", "--config", {"hidden": 10, "heads": 3}],
         "bad config: hidden=10 not divisible by heads=3"),
        (["train", "--seed", "-1"], "argument --seed: wants one int in [0, inf], got '-1'"),
        (["surgery", "--seed", "-1"], "argument --seed: wants one int in [0, inf]"),
        (["attack", "--kind", "typo", "--rate", "0.5", "--seed", "-1"],
         "argument --seed: wants one int in [0, inf]"),
        (["explain", "--seed", "-1"], "argument --seed: wants one int in [0, inf]"),
        (["bench", "--seed", "-1"], "argument --seed: wants one int in [0, inf], got '-1'"),
    ], ids=["fractions-not-numbers", "fractions-two-values", "fractions-out-of-range",
            "fprs-not-a-number", "fprs-above-one", "keep-not-an-integer", "keep-negative",
            "explain-n-samples-below-50", "explain-index-negative", "attack-rate-above-one",
            "attack-threshold-above-one",
            "attack-synonym-without-table", "bench-batch-zero", "bench-repetitions-zero",
            "bench-hidden-zero", "bench-ffn-dim-negative", "bench-heads-zero",
            "bench-vocab-size-zero", "bench-heads-not-dividing-hidden",
            "train-seed-negative", "surgery-seed-negative", "attack-seed-negative",
            "explain-seed-negative", "bench-seed-negative"])
    def test_bad_list_flag_fails_before_reading_data(self, tmp_path, capsys, argv, message):
        """A flag value outside the bound the library enforces is a usage
        error before any input is read (every input here is missing). A dict
        in ``argv`` is the model section of a config file written in its
        place."""
        config = tmp_path / "config.json"
        model = next((arg for arg in argv if isinstance(arg, dict)), None)
        if model is not None:
            config.write_text(json.dumps({"model": model}))
        argv = [str(config) if arg is model else arg for arg in argv]
        missing = str(tmp_path / "missing")
        scoring = ["--in", missing, "--model", missing]
        inputs = {"split": ["--in", missing, "--out-dir", str(tmp_path / "out")],
                  "surgery": ["--donor", missing, "--out-dir", str(tmp_path / "out")],
                  "train": ["--train", missing, "--vocab", missing,
                            "--out-dir", str(tmp_path / "out")],
                  "bench": ["--out", str(tmp_path / "b.json")]}
        assert main(argv + inputs.get(argv[0], scoring)) == 1
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ([] if model is None else [config.name])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestIngestSplit:
    def test_ingest_roundtrip_and_manifest(self, workdir, tmp_path):
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(workdir["corpus"]), "--out", str(out)]) == 0
        assert sum(1 for _ in open(out)) == 160
        manifest = json.loads((out.parent / f"{out.name}.manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert manifest["inputs"]["dataset"]["sha256"]
        assert manifest["outputs"]["dataset"]["bytes"] == out.stat().st_size

    def test_manifest_records_the_environment(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(workdir["corpus"]), "--out", str(out)]) == 0
        env = json.loads((out.parent / f"{out.name}.manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__ and env["python"] == platform.python_version()
        assert set(env["blas"]) == {"name", "version", "run_time_core"}
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert env["cpu_count"] == os.cpu_count()

    def test_ingest_skips_bad_lines(self, workdir, tmp_path, capsys):
        src = tmp_path / "dirty.jsonl"
        good = workdir["corpus"].read_text().splitlines()[0]
        src.write_text(good + "\nnot json at all\n")
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        assert "skipped 1" in capsys.readouterr().err
        assert sum(1 for _ in open(out)) == 1

    def test_ingest_strict_fails_on_bad_line(self, tmp_path):
        src = tmp_path / "dirty.jsonl"
        src.write_text("nope\n")
        assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "o"),
                     "--strict"]) == 2

    @pytest.mark.parametrize("bad, reason", [
        ('{"label": 0, "weight": "abc"}', "weight must be a finite number > 0"),
        ('{"label": 0, "weight": 1e400}', "weight must be a finite number > 0"),
        ('{"label": 0, "weight": "2"}', "weight must be a finite number > 0, got str '2'"),
        ('{"label": 0, "weight": true}', "weight must be a finite number > 0, got bool True"),
        ('{"label": 0, "first_seen": 5}', "first_seen must be an ISO timestamp string"),
        ('{"label": 0, "first_seen": "yesterday"}',
         "first_seen must be an ISO timestamp string, got str 'yesterday'"),
        ("[" * 100_000, "recursion"),
        ('{"label": 0, "subject": 7}', "subject must be a string, got int"),
        ('{"label": 0, "subject": ["x"]}', "subject must be a string, got list"),
        ('{"label": 1, "body_text": {"a": 1}}', "body_text must be a string, got dict"),
        ('{"label": 0, "body_html": 3}', "body_html must be a string, got int"),
        ('{"label": 0, "from": 5}', "from must be a string, got int"),
        ('{"label": 0, "to": [1, 2]}', "to[0] must be a string, got int"),
        ('{"label": 0, "cc": "a@x.co"}', "cc must be a list of strings, got str"),
        ('{"label": 0, "subject": "\\ud800"}', "subject holds a lone surrogate"),
        ('{"label": 0, "subject": "\udcff"}',
         "subject holds a lone surrogate or a byte that is not UTF-8"),
        ('{"label": 0, "subj\udcffect": "hi", "body_text": "x"}',
         "a key holds a lone surrogate or a byte that is not UTF-8"),
        ('{"label": 0, "weight": ' + "1" * 5000 + "}",
         "is not valid JSON: Exceeds the limit (4300 digits)"),
        ('{"label": 0, "label": 1}', "is not valid JSON: repeated key 'label'"),
    ], ids=["weight-text", "weight-inf", "weight-numeric-string", "weight-bool",
            "first-seen-number", "first-seen-not-iso", "deep-nesting",
            "subject-number", "subject-list", "body-text-object", "body-html-number",
            "from-number", "to-numbers", "cc-string", "subject-lone-surrogate",
            "subject-byte-not-utf8", "key-byte-not-utf8", "int-past-digit-limit",
            "repeated-label"])
    def test_ingest_skips_a_hostile_line(self, workdir, tmp_path, capsys, bad, reason):
        good = workdir["corpus"].read_text().splitlines()[0]
        src = tmp_path / "dirty.jsonl"
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        src.write_bytes(f"{good}\n{bad}\n{good}\n".encode("utf-8", "surrogateescape"))
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        (skipped,) = json.loads((tmp_path / "clean.jsonl.manifest.json").read_text())[
            "config"]["skipped"]
        assert skipped.startswith("line 2: ") and reason in skipped
        assert sum(1 for _ in open(out)) == 2
        capsys.readouterr()
        assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "o"), "--strict"]) == 2
        assert f"error: {skipped}, in {src}" in capsys.readouterr().err

    def test_skip_messages_are_short_however_long_the_value(self, tmp_path):
        src = tmp_path / "hostile.jsonl"
        src.write_text(json.dumps({"label": [0] * 200_000}) + "\n"
                       + json.dumps({"label": 0, "group": "x" * 300_000}) + "\n")
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        manifest = tmp_path / "clean.jsonl.manifest.json"
        assert manifest.stat().st_size < 4096
        skipped = json.loads(manifest.read_text())["config"]["skipped"]
        assert [m.split(":")[0] for m in skipped] == ["line 1", "line 2"]
        assert "label must be 0 or 1, got list [0, 0," in skipped[0]
        assert "group must be one of" in skipped[1] and "got str 'xxx" in skipped[1]
        assert all(len(m) < 200 for m in skipped)

    def test_split_orders_naive_and_aware_timestamps(self, tmp_path):
        """A naive first_seen is read as UTC, so a file that mixes both
        kinds splits in time order."""
        stamps = ["2020-01-03", "2020-01-02T12:00:00+05:00", "2020-01-01",
                  "2020-01-02T00:00:00+00:00"]
        src = tmp_path / "mixed.jsonl"
        src.write_text("".join(json.dumps({"label": i % 2, "first_seen": ts}) + "\n"
                               for i, ts in enumerate(stamps)))
        out = tmp_path / "splits"
        assert main(["split", "--in", str(src), "--out-dir", str(out),
                     "--fractions", "0.5,0.25,0.25"]) == 0
        seen = [json.loads(line)["first_seen"] for name in ("train", "val", "test")
                for line in open(out / f"{name}.jsonl")]
        assert seen == [stamps[2], stamps[3], stamps[1], stamps[0]]

    def test_split_writes_three_files(self, workdir, tmp_path):
        out = tmp_path / "splits"
        assert main(["split", "--in", str(workdir["corpus"]),
                     "--out-dir", str(out)]) == 0
        sizes = {name: sum(1 for _ in open(out / f"{name}.jsonl"))
                 for name in ("train", "val", "test")}
        assert sizes["train"] == 112 and sizes["val"] == 24  # floors of 0.7/0.15
        assert sum(sizes.values()) == 160
        assert (out / "run_manifest.json").exists()

    def test_split_bad_fractions_fail(self, workdir, tmp_path):
        assert main(["split", "--in", str(workdir["corpus"]),
                     "--out-dir", str(tmp_path / "s"),
                     "--fractions", "0.9,0.9,0.9"]) != 0

    def test_fractions_not_summing_to_one_fail_before_reading_data(self, tmp_path, capsys):
        assert main(["split", "--in", str(tmp_path / "missing.jsonl"),
                     "--out-dir", str(tmp_path / "s"), "--fractions", "0.9,0.9,0.9"]) == 1
        assert "argument --fractions: fractions must sum to 1, got 2.7" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestTrain:
    def test_train_artifacts(self, workdir):
        run = workdir["run"]
        assert (run / "best" / "tensors.bin").exists()
        assert (run / "best" / "manifest.json").exists()
        history = json.loads((run / "history.json").read_text())
        assert len(history["epochs"]) == 1
        assert "train_loss" in history["epochs"][0]
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["config"]["train"]["epochs"] == 1
        assert manifest["config"]["model"]["hidden"] == 16
        assert manifest["seed"] == 0
        assert set(manifest["outputs"]) == {"checkpoint", "history"}
        # best/ carries the vocabulary train read, listed with the checkpoint's other files
        vocab = (run / "best" / "vocab.txt").read_bytes()
        assert vocab == workdir["vocab"].read_bytes()
        assert manifest["outputs"]["checkpoint"]["files"]["vocab.txt"] == {
            "sha256": hashlib.sha256(vocab).hexdigest(), "bytes": len(vocab)}

    def test_train_with_val_keeps_the_best_epoch(self, workdir, tmp_path):
        from catbert.checkpoint import load_checkpoint
        val = tmp_path / "val.jsonl"
        # 100 rows: the training batch (32) and the scoring batch (64) split them differently
        save_dataset(make_corpus(n=100, malicious_frac=0.3, seed=1), val)
        cfg = json.loads(workdir["config"].read_text())
        cfg["train"]["epochs"] = 3
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--train", str(workdir["corpus"]), "--val", str(val),
                     "--vocab", str(workdir["vocab"]), "--config", str(config),
                     "--out-dir", str(run), "--seed", "0"]) == 0
        history = json.loads((run / "history.json").read_text())
        aucs = [row["val_auc"] for row in history["epochs"]]
        assert len(aucs) == 3
        assert history["best_val_auc"] == max(aucs) == aucs[history["best_epoch"]]
        assert load_checkpoint(run / "best").config.block_plan == ("transformer", "adapter")
        # best/ is the best epoch's model, and train scores validation as eval does
        out = tmp_path / "m.json"
        assert main(["eval", "--model", str(run / "best"), "--in", str(val),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["auc"] == history["best_val_auc"]
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["inputs"]["val"]["path"] == str(val)
        assert manifest["inputs"]["val"]["bytes"] == val.stat().st_size

    def test_same_seed_retrain_is_byte_identical(self, workdir, tmp_path):
        again = tmp_path / "again"
        rc = main(["train", "--train", str(workdir["corpus"]),
                   "--vocab", str(workdir["vocab"]), "--config", str(workdir["config"]),
                   "--out-dir", str(again), "--seed", "0"])
        assert rc == 0
        first = (workdir["ckpt"] / "tensors.bin").read_bytes()
        assert (again / "best" / "tensors.bin").read_bytes() == first
        assert ((again / "history.json").read_text()
                == (workdir["run"] / "history.json").read_text())

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"momentum": 0.9}}))
        rc = main(["train", "--train", str(workdir["corpus"]),
                   "--vocab", str(workdir["vocab"]), "--config", str(bad),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 1
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ({"trian": {"epochs": 2}}, "unknown config fields: ['trian']"),
        ({"truncate": "middle"}, "truncate='middle' is retired"),
        ({"truncate": "tail"}, "truncate='tail' is retired; every row keeps the head of its email"),
        ({"max_len": 8}, "max_len=8 is retired; rows are 16 tokens wide"),
        ({"max_len": "16"}, "max_len='16' is retired"),
        ({"train": {"epochs": 1, "balanced": False}},
         "balanced=False is retired; every batch is class-balanced"),
        ({"train": {"epochs": 1, "batch_size": 7}}, "batch_size must be even"),
        ({"train": {"epochs": 1.5}}, "bad config: epochs must be an int, got 1.5"),
        ({"train": {"batch_size": 8.0}}, "bad config: batch_size must be an int, got 8.0"),
        ({"train": {"learning_rate": "0.1"}},
         "bad config: learning_rate must be a finite number >= 0, got '0.1'"),
        ({"model": [["hidden", 8]]}, "bad config: model must be a JSON object, got list"),
        ({"train": [["epochs", 1]]}, "bad config: train must be a JSON object, got list"),
        ({"model": {"hidden": 0}}, "bad config: hidden must be an int >= 1, got 0"),
        ({"model": {"ffn_dim": 0}}, "bad config: ffn_dim must be an int >= 1, got 0"),
        ({"model": {"heads": 0}}, "bad config: heads must be an int >= 1, got 0"),
        ({"model": {"heads": 5}}, "not divisible by heads=5"),
        ({"model": {"block_plan": ["A"]}}, "bad config: block plan needs a transformer"),
        ({"model": {"block_plan": ["A", "A"]}}, "bad config: block plan needs a transformer"),
        ({"train": {"freeze": "bogus"}}, "bad config: freeze must be 'partial-finetune'"),
        ({"model": {"context_dim": 2}}, "bad config: context_dim must be 0 or 4, got 2"),
        ({"train": {"learning_rate": float("nan")}},
         "bad config: learning_rate must be a finite number >= 0, got nan"),
        ({"train": {"learning_rate": float("inf")}},
         "bad config: learning_rate must be a finite number >= 0, got inf"),
        ({"train": {"learning_rate": -1}},
         "bad config: learning_rate must be a finite number >= 0, got -1"),
        ({"train": {"bec_weight": 0}}, "bad config: bec_weight must be a finite number > 0"),
        ({"train": {"epochs": 0}}, "bad config: epochs must be >= 1, got 0"),
        ({"model": {"max_positions": 2}},
         "max_positions 2 allows rows of 2 tokens; max_len must be at least 3"),
    ], ids=["unknown-top-level-key", "truncate-middle", "truncate-tail", "max-len-narrower",
            "max-len-string", "balanced-false", "odd-batch-size", "fractional-epochs",
            "float-batch-size", "string-learning-rate", "model-not-an-object",
            "train-not-an-object", "hidden-zero", "ffn-dim-zero", "heads-zero",
            "heads-not-dividing-hidden", "plan-one-adapter", "plan-adapters-only",
            "freeze-bogus", "context-dim-2", "lr-nan", "lr-inf", "lr-negative",
            "bec-weight-zero", "epochs-zero", "max-positions-2"])
    def test_bad_config_fails_before_reading_data(self, workdir, tmp_path, capsys,
                                                  override, message):
        """A section the override gives as an object is merged into the base
        config's section; any other value replaces its key."""
        cfg = json.loads(workdir["config"].read_text())
        for key, value in override.items():
            cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "r"
        assert main(["train", "--train", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(tmp_path / "missing.txt"), "--config", str(bad),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and err.rstrip().endswith(f", in {bad}")
        assert not out.exists()

    def test_model_vocab_size_disagreeing_with_the_vocabulary_fails_before_reading_data(
            self, workdir, tmp_path, capsys):
        cfg = json.loads(workdir["config"].read_text())
        cfg["model"]["vocab_size"] = 99
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "r"
        assert main(["train", "--train", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(workdir["vocab"]), "--config", str(path),
                     "--out-dir", str(out)]) == 1
        assert (f"usage error: bad config: model.vocab_size 99 disagrees with the 100 tokens "
                f"of {workdir['vocab']}, in {path}") in capsys.readouterr().err
        assert not out.exists()

    def test_a_manifest_config_block_replays_to_the_same_bytes(self, workdir, tmp_path):
        """A float field given as a JSON int is recorded as a float, and the
        recorded block, replayed with ``--seed``, writes the same block and
        the same best/ checkpoint."""
        cfg = json.loads(workdir["config"].read_text())
        cfg["train"]["bec_weight"] = 50
        first, replay = tmp_path / "first.json", tmp_path / "replay.json"
        first.write_text(json.dumps(cfg))
        blocks = []
        for name, config in (("first", first), ("replay", replay)):
            run = tmp_path / name
            assert main(["train", "--train", str(workdir["corpus"]),
                         "--vocab", str(workdir["vocab"]), "--config", str(config),
                         "--out-dir", str(run), "--seed", "0"]) == 0
            block = json.loads((run / "run_manifest.json").read_text())["config"]
            replay.write_text(json.dumps(block))
            blocks.append(json_text(block))
        bec_weight = json.loads(blocks[0])["train"]["bec_weight"]
        assert bec_weight == 50.0 and type(bec_weight) is float
        assert blocks[0] == blocks[1]
        for name in ("manifest.json", "tensors.bin"):
            assert ((tmp_path / "first" / "best" / name).read_bytes()
                    == (tmp_path / "replay" / "best" / name).read_bytes())

    def test_config_from_an_older_manifest_with_truncate_head_trains(self, workdir, tmp_path):
        """The ``config`` block of a run manifest written while rows could
        keep the tail, batches could be unbalanced and the row width was a
        flag trains the same model."""
        cfg = json.loads((workdir["run"] / "run_manifest.json").read_text())["config"]
        cfg["truncate"] = "head"
        cfg["train"]["balanced"] = True
        cfg["max_len"] = 16
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        run = tmp_path / "old"
        assert main(["train", "--train", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                     "--config", str(path), "--out-dir", str(run), "--seed", "0"]) == 0
        assert ((run / "best" / "tensors.bin").read_bytes()
                == (workdir["ckpt"] / "tensors.bin").read_bytes())
        config = json.loads((run / "run_manifest.json").read_text())["config"]
        assert "truncate" not in config and "balanced" not in config["train"]
        assert "max_len" not in config

    def test_truncate_flag_is_unrecognized(self, workdir, tmp_path, capsys):
        assert main(["train", "--train", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                     "--out-dir", str(tmp_path / "r"), "--truncate", "head"]) == 1
        assert "unrecognized arguments: --truncate head" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "3"), ("--batch-size", "32"), ("--learning-rate", "0"),
        ("--bec-weight", "1"), ("--freeze", "partial-finetune"), ("--hidden", "16"),
        ("--ffn-dim", "32"), ("--heads", "2"), ("--max-positions", "16"),
        ("--context-dim", "0"), ("--plan", "T,A")])
    def test_a_retired_train_flag_is_unrecognized(self, workdir, tmp_path, capsys, flag, value):
        """The model and schedule come from the config file alone."""
        out = tmp_path / "r"
        assert main(["train", "--train", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                     "--config", str(workdir["config"]), "--out-dir", str(out),
                     flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def _seeded_run(self, workdir, tmp_path, model_seed, train_seed, *flags):
        cfg = json.loads(workdir["config"].read_text())
        if model_seed is not None:
            cfg["model"]["seed"] = model_seed
        cfg["train"]["seed"] = train_seed
        cfg["train"]["learning_rate"] = 0
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(cfg))
        run = tmp_path / "seeded"
        rc = main(["train", "--train", str(workdir["corpus"]),
                   "--vocab", str(workdir["vocab"]), "--config", str(path),
                   "--out-dir", str(run), *flags])
        return rc, run

    @pytest.mark.parametrize("model_seed,train_seed,flags", [
        (None, 5, []), (5, 5, []), (5, 0, ["--seed", "5"])])
    def test_checkpoint_records_the_seed_that_initialised_it(
            self, workdir, tmp_path, model_seed, train_seed, flags):
        from catbert.checkpoint import load_checkpoint, save_checkpoint
        from catbert.model import init_random
        rc, run = self._seeded_run(workdir, tmp_path, model_seed, train_seed, *flags)
        assert rc == 0
        config = load_checkpoint(run / "best").config
        assert config.seed == 5
        assert json.loads((run / "run_manifest.json").read_text())["seed"] == 5
        save_checkpoint(init_random(config), tmp_path / "fresh")
        assert ((run / "best" / "tensors.bin").read_bytes()
                == (tmp_path / "fresh" / "tensors.bin").read_bytes())

    def test_model_seed_disagreeing_with_run_seed_is_usage_error(self, workdir, tmp_path,
                                                                 capsys):
        rc, run = self._seeded_run(workdir, tmp_path, 5, 0)
        assert rc == 1
        err = capsys.readouterr().err
        assert "model.seed 5" in err and err.rstrip().endswith(f", in {tmp_path / 'seeded.json'}")
        assert not run.exists()

    def test_max_len_past_max_positions_fails_before_reading_data(self, workdir, tmp_path,
                                                                 capsys):
        """A config's retired max_len must be the width the model's
        max_positions gives its rows."""
        cfg = json.loads(workdir["config"].read_text())
        path = tmp_path / "old.json"
        out = tmp_path / "r"
        for max_len, max_positions in ((64, 16), (16, 8)):
            model = {**cfg["model"], "max_positions": max_positions}
            path.write_text(json.dumps({**cfg, "model": model, "max_len": max_len}))
            assert main(["train", "--train", str(tmp_path / "missing.jsonl"),
                         "--vocab", str(workdir["vocab"]), "--config", str(path),
                         "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "max_len=64 is retired; rows are 16 tokens wide" in err
        assert "max_len=16 is retired; rows are 8 tokens wide" in err
        assert not out.exists()

    def test_context_width_other_than_0_or_4_is_usage_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["surgery", "--donor", str(workdir["ckpt"]), "--out-dir", str(out),
                     "--context-dim", "3"]) == 1
        assert "--context-dim: invalid choice" in capsys.readouterr().err
        assert not out.exists()


class TestParams:
    def test_report_matches_count_params(self, workdir, capsys):
        assert main(["params", "--config", str(workdir["config"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        cfg = ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                          max_positions=16, block_plan=("T", "A"))
        report = count_params(cfg)
        assert payload["exact"]["total"] == report.total
        assert payload["exact"]["embedding"] == report.embedding
        assert payload["millions"]["total"] == 0

    def test_incomplete_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({"hidden": 32}))  # a model field outside a model section
        assert main(["params", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("override, message", [
        ({"foo": 1}, "unknown config fields: ['foo']"),
        ({"hidden": 16}, "unknown config fields: ['hidden']"),
        ({"truncate": "tail"}, "truncate='tail' is retired"),
        ({"max_len": 999}, "max_len=999 is retired; rows are 16 tokens wide"),
        ({"model": {"vocab_size": 100, "max_positions": 2}}, "max_positions 2 allows rows of 2"),
    ], ids=["unknown-key", "bare-model-field", "truncate-tail", "max-len-wider", "no-row-room"])
    def test_refuses_what_train_refuses(self, workdir, tmp_path, capsys,
                                        override, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**json.loads(workdir["config"].read_text()), **override}))
        assert main(["params", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: bad config: {message}" in err
        assert err.rstrip().endswith(f", in {cfg}")

    def test_a_run_manifest_config_block_is_a_config(self, workdir, tmp_path, capsys):
        cfg = json.loads((workdir["run"] / "run_manifest.json").read_text())["config"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**cfg, "truncate": "head", "max_len": 16}))
        assert main(["params", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == cfg["model"]

    def test_its_manifest_config_block_replays_to_the_same_report(self, workdir, tmp_path):
        report, block, again = (tmp_path / name for name in ("p.json", "block.json", "again.json"))
        assert main(["params", "--config", str(workdir["config"]), "--out", str(report)]) == 0
        manifest = json.loads((tmp_path / "p.json.manifest.json").read_text())
        block.write_text(json.dumps(manifest["config"]))
        assert main(["params", "--config", str(block), "--out", str(again)]) == 0
        assert again.read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("section", [5, [["vocab_size", 100]], "x", None])
    def test_a_model_section_that_is_no_object_is_a_usage_error(self, tmp_path, capsys,
                                                                section):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": section}))
        assert main(["params", "--config", str(cfg), "--out", str(tmp_path / "p.json")]) == 1
        assert (f"usage error: bad config: model must be a JSON object, "
                f"got {type(section).__name__}, in {cfg}") in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]


class TestScoring:
    def test_eval_metrics_json(self, workdir, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]),
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 160
        assert payload["n_pos"] + payload["n_neg"] == 160
        assert 0.0 <= payload["auc"] <= 1.0
        assert set(payload["tpr_at_fpr"]) == {"0.0001", "0.001", "0.01", "0.1"}
        assert (tmp_path / "metrics.json.manifest.json").exists()

    def test_eval_manifest_skips_a_killed_writes_temporary_file(self, workdir, tmp_path):
        """A checkpoint is listed as the three files the model is read from: a
        killed write's temporary file, a stray file and a nested directory in
        it are no part of it."""
        ckpt = tmp_path / "best"
        shutil.copytree(workdir["ckpt"], ckpt)
        (ckpt / "tensors.bin.99999.tmp").write_bytes(b"half of a blob")
        (ckpt / "notes.txt").write_text("trained on a Tuesday\n")
        (ckpt / "sub").mkdir()
        (ckpt / "sub" / "y").write_bytes(b"y")
        out = tmp_path / "metrics.json"
        assert main(["eval", "--model", str(ckpt), "--in", str(workdir["corpus"]),
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        files = manifest["inputs"]["model"]["files"]
        assert sorted(files) == ["manifest.json", "tensors.bin", "vocab.txt"]
        for name, entry in files.items():
            data = (ckpt / name).read_bytes()
            assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def test_eval_groups_breaks_down_each_tag_with_positives(self, workdir, tmp_path):
        """Each tag's positives are scored against every negative; a tag
        carried only by negatives has no entry."""
        records = make_corpus(n=160, malicious_frac=0.3, seed=0)
        positives = [r for r in records if r.label]
        for r in records:
            r.group = "non_english"
        for i, r in enumerate(positives):
            r.group = ("bec", "english")[i % 2]
        data = tmp_path / "tagged.jsonl"
        save_dataset(records, data)
        out = tmp_path / "m.json"
        assert main(["eval", "--model", str(workdir["ckpt"]), "--in", str(data),
                     "--groups", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        groups = payload["groups"]
        assert set(groups) == {"all", "bec", "english"}
        assert groups["all"]["auc"] == payload["auc"]
        assert groups["all"]["n_pos"] == payload["n_pos"] == 48
        for tag in ("bec", "english"):
            assert groups[tag]["n_pos"] == 24
            assert groups[tag]["n_neg"] == payload["n_neg"] == 112
            assert set(groups[tag]["tpr_at_fpr"]) == set(payload["tpr_at_fpr"])

    def test_eval_blocks_are_the_summary_of_the_scores(self, workdir, tmp_path):
        records = make_corpus(n=160, malicious_frac=0.3, seed=0)
        for i, r in enumerate(r for r in records if r.label):
            r.group = ("bec", "english")[i % 2]
        data, out, pred = tmp_path / "tagged.jsonl", tmp_path / "m.json", tmp_path / "p.jsonl"
        save_dataset(records, data)
        io = ["--model", str(workdir["ckpt"]), "--in", str(data)]
        assert main(["eval", *io, "--groups", "--fprs", "0.01,0.5", "--out", str(out)]) == 0
        assert main(["predict", *io, "--out", str(pred)]) == 0
        payload = json.loads(out.read_text())
        rows = [json.loads(line) for line in pred.read_text().splitlines()]
        scores = np.array([r["prob"] for r in rows])
        labels = np.array([r["label"] for r in rows])
        groups = payload.pop("groups")
        assert payload == {"n": 160, **summary(scores, labels, (0.01, 0.5))}
        assert groups["all"] == summary(scores, labels, (0.01, 0.5))
        sel = labels == 0
        sel[[i for i, r in enumerate(records) if r.group == "bec"]] = True
        assert groups["bec"] == summary(scores[sel], labels[sel], (0.01, 0.5))

    def test_eval_roc_csv(self, workdir, tmp_path):
        out = tmp_path / "m.json"
        roc = tmp_path / "roc.csv"
        rc = main(["eval", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]),
                   "--out", str(out), "--roc", str(roc)])
        assert rc == 0
        lines = roc.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) > 2

    def test_predict_stdout_jsonl(self, workdir, capsys):
        rc = main(["predict", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 160
        rows = [json.loads(line) for line in lines]
        assert [r["index"] for r in rows] == list(range(160))
        assert all(0.0 < r["prob"] < 1.0 for r in rows)
        assert all(r["label"] in (0, 1) for r in rows)


@pytest.mark.parametrize("n_tokens", [40, 150])
def test_vocabulary_other_than_the_checkpoints_is_usage_error(workdir, tmp_path, capsys,
                                                               n_tokens):
    """A checkpoint whose vocab.txt does not hold its vocab_size tokens is
    refused, naming the file, before the (missing) records are read."""
    ckpt = tmp_path / "best"
    shutil.copytree(workdir["ckpt"], ckpt)
    vocab = ckpt / "vocab.txt"
    save_vocab((synthetic_vocab() + [f"extra{i}" for i in range(50)])[:n_tokens], vocab)
    assert main(["eval", "--model", str(ckpt), "--in", str(tmp_path / "missing.jsonl")]) == 1
    assert (f"usage error: vocabulary {vocab} has {n_tokens} tokens, but the checkpoint's "
            f"vocab_size is 100") in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["eval", "predict", "attack", "explain"])
def test_a_checkpoint_without_its_vocabulary_is_usage_error(workdir, tmp_path, capsys, sub):
    """A checkpoint carries the vocabulary its token ids index: without
    vocab.txt each scoring subcommand refuses it, naming the file, before
    the (missing) records are read and before any output is written."""
    ckpt = tmp_path / "best"
    shutil.copytree(workdir["ckpt"], ckpt)
    (ckpt / "vocab.txt").unlink()
    argv = [sub, "--model", str(ckpt), "--in", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "out.json")]
    assert main(argv + {"attack": ["--kind", "typo", "--rate", "0.5"]}.get(sub, [])) == 1
    assert (f"usage error: checkpoint {ckpt} has no vocab.txt: copy the vocabulary it was "
            f"trained with to {ckpt / 'vocab.txt'}") in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["best"]
    shutil.copy(workdir["vocab"], ckpt / "vocab.txt")  # then it scores like any checkpoint
    argv[argv.index("--in") + 1] = str(workdir["corpus"])
    assert main(argv + {"attack": ["--kind", "typo", "--rate", "0.5"]}.get(sub, [])) == 0


class TestAttackExplain:
    def test_attack_rate_zero_has_no_effect(self, workdir, tmp_path):
        out = tmp_path / "attack.json"
        rc = main(["attack", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]),
                   "--kind", "typo", "--rate", "0",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["delta"] == 0.0
        assert report["clean_acc"] == report["attacked_acc"]

    def test_attack_synonym_needs_table(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        for table in ([], ["--synonyms", str(empty)]):
            rc = main(["attack", "--model", str(workdir["ckpt"]),
                       "--in", str(workdir["corpus"]),
                       "--kind", "synonym", "--rate", "0.5", *table])
            assert rc == 1  # the attack spec's check, made before the model is loaded
            assert "synonym attack needs a non-empty synonym table" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["typo", "homoglyph"])
    def test_a_synonym_table_for_another_kind_is_refused(self, workdir, tmp_path, capsys, kind):
        """Only a synonym attack reads the table: given to another kind it
        is refused before the checkpoint is read (it is missing here)."""
        table = tmp_path / "syn.json"
        table.write_text(json.dumps(SYNONYM_TABLE))
        out = tmp_path / "attack.json"
        assert main(["attack", "--model", str(tmp_path / "missing"),
                     "--in", str(workdir["corpus"]), "--kind", kind, "--rate", "0.5",
                     "--synonyms", str(table), "--out", str(out)]) == 1
        assert (f"usage error: a {kind} attack reads no synonym table, got one of "
                f"{len(SYNONYM_TABLE)} entries") in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["syn.json"]

    @pytest.mark.parametrize("table, message", [
        ({"money": []}, "synonyms['money'] must be a non-empty string or a non-empty list"),
        ({"money": [3]}, "synonyms['money'] must be a non-empty string or a non-empty list"),
        ({"money": ""}, "synonyms['money'] must be a non-empty string or a non-empty list"),
        ({"money": "cash", "MONEY": "funds"}, "synonym keys 'money' and 'MONEY' are the same word"),
        (None, "synonyms file not found: "),
    ], ids=["empty-list", "number", "empty-string", "folded-duplicate", "missing-file"])
    def test_bad_synonym_table_fails_before_the_checkpoint_is_read(self, workdir, tmp_path,
                                                                   capsys, table, message):
        path = tmp_path / "syn.json"
        if table is not None:
            path.write_text(json.dumps(table))
        assert main(["attack", "--model", str(tmp_path / "missing"),
                     "--in", str(workdir["corpus"]),
                     "--kind", "synonym", "--rate", "0.5", "--synonyms", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(path) in err

    def test_attack_with_synonym_table(self, workdir, tmp_path):
        table = tmp_path / "syn.json"
        table.write_text(json.dumps(SYNONYM_TABLE))
        out = tmp_path / "attack.json"
        rc = main(["attack", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]),
                   "--kind", "synonym", "--rate", "1.0",
                   "--seed", "7", "--synonyms", str(table), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "synonym" and report["seed"] == 7
        assert report["n_malicious"] == 48

    def test_explain_writes_attribution(self, workdir, tmp_path):
        out = tmp_path / "expl.json"
        rc = main(["explain", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]),
                   "--index", "0", "--n-samples", "60",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"weights", "intercept", "r2", "top_positive",
                                "top_negative", "n_samples"}
        assert payload["n_samples"] == 60

    def test_explain_index_out_of_range(self, workdir, capsys):
        rc = main(["explain", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]),
                   "--index", "9999"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err

    def test_explain_refuses_what_the_surrogate_cannot_fit(self, workdir, tmp_path, capsys):
        """60 words and an intercept need 62 samples: at 61 the fit is
        underdetermined. An email with no words has nothing to fit. Both
        runs stop before they score a variant."""
        data, out = tmp_path / "long.jsonl", tmp_path / "expl.json"
        save_dataset([EmailRecord(subject="invoice", body_text=" ".join(["pay"] * 59),
                                  label=1), EmailRecord(label=1)], data)
        argv = ["explain", "--model", str(workdir["ckpt"]), "--in", str(data),
                "--out", str(out), "--n-samples"]
        assert main([*argv, "61"]) == 1
        assert ("usage error: n_samples 61 cannot fit 60 word weights and an intercept: "
                "need n_samples >= 62") in capsys.readouterr().err
        assert main([*argv, "62", "--index", "1"]) == 1
        assert "usage error: cannot explain empty content" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "62"]) == 0


@pytest.mark.parametrize("text, problem", [
    ("{model: 1}", "is not valid JSON: "),
    ('["model"]', "must hold a JSON object"),
    ('{"model": "\udcff"}', "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ("[" * 100_000, "is not valid JSON: maximum recursion depth exceeded"),
    ('{"model": 1, "model": 2}', "is not valid JSON: repeated key 'model'"),
    ('{"model": ' + "1" * 5000 + "}", "is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["not-json", "json-list", "not-utf8", "deep-nesting", "repeated-key",
        "int-past-digit-limit"])
@pytest.mark.parametrize("sub, flag, what", [("train", "--config", "config file"),
                                             ("attack", "--synonyms", "synonyms file")])
def test_json_file_that_is_no_object_fails_before_reading_data(workdir, tmp_path, capsys,
                                                               sub, flag, what, text, problem):
    """Every other input is missing, so reading one would exit 2."""
    path = tmp_path / "file.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
    missing = str(tmp_path / "missing")
    argv = {"train": ["--train", missing, "--vocab", missing, "--out-dir", str(tmp_path / "r")],
            "attack": ["--model", missing, "--in", missing, "--kind", "synonym",
                       "--rate", "0.5"]}[sub]
    assert main([sub, *argv, flag, str(path)]) == 1
    assert f"usage error: {what} {path} {problem}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["file.json"]


@pytest.mark.parametrize("sub", ["eval", "predict", "attack", "explain"])
def test_max_len_past_checkpoint_positions_is_usage_error(workdir, tmp_path, capsys, sub):
    """Rows are as wide as the checkpoint allows, so the retired ``--max-len``
    is an unrecognized flag, rejected before any input is read."""
    argv = [sub, "--model", str(tmp_path / "missing"), "--in", str(tmp_path / "missing.jsonl"),
            "--max-len", "17", "--out", str(tmp_path / "result.json")]
    argv += {"attack": ["--kind", "typo", "--rate", "0.5"]}.get(sub, [])
    assert main(argv) == 1
    assert "unrecognized arguments: --max-len 17" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_max_len_below_tokenizer_floor_is_usage_error(workdir, tmp_path, capsys):
    """Two positions leave no room for [CLS], one token and [SEP]: a
    checkpoint that narrow is a usage error before any data is read (a
    config that narrow is a ``train`` refusal, a row of
    ``test_bad_config_fails_before_reading_data``)."""
    from catbert.checkpoint import save_checkpoint
    from catbert.model import init_random
    ckpt = tmp_path / "narrow"
    save_checkpoint(init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                            max_positions=2, block_plan=("T",))), ckpt)
    assert main(["eval", "--model", str(ckpt), "--in", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "metrics.json")]) == 1
    assert ("max_positions 2 allows rows of 2 tokens; max_len must be at least 3"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["narrow"]


def test_default_max_len_is_capped_at_checkpoint_positions(workdir, tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["eval", "--model", str(workdir["ckpt"]), "--in", str(workdir["corpus"]),
                 "--out", str(out)]) == 0
    assert json.loads((tmp_path / "metrics.json.manifest.json").read_text())[
        "config"]["max_len"] == 16


class TestScoringFlags:
    def _argv(self, workdir, sub):
        argv = [sub, "--model", str(workdir["ckpt"]), "--in", str(workdir["corpus"])]
        return argv + {"attack": ["--kind", "typo", "--rate", "0.5"],
                       "explain": ["--n-samples", "50"]}.get(sub, [])

    @pytest.mark.parametrize("sub, flags", [
        ("eval", []),
        ("predict", []),
        ("attack", []),
        ("explain", []),
    ])
    def test_manifest_records_every_scoring_flag(self, workdir, tmp_path, sub, flags):
        out = tmp_path / "out.json"
        argv = self._argv(workdir, sub) + [*flags, "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((tmp_path / "out.json.manifest.json").read_text())["config"]
        assert config["max_len"] == 16
        assert not {"truncate", "batch_size", "use_context"} & set(config)

    @pytest.mark.parametrize("sub, flag", [
        ("explain", ["--truncate", "tail"]),
        ("explain", ["--batch-size", "1"]),
        ("attack", ["--batch-size", "1"]),
        ("eval", ["--truncate", "head"]),
        ("predict", ["--truncate", "head"]),
        ("attack", ["--truncate", "head"]),
        ("eval", ["--batch-size", "5"]),
        ("predict", ["--batch-size", "5"]),
        ("eval", ["--no-context"]),
        ("predict", ["--no-context"]),
        ("attack", ["--no-context"]),
        ("explain", ["--no-context"]),
        ("eval", ["--vocab", "vocab.txt"]),
        ("predict", ["--vocab", "vocab.txt"]),
        ("attack", ["--vocab", "vocab.txt"]),
        ("explain", ["--vocab", "vocab.txt"]),
    ])
    def test_flags_the_subcommand_ignores_are_rejected(self, workdir, capsys, sub, flag):
        assert main(self._argv(workdir, sub) + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


# every flag of every subcommand: a flag added or removed shows in this list
FLAGS = {
    "ingest": ["--in", "--out", "--strict"],
    "split": ["--in", "--out-dir", "--fractions"],
    "train": ["--train", "--val", "--out-dir", "--config", "--vocab", "--seed"],
    "surgery": ["--donor", "--out-dir", "--keep", "--context-dim", "--seed"],
    "params": ["--config", "--out"],
    "eval": ["--model", "--in", "--out", "--roc", "--fprs", "--groups"],
    "predict": ["--model", "--in", "--out"],
    "attack": ["--model", "--in", "--kind", "--rate", "--seed", "--threshold",
               "--synonyms", "--out"],
    "explain": ["--model", "--in", "--index", "--n-samples", "--seed", "--out"],
    "bench": ["--config", "--batch", "--repetitions", "--seed", "--out"],
}


def test_every_subcommand_takes_exactly_the_golden_flags():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: [flag for action in parser._actions for flag in action.option_strings
                  if flag not in ("-h", "--help")]
           for name, parser in sub.choices.items()}
    assert got == FLAGS
    assert sum(map(len, FLAGS.values())) == 47


def test_readme_commands_parse_and_its_config_builds():
    """Every ``catbert`` command in README's ``sh`` blocks parses, and the
    quick start's config file is a valid model and schedule."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("catbert ")]
    assert {"split", "train", "eval", "bench"} <= {argv[0] for argv in commands}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    (config,) = re.findall(r"<<'EOF'\n(.*?)^EOF$", readme, flags=re.S | re.M)
    config = json.loads(config)
    row_width(ModelConfig.from_dict(config["model"]))
    TrainConfig.from_dict(config["train"])


class TestSurgeryBench:
    def test_surgery_copies_donor_blocks(self, workdir, tmp_path):
        from catbert.checkpoint import load_checkpoint, save_checkpoint
        from catbert.model import init_random
        donor_cfg = ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                max_positions=16, block_plan=("T",) * 4,
                                context_dim=0)
        donor_dir = tmp_path / "donor"
        save_checkpoint(init_random(donor_cfg, seed=3), donor_dir)
        save_vocab(synthetic_vocab(), donor_dir / "vocab.txt")
        out = tmp_path / "compressed"
        rc = main(["surgery", "--donor", str(donor_dir), "--out-dir", str(out),
                   "--keep", "0,2"])
        assert rc == 0
        donor = load_checkpoint(donor_dir)
        model = load_checkpoint(out)
        assert model.config.block_plan == ("transformer", "adapter") * 2
        np.testing.assert_array_equal(
            model.params["blocks.2.attn.q.w"].data,
            donor.params["blocks.2.attn.q.w"].data)
        assert (out / "vocab.txt").read_bytes() == (donor_dir / "vocab.txt").read_bytes()

    @pytest.mark.parametrize("n_tokens", [None, 99])
    def test_a_donor_without_its_vocabulary_fails_before_its_blob_is_read(
            self, tmp_path, capsys, n_tokens):
        """A donor whose vocab.txt is missing (None) or does not hold its
        vocab_size tokens is a usage error naming the file."""
        from catbert.checkpoint import BLOB, save_checkpoint
        from catbert.model import init_random
        donor_dir = tmp_path / "donor"
        save_checkpoint(init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                                max_positions=16, block_plan=("T", "T"))),
                        donor_dir)
        (donor_dir / BLOB).unlink()  # reading the blob would fail with exit 2
        vocab = donor_dir / "vocab.txt"
        if n_tokens is not None:
            save_vocab(synthetic_vocab()[:n_tokens], vocab)
        out = tmp_path / "compressed"
        assert main(["surgery", "--donor", str(donor_dir), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"checkpoint {donor_dir} has no vocab.txt" if n_tokens is None else
                f"vocabulary {vocab} has 99 tokens, but the checkpoint's vocab_size is 100") in err
        assert not out.exists()

    @pytest.mark.parametrize("keep, message", [
        ("0,9", "keep index 9 out of range for 4-block donor"),
        ("1", "donor block 1 is not a transformer")])
    def test_bad_keep_fails_before_the_donor_blob_is_read(self, tmp_path, capsys, keep,
                                                         message):
        from catbert.checkpoint import BLOB, save_checkpoint
        from catbert.model import init_random
        donor_cfg = ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                max_positions=16, block_plan=("T", "A", "T", "T"))
        donor_dir = tmp_path / "donor"
        save_checkpoint(init_random(donor_cfg, seed=3), donor_dir)
        (donor_dir / BLOB).unlink()  # reading the blob would fail with exit 2
        out = tmp_path / "compressed"
        assert main(["surgery", "--donor", str(donor_dir), "--out-dir", str(out),
                     "--keep", keep]) == 1
        assert f"usage error: --keep: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_reports_speedup(self, workdir, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--config", str(workdir["config"]), "--repetitions", "3",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        model = {**json.loads(workdir["config"].read_text())["model"], "seed": 2}
        assert payload["model"] == ModelConfig.from_dict(model).to_dict()
        assert (payload["batch"], payload["seq_len"]) == (1, 16)
        assert payload["speedup_p50"] > 0
        assert payload["donor"]["repetitions"] == 3
        manifest = json.loads((tmp_path / "bench.json.manifest.json").read_text())
        assert manifest["config"] == {"model": payload["model"], "batch": 1, "repetitions": 3}
        assert manifest["seed"] == 2

    @pytest.mark.parametrize("model, donor_plan", [
        (None, ("T",) * 6), ({"hidden": 16, "ffn_dim": 32, "heads": 2, "block_plan": ["T", "A"]},
                             ("T", "T"))], ids=["paper-scale", "T-A"])
    def test_bench_donor_is_the_model_with_every_block_a_transformer(self, tmp_path,
                                                                     monkeypatch, model,
                                                                     donor_plan):
        """Without a config, bench times the paper's pair: 768/3072/12, vocab
        30522, 512 positions, T x 6 against T,A x 3. Only the configs are
        looked at; no model is built."""
        timed = []
        monkeypatch.setattr(cli, "init_random", lambda config: config)
        monkeypatch.setattr(cli, "time_inference", lambda config, *args: timed.append(config)
                            or {"p50_ms": 1.0, "mean_ms": 1.0})
        argv = ["bench", "--out", str(tmp_path / "b.json")]
        if model is not None:
            (tmp_path / "c.json").write_text(json.dumps({"model": model}))
            argv += ["--config", str(tmp_path / "c.json")]
        assert main(argv) == 0
        donor, compressed = timed
        assert compressed == ModelConfig.from_dict(model or {})
        assert donor == ModelConfig.from_dict({**compressed.to_dict(), "block_plan": donor_plan})
        if model is None:
            assert ((compressed.hidden, compressed.ffn_dim, compressed.heads,
                     compressed.vocab_size, compressed.max_positions, compressed.block_plan)
                    == (768, 3072, 12, 30522, 512, ("transformer", "adapter") * 3))
            assert json.loads((tmp_path / "b.json").read_text())["seq_len"] == 128


@pytest.fixture(scope="module")
def donor(tmp_path_factory):
    from catbert.checkpoint import save_checkpoint
    from catbert.model import init_random
    path = tmp_path_factory.mktemp("donor")
    save_checkpoint(init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                            max_positions=16, block_plan=("T",) * 2,
                                            context_dim=0)), path)
    save_vocab(synthetic_vocab(), path / "vocab.txt")
    return path


class TestManifests:
    """Every subcommand that writes files, with the manifest the run should
    leave in the fresh directory ``{out}``."""

    SCORING = ["--model", "{ckpt}", "--in", "{corpus}"]
    BENCH = ["bench", "--config", "{config}", "--repetitions", "2"]
    CASES = {
        "ingest": (["ingest", "--in", "{corpus}", "--out", "{out}/clean.jsonl"],
                   "clean.jsonl.manifest.json"),
        "split": (["split", "--in", "{corpus}", "--out-dir", "{out}"], "run_manifest.json"),
        "train": (["train", "--train", "{corpus}", "--vocab", "{vocab}",
                   "--config", "{config}", "--out-dir", "{out}"], "run_manifest.json"),
        "surgery": (["surgery", "--donor", "{donor}", "--out-dir", "{out}"],
                    "run_manifest.json"),
        "params": (["params", "--config", "{config}", "--out", "{out}/params.json"],
                   "params.json.manifest.json"),
        "eval": (["eval", *SCORING, "--out", "{out}/m.json", "--roc", "{out}/roc.csv"],
                 "m.json.manifest.json"),
        "eval-roc-only": (["eval", *SCORING, "--roc", "{out}/roc.csv"],
                          "roc.csv.manifest.json"),
        "predict": (["predict", *SCORING, "--out", "{out}/p.jsonl"], "p.jsonl.manifest.json"),
        "attack": (["attack", *SCORING, "--kind", "typo", "--rate", "0.5",
                    "--out", "{out}/a.json"], "a.json.manifest.json"),
        "explain": (["explain", *SCORING, "--n-samples", "50", "--out", "{out}/e.json"],
                    "e.json.manifest.json"),
        "bench": ([*BENCH, "--out", "{out}/b.json"], "b.json.manifest.json"),
    }

    def _argv(self, workdir, donor, out, argv):
        paths = {**{k: str(v) for k, v in workdir.items()}, "donor": str(donor), "out": str(out)}
        return [arg.format(**paths) for arg in argv]

    @pytest.mark.parametrize("case", CASES)
    def test_manifest_names_exactly_the_files_written(self, workdir, donor, tmp_path, case):
        argv, manifest_name = self.CASES[case]
        out = tmp_path / "out"
        out.mkdir()
        assert main(self._argv(workdir, donor, out, argv)) == 0
        manifest = json.loads((out / manifest_name).read_text())
        assert manifest["subcommand"] == argv[0]
        named = set()
        for entry in manifest["outputs"].values():
            files = entry.get("files", {"": None})
            named |= {os.path.normpath(os.path.join(entry["path"], rel)) for rel in files}
        written = {os.path.join(root, name) for root, _, names in os.walk(out)
                   for name in names}
        assert written == named | {str(out / manifest_name)}

    @pytest.mark.parametrize("case", ["params", "eval", "predict", "attack", "explain",
                                      "bench"])
    def test_stdout_only_run_writes_no_manifest(self, workdir, donor, tmp_path, monkeypatch,
                                                capsys, case):
        argv, _ = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        assert main(self._argv(workdir, donor, tmp_path, argv[:argv.index("--out")])) == 0
        assert capsys.readouterr().out
        assert os.listdir(tmp_path) == []

    def test_a_checkpoint_directory_is_hashed_without_its_run_manifest(self, workdir, donor,
                                                                        tmp_path):
        comp = tmp_path / "comp"
        for _ in range(2):
            assert main(["surgery", "--donor", str(donor), "--out-dir", str(comp)]) == 0
        manifest = json.loads((comp / "run_manifest.json").read_text())
        files = {"manifest.json", "tensors.bin", "vocab.txt"}
        assert set(manifest["inputs"]["donor"]["files"]) == files
        assert set(manifest["outputs"]["checkpoint"]["files"]) == files
        assert main(["eval", "--model", str(comp), "--in", str(workdir["corpus"]),
                     "--out", str(tmp_path / "m.json")]) == 0
        inputs = json.loads((tmp_path / "m.json.manifest.json").read_text())["inputs"]
        assert set(inputs) == {"dataset", "model"}
        assert set(inputs["model"]["files"]) == files

    @pytest.mark.parametrize("failing", ["report", "manifest"])
    def test_failed_write_keeps_the_old_file(self, workdir, tmp_path, monkeypatch, capsys,
                                             failing):
        report = tmp_path / "params.json"
        manifest = tmp_path / "params.json.manifest.json"
        report.write_text("old report\n")
        manifest.write_text("old manifest\n")
        fsync, synced = os.fsync, []

        def failing_fsync(fd):
            synced.append(fd)
            if len(synced) == ("report", "manifest").index(failing) + 1:
                raise OSError("disk full")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        assert main(["params", "--config", str(workdir["config"]), "--out", str(report)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert manifest.read_text() == "old manifest\n"
        if failing == "report":
            assert report.read_text() == "old report\n"
        else:
            assert json.loads(report.read_text())["exact"]["total"] > 0
        assert sorted(os.listdir(tmp_path)) == ["params.json", "params.json.manifest.json"]
