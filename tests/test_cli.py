"""End-to-end checks of the command-line interface.

Everything runs ``cli.main`` in-process so exit codes and stderr text are
observable without subprocesses. A single tiny checkpoint is trained once
per module and shared by the read-only subcommand tests.
"""

import json
import os

import numpy as np
import pytest

from catbert.cli import main
from catbert.mail import save_dataset
from catbert.model import ModelConfig, count_params
from catbert.synthetic import SYNONYM_TABLE, make_corpus, synthetic_vocab
from catbert.tokenizer import save_vocab


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
        "max_len": 16,
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
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"])])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sub, flag", [
        ("ingest", "--out"), ("eval", "--out"), ("eval", "--roc"), ("explain", "--out")])
    def test_missing_output_directory_fails_before_any_work(self, tmp_path, capsys, sub,
                                                             flag):
        missing = str(tmp_path / "missing")
        argv = [sub, "--in", f"{missing}.jsonl", flag, os.path.join(missing, "result")]
        if sub != "ingest":
            argv += ["--model", missing, "--vocab", missing]
        assert main(argv) == 1
        assert f"output directory {missing} does not exist" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, flag", [
        (["split", "--fractions", "a,b,c"], "--fractions"),
        (["split", "--fractions", "0.5,0.5"], "--fractions"),
        (["split", "--fractions", "1.5,-0.25,-0.25"], "--fractions"),
        (["eval", "--fprs", "0.01,x"], "--fprs"),
        (["eval", "--fprs", "0.01,2"], "--fprs"),
        (["surgery", "--keep", "0,two"], "--keep"),
        (["surgery", "--keep", "0,-1"], "--keep"),
    ], ids=["fractions-not-numbers", "fractions-two-values", "fractions-out-of-range",
            "fprs-not-a-number", "fprs-above-one", "keep-not-an-integer", "keep-negative"])
    def test_bad_list_flag_fails_before_reading_data(self, tmp_path, capsys, argv, flag):
        missing = str(tmp_path / "missing")
        inputs = {"split": ["--in", missing, "--out-dir", str(tmp_path / "out")],
                  "eval": ["--in", missing, "--model", missing, "--vocab", missing],
                  "surgery": ["--donor", missing, "--out-dir", str(tmp_path / "out")]}
        assert main(argv + inputs[argv[0]]) == 1
        assert f"argument {flag}: wants " in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

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
        ('{"label": 0, "first_seen": 5}', "first_seen must be an ISO timestamp string"),
        ("[" * 100_000, "recursion"),
    ], ids=["weight-text", "weight-inf", "first-seen-number", "deep-nesting"])
    def test_ingest_skips_a_hostile_line(self, workdir, tmp_path, capsys, bad, reason):
        good = workdir["corpus"].read_text().splitlines()[0]
        src = tmp_path / "dirty.jsonl"
        src.write_text(f"{good}\n{bad}\n{good}\n")
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        (skipped,) = json.loads((tmp_path / "clean.jsonl.manifest.json").read_text())[
            "config"]["skipped"]
        assert skipped.startswith("line 2: ") and reason in skipped
        assert sum(1 for _ in open(out)) == 2
        capsys.readouterr()
        assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "o"), "--strict"]) == 2
        assert f"error: {skipped}" in capsys.readouterr().err

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

    def test_flag_overrides_config_file(self, workdir, tmp_path):
        run = tmp_path / "lr0"
        rc = main(["train", "--train", str(workdir["corpus"]),
                   "--vocab", str(workdir["vocab"]), "--config", str(workdir["config"]),
                   "--out-dir", str(run), "--seed", "0", "--learning-rate", "0"])
        assert rc == 0
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert manifest["config"]["train"]["learning_rate"] == 0.0

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
        ({"max_len": "16"}, "max_len must be an integer, got '16'"),
    ], ids=["unknown-top-level-key", "truncate-middle", "truncate-tail", "max-len-string"])
    def test_bad_config_fails_before_reading_data(self, workdir, tmp_path, capsys,
                                                  override, message):
        cfg = {**json.loads(workdir["config"].read_text()), **override}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "r"
        assert main(["train", "--train", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(workdir["vocab"]), "--config", str(bad),
                     "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_from_an_older_manifest_with_truncate_head_trains(self, workdir, tmp_path):
        cfg = {**json.loads(workdir["config"].read_text()), "truncate": "head"}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        run = tmp_path / "old"
        assert main(["train", "--train", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                     "--config", str(path), "--out-dir", str(run), "--seed", "0"]) == 0
        assert ((run / "best" / "tensors.bin").read_bytes()
                == (workdir["ckpt"] / "tensors.bin").read_bytes())
        assert "truncate" not in json.loads((run / "run_manifest.json").read_text())["config"]

    def test_truncate_flag_is_unrecognized(self, workdir, tmp_path, capsys):
        assert main(["train", "--train", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                     "--out-dir", str(tmp_path / "r"), "--truncate", "head"]) == 1
        assert "unrecognized arguments: --truncate head" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def _seeded_run(self, workdir, tmp_path, model_seed, train_seed, *flags):
        cfg = json.loads(workdir["config"].read_text())
        if model_seed is not None:
            cfg["model"]["seed"] = model_seed
        cfg["train"]["seed"] = train_seed
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(cfg))
        run = tmp_path / "seeded"
        rc = main(["train", "--train", str(workdir["corpus"]),
                   "--vocab", str(workdir["vocab"]), "--config", str(path),
                   "--out-dir", str(run), "--learning-rate", "0", *flags])
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
        assert "model.seed 5" in capsys.readouterr().err
        assert not run.exists()

    def test_bad_freeze_fails_before_reading_data(self, workdir, tmp_path, capsys):
        rc = main(["train", "--train", str(tmp_path / "missing.jsonl"),
                   "--vocab", str(workdir["vocab"]), "--out-dir", str(tmp_path / "r"),
                   "--freeze", "bogus"])
        assert rc == 1
        assert "freeze must be 'partial-finetune'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_max_len_past_max_positions_fails_before_reading_data(self, workdir, tmp_path,
                                                                 capsys):
        out = tmp_path / "r"
        assert main(["train", "--train", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(workdir["vocab"]), "--config", str(workdir["config"]),
                     "--out-dir", str(out), "--max-len", "64"]) == 1
        assert main(["train", "--train", str(tmp_path / "missing.jsonl"),
                     "--vocab", str(workdir["vocab"]), "--config", str(workdir["config"]),
                     "--out-dir", str(out), "--max-positions", "8"]) == 1
        err = capsys.readouterr().err
        assert "max_len 64 exceeds the model's max_positions 16" in err
        assert "max_len 16 exceeds the model's max_positions 8" in err
        assert not out.exists()

    def test_context_width_other_than_0_or_4_is_usage_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["train", "--train", str(workdir["corpus"]),
                     "--vocab", str(workdir["vocab"]), "--config", str(workdir["config"]),
                     "--out-dir", str(out), "--context-dim", "2"]) == 1
        assert main(["surgery", "--donor", str(workdir["ckpt"]), "--out-dir", str(out),
                     "--context-dim", "3"]) == 1
        assert capsys.readouterr().err.count("--context-dim: invalid choice") == 2
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
        cfg.write_text(json.dumps({"hidden": 32}))  # no vocab_size
        assert main(["params", "--config", str(cfg)]) == 1


class TestScoring:
    def test_eval_metrics_json(self, workdir, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--max-len", "16", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 160
        assert payload["n_pos"] + payload["n_neg"] == 160
        assert 0.0 <= payload["auc"] <= 1.0
        assert set(payload["tpr_at_fpr"]) == {"0.0001", "0.001", "0.01", "0.1"}
        assert (tmp_path / "metrics.json.manifest.json").exists()

    def test_eval_roc_csv(self, workdir, tmp_path):
        out = tmp_path / "m.json"
        roc = tmp_path / "roc.csv"
        rc = main(["eval", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--max-len", "16", "--out", str(out), "--roc", str(roc)])
        assert rc == 0
        lines = roc.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) > 2

    def test_predict_stdout_jsonl(self, workdir, capsys):
        rc = main(["predict", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--max-len", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 160
        rows = [json.loads(line) for line in lines]
        assert [r["index"] for r in rows] == list(range(160))
        assert all(0.0 < r["prob"] < 1.0 for r in rows)
        assert all(r["label"] in (0, 1) for r in rows)


class TestAttackExplain:
    def test_attack_rate_zero_has_no_effect(self, workdir, tmp_path):
        out = tmp_path / "attack.json"
        rc = main(["attack", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--max-len", "16", "--kind", "typo", "--rate", "0",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["delta"] == 0.0
        assert report["clean_acc"] == report["attacked_acc"]

    def test_attack_synonym_needs_table(self, workdir, tmp_path, capsys):
        rc = main(["attack", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--kind", "synonym", "--rate", "0.5"])
        assert rc == 2  # empty table rejected by the attack spec

    def test_attack_with_synonym_table(self, workdir, tmp_path):
        table = tmp_path / "syn.json"
        table.write_text(json.dumps(SYNONYM_TABLE))
        out = tmp_path / "attack.json"
        rc = main(["attack", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--max-len", "16", "--kind", "synonym", "--rate", "1.0",
                   "--seed", "7", "--synonyms", str(table), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "synonym" and report["seed"] == 7
        assert report["n_malicious"] == 48

    def test_explain_writes_attribution(self, workdir, tmp_path):
        out = tmp_path / "expl.json"
        rc = main(["explain", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--max-len", "16", "--index", "0", "--n-samples", "60",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"weights", "intercept", "r2", "top_positive",
                                "top_negative", "n_samples"}
        assert payload["n_samples"] == 60

    def test_explain_index_out_of_range(self, workdir, capsys):
        rc = main(["explain", "--model", str(workdir["ckpt"]),
                   "--in", str(workdir["corpus"]), "--vocab", str(workdir["vocab"]),
                   "--index", "9999"])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["eval", "predict", "attack", "explain"])
def test_max_len_past_checkpoint_positions_is_usage_error(workdir, tmp_path, capsys, sub):
    argv = [sub, "--model", str(workdir["ckpt"]), "--in", str(tmp_path / "missing.jsonl"),
            "--vocab", str(workdir["vocab"]), "--max-len", "17",
            "--out", str(tmp_path / "result.json")]
    argv += {"attack": ["--kind", "typo", "--rate", "0.5"]}.get(sub, [])
    assert main(argv) == 1
    assert "max_len 17 exceeds the model's max_positions 16" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sub", ["train", "eval"])
def test_max_len_below_tokenizer_floor_is_usage_error(workdir, tmp_path, capsys, sub):
    data = str(tmp_path / "missing.jsonl")
    argv = {"train": ["train", "--train", data, "--out-dir", str(tmp_path / "out")],
            "eval": ["eval", "--model", str(workdir["ckpt"]), "--in", data,
                     "--out", str(tmp_path / "metrics.json")]}[sub]
    assert main(argv + ["--vocab", str(workdir["vocab"]), "--max-len", "2"]) == 1
    assert "max_len 2 is below the minimum 3" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_default_max_len_is_capped_at_checkpoint_positions(workdir, tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["eval", "--model", str(workdir["ckpt"]), "--in", str(workdir["corpus"]),
                 "--vocab", str(workdir["vocab"]), "--out", str(out)]) == 0
    assert json.loads((tmp_path / "metrics.json.manifest.json").read_text())[
        "config"]["max_len"] == 16


class TestScoringFlags:
    def _argv(self, workdir, sub):
        argv = [sub, "--model", str(workdir["ckpt"]), "--in", str(workdir["corpus"]),
                "--vocab", str(workdir["vocab"]), "--max-len", "12"]
        return argv + {"attack": ["--kind", "typo", "--rate", "0.5"],
                       "explain": ["--n-samples", "50"]}.get(sub, [])

    @pytest.mark.parametrize("sub, flags", [
        ("eval", ["--batch-size", "5"]),
        ("predict", ["--batch-size", "5"]),
        ("attack", []),
        ("explain", []),
    ])
    def test_manifest_records_every_scoring_flag(self, workdir, tmp_path, sub, flags):
        out = tmp_path / "out.json"
        argv = self._argv(workdir, sub) + ["--no-context", *flags, "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((tmp_path / "out.json.manifest.json").read_text())["config"]
        assert config["max_len"] == 12 and config["use_context"] is False
        assert "truncate" not in config
        assert ("--batch-size" in flags) == (config.get("batch_size") == 5)

    @pytest.mark.parametrize("sub, flag", [
        ("explain", ["--truncate", "tail"]),
        ("explain", ["--batch-size", "1"]),
        ("attack", ["--batch-size", "1"]),
        ("eval", ["--truncate", "head"]),
        ("predict", ["--truncate", "head"]),
        ("attack", ["--truncate", "head"]),
    ])
    def test_flags_the_subcommand_ignores_are_rejected(self, workdir, capsys, sub, flag):
        assert main(self._argv(workdir, sub) + flag) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSurgeryBench:
    def test_surgery_copies_donor_blocks(self, workdir, tmp_path):
        from catbert.checkpoint import load_checkpoint, save_checkpoint
        from catbert.model import init_random
        donor_cfg = ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                max_positions=16, block_plan=("T",) * 4,
                                context_dim=0)
        donor_dir = tmp_path / "donor"
        save_checkpoint(init_random(donor_cfg, seed=3), donor_dir)
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

    def test_bench_reports_speedup(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--hidden", "16", "--ffn-dim", "32", "--heads", "2",
                   "--seq-len", "8", "--vocab-size", "64", "--donor-blocks", "2",
                   "--repetitions", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["speedup_p50"] > 0
        assert payload["donor"]["repetitions"] == 3

    def test_bench_odd_donor_blocks_rejected(self, capsys):
        assert main(["bench", "--donor-blocks", "3"]) == 1


@pytest.fixture(scope="module")
def donor(tmp_path_factory):
    from catbert.checkpoint import save_checkpoint
    from catbert.model import init_random
    path = tmp_path_factory.mktemp("donor")
    save_checkpoint(init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                            max_positions=16, block_plan=("T",) * 2,
                                            context_dim=0)), path)
    return path


class TestManifests:
    """Every subcommand that writes files, with the manifest the run should
    leave in the fresh directory ``{out}``."""

    SCORING = ["--model", "{ckpt}", "--in", "{corpus}", "--vocab", "{vocab}", "--max-len", "16"]
    BENCH = ["bench", "--hidden", "16", "--ffn-dim", "32", "--heads", "2", "--seq-len", "8",
             "--vocab-size", "64", "--donor-blocks", "2", "--repetitions", "2"]
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
        assert set(manifest["outputs"]["checkpoint"]["files"]) == {"manifest.json", "tensors.bin"}
        assert main(["eval", "--model", str(comp), "--in", str(workdir["corpus"]),
                     "--vocab", str(workdir["vocab"]), "--out", str(tmp_path / "m.json")]) == 0
        inputs = json.loads((tmp_path / "m.json.manifest.json").read_text())["inputs"]
        assert set(inputs["model"]["files"]) == {"manifest.json", "tensors.bin"}

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
