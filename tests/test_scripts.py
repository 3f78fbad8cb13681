"""The example scripts run end to end at a small size."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_make_synthetic_writes_corpus_vocab_and_synonyms(tmp_path):
    done = run("make_synthetic.py", "--n", 200, "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "corpus.jsonl").read_text().splitlines()) == 200
    assert (tmp_path / "vocab.txt").stat().st_size > 0
    assert json.loads((tmp_path / "synonyms.json").read_text())


def test_run_experiment_writes_its_report(tmp_path):
    out, config = tmp_path / "report.json", tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"hidden": 16, "ffn_dim": 32, "heads": 2, "max_positions": 32,
                  "block_plan": ["T", "A"]},
        "train": {"epochs": 1, "batch_size": 32, "learning_rate": 1e-3}}))
    done = run("run_experiment.py", "--n", 300, "--config", config, "--out", out)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert 0.0 <= report["test_auc"] <= 1.0
    assert 0.0 <= report["test_auc_context_free"] <= 1.0  # a twin trained at context_dim 0
    assert "test_auc_no_context" not in report  # no score of zeroed features
    assert set(report["attacks"]) == {"synonym", "typo"}
    assert (report["config"]["model"]["hidden"], report["config"]["train"]["epochs"]) == (16, 1)


@pytest.mark.parametrize("config, message", [
    ({"model": {"vocab_size": 99}}, "model.vocab_size 99 disagrees with the 100 tokens of the "
                                    "synthetic vocabulary"),
    ({"train": {"epochs": 0}}, "epochs must be >= 1, got 0"),
    ({"max_len": 8}, "max_len=8 is retired; rows are 128 tokens wide"),
    ({"trian": {}}, "unknown config fields: ['trian']"),
], ids=["vocab-size", "epochs-zero", "max-len", "unknown-key"])
def test_run_experiment_refuses_what_train_refuses(tmp_path, config, message):
    """The script reads --config through catbert train's reader, so it
    refuses the same files with the same message, before any corpus is
    made."""
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    done = run("run_experiment.py", "--n", 300, "--config", path, "--out", out)
    assert done.returncode == 1
    assert done.stderr.startswith(f"usage error: bad config: {message}")
    assert done.stderr.rstrip().endswith(f", in {path}")
    assert "split:" not in done.stdout and not out.exists()


def test_run_experiment_defaults_are_the_readme_demo_config():
    spec = importlib.util.spec_from_file_location("run_experiment",
                                                  SCRIPTS / "run_experiment.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    (demo,) = re.findall(r"<<'EOF'\n(.*?)^EOF$", readme, flags=re.S | re.M)
    assert module.DEMO == json.loads(demo)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(setup_s: float, correct: bool = True, failed: int = 0) -> str:
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": 100.0, "unit": "MB"}}})


END_TO_END = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def _pairs(bench, parent: list[float], change: list[float]) -> list[tuple]:
    rows = []
    for i, (p, c) in enumerate(zip(parent, change)):
        seed = 3901 + i
        lines = {"parent": _result(p), "change": _result(c)}
        rows += [("w", seed, side, lines[side]) for side in bench.sides_in_order(seed)]
    return rows


def test_bench_pairs_sums_up_canned_runs():
    """Four pairs of one workload, read from the lines perfbench prints;
    nothing is run."""
    bench = _bench_pairs()
    parent, change = [0.010, 0.012, 0.014, 0.020], [0.004, 0.012, 0.008, 0.006]
    rows = []
    for i, (p, c) in enumerate(zip(parent, change)):
        seed = 3300 + i
        lines = {"parent": _result(p), "change": _result(c, failed=int(i == 1))}
        rows += [("w", seed, side, lines[side]) for side in bench.sides_in_order(seed)]
    out = bench.summarize(rows, END_TO_END)["w"]
    assert out["seeds"] == [3300, 3301, 3302, 3303] and out["pairs"] == 4
    assert out["correct"] == {"parent": True, "change": True}
    assert out["failed_of_attempted"] == {"parent": [0, 40], "change": [1, 40]}
    setup = out["metrics"]["setup_s"]
    assert setup["unit"] == "s"
    assert setup["parent"] == {"q1": 0.0115, "median": 0.013, "q3": 0.0155, "runs": parent}
    assert setup["change"] == {"q1": 0.0055, "median": 0.007, "q3": 0.009, "runs": change}
    assert setup["pairs_change_won"] == 3  # a tie is won by neither side
    assert setup["change_over_parent_median"] == 0.538
    assert setup["parent_iqr"] == 0.004
    assert not setup["gain_claimable"] and not setup["worse_than_bound"]  # 3 of 4 is too few
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["pairs_change_won"] == 0 and rss["parent_iqr"] == 0.0
    assert not rss["gain_claimable"] and not rss["worse_than_bound"]


def test_bench_pairs_flags_a_refused_claim():
    """Ten pairs shaped like a refused train-paper claim: the median falls
    262 -> 217 ms, more than the parent's IQR, but the change won only 8 of
    10 pairs. Moved so it wins 9, the same medians make a claimable gain."""
    bench = _bench_pairs()
    parent = [200.0, 310.0, 240.0, 262.0, 290.0, 255.0, 262.0, 275.0, 230.0, 300.0]
    change = [205.0, 200.0, 215.0, 219.0, 215.0, 219.0, 220.0, 230.0, 235.0, 210.0]
    setup = bench.summarize(_pairs(bench, parent, change), END_TO_END)["w"]["metrics"]["setup_s"]
    assert (setup["parent"]["median"], setup["change"]["median"]) == (262.0, 217.0)
    assert setup["parent_iqr"] == 42.5 and setup["pairs_change_won"] == 8
    assert not setup["gain_claimable"] and not setup["worse_than_bound"]
    change[8] = 225.0  # the ninth pair won, medians unchanged
    setup = bench.summarize(_pairs(bench, parent, change), END_TO_END)["w"]["metrics"]["setup_s"]
    assert setup["change"]["median"] == 217.0 and setup["pairs_change_won"] == 9
    assert setup["gain_claimable"]


def test_bench_pairs_flags_a_regression_past_the_bound():
    """A median 10% worse is inside setup_s's 0.25 bound; 30% is past it.
    All ten pairs equal: no side wins, and nothing is flagged."""
    bench = _bench_pairs()
    for factor, worse in ((1.1, False), (1.3, True), (1.0, False)):
        parent = [10.0 + i for i in range(10)]
        setup = bench.summarize(_pairs(bench, parent, [p * factor for p in parent]),
                                END_TO_END)["w"]["metrics"]["setup_s"]
        assert setup["worse_than_bound"] is worse
        assert setup["pairs_change_won"] == 0 and not setup["gain_claimable"]


def test_bench_pairs_runs_the_parent_first_on_odd_seeds():
    bench = _bench_pairs()
    assert bench.sides_in_order(3301) == ("parent", "change")
    assert bench.sides_in_order(3302) == ("change", "parent")


def test_bench_pairs_refuses_a_pair_with_one_side():
    bench = _bench_pairs()
    with pytest.raises(ValueError, match=r"\(3301, 'change'\)"):
        bench.summarize([("w", 3301, "parent", _result(0.01))], END_TO_END)


def test_bench_pairs_sums_up_canned_traced_runs(tmp_path):
    bench = _bench_pairs()
    dump = tmp_path / "trace-w.json"
    dump.write_text(json.dumps({"workload": "w", "metrics": {}, "spans": [
        ["workload", 0.0, 50.0, -1], ["tokenizer.load_vocab", 1.0, 3.5, 0],
        ["tokenizer.encode", 4.0, 5.0, 0], ["tokenizer.load_vocab", 6.0, 7.25, 0]]}))
    assert bench.span_ms(str(dump), "tokenizer.load_vocab") == 3.75
    rows = [("w", "parent", _result(0.01), 12.0),
            ("w", "change", _result(0.02, correct=False), 7.5)]
    assert bench.summarize_trace(rows) == {"w": {
        "correct": {"parent": True, "change": False},
        "setup_s": {"parent": 0.01, "change": 0.02},
        "peak_rss_mb": {"parent": 100.0, "change": 100.0},
        "tokenizer.load_vocab.ms": {"parent": 12.0, "change": 7.5}}}
    with pytest.raises(ValueError, match=r"\['change'\]"):
        bench.summarize_trace(rows[:1])
