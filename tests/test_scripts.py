"""The example scripts run end to end at a small size."""

import json
import subprocess
import sys
from pathlib import Path

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
    out = tmp_path / "report.json"
    done = run("run_experiment.py", "--n", 300, "--epochs", 1, "--hidden", 16,
               "--max-positions", 32, "--out", out)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert 0.0 <= report["test_auc"] <= 1.0
    assert set(report["attacks"]) == {"synonym", "typo"}
