"""Self-tests of the benchmark: each check passes the program's real output
and rejects a deliberately wrong one; the tracer and the command line keep
their contracts. Run with ``python3 -m pytest perfbench -q``."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from catbert import explain, mail, metrics, model, pipeline, tensor, tokenizer, train  # noqa: E402

TINY = dict(hidden=16, ffn_dim=32, heads=2, max_positions=16, block_plan=("T", "A"))


@pytest.fixture(scope="module")
def vocab_tokens():
    return gen.vocabulary(0, gen.lexicon(0))


@pytest.fixture(scope="module")
def tiny():
    cfg = model.ModelConfig(vocab_size=50, **TINY)
    m = model.init_random(cfg, seed=3)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, 50, size=(3, 12))
    mask = np.ones((3, 12), dtype=np.int64)
    mask[1, 7:] = 0
    mask[2, 4:] = 0
    ctx = rng.random((3, 4)).astype(np.float32)
    return m, ids, mask, ctx


def _params(m):
    return {n: p.data for n, p in m.params.items()}


def test_forward_matches_reference_and_rejects_wrong(tiny):
    m, ids, mask, ctx = tiny
    probs, hiddens = model.forward_probs(m, ids, mask, ctx, return_hidden=True)
    want_p, want_cls = ref.forward(m.config.to_dict(), _params(m), ids, mask, ctx)
    cls = hiddens[-1].data[:, 0]
    assert checks.forward(probs.data, cls, want_p, want_cls) == []
    assert checks.forward(probs.data + 2 * checks.PROB_TOL, cls, want_p, want_cls)
    assert checks.forward(probs.data, cls + 2 * checks.CLS_TOL, want_p, want_cls)
    # attending to padded keys is a wrong answer too
    wrong_p, wrong_cls = ref.forward(m.config.to_dict(), _params(m), ids, np.ones_like(mask), ctx)
    assert checks.forward(probs.data, cls, wrong_p, wrong_cls)


def test_probabilities_reject_nan_and_out_of_range():
    assert checks.probabilities([0.0, 0.5, 1.0]) == []
    assert checks.probabilities([0.5, float("nan")])
    assert checks.probabilities([0.5, 1.0001])


def test_alone_vs_batch(tiny):
    m, ids, mask, ctx = tiny
    batched = model.forward_probs(m, ids, mask, ctx).data
    alone = [model.forward_probs(m, ids[i:i + 1], mask[i:i + 1], ctx[i:i + 1]).data[0]
             for i in range(3)]
    assert checks.alone_vs_batch(alone, batched) == []
    assert checks.alone_vs_batch(np.roll(alone, 1), batched)


def test_token_ids_match_program_and_reject_wrong(vocab_tokens):
    vocab = tokenizer.Vocabulary(vocab_tokens)
    wp = ref.WordPiece(vocab_tokens)
    blob = "q" + "zx" * 80
    texts = ["Urgent: verify your account, 4512 dollars!",
             "hello " * 200 + "end",
             "pаyment to " + blob + " today"]
    rows = [tokenizer.encode(t, "", vocab, max_len=32).ids for t in texts]
    assert checks.token_ids(wp, texts, rows, 32) == []
    wrong = [list(r) for r in rows]
    wrong[0][2] = vocab.unk_id
    assert checks.token_ids(wp, texts, wrong, 32)
    no_sep = [list(r) for r in rows]
    no_sep[1][31] = no_sep[1][30]
    assert checks.token_ids(wp, texts, no_sep, 32)
    # a per-word cap may map the 161-letter word to a single [UNK] ...
    capped = [vocab.cls_id] + [vocab.id_of(p) for p in tokenizer.wordpiece("pаyment to", vocab)] \
        + [vocab.unk_id] + [vocab.id_of(p) for p in tokenizer.wordpiece("today", vocab)] \
        + [vocab.sep_id]
    capped += [vocab.pad_id] * (32 - len(capped))
    assert wp.match(texts[2], capped, 32) is None
    # ... but never a short word
    short = list(rows[0])
    short[1:3] = [vocab.unk_id, short[3]]
    assert wp.match(texts[0], short, 32)


def test_reference_wordpiece_agrees_with_program_on_generated_words(vocab_tokens):
    vocab = tokenizer.Vocabulary(vocab_tokens)
    wp = ref.WordPiece(vocab_tokens)
    words = gen.lexicon(0)[::97] + ["2025", "a" * 150]
    for w in words:
        assert wp.word(w) == tokenizer.wordpiece(w, vocab), w
    assert len(set(vocab_tokens)) == gen.VOCAB_SIZE


def test_generated_corpora_have_their_stated_make_up(vocab_tokens):
    vocab = tokenizer.Vocabulary(vocab_tokens)
    words = gen.lexicon(0)
    shards = gen.short_corpus(0, words)
    lengths = [tokenizer.encode(r["subject"], p, vocab).n_tokens for s in shards for r, p in s]
    assert 15 <= np.median(lengths) <= 45
    rounds = gen.gateway_corpus(0, words)
    for rnd in rounds:
        assert sum("body_html" in r for r, _ in rnd) == gen.GATEWAY_HTML
        assert sum(not ref.context(r["from"], r["to"], r["cc"])[1] for r, _ in rnd) \
            == gen.GATEWAY_BAD_HEADERS
        assert sum(max(map(len, p.split())) >= gen.BLOB_CHARS[0] for _, p in rnd) == 1
    for r, p in rounds[0]:
        if "body_html" in r:
            assert mail.html_to_text(r["body_html"]) == p
    tr, va = gen.train_corpus(0, words)
    assert all(tokenizer.encode(r["subject"], p, vocab).n_tokens > 126 for r, p in tr + va)


def test_context_matches_program_and_rejects_wrong():
    recs = [mail.EmailRecord(from_addr="a@x.com", to_addrs=["b@x.com"], cc_addrs=["c@y"]),
            mail.EmailRecord(from_addr="a@x.com", to_addrs=["b@y.com", "c@x.com"]),
            mail.EmailRecord(from_addr="MAILER-DAEMON", to_addrs=["b@x.com"]),
            mail.EmailRecord(from_addr="a@x.com", to_addrs=["undisclosed-recipients:;"])]
    ctx = np.stack([mail.context_vector(mail.extract_context(r)) for r in recs])
    assert checks.context(recs, ctx) == []
    wrong = ctx.copy()
    wrong[0, :2] = wrong[0, 1::-1]
    assert checks.context(recs, wrong)


def test_metrics_match_program_and_reject_wrong():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(60), 1)  # many ties
    labels = (rng.random(60) < 0.3).astype(int)
    targets = (0.01, 0.1, 0.5)
    auc = metrics.roc_auc(scores, labels)
    tprs = metrics.tpr_at_fpr(scores, labels, targets)
    assert checks.metrics(scores, labels, auc, tprs, targets) == []
    assert checks.metrics(scores, labels, auc + 1e-3, tprs, targets)
    assert checks.metrics(scores, labels, auc, [tprs[0], tprs[1] + 0.05, tprs[2]], targets)


def test_explanation_covers_distinct_words():
    text = "Verify your account, verify now"
    att = explain.lime_explain(lambda texts: np.full(len(texts), 0.5), text, n_samples=50)
    assert checks.explanation(att.weights, text) == []
    assert checks.explanation({k: v for k, v in list(att.weights.items())[1:]}, text)
    assert checks.explanation({**att.weights, "verify": math.nan}, text)


def test_losses_and_unchanged():
    assert checks.losses([0.7, 0.6]) == []
    assert checks.losses([0.7, math.inf])
    a = {"w": np.zeros(3, np.float32)}
    assert checks.unchanged(["w"], a, {"w": np.zeros(3, np.float32)}) == []
    assert checks.unchanged(["w"], a, {"w": np.array([0, 0, 1e-30], np.float32)})


def test_adam_matches_f64_and_rejects_wrong():
    rng = np.random.default_rng(0)
    p = tensor.Parameter("p", rng.normal(0, 0.02, 5).astype(np.float32))
    start = p.data.astype(np.float64)
    state = tensor.AdamState(lr=1e-3)
    want, m, v = start, np.zeros(5), np.zeros(5)
    for t in (1, 2):
        g = rng.normal(0, 0.01, 5).astype(np.float32)
        p.grad = tensor.Tensor(g)
        tensor.adam_step([p], state)
        want, m, v = ref.adam(want, g, m, v, t, lr=1e-3)
    assert checks.adam_step([p.data], [want]) == []
    assert checks.adam_step([p.data], [ref.adam(start, g, 0, 0, 1, lr=1e-3)[0]])


def test_gradient_matches_central_differences_and_rejects_wrong(tiny):
    m, ids, mask, ctx = tiny
    labels, weights = np.array([0, 1, 1]), np.ones(3, np.float32)
    for p in m.parameters():
        p.grad = None
    with tensor.Tape() as tape:
        loss = train.bce_loss(model.forward_probs(m, ids, mask, ctx), labels, weights)
    tensor.backward(tape, loss)
    params, cfg = _params(m), m.config.to_dict()
    analytic, numeric = [], []
    for name in ("classifier.out.w", "blocks.0.attn.q.w", "blocks.1.dense1.w"):
        g = m.params[name].grad.data.reshape(-1)
        c = int(np.argmax(np.abs(g)))
        f = []
        for delta in (1e-5, -1e-5):
            arr = params[name].astype(np.float64)
            arr.reshape(-1)[c] += delta
            f.append(ref.bce(ref.forward(cfg, {**params, name: arr}, ids, mask, ctx)[0],
                             labels, weights))
        analytic.append((name, float(g[c])))
        numeric.append((f[0] - f[1]) / 2e-5)
    assert checks.gradient(analytic, numeric) == []
    assert checks.gradient([(n, 1.1 * a) for n, a in analytic], numeric)


def test_tracer_spans_nest_and_uninstall_restores(tiny):
    m, ids, mask, ctx = tiny
    orig = (pipeline.forward_probs, tensor.matmul)
    ds = pipeline.EncodedDataset(ids, mask, ctx, np.array([0, 1, 1]), np.ones(3, np.float32),
                                 [None] * 3)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.run("workload", pipeline.score_dataset, m, ds)
    finally:
        tr.uninstall()
    assert (pipeline.forward_probs, tensor.matmul) == orig
    names = [s[0] for s in tr.spans]
    assert names[:3] == ["workload", "pipeline.score_dataset", "model.forward_probs"]
    fwd = names.index("model.forward_probs")
    assert all(tr.spans[i][3] == fwd for i, n in enumerate(names) if n == "tensor.matmul")
    out = tr.metrics(0.0)
    assert set(out) == set(tracing.PER_LAYER)
    assert out["pipeline.token_fill"]["value"] == pytest.approx(mask.sum() / mask.size)
    assert out["tensor.matmul.gflop"]["value"] > 0
    assert out["model.forward_probs.ms"]["value"] >= out["tensor.matmul.ms"]["value"]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(
        __import__("workloads").WORKLOADS)


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "inbox-short",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
