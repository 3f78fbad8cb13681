"""Acceptance gate: ten end-to-end checks of the shipped behavior.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py -s``
to see them all) and asserts the same condition. Together they cover
parameter accounting, inference speedup from halving the transformer depth,
gradient fidelity against finite differences, end-to-end learning with the
header-context ablation, metric oracles, layer-surgery equivalence, the
freeze contract, robustness to text attacks relative to a TF-IDF baseline,
explanation sanity, and byte-level artifact determinism.
"""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from catbert.attacks import AttackSpec, accuracy_under_attack
from catbert.baseline import make_lr_scorer, train_tfidf_lr
from catbert.cli import main as cli_main
from catbert.explain import explain_record, lime_explain
from catbert.mail import build_content, save_dataset
from catbert.metrics import DEFAULT_FPRS, roc_auc, time_inference, tpr_at_fpr
from catbert.model import (CatBertModel, ModelConfig, count_params,
                           forward_probs, init_random, millions,
                           surgery_from_donor)
from catbert.pipeline import encode_records, make_model_scorer, score_dataset
from catbert.synthetic import (PLANTED, SYNONYM_TABLE, make_corpus,
                               synthetic_vocab)
from catbert.tensor import Parameter
from catbert.tokenizer import Vocabulary, save_vocab
from catbert.train import TrainConfig, bce_loss, split_by_time, train

from oracles import astype, grad_check, spearman

SEEDS = (0, 1, 2, 3, 4)

# small enough to train in seconds, large enough to separate the classes
TINY = dict(vocab_size=100, hidden=32, ffn_dim=64, heads=2, max_positions=32,
            block_plan=("T", "A"))
TINY_TRAIN = dict(epochs=5, batch_size=32, learning_rate=1e-3)

FULL_SCALE = dict(vocab_size=119547, hidden=768, ffn_dim=3072, heads=12,
                   max_positions=512)


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _encode(records, vocab):
    return encode_records(records, vocab, max_len=32)


@pytest.fixture(scope="module")
def base_runs():
    """Five seeds of the planted-token experiment, shared by the learning,
    robustness, and explanation checks."""
    vocab = Vocabulary(synthetic_vocab())
    runs = []
    for seed in SEEDS:
        records = make_corpus(n=2000, malicious_frac=0.1, seed=seed)
        tr, va, te = split_by_time(records)
        model = init_random(ModelConfig(**TINY), seed=seed)
        history = train(model, _encode(tr, vocab),
                        TrainConfig(seed=seed, **TINY_TRAIN),
                        val_set=_encode(va, vocab))
        runs.append(SimpleNamespace(seed=seed, vocab=vocab, model=model,
                                    history=history, train_records=tr,
                                    test_records=te))
    return runs


def test_01_parameter_accounting():
    comp = count_params(ModelConfig(**FULL_SCALE, block_plan=("T", "A") * 3))
    donor = count_params(ModelConfig(**FULL_SCALE, block_plan=("T",) * 6,
                                     context_dim=0))
    got = (millions(comp.embedding), millions(comp.non_embedding),
           millions(comp.total), millions(donor.non_embedding),
           millions(donor.total))
    ok = got == (92, 25, 117, 43, 135)
    _check("01 parameter accounting", ok,
           f"compressed {got[0]}M emb / {got[1]}M non-emb / {got[2]}M total, "
           f"donor {got[3]}M non-emb / {got[4]}M total "
           f"(want 92/25/117 and 43/135)")


def test_02_inference_speedup():
    # vocabulary size only affects the embedding table, not per-token
    # compute, so a small one keeps model construction out of the budget
    common = dict(vocab_size=4096, hidden=768, ffn_dim=3072, heads=12,
                  max_positions=512, context_dim=4)
    donor = init_random(ModelConfig(block_plan=("T",) * 6, **common), seed=0)
    half = init_random(ModelConfig(block_plan=("T", "A") * 3, **common), seed=0)
    kw = dict(batch_size=1, repetitions=20, seed=0)  # rows of 128 tokens
    d = time_inference(donor, **kw)
    c = time_inference(half, **kw)
    ratio = d["p50_ms"] / c["p50_ms"]
    _check("02 inference speedup", ratio >= 1.3,
           f"donor p50 {d['p50_ms']:.1f} ms vs compressed {c['p50_ms']:.1f} ms "
           f"-> {ratio:.2f}x (need >= 1.3x)")


def test_03_gradient_fidelity():
    cfg = ModelConfig(vocab_size=100, hidden=8, ffn_dim=16, heads=2,
                      max_positions=8, block_plan=("T", "A"))
    model32 = init_random(cfg, seed=0)
    # probe input chosen so no sampled coordinate sits on a relu kink or in
    # the |grad| ~ 1e-8 regime where finite differences have an
    # eps-independent error floor
    rng = np.random.default_rng(9)
    ids = rng.integers(0, 100, (4, 8))
    mask = np.ones((4, 8), dtype=np.int64)
    ctx32 = rng.random((4, 4)).astype(np.float32)
    y = rng.integers(0, 2, 4).astype(np.float64)
    w = np.ones(4)

    def loss_fn(model, ctx):
        return lambda: bce_loss(forward_probs(model, ids, mask, ctx), y, w)

    err32 = grad_check(loss_fn(model32, ctx32), model32.parameters(),
                       eps=1e-3, samples_per_param=8, seed=0)
    model64 = astype(model32, np.float64)
    # smaller step: the f64 bar is tight enough that truncation error from
    # layer-norm curvature dominates at eps=1e-3
    err64 = grad_check(loss_fn(model64, ctx32.astype(np.float64)),
                       model64.parameters(), eps=3e-4,
                       samples_per_param=8, seed=0)
    ok = err32 < 1e-2 and err64 < 1e-4
    _check("03 gradient fidelity", ok,
           f"max rel err f32 {err32:.2e} (< 1e-2), f64 {err64:.2e} (< 1e-4)")


def test_04_end_to_end_learning(base_runs):
    aucs = [r.history.best_val_auc for r in base_runs]
    mean_auc = float(np.mean(aucs))

    # ablation on the context-dependent variant: text alone cannot separate
    # the classes, so zeroing the header features must cost real AUC
    vocab = base_runs[0].vocab

    def zeroed(ds):
        out = copy.deepcopy(ds)
        out.ctx[:] = 0.0
        return out

    gaps = []
    for seed in SEEDS:
        records = make_corpus(n=2000, malicious_frac=0.1, seed=seed,
                              context_dependent=True)
        tr, va, te = split_by_time(records)
        tr_e, va_e, te_e = (_encode(rs, vocab) for rs in (tr, va, te))
        tcfg = TrainConfig(seed=seed, **TINY_TRAIN)

        full = init_random(ModelConfig(**TINY), seed=seed)
        train(full, tr_e, tcfg, val_set=va_e)
        auc_full = roc_auc(score_dataset(full, te_e), te_e.labels)

        blind = init_random(ModelConfig(**TINY), seed=seed)
        train(blind, zeroed(tr_e), tcfg, val_set=zeroed(va_e))
        auc_blind = roc_auc(score_dataset(blind, zeroed(te_e)), te_e.labels)
        gaps.append(auc_full - auc_blind)
    mean_gap = float(np.mean(gaps))

    ok = mean_auc >= 0.95 and mean_gap >= 0.05
    _check("04 end-to-end learning", ok,
           f"mean val AUC {mean_auc:.4f} (>= 0.95), "
           f"context ablation gap {mean_gap:+.4f} (>= +0.05)")


def _pairwise_auc(scores, labels):
    # quadratic oracle: P(pos > neg) + 0.5 P(pos == neg)
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else 0.5 if p == q else 0.0
    return total / (len(pos) * len(neg))


def _sweep_tpr_at_fpr(scores, labels, target):
    # exhaustive threshold oracle: largest achievable fpr <= target wins,
    # ties broken toward the larger tpr
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = (labels == 1).sum()
    n_neg = (labels == 0).sum()
    best = (-1.0, 0.0)
    for th in list(scores) + [np.inf]:
        pred = scores >= th
        fpr = (pred & (labels == 0)).sum() / n_neg
        tpr = (pred & (labels == 1)).sum() / n_pos
        if fpr <= target and (fpr, tpr) > best:
            best = (fpr, tpr)
    return best[1]


def test_05_metric_oracles():
    rng = np.random.default_rng(123)
    worst_auc = 0.0
    tpr_mismatches = 0
    for case in range(100):
        n = int(rng.integers(20, 200))
        if case % 2:
            scores = rng.random(n)
        else:
            scores = rng.integers(0, 12, n) / 11.0  # heavy ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst_auc = max(worst_auc,
                        abs(roc_auc(scores, labels) - _pairwise_auc(scores, labels)))
        got = tpr_at_fpr(scores, labels, DEFAULT_FPRS)
        want = [_sweep_tpr_at_fpr(scores, labels, t) for t in DEFAULT_FPRS]
        tpr_mismatches += sum(g != w for g, w in zip(got, want))
    ok = worst_auc < 1e-12 and tpr_mismatches == 0
    _check("05 metric oracles", ok,
           f"AUC worst |diff| {worst_auc:.2e} (< 1e-12) over 100 score sets, "
           f"{tpr_mismatches} TPR-at-FPR mismatches vs exhaustive sweep")


def test_06_surgery_equivalence():
    donor_cfg = ModelConfig(vocab_size=100, hidden=32, ffn_dim=64, heads=2,
                            max_positions=16, block_plan=("T",) * 6,
                            context_dim=0)
    donor = init_random(donor_cfg, seed=11)
    comp = surgery_from_donor(donor, keep=[0, 2, 4], context_dim=4, seed=7)

    copied_ok = all(
        np.array_equal(comp.params[name].data,
                       donor.params[prov.split(":", 1)[1]].data)
        for name, prov in comp.provenance.items() if prov.startswith("copied:")
    )
    n_copied = sum(p.startswith("copied") for p in comp.provenance.values())
    fresh_cls = all(comp.provenance[n] == "fresh" for n in comp.params
                    if n.startswith("classifier."))

    # zero every adapter's second dense: each adapter becomes the identity,
    # so the model must match the three kept transformers run back to back
    for i in (1, 3, 5):
        comp.params[f"blocks.{i}.dense2.w"].data[:] = 0.0
        comp.params[f"blocks.{i}.dense2.b"].data[:] = 0.0
    twin_cfg = ModelConfig(vocab_size=100, hidden=32, ffn_dim=64, heads=2,
                           max_positions=16, block_plan=("T",) * 3,
                           context_dim=4)
    twin_params = {}
    for name, p in comp.params.items():
        if name.startswith("blocks."):
            pos = int(name.split(".")[1])
            if pos % 2:
                continue
            tgt = name.replace(f"blocks.{pos}.", f"blocks.{pos // 2}.", 1)
        else:
            tgt = name
        twin_params[tgt] = Parameter(tgt, p.data.copy())
    twin = CatBertModel(twin_cfg, twin_params)

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        ids = rng.integers(0, 100, (3, 16))
        mask = np.ones((3, 16), dtype=np.int64)
        mask[1, 10:] = 0
        ctx = rng.random((3, 4)).astype(np.float32)
        a = forward_probs(comp, ids, mask, ctx).data
        b = forward_probs(twin, ids, mask, ctx).data
        worst = max(worst, float(np.abs(a - b).max()))

    ok = copied_ok and fresh_cls and worst <= 1e-6
    _check("06 surgery equivalence", ok,
           f"{n_copied} copied tensors bit-equal: {copied_ok}, classifier "
           f"fresh: {fresh_cls}, max |forward diff| {worst:.1e} (<= 1e-6) "
           f"over 10 inputs")


def test_07_freeze_contract():
    vocab = Vocabulary(synthetic_vocab())
    records = make_corpus(n=600, malicious_frac=0.1, seed=0)
    cfg = ModelConfig(**{**TINY, "block_plan": ("T", "A", "T", "A")})
    model = init_random(cfg, seed=0)
    before = {n: p.data.copy() for n, p in model.params.items()}
    train(model, _encode(records, vocab),
          TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3, seed=0,
                      freeze="partial-finetune"))
    frozen = ("embeddings.", "blocks.0.")
    # nothing reads the last transformer's key bias (the [CLS] attention
    # drops q·b_k, which the softmax ignores): its gradient is exactly zero,
    # so Adam must leave it bit-identical, though it is trainable
    unread = "blocks.2.attn.k.b"
    kept, moved = [], []
    for name, p in model.params.items():
        if name != unread:
            (kept if name.startswith(frozen) else moved).append(
                np.array_equal(before[name], p.data))
    unread_kept = model.params[unread].trainable and np.array_equal(
        before[unread], model.params[unread].data)
    ok = all(kept) and not any(moved) and unread_kept
    _check("07 freeze contract", ok,
           f"{len(kept)} frozen tensors bit-identical after 3 epochs: "
           f"{all(kept)}, all {len(moved)} other trainable tensors updated: "
           f"{not any(moved)}, trainable {unread} (never read) bit-identical: "
           f"{unread_kept}")


def test_08_attack_robustness(base_runs):
    drops = {"synonym": {"model": [], "baseline": []},
             "typo": {"model": [], "baseline": []}}
    for run in base_runs:
        lr = train_tfidf_lr([build_content(r) for r in run.train_records],
                            [r.label for r in run.train_records])
        scorers = {"model": make_model_scorer(run.model, run.vocab, max_len=32),
                   "baseline": make_lr_scorer(lr)}
        for kind in drops:
            spec = AttackSpec(kind=kind, rate=0.5, seed=run.seed,
                              synonyms=SYNONYM_TABLE if kind == "synonym" else {})
            for name, scorer in scorers.items():
                report = accuracy_under_attack(scorer, run.test_records, spec)
                drops[kind][name].append(report["delta"])
    means = {kind: {name: float(np.mean(vals)) for name, vals in row.items()}
             for kind, row in drops.items()}
    ok = all(means[k]["model"] < means[k]["baseline"] for k in means)
    _check("08 attack robustness", ok,
           "mean accuracy drop (model vs tf-idf LR): "
           f"synonym {means['synonym']['model']:.4f} < "
           f"{means['synonym']['baseline']:.4f}, "
           f"typo {means['typo']['model']:.4f} < {means['typo']['baseline']:.4f}")


def test_09_explainer_sanity(base_runs):
    hits = 0
    for run in base_runs:
        target = next(r for r in run.test_records if r.label == 1)
        attr = explain_record(run.model, run.vocab, target, n_samples=1000,
                              seed=run.seed, max_len=32)
        hits += PLANTED in [w for w, _ in attr.top_positive[:3]]

    words = ["alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "hotel"]
    rhos = []
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        true_w = rng.normal(0.0, 1.5, len(words))

        def score_fn(texts, true_w=true_w):
            out = np.empty(len(texts))
            for i, t in enumerate(texts):
                present = set(t.split())
                out[i] = 0.3 + sum(w for w, word in zip(true_w, words)
                                   if word in present)
            return out

        attr = lime_explain(score_fn, " ".join(words), n_samples=1500, seed=k)
        rhos.append(spearman(true_w, [attr.weights[w] for w in words]))

    ok = hits >= 4 and min(rhos) >= 0.9
    _check("09 explainer sanity", ok,
           f"planted token in top-3 positive weights in {hits}/5 seeds "
           f"(need >= 4); linear-oracle Spearman min {min(rhos):.3f} over "
           f"20 oracles (need >= 0.9)")


def _strip_volatile(obj):
    """Drop timing and path fields so manifests from two runs can be compared."""
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in ("timing", "path")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def test_10_artifact_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    vocab = tmp_path / "vocab.txt"
    config = tmp_path / "config.json"
    save_dataset(make_corpus(n=300, malicious_frac=0.3, seed=0), corpus)
    save_vocab(synthetic_vocab(), vocab)
    config.write_text(json.dumps({
        "model": {"hidden": 16, "ffn_dim": 32, "heads": 2, "max_positions": 16,
                  "block_plan": ["T", "A"]},
        "train": {"epochs": 2, "batch_size": 32, "learning_rate": 1e-3},
        "max_len": 16,
    }))

    outs = {}
    for tag in ("a", "b"):
        run = tmp_path / f"run_{tag}"
        assert cli_main(["train", "--train", str(corpus), "--vocab", str(vocab),
                         "--config", str(config), "--out-dir", str(run),
                         "--seed", "5"]) == 0
        metrics = tmp_path / f"metrics_{tag}.json"
        assert cli_main(["eval", "--model", str(run / "best"), "--in", str(corpus),
                         "--vocab", str(vocab),
                         "--out", str(metrics)]) == 0
        report = tmp_path / f"attack_{tag}.json"
        assert cli_main(["attack", "--model", str(run / "best"), "--in", str(corpus),
                         "--vocab", str(vocab),
                         "--kind", "typo", "--rate", "0.5", "--seed", "7",
                         "--out", str(report)]) == 0
        outs[tag] = {
            "weights": (run / "best" / "tensors.bin").read_bytes(),
            "ckpt_manifest": (run / "best" / "manifest.json").read_bytes(),
            "history": (run / "history.json").read_bytes(),
            "metrics": metrics.read_bytes(),
            "attack": report.read_bytes(),
            "run_manifest": _strip_volatile(
                json.loads((run / "run_manifest.json").read_text())),
        }

    same = {key: outs["a"][key] == outs["b"][key] for key in outs["a"]}
    ok = all(same.values())
    _check("10 artifact determinism", ok,
           "same-seed re-runs byte-identical: " +
           ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in same.items()))
