#!/usr/bin/env python3
"""End-to-end synthetic experiment: train, evaluate, ablate, attack, explain.

Generates the corpus in memory, trains the transformer+adapter model and
schedule of a config file on a time-ordered split, then reports its test
AUC, the test AUC of a context-free twin (the same config at
``context_dim`` 0, trained on the same split, schedule and seed), the score
of a TF-IDF logistic-regression baseline, accuracy under synonym and typo
attacks for both models, and the top attribution words for one malicious
test email. The config file is the
``{model, train}`` file that ``catbert train`` reads; without one the script
runs ``DEMO``, README's ``demo.json``.

Runs in a few minutes on one CPU at the default sizes.
"""

import argparse
import os
import sys
from dataclasses import asdict, replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from catbert.atomic import json_text, read_json_object, replacing
from catbert.attacks import AttackSpec, accuracy_under_attack
from catbert.baseline import make_lr_scorer, predict_tfidf_lr, train_tfidf_lr
from catbert.explain import explain_record
from catbert.mail import build_content
from catbert.metrics import roc_auc, tpr_at_fpr
from catbert.model import ModelConfig, config_keys, count_params, init_random, row_width
from catbert.pipeline import encode_records, make_model_scorer, score_dataset
from catbert.synthetic import SYNONYM_TABLE, make_corpus, synthetic_vocab
from catbert.tokenizer import Vocabulary
from catbert.train import TrainConfig, split_by_time, train

DEMO = {"model": {"hidden": 32, "ffn_dim": 64, "heads": 2, "max_positions": 32,
                  "block_plan": ["T", "A"]},
        "train": {"epochs": 5, "batch_size": 32, "learning_rate": 1e-3}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the corpus, the model and the schedule, over the config's")
    ap.add_argument("--config", help="JSON config: {model: {...}, train: {...}}; the model's "
                                     "vocab_size is the synthetic vocabulary's")
    ap.add_argument("--context-dependent", action="store_true")
    ap.add_argument("--out", help="write the report as JSON here too")
    args = ap.parse_args()

    vocab = Vocabulary(synthetic_vocab())
    try:
        config = config_keys(read_json_object(args.config) if args.config else DEMO,
                             "config", ("model", "train"))
        cfg = ModelConfig.from_dict({**config.get("model", {}), "vocab_size": len(vocab),
                                     "seed": args.seed})
        tcfg = TrainConfig.from_dict({**config.get("train", {}), "seed": args.seed})
        width = row_width(cfg)
    except (OSError, ValueError) as e:
        ap.error(f"bad config {args.config}: {e}")

    records = make_corpus(n=args.n, malicious_frac=0.1, seed=args.seed,
                          context_dependent=args.context_dependent)
    tr, va, te = split_by_time(records)
    print(f"split: {len(tr)} train / {len(va)} val / {len(te)} test")

    print(f"model: {count_params(cfg).total} parameters, rows of {width} tokens")
    enc = lambda rs: encode_records(rs, vocab, max_len=width)
    train_set, val_set, test_set = enc(tr), enc(va), enc(te)
    model = init_random(cfg)
    history = train(model, train_set, tcfg, val_set=val_set)
    print(f"best val AUC {history.best_val_auc:.4f} at epoch {history.best_epoch}")

    report = {"n": args.n, "seed": args.seed, "config": {"model": cfg.to_dict(),
                                                         "train": asdict(tcfg)},
              "context_dependent": args.context_dependent,
              "best_val_auc": history.best_val_auc}

    scores = score_dataset(model, test_set)
    report["test_auc"] = roc_auc(scores, test_set.labels)
    report["test_tpr_at_1pct_fpr"] = tpr_at_fpr(scores, test_set.labels, [0.01])[0]
    twin = init_random(replace(cfg, context_dim=0))
    train(twin, train_set, tcfg, val_set=val_set)
    report["test_auc_context_free"] = roc_auc(score_dataset(twin, test_set), test_set.labels)
    print(f"test AUC {report['test_auc']:.4f} "
          f"(context-free twin: {report['test_auc_context_free']:.4f})")

    lr = train_tfidf_lr([build_content(r) for r in tr], [r.label for r in tr])
    lr_scores = predict_tfidf_lr(lr, [build_content(r) for r in te])
    report["baseline_auc"] = roc_auc(lr_scores, test_set.labels)
    print(f"tf-idf LR baseline AUC {report['baseline_auc']:.4f}")

    model_scorer = make_model_scorer(model, vocab)
    lr_scorer = make_lr_scorer(lr)
    report["attacks"] = {}
    for kind in ("synonym", "typo"):
        spec = AttackSpec(kind=kind, rate=0.5, seed=args.seed,
                          synonyms=SYNONYM_TABLE if kind == "synonym" else {})
        row = {}
        for name, scorer in (("model", model_scorer), ("baseline", lr_scorer)):
            r = accuracy_under_attack(scorer, te, spec)
            row[name] = {"clean": r["clean_acc"], "attacked": r["attacked_acc"],
                         "drop": r["delta"]}
        report["attacks"][kind] = row
        print(f"{kind} attack drop: model {row['model']['drop']:+.3f}, "
              f"baseline {row['baseline']['drop']:+.3f}")

    mal = [r for r in te if r.label == 1]
    if mal:
        attr = explain_record(model, vocab, mal[0], n_samples=500, seed=args.seed)
        report["explanation"] = {"top_positive": attr.top_positive[:5],
                                 "r2": attr.r2}
        print("top words for one malicious email:",
              [w for w, _ in attr.top_positive[:5]])

    if args.out:
        with replacing(args.out) as f:
            f.write(json_text(report))
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
