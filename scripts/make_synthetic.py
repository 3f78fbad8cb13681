#!/usr/bin/env python3
"""Generate a synthetic email corpus plus its vocabulary and synonym table.

The corpus plants a single suspicious token in malicious messages; the
context-dependent variant plants it three times as often but labels only
externally-sent copies malicious, which caps text-only detectors well below
a context-aware model. Output: corpus.jsonl, vocab.txt, synonyms.json.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from catbert.atomic import json_text, replacing
from catbert.mail import save_dataset
from catbert.synthetic import SYNONYM_TABLE, make_corpus, synthetic_vocab
from catbert.tokenizer import save_vocab


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data/synthetic")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--malicious-frac", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--context-dependent", action="store_true",
                    help="labels need header context, text alone saturates")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    records = make_corpus(n=args.n, malicious_frac=args.malicious_frac,
                          seed=args.seed, context_dependent=args.context_dependent)
    save_dataset(records, os.path.join(args.out_dir, "corpus.jsonl"))
    save_vocab(synthetic_vocab(), os.path.join(args.out_dir, "vocab.txt"))
    with replacing(os.path.join(args.out_dir, "synonyms.json")) as f:
        f.write(json_text(SYNONYM_TABLE))

    n_mal = sum(r.label for r in records)
    print(f"wrote {len(records)} records ({n_mal} malicious) to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
