"""Seeded inputs for the benchmark: a 30522-token vocabulary, three email
corpora and a paper-scale scoring checkpoint.

Everything here is a function of the workload seed, and nothing imports
``catbert.synthetic``, so the workloads stay fixed when the test corpus
changes. Words are pseudo-words built from syllables; the vocabulary holds
the frequent ones whole, every syllable as a word-initial and a ``##``
piece, and every letter, digit and ASCII punctuation mark, so every
generated word tokenizes without ``[UNK]`` (homoglyph words excepted, which
are there to produce ``[UNK]``).

Run as a script to write one seed's inputs into a directory:

    python3 perfbench/gen.py --seed 0 --out perfbench/.work/inputs/seed-0
"""

from __future__ import annotations

import argparse
import json
import os
import string
import sys

import numpy as np

VOCAB_SIZE = 30522
HIDDEN, FFN, HEADS, DONOR_BLOCKS = 768, 3072, 12, 6

SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]
PUNCT = [c for c in map(chr, range(33, 127)) if not c.isalnum()]
ONSETS = list("bcdfghjklmnprstvwz") + ["br", "ch", "cl", "dr", "fl", "gr", "pl", "pr",
                                       "sh", "st", "th", "tr"]
NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
CODAS = ["", "n", "r", "s", "t", "l", "m", "nd", "st"]
LEXICON_SIZE = 40000
# Real words that phishing mail leans on; they sit at the top of the lexicon.
LURE_WORDS = ("urgent verify account password invoice wire transfer payment suspended "
              "click login bank gift card confirm security update immediately").split()
HOMOGLYPH = {"a": "а", "e": "е", "o": "о", "p": "р", "c": "с"}

SHORT_SHARDS, SHORT_SHARD_SIZE, SHORT_MALICIOUS, SHORT_HTML = 4, 64, 16, 8
GATEWAY_ROUNDS, GATEWAY_ROUND_SIZE = 10, 20
# Per gateway round of 20 records: 1 blob (5%, well away from the p90 cut),
# 4 HTML bodies, 2 unparseable headers, 14 long bodies and 5 medium ones.
GATEWAY_HTML, GATEWAY_BAD_HEADERS, GATEWAY_LONG = 4, 2, 14
BLOB_CHARS = (500, 1500)
TRAIN_SIZE = VAL_SIZE = 4


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, stream)), len(stream)])


def lexicon(seed: int) -> list[str]:
    """Distinct pseudo-words in frequency-rank order, lure words first."""
    rng = _rng(seed, "lexicon")
    words = list(LURE_WORDS)
    seen = set(words)
    while len(words) < LEXICON_SIZE:
        n = 2 * LEXICON_SIZE
        n_syll = rng.choice([1, 2, 2, 3, 3, 4], size=n)
        parts = (rng.integers(len(ONSETS), size=(n, 4)), rng.integers(len(NUCLEI), size=(n, 4)),
                 rng.integers(len(CODAS), size=(n, 4)))
        for i in range(n):
            w = "".join(ONSETS[parts[0][i, s]] + NUCLEI[parts[1][i, s]] + CODAS[parts[2][i, s]]
                        for s in range(n_syll[i]))
            if w not in seen:
                seen.add(w)
                words.append(w)
                if len(words) == LEXICON_SIZE:
                    break
    return words


def vocabulary(seed: int, words: list[str]) -> list[str]:
    """Exactly VOCAB_SIZE distinct tokens covering every generated word."""
    tokens = SPECIALS + PUNCT + list(string.digits) + ["##" + d for d in string.digits]
    tokens += list(string.ascii_lowercase) + ["##" + c for c in string.ascii_lowercase]
    syllables = sorted({o + n + c for o in ONSETS for n in NUCLEI for c in CODAS})
    tokens += syllables + ["##" + s for s in syllables]
    seen = set(tokens)
    for w in words:
        if len(tokens) == VOCAB_SIZE:
            break
        if w not in seen:
            seen.add(w)
            tokens.append(w)
    if len(tokens) != VOCAB_SIZE:
        raise RuntimeError(f"vocabulary came out at {len(tokens)} tokens")
    return tokens


class _Writer:
    """Draws words, addresses and bodies for one corpus stream."""

    def __init__(self, seed: int, stream: str, words: list[str]):
        self.rng = _rng(seed, stream)
        self.words = words
        ranks = np.arange(len(words), dtype=np.float64)
        cdf = np.cumsum(1.0 / (ranks + 3.0))
        self.cdf = cdf / cdf[-1]
        self.internal = f"corp{seed % 97}.example"
        self.external = ["partner.example", "vendor.example", "mailer.example",
                         f"lookalike{seed % 89}.example"]

    def draw(self, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(n))
        out = [self.words[min(int(i), len(self.words) - 1)] for i in idx]
        # sentence punctuation, amounts and codes, as in real mail
        for j in range(6, n, 11):
            out[j] += "," if self.rng.random() < 0.5 else "."
        for j in self.rng.choice(n, size=max(1, n // 40), replace=False):
            out[int(j)] = str(int(self.rng.integers(10, 100000)))
        return out

    def lure(self, words: list[str], malicious: bool) -> None:
        k = 3 if malicious else 1
        for j in self.rng.choice(len(words), size=min(k, len(words)), replace=False):
            if malicious or self.rng.random() < 0.3:
                words[int(j)] = LURE_WORDS[int(self.rng.integers(len(LURE_WORDS)))]

    def homoglyph(self, words: list[str]) -> None:
        j = int(self.rng.integers(len(words)))
        w = words[j]
        for latin, cyr in HOMOGLYPH.items():
            if latin in w:
                words[j] = w.replace(latin, cyr, 1)
                return

    def addresses(self, malicious: bool, unparseable: bool) -> dict:
        rng = self.rng
        n_to, n_cc = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        to = [f"user{rng.integers(1000)}@{self.internal}" for _ in range(n_to)]
        cc = [f"user{rng.integers(1000)}@{self.internal}" for _ in range(n_cc)]
        external = malicious or rng.random() < 0.4
        dom = self.external[int(rng.integers(len(self.external)))] if external else self.internal
        sender = f"sender{rng.integers(1000)}@{dom}"
        if unparseable:
            kind = int(rng.integers(3))
            if kind == 0:
                sender = "MAILER-DAEMON"
            elif kind == 1:
                sender = f"sender{rng.integers(1000)}@"
            else:
                to = ["undisclosed-recipients:;"]
        return {"from": sender, "to": to, "cc": cc}

    def html(self, words: list[str]) -> str:
        """HTML whose extracted text is exactly ``" ".join(words)``: block
        tags between paragraphs, inline tags padded by spaces, a style and a
        script whose bodies are dropped, '&' written as an entity."""
        paras, j = [], 0
        while j < len(words):
            k = j + int(self.rng.integers(5, 30))
            chunk = [("&amp;" if w == "&" else w) for w in words[j:k]]
            if len(chunk) > 3:
                chunk[1] = f"<b>{chunk[1]}</b>"
                chunk[2] = f'<a href="https://{self.external[0]}/x">{chunk[2]}</a>'
            paras.append("<p>" + " ".join(chunk) + "</p>")
            j = k
        return ("<html><head><style>p { margin: 0 }</style></head><body><div>"
                + "<br>".join(paras)
                + "</div><script>var t = 1;</script></body></html>")

    def record(self, n_subject: int, n_body: int, malicious: bool, html: bool = False,
               unparseable: bool = False, homoglyph: bool = False,
               blob: int = 0) -> tuple[dict, str]:
        """One JSONL record and the plain body text a reader would extract."""
        subject = self.draw(n_subject)
        body = self.draw(n_body)
        self.lure(body, malicious)
        if homoglyph:
            self.homoglyph(body)
        if html:
            body[min(3, len(body) - 1)] = "&"
        if blob:
            letters = self.rng.integers(0, 26, size=blob)
            blob_word = "".join(string.ascii_lowercase[int(c)] for c in letters)
            body.insert(int(self.rng.integers(len(body) + 1)), blob_word)
        rec = {"subject": " ".join(subject), "label": int(malicious),
               **self.addresses(malicious, unparseable)}
        plain = " ".join(body)
        if html:
            rec["body_html"] = self.html(body)
        else:
            rec["body_text"] = plain
        return rec, plain


def short_corpus(seed: int, words: list[str]) -> list[list[tuple[dict, str]]]:
    """Mailbox shards of short mail (~20-40 content tokens), one HTML body
    in eight."""
    w = _Writer(seed, "short", words)
    shards = []
    for _ in range(SHORT_SHARDS):
        labels = np.array([1] * SHORT_MALICIOUS + [0] * (SHORT_SHARD_SIZE - SHORT_MALICIOUS))
        w.rng.shuffle(labels)
        html_at = set(w.rng.permutation(SHORT_SHARD_SIZE)[:SHORT_HTML].tolist())
        shard = [w.record(int(w.rng.integers(3, 7)), int(w.rng.integers(12, 26)),
                          bool(y), html=(i in html_at))
                 for i, y in enumerate(labels)]
        shards.append(shard)
    return shards


def gateway_corpus(seed: int, words: list[str]) -> list[list[tuple[dict, str]]]:
    """Rounds of 20 records with a fixed make-up (see the GATEWAY_* counts);
    which record gets which trait is shuffled per round."""
    w = _Writer(seed, "gateway", words)
    rounds = []
    n = GATEWAY_ROUND_SIZE
    for _ in range(GATEWAY_ROUNDS):
        order = w.rng.permutation(n)
        blob_at = int(order[0])
        html_at = set(order[1:1 + GATEWAY_HTML].tolist())
        bad_at = set(order[1 + GATEWAY_HTML:1 + GATEWAY_HTML + GATEWAY_BAD_HEADERS].tolist())
        long_at = set(w.rng.permutation([i for i in range(n) if i != blob_at])
                      [:GATEWAY_LONG].tolist())
        rnd = []
        for i in range(n):
            if i == blob_at:
                n_body = int(w.rng.integers(150, 400))
            elif i in long_at:
                n_body = int(w.rng.integers(130, 1200))
            else:
                n_body = int(w.rng.integers(30, 100))
            rnd.append(w.record(
                int(w.rng.integers(3, 9)), n_body, malicious=w.rng.random() < 0.25,
                html=i in html_at, unparseable=i in bad_at,
                homoglyph=w.rng.random() < 0.3,
                blob=int(w.rng.integers(*BLOB_CHARS)) if i == blob_at else 0))
        rounds.append(rnd)
    return rounds


def train_corpus(seed: int, words: list[str]) -> tuple[list, list]:
    """Balanced train and validation sets of full-length rows (every row
    truncated at max_len), one HTML body in each."""
    w = _Writer(seed, "train", words)

    def part(n):
        return [w.record(int(w.rng.integers(3, 8)), int(w.rng.integers(140, 300)),
                         malicious=bool(i % 2), html=(i == 2)) for i in range(n)]

    return part(TRAIN_SIZE), part(VAL_SIZE)


def build_checkpoint(seed: int, out_dir: str) -> None:
    """Paper-scale T,A x3 model: layer surgery on a random 6-block donor
    (N(0, 0.02) weights clipped at 2 std, unit gains, zero biases)."""
    from catbert.checkpoint import save_checkpoint
    from catbert.model import CatBertModel, ModelConfig, param_shapes, surgery_from_donor
    from catbert.tensor import Parameter

    cfg = ModelConfig(vocab_size=VOCAB_SIZE, hidden=HIDDEN, ffn_dim=FFN, heads=HEADS,
                      block_plan=("T",) * DONOR_BLOCKS, seed=seed)
    rng = _rng(seed, "donor")
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".gain"):
            arr = np.ones(shape, np.float32)
        elif name.endswith((".b", ".bias")):
            arr = np.zeros(shape, np.float32)
        else:
            arr = rng.standard_normal(shape, dtype=np.float32)
            np.clip(arr, -2.0, 2.0, out=arr)
            arr *= 0.02
        params[name] = Parameter(name, arr)
    model = surgery_from_donor(CatBertModel(cfg, params), context_dim=4, seed=seed)
    del params
    save_checkpoint(model, out_dir)


def _write_jsonl(path: str, items) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec, _ in items:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_inputs(seed: int, out: str) -> None:
    """Write every input for ``seed`` under ``out``; ``out/done`` marks a
    complete set."""
    os.makedirs(out, exist_ok=True)
    words = lexicon(seed)
    with open(os.path.join(out, "vocab.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(vocabulary(seed, words)) + "\n")
    plain = {}
    for i, shard in enumerate(short_corpus(seed, words)):
        _write_jsonl(os.path.join(out, f"short-{i}.jsonl"), shard)
        plain[f"short-{i}"] = [p for _, p in shard]
    for i, rnd in enumerate(gateway_corpus(seed, words)):
        _write_jsonl(os.path.join(out, f"gateway-{i}.jsonl"), rnd)
        plain[f"gateway-{i}"] = [p for _, p in rnd]
    for name, part in zip(("train", "val"), train_corpus(seed, words)):
        _write_jsonl(os.path.join(out, f"{name}.jsonl"), part)
        plain[name] = [p for _, p in part]
    with open(os.path.join(out, "plain.json"), "w", encoding="utf-8") as f:
        json.dump(plain, f, ensure_ascii=False)
    build_checkpoint(seed, os.path.join(out, "model"))
    with open(os.path.join(out, "done"), "w") as f:
        f.write(f"{seed}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True, help="directory holding the catbert package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    write_inputs(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
