"""Independent references for the benchmark's output checks.

Each function here is written from the model and data description, not from
``catbert``'s code, and imports nothing from ``catbert``: an f64 numpy
forward pass, WordPiece whose scan is bounded by the longest vocabulary
token, header context features, weighted BCE, brute-force pairwise AUC, a
threshold sweep for TPR at fixed FPR, an f64 Adam step and a checkpoint
reader.
"""

from __future__ import annotations

import json
import math
import os
import unicodedata

import numpy as np

UNK, CLS, SEP, PAD = "[UNK]", "[CLS]", "[SEP]", "[PAD]"
LONG_WORD = 100  # words longer than this may map to one [UNK] instead of their pieces


# ------------------------------------------------------------- tokenizer

def pre_tokenize(text: str) -> list[str]:
    """Lowercase; split on whitespace; every punctuation or ASCII symbol
    character is a word of its own."""
    words, cur = [], []
    for ch in text.lower():
        o = ord(ch)
        if ch.isspace():
            if cur:
                words.append("".join(cur))
                cur = []
        elif (33 <= o <= 47 or 58 <= o <= 64 or 91 <= o <= 96 or 123 <= o <= 126
              or unicodedata.category(ch)[0] == "P"):
            if cur:
                words.append("".join(cur))
                cur = []
            words.append(ch)
        else:
            cur.append(ch)
    if cur:
        words.append("".join(cur))
    return words


class WordPiece:
    """Greedy longest-match-first; a candidate is never longer than the
    longest vocabulary piece, so a word of n characters costs O(n * longest)."""

    def __init__(self, tokens: list[str]):
        self.ids = {t: i for i, t in enumerate(tokens)}
        self.longest = max(len(t[2:] if t.startswith("##") else t) for t in tokens)

    def word(self, word: str) -> list[str]:
        pieces, start, n = [], 0, len(word)
        while start < n:
            for end in range(min(n, start + self.longest), start, -1):
                cand = word[start:end] if start == 0 else "##" + word[start:end]
                if cand in self.ids:
                    pieces.append(cand)
                    start = end
                    break
            else:
                return [UNK]
        return pieces

    def row(self, text: str) -> list[list[list[int]]]:
        """Per word of ``text``, the accepted id sequences: the exact pieces,
        and for a word over LONG_WORD characters also a single [UNK]."""
        out = []
        for w in pre_tokenize(text):
            exact = [self.ids[p] for p in self.word(w)]
            alts = [exact]
            if len(w) > LONG_WORD and exact != [self.ids[UNK]]:
                alts.append([self.ids[UNK]])
            out.append(alts)
        return out

    def match(self, text: str, ids, max_len: int) -> str | None:
        """None when ``ids`` is a valid head-truncated, [CLS]/[SEP]-framed,
        [PAD]-padded encoding of ``text``; otherwise the first difference."""
        ids = [int(i) for i in ids]
        if len(ids) != max_len:
            return f"row has {len(ids)} ids, expected {max_len}"
        if ids[0] != self.ids[CLS]:
            return "row does not start with [CLS]"
        budget = max_len - 2
        pos = 1
        for k, alts in enumerate(self.row(text)):
            room = budget - (pos - 1)
            if room <= 0:
                break
            for alt in alts:
                take = alt[:room]
                if ids[pos:pos + len(take)] == take:
                    pos += len(take)
                    break
            else:
                return f"word {k} at position {pos}: got {ids[pos:pos + len(alts[0])]}, " \
                       f"expected one of {alts}"
        if ids[pos] != self.ids[SEP]:
            return f"expected [SEP] at position {pos}, got {ids[pos]}"
        if any(i != self.ids[PAD] for i in ids[pos + 1:]):
            return f"non-[PAD] id after [SEP] at position {pos}"
        return None


# ---------------------------------------------------------------- headers

def _domain(addr: str):
    addr = addr.strip()
    local, at, dom = addr.rpartition("@")
    if not at or not local or not dom:
        return None
    return dom.rstrip(".").lower()


def context(from_addr: str, to: list[str], cc: list[str]) -> tuple[np.ndarray, bool]:
    """(internal, external, log1p #to, log1p #cc) and whether the addresses
    parsed. Internal means every recipient shares the sender's domain; mail
    whose sender or recipients do not parse counts as external."""
    sender = _domain(from_addr)
    rcpt = [_domain(a) for a in to]
    parsed = sender is not None and bool(rcpt) and None not in rcpt
    internal = parsed and all(d == sender for d in rcpt)
    vec = np.array([float(internal), float(not internal),
                    math.log1p(len(to)), math.log1p(len(cc))], dtype=np.float32)
    return vec, parsed


# ------------------------------------------------------------------ model

def read_checkpoint(ckpt_dir: str) -> tuple[dict, dict]:
    """(config, {name: read-only f32 array}) straight from the manifest
    offsets into a memory map of the blob."""
    with open(os.path.join(ckpt_dir, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    blob = np.memmap(os.path.join(ckpt_dir, "tensors.bin"), dtype="<f4", mode="r")
    params = {}
    for e in manifest["tensors"]:
        n = int(np.prod(e["shape"], dtype=np.int64))
        lo = e["offset"] // 4
        params[e["name"]] = blob[lo:lo + n].reshape(e["shape"])
    return manifest["config"], params


def _ln(x, gain, bias, eps=1e-12):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def forward(config: dict, params: dict, ids, mask, ctx) -> tuple[np.ndarray, np.ndarray]:
    """f64 (probabilities, CLS hidden state read by the classifier).

    Token plus position embeddings, layer norm; then per block either a
    post-norm transformer (12-head self-attention with padded keys masked
    out, then a tanh-GELU FFN, each followed by residual + layer norm) or a
    residual adapter x + W2 relu(W1 x); the CLS row, concatenated with the
    header context, goes through dense-ReLU-dense-sigmoid."""
    def w(name):
        return np.asarray(params[name], dtype=np.float64)

    ids = np.asarray(ids)
    B, L = ids.shape
    d, heads = config["hidden"], config["heads"]
    dh = d // heads
    x = np.asarray(params["embeddings.token"][ids.reshape(-1)], np.float64).reshape(B, L, d)
    x = _ln(x + w("embeddings.position")[:L], w("embeddings.ln.gain"), w("embeddings.ln.bias"))
    keep = np.asarray(mask).astype(bool)[:, None, None, :]
    cls_t = None
    for i, kind in enumerate(config["block_plan"]):
        p = f"blocks.{i}."
        if kind == "transformer":
            q, k, v = (
                (x @ w(p + f"attn.{n}.w") + w(p + f"attn.{n}.b"))
                .reshape(B, L, heads, dh).transpose(0, 2, 1, 3) for n in "qkv")
            s = np.where(keep, q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh), -np.inf)
            a = np.exp(s - s.max(-1, keepdims=True))
            a /= a.sum(-1, keepdims=True)
            mixed = (a @ v).transpose(0, 2, 1, 3).reshape(B, L, d)
            x = _ln(x + mixed @ w(p + "attn.o.w") + w(p + "attn.o.b"),
                    w(p + "attn.ln.gain"), w(p + "attn.ln.bias"))
            h = _gelu(x @ w(p + "ffn.w1") + w(p + "ffn.b1"))
            x = _ln(x + h @ w(p + "ffn.w2") + w(p + "ffn.b2"),
                    w(p + "ffn.ln.gain"), w(p + "ffn.ln.bias"))
            cls_t = x[:, 0]
        else:
            h = np.maximum(x @ w(p + "dense1.w") + w(p + "dense1.b"), 0.0)
            x = x + h @ w(p + "dense2.w") + w(p + "dense2.b")
    cls = cls_t if config.get("cls_from") == "last_transformer" else x[:, 0]
    feats = cls
    if config.get("context_dim"):
        feats = np.concatenate([cls, np.asarray(ctx, np.float64)], axis=1)
    fused = np.maximum(feats @ w("classifier.fusion.w") + w("classifier.fusion.b"), 0.0)
    logit = (fused @ w("classifier.out.w") + w("classifier.out.b"))[:, 0]
    return 1.0 / (1.0 + np.exp(-logit)), cls


def bce(probs, labels, weights) -> float:
    """Weighted binary cross-entropy, probabilities clamped to [1e-7, 1-1e-7]."""
    f = np.clip(np.asarray(probs, np.float64), 1e-7, 1.0 - 1e-7)
    y = np.asarray(labels, np.float64)
    return float(np.mean(-np.asarray(weights, np.float64)
                         * (y * np.log(f) + (1.0 - y) * np.log(1.0 - f))))


def adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One f64 Adam step with bias correction; returns (p, m, v)."""
    p, g, m, v = (np.asarray(a, np.float64) for a in (p, g, m, v))
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    step = lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    return p - step, m, v


# ---------------------------------------------------------------- metrics

def auc(scores, labels) -> float:
    """P(positive scores above negative), ties half, over every pair."""
    s = np.asarray(scores, np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1][:, None], s[y == 0][None, :]
    return float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size))


def tpr_at_fpr(scores, labels, targets) -> list[float]:
    """For each target, the best TPR over every threshold t (rule: score >=
    t), t = +inf included, whose FPR does not exceed the target."""
    s = np.asarray(scores, np.float64)
    y = np.asarray(labels)
    n_pos, n_neg = int((y == 1).sum()), int((y == 0).sum())
    points = [(0.0, 0.0)]
    for t in np.unique(s):
        hit = s >= t
        points.append((float((hit & (y == 0)).sum()) / n_neg,
                       float((hit & (y == 1)).sum()) / n_pos))
    return [max(tpr for fpr, tpr in points if fpr <= target) for target in targets]
