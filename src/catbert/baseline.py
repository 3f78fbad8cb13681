"""TF-IDF logistic regression baseline over word uni/bi-grams.

tf is the raw in-document count, idf = ln((1+N)/(1+df)) + 1, rows are
L2-normalized, and the linear model is fit by full-batch gradient descent on
the same weighted BCE the main model trains with. Terms unseen in training
contribute nothing at inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import stable_sigmoid
from .tokenizer import pre_tokenize


EPOCHS = 1500
LEARNING_RATE = 5.0


def ngrams(text: str) -> list[str]:
    """Word unigrams, then bigrams, in text order."""
    words = pre_tokenize(text)
    return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


@dataclass
class TfidfLrModel:
    vocab: dict[str, int]        # ngram -> feature column
    idf: np.ndarray              # (F,)
    w: np.ndarray                # (F,)
    b: float


def _sparse_rows(texts, vocab):
    """(doc_idx, col_idx, value) triplets of L2-normalized tf-idf rows."""
    doc_idx: list[int] = []
    col_idx: list[int] = []
    vals: list[float] = []
    for i, text in enumerate(texts):
        counts: dict[int, float] = {}
        for g in ngrams(text):
            j = vocab.get(g)
            if j is not None:
                counts[j] = counts.get(j, 0.0) + 1.0
        if not counts:
            continue
        for j, c in counts.items():
            doc_idx.append(i)
            col_idx.append(j)
            vals.append(c)
    return (np.asarray(doc_idx, dtype=np.int64), np.asarray(col_idx, dtype=np.int64),
            np.asarray(vals, dtype=np.float64))


def _tfidf(doc_idx, col_idx, vals, idf, n_docs):
    vals = vals * idf[col_idx]
    norms = np.sqrt(np.bincount(doc_idx, weights=vals * vals, minlength=n_docs))
    norms[norms == 0] = 1.0
    return vals / norms[doc_idx]


def _scores(doc_idx, col_idx, vals, w, b, n_docs):
    return np.bincount(doc_idx, weights=vals * w[col_idx], minlength=n_docs) + b


def train_tfidf_lr(texts: list[str], labels, weights=None) -> TfidfLrModel:
    """Fit the baseline. Deterministic: term weights start at zero, the
    intercept at the class-prior log odds, and the data order fixes
    everything else."""
    if not texts:
        raise ValueError("empty training set")
    labels = np.asarray(labels, dtype=np.float64)
    if len(texts) != len(labels):
        raise ValueError(f"{len(texts)} texts but {len(labels)} labels")
    sw = np.ones(len(texts)) if weights is None else np.asarray(weights, dtype=np.float64)

    df: dict[str, int] = {}
    for text in texts:
        for g in set(ngrams(text)):
            df[g] = df.get(g, 0) + 1
    vocab = {g: j for j, g in enumerate(sorted(df))}
    n, F = len(texts), len(vocab)
    idf = np.empty(F, dtype=np.float64)
    for g, j in vocab.items():
        idf[j] = np.log((1.0 + n) / (1.0 + df[g])) + 1.0

    doc_idx, col_idx, vals = _sparse_rows(texts, vocab)
    vals = _tfidf(doc_idx, col_idx, vals, idf, n)
    w = np.zeros(F, dtype=np.float64)
    prior = min(max(float((sw * labels).sum() / sw.sum()), 1e-7), 1.0 - 1e-7)
    b = float(np.log(prior / (1.0 - prior)))
    for _ in range(EPOCHS):
        p = stable_sigmoid(_scores(doc_idx, col_idx, vals, w, b, n))
        err = sw * (p - labels) / n  # d(mean w_i * bce_i)/d logit_i
        w -= LEARNING_RATE * np.bincount(col_idx, weights=err[doc_idx] * vals, minlength=F)
        b -= LEARNING_RATE * float(err.sum())
    return TfidfLrModel(vocab=vocab, idf=idf, w=w, b=b)


def predict_tfidf_lr(model: TfidfLrModel, texts: list[str]) -> np.ndarray:
    doc_idx, col_idx, vals = _sparse_rows(texts, model.vocab)
    vals = _tfidf(doc_idx, col_idx, vals, model.idf, len(texts))
    return stable_sigmoid(_scores(doc_idx, col_idx, vals, model.w, model.b, len(texts)))


def make_lr_scorer(model: TfidfLrModel):
    """Scorer closure matching the (texts, records) attack interface; the
    baseline has no context inputs, so records are ignored."""

    def scorer(texts, records):
        return predict_tfidf_lr(model, texts)

    return scorer
