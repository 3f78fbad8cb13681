"""Local linear explanations of single predictions, LIME style.

Neighborhood samples drop each content word independently with probability
1/2 (LIME's text perturbation, arXiv 1602.04938) and the model scores every
variant. A ridge regression over the word-presence vectors, each sample
weighted by LIME's kernel exp(-D²/sigma²) with sigma = 0.75·sqrt(words),
yields per-word weights. D² is the squared Euclidean distance of a sample's
0/1 presence vector from the full text's, which is its number of dropped
words. Weights for repeated words are summed per word string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mail import build_content
from .pipeline import make_model_scorer
from .tokenizer import pre_tokenize

RIDGE_LAMBDA = 1e-3
TOP_K = 10  # words listed in top_positive and in top_negative
MIN_SAMPLES = 50  # fewest neighbourhood samples the surrogate is fit on


@dataclass
class Attribution:
    weights: dict[str, float]
    intercept: float
    r2: float
    sigma: float
    n_samples: int
    top_positive: list[tuple[str, float]]
    top_negative: list[tuple[str, float]]


def lime_explain(score_fn, text: str, n_samples: int = 1000, seed: int = 0) -> Attribution:
    """Fit the local surrogate around ``text``, weighting a sample with
    d dropped words by exp(-d / sigma²).

    ``score_fn(texts) -> probs`` scores a batch of variants with words
    dropped; context features, if the caller has any, must be closed over
    (dropping words never touches them). Before it scores a variant, it
    refuses fewer than ``MIN_SAMPLES`` samples, and no more samples than the
    fit has coefficients (a weight per word and the intercept).
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_SAMPLES}, got {n_samples}")
    words = pre_tokenize(text)
    n = len(words)
    if n == 0:
        raise ValueError("cannot explain empty content")
    if n_samples <= n + 1:
        raise ValueError(f"n_samples {n_samples} cannot fit {n} word weights and an "
                         f"intercept: need n_samples >= {n + 2}")
    sigma = 0.75 * math.sqrt(n)
    rng = np.random.default_rng(seed)

    Z = (rng.random((n_samples, n)) < 0.5).astype(np.float64)  # 1 = word kept
    texts = [" ".join(w for w, keep in zip(words, row) if keep) for row in Z.astype(bool)]
    y = np.asarray(score_fn(texts), dtype=np.float64)
    if y.shape != (n_samples,):
        raise ValueError(f"score_fn returned shape {y.shape}, expected ({n_samples},)")

    hamming = n - Z.sum(axis=1)
    kw = np.exp(-hamming / sigma ** 2)  # hamming is D², the squared distance

    # weighted ridge with unpenalized intercept
    X = np.concatenate([np.ones((n_samples, 1)), Z], axis=1)
    XtW = X.T * kw
    A = XtW @ X
    A[1:, 1:] += RIDGE_LAMBDA * np.eye(n)
    beta = np.linalg.solve(A, XtW @ y)
    intercept, coef = float(beta[0]), beta[1:]

    pred = X @ beta
    w_mean = float((kw * y).sum() / kw.sum())
    ss_res = float((kw * (y - pred) ** 2).sum())
    ss_tot = float((kw * (y - w_mean) ** 2).sum())
    r2 = 1.0 if ss_tot < 1e-18 else 1.0 - ss_res / ss_tot

    weights: dict[str, float] = {}
    for word, c in zip(words, coef):
        weights[word] = weights.get(word, 0.0) + float(c)
    ordered = sorted(weights.items(), key=lambda kv: kv[1], reverse=True)
    top_positive = [(t, w) for t, w in ordered[:TOP_K] if w > 0]
    top_negative = [(t, w) for t, w in ordered[::-1][:TOP_K] if w < 0]
    return Attribution(weights=weights, intercept=intercept, r2=r2, sigma=sigma,
                       n_samples=n_samples, top_positive=top_positive,
                       top_negative=top_negative)


def explain_record(model, vocab, record, n_samples: int = 1000, seed: int = 0,
                   max_len: int | None = None) -> Attribution:
    """Explain one email's score, on rows of ``max_len`` tokens (by default
    the model's ``row_width``). The record's context features are held
    fixed across the whole neighborhood."""
    scorer = make_model_scorer(model, vocab, max_len=max_len)
    return lime_explain(lambda texts: scorer(texts, [record] * len(texts)),
                        build_content(record), n_samples=n_samples, seed=seed)
