"""Test oracles: the reference code the tests check the program against.

No program path runs these, so they live beside the tests rather than in
the installed package: the finite-difference gradient check that
acceptance check 03 reads, the float64 copy of a model it runs in, the
sum reduction most gradient tests take as their loss, the rank
correlation that the explainer checks compare weights with, the
rank-sum AUC that ``metrics.roc_auc`` replaced with the area of its ROC
sweep, the inverse of ``encode`` that the tokenizer round-trips through,
and the line-by-line vocabulary build that ``Vocabulary`` replaced with
whole-list passes.
"""

import math
from typing import Callable, Sequence

import numpy as np

from catbert import tensor as T
from catbert.metrics import MetricError
from catbert.model import CatBertModel
from catbert.tensor import GradientError, Parameter, Tape, Tensor, backward, dense_grad
from catbert.tokenizer import _SPECIALS, CONT, Vocabulary


def grad_check(model_fn: Callable[[], Tensor], params: Sequence[Parameter],
               eps: float = 1e-3, samples_per_param: int = 8, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    The difference quotient is evaluated with parameters upcast to float64
    (the oracle side), while the analytic gradient is computed in the
    parameters' own dtype. Each sampled coordinate is probed at steps
    ``h = eps`` and ``h = eps / 8`` and scores the smaller of
    ``max(|analytic - numeric| - r, 0) / max(|analytic|, |numeric|, 1e-8)``,
    where ``r = finfo(float64).eps * max(|L(+h)|, |L(-h)|) / h`` bounds the
    quotient's own rounding (which dominates on gradients near zero). The
    second step clears a kink (ReLU) that lies within ``eps`` of the
    coordinate: a correct gradient passes at one step, a wrong one fails at
    both. Returns the max score over the sampled coordinates.
    """
    if not (0.0 < eps <= 1e-1):
        raise ValueError(f"eps must be in (0, 1e-1], got {eps}")
    trainable = [p for p in params if p.trainable]
    for p in trainable:
        p.grad = None
    with Tape() as tape:
        loss = model_fn()
    backward(tape, loss)
    analytic = {}
    for p in trainable:
        if p.grad is None:
            raise GradientError(f"parameter {p.name!r} received no gradient")
        analytic[p.name] = np.asarray(dense_grad(p.grad), dtype=np.float64).copy()

    def score(flat: np.ndarray, c: int, a: float, h: float, name: str) -> float:
        orig = flat[c]
        flat[c] = orig + h
        lp = float(model_fn().data)
        flat[c] = orig - h
        lm = float(model_fn().data)
        flat[c] = orig
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise GradientError(f"non-finite loss while perturbing {name!r} coordinate {c}")
        numeric = (lp - lm) / (2.0 * h)
        rounding = np.finfo(np.float64).eps * max(abs(lp), abs(lm)) / h
        return max(abs(a - numeric) - rounding, 0.0) / max(abs(a), abs(numeric), 1e-8)

    saved = [(p, p.data) for p in trainable]
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for p in trainable:
            p.data = p.data.astype(np.float64)
        for p in trainable:
            n = p.data.size
            if n <= samples_per_param:
                coords = np.arange(n)
            else:
                coords = rng.choice(n, size=samples_per_param, replace=False)
            flat = p.data.reshape(-1)
            for c in coords:
                a = float(analytic[p.name].reshape(-1)[c])
                worst = max(worst, min(score(flat, int(c), a, h, p.name) for h in (eps, eps / 8)))
    finally:
        for p, data in saved:
            p.data = data
    return worst


def astype(model: CatBertModel, dtype) -> CatBertModel:
    """Copy of ``model`` with every parameter cast (float64 for gradient oracles)."""
    fresh = {
        name: Parameter._adopt(name, p.data.astype(dtype), trainable=p.trainable)
        for name, p in model.params.items()
    }
    return CatBertModel(model.config, fresh, dict(model.provenance))


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False),)

    return T._emit(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), grad_fn)


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged (a NaN equals nothing, so each NaN is a
    run of its own)."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    last = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    first = np.append(0, last[:-1] + 1)
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def rank_sum_auc(scores, labels) -> float:
    """Mann-Whitney AUC from the positives' rank sum R:
    (R - n_pos (n_pos + 1) / 2) / (n_pos n_neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    pos_rank_sum = float(average_ranks(scores)[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def spearman(a, b) -> float:
    """Rank correlation (ties averaged). Degenerate constant inputs give 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise MetricError(f"need equal-length 1-D inputs, got {a.shape} and {b.shape}")
    if len(a) < 2:
        raise MetricError("need at least two points")
    ra, rb = average_ranks(a), average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def decode(ids: list[int], vocab: Vocabulary) -> str:
    """Inverse of encode up to normalization: drop specials, merge ## pieces."""
    words: list[str] = []
    for i in ids:
        tok = vocab.tokens[i]
        if tok in _SPECIALS:
            continue
        if tok.startswith(CONT) and words:
            words[-1] += tok[len(CONT):]
        else:
            words.append(tok)
    return " ".join(words)


def vocabulary_reference(tokens: list[str]):
    """``(token_to_id, longest)`` of ``tokens`` built one line at a time, or
    the message that refuses them: the first empty or repeated token in
    line order, else the missing special tokens."""
    token_to_id: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if not tok:
            return f"empty token on line {i + 1}"
        if tok in token_to_id:
            return f"duplicate token {tok!r} on lines {token_to_id[tok] + 1} and {i + 1}"
        token_to_id[tok] = i
    missing = [s for s in _SPECIALS if s not in token_to_id]
    if missing:
        return f"vocabulary missing special tokens: {', '.join(missing)}"
    return token_to_id, max(len(t[len(CONT):] if t.startswith(CONT) else t) for t in tokens)
