"""Detection metrics: ROC/AUC, TPR at fixed FPR, group breakdowns, and
inference timing."""

from __future__ import annotations

import logging
import time

import numpy as np

from .mail import GROUPS
from .model import forward_probs, row_width

log = logging.getLogger(__name__)


class MetricError(ValueError):
    pass


def _check_two_class(labels: np.ndarray) -> tuple[int, int]:
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"need both classes, got {n_pos} positive / {n_neg} negative")
    return n_pos, n_neg


def _tie_run_ends(s: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal values in sorted ``s``
    (a NaN equals nothing, so each NaN is a run of its own)."""
    return np.flatnonzero(np.append(s[1:] != s[:-1], True))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged."""
    order = np.argsort(scores, kind="mergesort")
    last = _tie_run_ends(scores[order])
    first = np.append(0, last[:-1] + 1)
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg), ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricError(f"scores/labels length mismatch: {scores.shape} vs {labels.shape}")
    n_pos, n_neg = _check_two_class(labels)
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_curve(scores, labels) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points from (0,0) to (1,1), thresholds
    descending; classification rule is score >= threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = _check_two_class(labels)
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    ends = _tie_run_ends(s)  # one point per distinct threshold
    fpr = np.cumsum(y == 0)[ends] / n_neg
    tpr = np.cumsum(y == 1)[ends] / n_pos
    # .tolist() gives Python floats, whose repr the ROC CSV prints
    return [(0.0, 0.0, float("inf"))] + list(zip(fpr.tolist(), tpr.tolist(),
                                                 s[ends].tolist()))


def tpr_at_fpr(scores, labels, fprs) -> list[float]:
    """For each target, the TPR at the threshold whose achievable FPR is the
    largest one still <= target (no interpolation). FPR and TPR never fall
    along the curve, which starts at (0, 0), so that is the TPR of the last
    point with FPR <= target."""
    fpr, tpr, _ = np.array(roc_curve(scores, labels)).T
    out = []
    for target in fprs:
        if not 0.0 <= target <= 1.0:
            raise MetricError(f"FPR target must be in [0,1], got {target}")
        out.append(float(tpr[np.searchsorted(fpr, target, side="right") - 1]))
    return out


DEFAULT_FPRS = (1e-4, 1e-3, 1e-2, 1e-1)


def group_metrics(scores, labels, groups, fprs=DEFAULT_FPRS) -> dict:
    """Per-group AUC and TPR@FPR. Each group's positives are scored against
    the shared global negative pool; unknown tags fall under "other" and
    groups without positives are skipped with a warning."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_two_class(labels)
    neg = labels == 0
    tags = [g if g in GROUPS else "other" for g in groups]
    out: dict[str, dict] = {}
    for tag in sorted({t for t in tags if t is not None} | {"all"}):
        if tag == "all":
            sel = np.ones(len(labels), dtype=bool)
        else:
            pos_sel = np.array([t == tag for t in tags]) & (labels == 1)
            if not pos_sel.any():
                log.warning("group %r has no positive samples; skipped", tag)
                continue
            sel = pos_sel | neg
        out[tag] = {
            "auc": roc_auc(scores[sel], labels[sel]),
            "tpr_at_fpr": {str(f): t for f, t in
                           zip(fprs, tpr_at_fpr(scores[sel], labels[sel], fprs))},
            "n_pos": int((labels[sel] == 1).sum()),
            "n_neg": int(neg.sum()),
        }
    return out


WARMUP = 3  # discarded forward passes before timing


def time_inference(model, batch_size=1, repetitions=30, seed=0) -> dict:
    """Wall-clock forward latency of one batch of ``batch_size`` full rows of
    the model's width (``row_width``): mean/p50/p95 ms over ``repetitions``,
    after ``WARMUP`` discarded runs."""
    rng = np.random.default_rng(seed)
    cfg = model.config
    shape = (batch_size, row_width(cfg))
    ids = rng.integers(0, cfg.vocab_size, size=shape)
    mask = np.ones(shape, dtype=np.int64)
    ctx = rng.random((batch_size, cfg.context_dim)).astype(np.float32)
    for _ in range(WARMUP):
        forward_probs(model, ids, mask, ctx)
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        forward_probs(model, ids, mask, ctx)
        samples.append((time.perf_counter() - t0) * 1000.0)
    arr = np.asarray(samples)
    return {"mean_ms": float(arr.mean()), "p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)), "repetitions": repetitions}
