"""Detection metrics: ROC/AUC, TPR at fixed FPR, group breakdowns, and
inference timing."""

from __future__ import annotations

import logging
import time
from typing import NamedTuple

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


class _Sweep(NamedTuple):
    """The ROC sweep every metric reads (``_sweep``): ``tp`` and ``fp`` count
    the positives and negatives scored >= each threshold, from (0, 0) at +inf
    down through each distinct score, sorted once, descending and stable; a
    NaN sorts last and, equal to nothing, is a threshold of its own."""

    tp: np.ndarray
    fp: np.ndarray
    thresholds: np.ndarray
    n_pos: int
    n_neg: int

    def auc(self) -> float:
        """The trapezoid area, summed in integer counts and divided once: the
        Mann-Whitney U over n_pos * n_neg, so ties count 1/2."""
        twice = int(np.dot(np.diff(self.fp), self.tp[1:] + self.tp[:-1]))
        return twice / (2 * self.n_pos * self.n_neg)

    def tprs(self, fprs) -> list[float]:
        for target in fprs:
            if not 0.0 <= target <= 1.0:
                raise MetricError(f"FPR target must be in [0,1], got {target}")
        last = np.searchsorted(self.fp / self.n_neg, fprs, side="right") - 1
        return (self.tp[last] / self.n_pos).tolist()


def _sweep(scores, labels) -> _Sweep:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricError(f"scores/labels length mismatch: {scores.shape} vs {labels.shape}")
    n_pos, n_neg = _check_two_class(labels)
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    return _Sweep(np.append(0, np.cumsum(y == 1)[ends]), np.append(0, np.cumsum(y == 0)[ends]),
                  np.append(np.inf, s[ends]), n_pos, n_neg)


def roc_auc(scores, labels) -> float:
    """Area under ``roc_curve``: P(score_pos > score_neg), ties counted 1/2,
    a NaN below every number."""
    return _sweep(scores, labels).auc()


def roc_curve(scores, labels) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points from (0,0) to (1,1), thresholds
    descending; classification rule is score >= threshold."""
    tp, fp, thresholds, n_pos, n_neg = _sweep(scores, labels)
    # .tolist() gives Python floats, whose repr the ROC CSV prints
    return list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist(), thresholds.tolist()))


def tpr_at_fpr(scores, labels, fprs) -> list[float]:
    """For each target, the TPR at the threshold whose achievable FPR is the
    largest one still <= target (no interpolation). FPR and TPR never fall
    along the curve, which starts at (0, 0), so that is the TPR of the last
    point with FPR <= target."""
    return _sweep(scores, labels).tprs(fprs)


def summary(scores, labels, fprs) -> dict:
    """``auc``, ``tpr_at_fpr`` (keyed by ``str(target)``), ``n_pos`` and
    ``n_neg`` of one sweep: the metric block of ``eval`` and of each
    ``group_metrics`` entry."""
    sweep = _sweep(scores, labels)
    return {"auc": sweep.auc(), "tpr_at_fpr": dict(zip(map(str, fprs), sweep.tprs(fprs))),
            "n_pos": sweep.n_pos, "n_neg": sweep.n_neg}


DEFAULT_FPRS = (1e-4, 1e-3, 1e-2, 1e-1)


def group_metrics(scores, labels, groups, fprs=DEFAULT_FPRS) -> dict:
    """Per-group ``summary``. Each group's positives are scored against
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
        out[tag] = summary(scores[sel], labels[sel], fprs)
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
