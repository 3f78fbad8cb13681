"""Comparisons of the program's outputs with :mod:`reference`.

Every check returns a list of failure messages; an empty list is a pass.
The tolerances are stated here and in the README.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

PROB_TOL = 1e-5        # |p_f32 - p_f64|; seen: ~3e-8
CLS_TOL = 1e-4         # |h_f32 - h_f64| on the CLS row (O(1) entries); seen: ~1e-6
BATCH_TOL = 1e-5       # |p alone - p in a batch|; seen: ~6e-8
CTX_TOL = 1e-7
METRIC_TOL = 1e-12
ADAM_TOL = 1e-6        # on parameters of magnitude <= ~0.1; seen: ~3e-9
GRAD_RTOL = 1e-3       # f32 analytic gradient vs f64 central difference; seen: ~1e-6
GRAD_FLOOR = 1e-8      # absolute slack for coordinates whose gradient is ~0


def probabilities(probs) -> list[str]:
    p = np.asarray(probs, dtype=np.float64)
    bad = ~np.isfinite(p) | (p < 0.0) | (p > 1.0)
    return [f"{int(bad.sum())} of {p.size} probabilities not finite in [0, 1]"] if bad.any() else []


def forward(program_probs, program_cls, ref_probs, ref_cls) -> list[str]:
    out = []
    dp = float(np.max(np.abs(np.asarray(program_probs, np.float64) - ref_probs)))
    if not dp <= PROB_TOL:
        out.append(f"probabilities differ from the f64 forward by {dp:.3g} > {PROB_TOL}")
    dh = float(np.max(np.abs(np.asarray(program_cls, np.float64) - ref_cls)))
    if not dh <= CLS_TOL:
        out.append(f"CLS hidden state differs from the f64 forward by {dh:.3g} > {CLS_TOL}")
    return out


def alone_vs_batch(alone, batched) -> list[str]:
    d = float(np.max(np.abs(np.asarray(alone, np.float64) - np.asarray(batched, np.float64))))
    return [] if d <= BATCH_TOL else [f"scored alone vs in a batch differ by {d:.3g} > {BATCH_TOL}"]


def token_ids(wp: ref.WordPiece, texts, ids, max_len: int) -> list[str]:
    out = []
    for i, (text, row) in enumerate(zip(texts, ids)):
        why = wp.match(text, row, max_len)
        if why:
            out.append(f"record {i}: {why}")
    return out


def context(records, ctx) -> list[str]:
    out = []
    for i, (rec, row) in enumerate(zip(records, ctx)):
        want, _ = ref.context(rec.from_addr, rec.to_addrs, rec.cc_addrs)
        if not np.allclose(np.asarray(row, np.float64), want, rtol=0, atol=CTX_TOL):
            out.append(f"record {i}: context {list(row)} != {list(want)}")
    return out


def metrics(scores, labels, auc, tprs, targets) -> list[str]:
    out = []
    want = ref.auc(scores, labels)
    if not abs(auc - want) <= METRIC_TOL:
        out.append(f"AUC {auc!r} != pairwise {want!r}")
    for t, got, exp in zip(targets, tprs, ref.tpr_at_fpr(scores, labels, targets)):
        if not abs(got - exp) <= METRIC_TOL:
            out.append(f"TPR@FPR={t}: {got!r} != threshold sweep {exp!r}")
    return out


def explanation(weights: dict, content: str) -> list[str]:
    out = []
    words = set(ref.pre_tokenize(content))
    if set(weights) != words:
        extra, missing = sorted(set(weights) - words), sorted(words - set(weights))
        out.append(f"explained words differ: extra {extra[:5]}, missing {missing[:5]}")
    if not all(math.isfinite(w) for w in weights.values()):
        out.append("non-finite explanation weight")
    return out


def losses(values) -> list[str]:
    return [] if all(math.isfinite(v) for v in values) else [f"non-finite loss in {values}"]


def unchanged(names, before: dict, after: dict) -> list[str]:
    """Byte equality of named arrays (compared in place, without copies)."""
    def raw(a):
        return np.ascontiguousarray(a).view(np.uint8)

    return [f"{n} changed" for n in names if not np.array_equal(raw(before[n]), raw(after[n]))]


def adam_step(got, want) -> list[str]:
    d = max(float(np.max(np.abs(np.asarray(g, np.float64) - w))) for g, w in zip(got, want))
    return [] if d <= ADAM_TOL else [f"Adam update differs from f64 Adam by {d:.3g} > {ADAM_TOL}"]


def gradient(analytic, numeric) -> list[str]:
    out = []
    for (name, a), n in zip(analytic, numeric):
        if not abs(a - n) <= GRAD_RTOL * max(abs(a), abs(n)) + GRAD_FLOOR:
            out.append(f"{name}: analytic {a:.6g} vs central difference {n:.6g}")
    return out
