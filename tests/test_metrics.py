import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert.metrics import (
    DEFAULT_FPRS,
    MetricError,
    group_metrics,
    roc_auc,
    roc_curve,
    summary,
    time_inference,
    tpr_at_fpr,
)
from catbert.model import ModelConfig, init_random

from oracles import average_ranks, rank_sum_auc, spearman


def pairwise_auc(scores, labels):
    # O(n^2) oracle: P(pos > neg) with ties counted 1/2
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def sweep_tpr_at_fpr(scores, labels, target):
    # exhaustive threshold sweep oracle: among thresholds with fpr <= target,
    # take the largest fpr, then the largest tpr at it
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = (labels == 1).sum()
    n_neg = (labels == 0).sum()
    best = (-1.0, 0.0)
    for th in list(scores) + [np.inf]:
        pred = scores >= th
        fpr = (pred & (labels == 0)).sum() / n_neg
        tpr = (pred & (labels == 1)).sum() / n_pos
        if fpr <= target and (fpr, tpr) > best:
            best = (fpr, tpr)
    return best[1]


def loop_roc_curve(scores, labels):
    # reference: walk the descending scores, one point per distinct threshold
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    for i in range(len(s)):
        tp += int(y[i] == 1)
        fp += int(y[i] == 0)
        if i + 1 < len(s) and s[i + 1] == s[i]:
            continue
        points.append((fp / n_neg, tp / n_pos, float(s[i])))
    return points


def loop_average_ranks(scores):
    # reference: 1-based ranks, each run of equal sorted scores averaged
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def trapezoid_area(points):
    # area under the (fpr, tpr) polyline, one trapezoid per step
    return sum((x1 - x0) * (y0 + y1) / 2.0
               for (x0, y0, _), (x1, y1, _) in zip(points, points[1:]))


def random_scoreset(rng, n=60):
    labels = rng.integers(0, 2, size=n)
    while labels.sum() in (0, n):
        labels = rng.integers(0, 2, size=n)
    # quantized scores force plenty of ties
    scores = np.round(rng.random(n), 2)
    return scores, labels


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores, labels = random_scoreset(rng)
            assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(1)
        scores, labels = random_scoreset(rng)
        a = roc_auc(scores, labels)
        b = roc_auc(np.exp(3.0 * scores) + 7.0, labels)
        assert abs(a - b) <= 1e-12

    @given(st.integers(2, 400), st.sampled_from([2, 5, 20, 0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_rank_sum_and_curve_area(self, n, levels, seed):
        # finite scores, quantised to a few levels (0: float32 probabilities);
        # both formulas give the exact rational U / (n_pos * n_neg) rounded once
        rng = np.random.default_rng(seed)
        labels = np.arange(n) % 2
        rng.shuffle(labels)
        scores = rng.random(n).astype(np.float32)
        if levels:
            scores = np.floor(scores * levels) / levels
        auc = roc_auc(scores, labels)
        assert auc == rank_sum_auc(scores, labels)
        assert auc == pytest.approx(trapezoid_area(roc_curve(scores, labels)), abs=1e-12)

    def test_nan_ranks_below_every_number(self):
        # the area under the curve eval --roc writes: a NaN sorts last there
        scores, labels = [np.nan, 0.2, 0.9, 0.1], [1, 0, 1, 0]
        assert roc_curve(scores, labels)[-2] == (1.0, 0.5, 0.1)
        assert roc_auc(scores, labels) == trapezoid_area(roc_curve(scores, labels)) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="both classes"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(MetricError, match="mismatch"):
            roc_auc([0.1, 0.2], [1, 0, 1])


class TestRocCurve:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_endpoints_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_scoreset(rng, n=30)
        pts = roc_curve(scores, labels)
        assert pts[0][:2] == (0.0, 0.0)
        assert pts[-1][:2] == (1.0, 1.0)
        fprs = [p[0] for p in pts]
        tprs = [p[1] for p in pts]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))
        ths = [p[2] for p in pts]
        assert all(a >= b for a, b in zip(ths, ths[1:]))


    def test_matches_loop_reference_bit_for_bit(self):
        # the ROC CSV prints repr() of each value, so equal is not enough
        rng = np.random.default_rng(3)
        for trial in range(200):
            scores, labels = random_scoreset(rng, n=int(rng.integers(2, 120)))
            if trial % 3 == 0:
                scores[rng.random(len(scores)) < 0.2] = np.nan
            if trial % 5 == 0:
                scores[rng.random(len(scores)) < 0.3] = -0.0
            assert repr(roc_curve(scores, labels)) == repr(loop_roc_curve(scores, labels))
            assert repr(average_ranks(scores).tolist()) == repr(
                loop_average_ranks(scores).tolist())


class TestTprAtFpr:
    def test_worked_example(self):
        scores = [0.9, 0.8, 0.3, 0.2, 0.1]
        labels = [1, 1, 0, 0, 0]
        assert tpr_at_fpr(scores, labels, [0.34]) == [1.0]

    def test_target_zero(self):
        scores = [0.9, 0.8, 0.3, 0.2, 0.1]
        labels = [1, 1, 0, 0, 0]
        assert tpr_at_fpr(scores, labels, [0.0]) == [1.0]

    def test_target_one(self):
        rng = np.random.default_rng(2)
        scores, labels = random_scoreset(rng)
        assert tpr_at_fpr(scores, labels, [1.0]) == [1.0]

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(3)
        targets = list(DEFAULT_FPRS) + [0.0, 0.34, 0.5, 1.0]
        for _ in range(20):
            scores, labels = random_scoreset(rng)
            got = tpr_at_fpr(scores, labels, targets)
            want = [sweep_tpr_at_fpr(scores, labels, t) for t in targets]
            assert got == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_target(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_scoreset(rng, n=40)
        vals = tpr_at_fpr(scores, labels, [0.0, 0.1, 0.3, 0.7, 1.0])
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_bad_target(self):
        with pytest.raises(MetricError):
            tpr_at_fpr([0.9, 0.1], [1, 0], [1.5])


class TestSummary:
    def test_reads_the_one_sweep(self):
        rng = np.random.default_rng(6)
        scores, labels = random_scoreset(rng)
        assert summary(scores, labels, DEFAULT_FPRS) == {
            "auc": roc_auc(scores, labels),
            "tpr_at_fpr": {str(f): t for f, t in
                           zip(DEFAULT_FPRS, tpr_at_fpr(scores, labels, DEFAULT_FPRS))},
            "n_pos": int(labels.sum()), "n_neg": int((labels == 0).sum())}


class TestGroupMetrics:
    def test_single_group_equals_global(self):
        rng = np.random.default_rng(4)
        scores, labels = random_scoreset(rng)
        groups = ["english" if y == 1 else None for y in labels]
        out = group_metrics(scores, labels, groups)
        assert out["english"]["auc"] == out["all"]["auc"] == roc_auc(scores, labels)

    def test_no_positive_group_skipped(self, caplog):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        groups = ["bec", "bec", "english", "english"]
        with caplog.at_level("WARNING"):
            out = group_metrics(scores, labels, groups)
        assert "english" not in out
        assert "bec" in out

    def test_separable_vs_random_groups(self):
        rng = np.random.default_rng(5)
        neg = rng.random(300) * 0.5
        pos_a = 0.6 + rng.random(50) * 0.4       # clean separation
        pos_b = rng.random(50) * 0.5              # same distribution as negatives
        scores = np.concatenate([neg, pos_a, pos_b])
        labels = np.array([0] * 300 + [1] * 100)
        groups = [None] * 300 + ["bec"] * 50 + ["english"] * 50
        out = group_metrics(scores, labels, groups)
        assert out["bec"]["auc"] > 0.99
        assert abs(out["english"]["auc"] - 0.5) < 0.1

    def test_unknown_tag_goes_to_other(self):
        scores = [0.9, 0.2, 0.1]
        labels = [1, 0, 0]
        out = group_metrics(scores, labels, ["mystery", None, None])
        assert "other" in out and out["other"]["n_pos"] == 1

    def test_shared_negative_pool(self):
        scores = [0.9, 0.7, 0.5, 0.3]
        labels = [1, 1, 0, 0]
        out = group_metrics(scores, labels, ["bec", "english", "bec", "english"])
        assert out["bec"]["n_neg"] == 2
        assert out["english"]["n_neg"] == 2


def bench_model(n_blocks):
    cfg = ModelConfig(vocab_size=64, hidden=16, ffn_dim=32, heads=2,
                      max_positions=16, block_plan=("T",) * n_blocks, context_dim=0)
    return init_random(cfg, 0)


class TestTimeInference:
    def test_report_shape(self):
        t = time_inference(bench_model(1), batch_size=2, repetitions=5)
        assert set(t) == {"mean_ms", "p50_ms", "p95_ms", "repetitions"}
        assert t["p50_ms"] <= t["p95_ms"] + 1e-9
        assert t["repetitions"] == 5

    def test_more_blocks_slower(self):
        fast = time_inference(bench_model(1), repetitions=15)
        slow = time_inference(bench_model(4), repetitions=15)
        assert slow["p50_ms"] > fast["p50_ms"]

    def test_p50_stable_across_runs(self):
        """Two runs of 60 repetitions each agree on p50 within 20%. The runs
        take turns, one repetition each (a b, b a, ...), so phases of machine
        speed hit both alike; each run's samples are pooled into its p50."""
        models = bench_model(2), bench_model(2)
        runs = ([], [])
        for i in range(60):
            for model, run in zip(models[::-1], runs[::-1]) if i % 2 else zip(models, runs):
                run.append(time_inference(model, repetitions=1)["p50_ms"])
        pa, pb = (float(np.median(run)) for run in runs)
        assert abs(pa - pb) / max(pa, pb) < 0.2


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman([1, 2, 3, 4], [2, 7, 9, 100]) == 1.0  # any monotone map

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3], [5, 4, 3]) == -1.0

    def test_known_value_with_tie(self):
        # ranks a: 1,2,3,4 ; ranks b: 1.5,1.5,3,4 -> pearson on ranks
        got = spearman([1, 2, 3, 4], [5, 5, 6, 7])
        ra = np.array([1, 2, 3, 4], dtype=float)
        rb = np.array([1.5, 1.5, 3, 4])
        ra -= ra.mean(); rb -= rb.mean()
        expected = (ra 	@ rb) / np.sqrt((ra @ ra) * (rb @ rb))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constant_input_degenerates_to_zero(self):
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0

    def test_validation(self):
        with pytest.raises(MetricError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(MetricError):
            spearman([1], [2])
