import numpy as np
import pytest

from catbert.baseline import (
    TfidfLrModel,
    make_lr_scorer,
    ngrams,
    predict_tfidf_lr,
    train_tfidf_lr,
)
from catbert.mail import build_content
from catbert.metrics import roc_auc
from catbert.synthetic import make_corpus
from catbert.train import split_by_time


def test_ngrams_uni_and_bi():
    assert ngrams("wire the money") == ["wire", "the", "money", "wire the", "the money"]
    assert ngrams("solo") == ["solo"]


def test_ngrams_go_through_word_splitting():
    # punctuation splits off, case folds: same pipeline the main model sees
    assert ngrams("Wire, money!") == ["wire", ",", "money", "!", "wire ,", ", money", "money !"]


def test_identical_docs_converge_to_class_prior():
    texts = ["quarterly report attached"] * 8
    labels = [1, 0, 0, 0, 1, 0, 0, 0]
    model = train_tfidf_lr(texts, labels)
    p = predict_tfidf_lr(model, [texts[0]])
    assert p[0] == pytest.approx(0.25, abs=0.02)


def test_oov_text_scores_at_intercept():
    model = train_tfidf_lr(["wire money now", "meeting at noon"], [1, 0])
    p = predict_tfidf_lr(model, ["zzz qqq xxx"])
    expected = 1.0 / (1.0 + np.exp(-model.b))
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_empty_string_also_scores_at_intercept():
    model = train_tfidf_lr(["wire money", "hello team"], [1, 0])
    p = predict_tfidf_lr(model, [""])
    assert p[0] == pytest.approx(1.0 / (1.0 + np.exp(-model.b)), rel=1e-12)


def test_separable_corpus_reaches_high_auc():
    records = make_corpus(n=600, seed=0)
    tr, va, _ = split_by_time(records)
    model = train_tfidf_lr([build_content(r) for r in tr], [r.label for r in tr])
    scores = predict_tfidf_lr(model, [build_content(r) for r in va])
    assert roc_auc(scores, np.array([r.label for r in va])) >= 0.99


def test_training_is_deterministic():
    texts = ["wire money now", "team meeting", "urgent invoice", "lunch plans"]
    labels = [1, 0, 1, 0]
    m1 = train_tfidf_lr(texts, labels)
    m2 = train_tfidf_lr(texts, labels)
    assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
    assert m1.vocab == m2.vocab


def test_sample_weights_shift_the_prior():
    texts = ["alpha beta", "gamma delta"]
    up = train_tfidf_lr(texts, [1, 0], weights=[9.0, 1.0])
    down = train_tfidf_lr(texts, [1, 0], weights=[1.0, 9.0])
    assert up.b > down.b


def test_input_validation():
    with pytest.raises(ValueError, match="empty"):
        train_tfidf_lr([], [])
    with pytest.raises(ValueError, match="labels"):
        train_tfidf_lr(["a", "b"], [1])


def test_scorer_closure_ignores_records():
    model = train_tfidf_lr(["wire money", "hello"], [1, 0])
    scorer = make_lr_scorer(model)
    out = scorer(["wire money"], [object()])
    assert out.shape == (1,) and 0.0 < out[0] < 1.0


def test_idf_downweights_ubiquitous_terms():
    # "the" in every doc gets the minimum idf; a rare term gets more
    texts = ["the wire", "the meeting", "the report"]
    model = train_tfidf_lr(texts, [1, 0, 0])
    assert model.idf[model.vocab["the"]] < model.idf[model.vocab["wire"]]
    n, df_the, df_wire = 3, 3, 1
    assert model.idf[model.vocab["the"]] == pytest.approx(
        np.log((1 + n) / (1 + df_the)) + 1.0)
    assert model.idf[model.vocab["wire"]] == pytest.approx(
        np.log((1 + n) / (1 + df_wire)) + 1.0)
