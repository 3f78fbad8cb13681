import logging
import math
from dataclasses import asdict

import numpy as np
import pytest

from catbert.explain import Attribution, explain_record, lime_explain
from catbert.mail import EmailRecord
from catbert.model import ModelConfig, init_random
from catbert.synthetic import synthetic_vocab
from catbert.tokenizer import Vocabulary, pre_tokenize

from oracles import spearman


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _count_scorer(word, gain=2.0, bias=-1.0):
    def score_fn(texts):
        return np.array([_sigmoid(gain * t.split().count(word) + bias)
                         for t in texts])
    return score_fn


def test_single_driver_word_dominates():
    attribution = lime_explain(_count_scorer("pay"),
                               "pay the new invoice before friday",
                               n_samples=400, seed=0)
    assert attribution.top_positive[0][0] == "pay"
    assert attribution.weights["pay"] > 3 * max(
        abs(w) for t, w in attribution.weights.items() if t != "pay")


def test_repeated_words_share_one_summed_weight():
    # linear oracle so occurrence effects add without sigmoid saturation
    def score_fn(texts):
        return np.array([0.1 + 0.2 * t.split().count("pay") for t in texts])

    attribution = lime_explain(score_fn, "pay now pay later", n_samples=400, seed=1)
    assert set(attribution.weights) == {"pay", "now", "later"}
    single = lime_explain(score_fn, "pay now later", n_samples=400, seed=1)
    assert attribution.weights["pay"] == pytest.approx(
        2 * single.weights["pay"], rel=0.1)
    assert single.weights["pay"] == pytest.approx(0.2, rel=0.05)


def test_constant_model_explains_as_intercept_only():
    def score_fn(texts):
        return np.full(len(texts), 0.42)

    attribution = lime_explain(score_fn, "anything at all here", n_samples=100, seed=0)
    assert attribution.r2 == 1.0
    assert attribution.intercept == pytest.approx(0.42, abs=1e-6)
    assert all(abs(w) < 1e-9 for w in attribution.weights.values())
    # top lists filter exact zeros only, so solver noise may linger there
    assert all(abs(w) < 1e-9 for _, w in
               attribution.top_positive + attribution.top_negative)


def test_negative_words_surface_in_top_negative():
    def score_fn(texts):
        return np.array([_sigmoid(1.0 - 3.0 * t.split().count("benign")) for t in texts])

    attribution = lime_explain(score_fn, "benign words in this message",
                               n_samples=400, seed=2)
    assert attribution.top_negative[0][0] == "benign"
    assert attribution.top_negative[0][1] < 0


@pytest.mark.parametrize("n_words", [10, 60, 150])
def test_driver_word_keeps_its_weight_in_long_text(n_words):
    """LIME's kernel exp(-D²/sigma²), with D² the number of dropped words,
    keeps a driver word's whole weight in mail longer than ~50 words."""
    def score_fn(texts):
        return np.array([0.1 + 0.8 * ("w3" in t.split()) for t in texts])

    text = " ".join(f"w{i}" for i in range(n_words))
    attribution = lime_explain(score_fn, text, n_samples=1000, seed=0)
    assert attribution.weights["w3"] == pytest.approx(0.8, abs=0.01)
    assert attribution.r2 > 0.99


def test_default_sigma_tracks_word_count():
    attribution = lime_explain(_count_scorer("pay"), "pay one two three",
                               n_samples=100, seed=0)
    assert attribution.sigma == pytest.approx(0.75 * math.sqrt(4))


def test_variants_only_drop_words():
    text = "Pay the invoice, then pay again"
    words = pre_tokenize(text)
    variants = []

    def score_fn(texts):
        variants.extend(texts)
        return np.full(len(texts), 0.5)

    lime_explain(score_fn, text, n_samples=200, seed=0)
    assert len(variants) == 200
    for variant in variants:
        remaining = iter(words)  # each variant is the original with words left out
        assert all(w in remaining for w in pre_tokenize(variant)), variant


def test_an_underdetermined_surrogate_is_refused():
    """1200 word weights and an intercept from 1000 samples have no unique
    fit: the ridge solution spreads the driver word's 0.8 over the others."""
    text = " ".join(f"w{i}" for i in range(1200))
    scored = []
    with pytest.raises(ValueError, match=r"n_samples 1000 cannot fit 1200 word weights and an "
                                         r"intercept: need n_samples >= 1202"):
        lime_explain(scored.extend, text, n_samples=1000, seed=0)
    assert scored == []  # refused before a variant is scored
    attribution = lime_explain(lambda texts: np.array([0.1 + 0.8 * ("w3" in t.split())
                                                       for t in texts]),
                               text, n_samples=1202, seed=0)
    assert attribution.n_samples == 1202


def test_input_validation():
    fn = _count_scorer("pay")
    with pytest.raises(ValueError, match="n_samples"):
        lime_explain(fn, "pay now", n_samples=10)
    with pytest.raises(ValueError, match="empty"):
        lime_explain(fn, "   ", n_samples=100)


def test_same_seed_reproduces_attribution():
    a = lime_explain(_count_scorer("pay"), "pay the invoice", n_samples=200, seed=9)
    b = lime_explain(_count_scorer("pay"), "pay the invoice", n_samples=200, seed=9)
    assert a.weights == b.weights and a.r2 == b.r2


def test_recovers_linear_oracle_ranking():
    # oracle: sigmoid of a fixed linear form over word presences; the
    # surrogate's coefficients must rank the words the same way
    rng = np.random.default_rng(4)
    words = [f"tok{i}" for i in range(8)]
    true_w = rng.normal(0.0, 1.5, size=8)

    def score_fn(texts):
        out = []
        for t in texts:
            present = np.array([w in t.split() for w in words], dtype=np.float64)
            out.append(_sigmoid(true_w @ present - 0.3))
        return np.array(out)

    attribution = lime_explain(score_fn, " ".join(words), n_samples=2000, seed=0)
    recovered = np.array([attribution.weights[w] for w in words])
    assert spearman(recovered, true_w) >= 0.9


def test_explain_record_runs_end_to_end():
    vocab = Vocabulary(synthetic_vocab())
    model = init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                    max_positions=32, block_plan=("T", "A")), seed=0)
    record = EmailRecord(subject="invoice", body_text="please send wiretransfer today",
                         from_addr="a@partner.io", to_addrs=["b@acme.com"], label=1)
    attribution = explain_record(model, vocab, record, n_samples=64, seed=0, max_len=32)
    assert isinstance(attribution, Attribution)
    assert attribution.n_samples == 64
    assert set(attribution.weights) == {"invoice", "please", "send",
                                        "wiretransfer", "today"}
    d = asdict(attribution)
    assert set(d) == {"weights", "intercept", "r2", "sigma", "n_samples",
                      "top_positive", "top_negative"}


def test_explain_record_defaults_to_the_models_row_width():
    vocab = Vocabulary(synthetic_vocab())
    model = init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                    max_positions=16, block_plan=("T", "A")), seed=0)
    record = EmailRecord(subject="invoice", body_text="please send wiretransfer today " * 4,
                         from_addr="a@partner.io", to_addrs=["b@acme.com"], label=1)
    want = explain_record(model, vocab, record, n_samples=64, seed=0, max_len=16)
    assert explain_record(model, vocab, record, n_samples=64, seed=0) == want


def test_explain_logs_a_bad_header_once(caplog):
    vocab = Vocabulary(synthetic_vocab())
    model = init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                    max_positions=32, block_plan=("T", "A")), seed=0)
    record = EmailRecord(subject="invoice", body_text="please send wiretransfer today",
                         from_addr="not-an-address", to_addrs=["b@acme.com"], label=1)
    with caplog.at_level(logging.WARNING, logger="catbert.pipeline"):
        explain_record(model, vocab, record, n_samples=64, seed=0, max_len=32)
    warnings = [r.getMessage() for r in caplog.records if "unparseable addresses" in r.getMessage()]
    assert len(warnings) == 1 and warnings[0].startswith("1 of 1 records")


@pytest.mark.parametrize("max_len", [8, 64])
def test_explain_record_refuses_another_width(max_len):
    vocab = Vocabulary(synthetic_vocab())
    model = init_random(ModelConfig(vocab_size=100, hidden=16, ffn_dim=32, heads=2,
                                    max_positions=32, block_plan=("T", "A")), seed=0)
    record = EmailRecord(subject="invoice", body_text="please send wiretransfer today", label=1)
    with pytest.raises(ValueError, match=f"max_len {max_len} is not the model's row width 32"):
        explain_record(model, vocab, record, n_samples=64, seed=0, max_len=max_len)
