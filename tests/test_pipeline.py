import hashlib

import numpy as np
import pytest

from catbert.mail import EmailRecord, body_text_of, build_content
from catbert.model import ModelConfig, forward_probs, init_random
from catbert.synthetic import make_corpus, synthetic_vocab
from catbert.pipeline import (encode_records, encode_texts, score_dataset, score_records,
                              trim_padding)
from catbert.tensor import Tape, backward, dense_grad
from catbert.tokenizer import Vocabulary, encode
from catbert.train import TrainConfig, bce_loss, effective_weights, train


def small_vocab():
    return Vocabulary(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "pay", "money", "hello", "now"])


def records():
    return [
        EmailRecord(subject="hello", body_text="pay money now", label=1,
                    from_addr="a@x.co", to_addrs=["b@y.co"], group="bec", weight=2.0),
        EmailRecord(subject="money", body_text="hello hello", label=0,
                    from_addr="a@x.co", to_addrs=["b@x.co", "c@x.co"]),
    ]


def tiny_model(context_dim=4):
    cfg = ModelConfig(vocab_size=8, hidden=8, ffn_dim=16, heads=2, max_positions=16,
                      block_plan=("T", "A"), context_dim=context_dim)
    return init_random(cfg, 0)


class TestEncodeRecords:
    def test_shapes_and_fields(self):
        ds = encode_records(records(), small_vocab(), max_len=12)
        assert ds.ids.shape == (2, 12)
        assert ds.mask.shape == (2, 12)
        assert ds.ctx.shape == (2, 4)
        assert ds.labels.tolist() == [1, 0]
        assert ds.weights.tolist() == [2.0, 1.0]
        assert ds.groups == ["bec", None]

    def test_context_flags(self):
        ds = encode_records(records(), small_vocab(), max_len=12)
        assert ds.ctx[0, 0] == 0 and ds.ctx[0, 1] == 1  # cross-domain
        assert ds.ctx[1, 0] == 1 and ds.ctx[1, 1] == 0  # same-domain

    def test_framing(self):
        v = small_vocab()
        ds = encode_records(records(), v, max_len=12)
        assert ds.ids[0, 0] == v.cls_id
        assert ds.ids[0][ds.mask[0] == 1][-1] == v.sep_id

    @pytest.mark.parametrize("max_len, digest", [
        (3, "eccc4f021b5146bfcca6221dd4a365069bbd6f5e951d959669116254cb2f0ed2"),
        (16, "63202894b7d20f369e164746cfaffb3580b0d3d89b9c48d1c685437de9a08a82"),
        (None, "ddbf5cdff8ce1408e1fb7f662c0bf477ecd3178c37ace7bbf06bd1e02cd67380"),
    ], ids=["3", "16", "default"])
    def test_rows_keep_the_head_of_each_email(self, max_len, digest):
        # pinned from the head rows of the encoder that could also keep the
        # tail, at widths that cut every row (3), most rows (16) and none
        recs = make_corpus(n=64, malicious_frac=0.3, seed=0)
        kwargs = {} if max_len is None else {"max_len": max_len}
        ds = encode_records(recs, Vocabulary(synthetic_vocab()), **kwargs)
        assert hashlib.sha256(ds.ids.tobytes() + ds.mask.tobytes()).hexdigest() == digest


class TestEncodeTexts:
    def test_replaces_text_keeps_context(self):
        v = small_vocab()
        recs = records()
        base = encode_records(recs, v, max_len=12)
        swapped = encode_texts(["now now", "pay"], recs, v, max_len=12)
        assert not np.array_equal(swapped.ids[0], base.ids[0])
        assert np.array_equal(swapped.ctx, base.ctx)
        assert swapped.labels.tolist() == base.labels.tolist()

    def test_records_are_their_built_content(self):
        v = small_vocab()
        recs = records() + [
            EmailRecord(subject="pay", body_html="<p>money</p><b>now</b> hello", label=1,
                        from_addr="x@y.co", to_addrs=["z@w.co"], group="english"),
            EmailRecord(subject="", body_html="<div>hello</div>", weight=0.5),
            EmailRecord(subject="now"),
            EmailRecord(),
            EmailRecord(subject="pay  ", body_text="  money\tnow\n", from_addr="broken"),
            EmailRecord(subject="hello", body_text="pay money now " * 5, label=1),
        ]
        ds = encode_records(recs, v, max_len=8)
        folded = encode_texts([build_content(r) for r in recs], recs, v, max_len=8)
        for field in ("ids", "mask", "ctx", "labels", "weights"):
            assert np.array_equal(getattr(ds, field), getattr(folded, field)), field
        assert ds.groups == folded.groups
        # the same rows the subject/body form of encode gives
        for i, r in enumerate(recs):
            seq = encode(r.subject, body_text_of(r), v, max_len=8)
            assert ds.ids[i].tolist() == seq.ids
            assert ds.mask[i].tolist() == seq.attention_mask


class TestScoring:
    def test_matches_direct_forward(self):
        m = tiny_model()
        ds = encode_records(records(), small_vocab(), max_len=12)
        probs = score_dataset(m, ds)
        direct = forward_probs(m, ds.ids, ds.mask, ds.ctx).data
        assert np.allclose(probs, direct, atol=1e-6)

    def test_batching_consistent(self):
        m = tiny_model()
        recs = records() * 5
        ds = encode_records(recs, small_vocab(), max_len=12)
        a = score_dataset(m, ds, batch_size=3)
        b = score_dataset(m, ds, batch_size=64)
        assert np.allclose(a, b, atol=1e-6)

    def test_use_context_false_zeroes(self):
        m = tiny_model()
        ds = encode_records(records(), small_vocab(), max_len=12)
        zeroed = score_dataset(m, ds, use_context=False)
        ds2 = encode_records(records(), small_vocab(), max_len=12)
        ds2.ctx[:] = 0
        assert np.array_equal(zeroed, score_dataset(m, ds2))

    def test_score_records_wrapper(self):
        m = tiny_model()
        probs = score_records(m, records(), small_vocab(), max_len=12)
        assert probs.shape == (2,)
        assert np.all((probs > 0) & (probs < 1))

    def test_contextless_model(self):
        m = tiny_model(context_dim=0)
        ds = encode_records(records(), small_vocab(), max_len=12)
        probs = score_dataset(m, ds)
        assert probs.shape == (2,)


def mixed_length_records(n=23, seed=0):
    """Mostly short mail, and every fifth record long enough to fill or
    overflow a 16-token row."""
    rng = np.random.default_rng(seed)
    words = ["pay", "money", "hello", "now"]
    recs = []
    for i in range(n):
        n_words = int(rng.integers(20, 40)) if i % 5 == 3 else int(rng.integers(0, 6))
        recs.append(EmailRecord(subject=str(rng.choice(words)),
                                body_text=" ".join(rng.choice(words, n_words)),
                                label=i % 2, from_addr="a@x.co", to_addrs=["b@y.co"],
                                group="bec" if i % 7 == 0 else None))
    return recs


class TestTrimPadding:
    def test_cuts_after_the_longest_row(self):
        ids = np.arange(12).reshape(2, 6)
        mask = np.array([[1, 1, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0]])
        t_ids, t_mask = trim_padding(ids, mask)
        assert np.array_equal(t_ids, ids[:, :4])
        assert np.array_equal(t_mask, mask[:, :4])

    def test_keeps_one_column(self):
        ids, mask = trim_padding(np.zeros((3, 5), np.int64), np.zeros((3, 5), np.int64))
        assert ids.shape == mask.shape == (3, 1)

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 64], ids=lambda b: f"{b}-head")
    def test_scores_equal_the_full_width_forward(self, batch_size):
        m = tiny_model()
        ds = encode_records(mixed_length_records(), small_vocab(), max_len=16)
        lengths = ds.mask.sum(axis=1)
        assert lengths.max() == 16 and np.median(lengths) < 8
        zeros = np.zeros_like(ds.ctx)
        for use_context, ctx in ((True, ds.ctx), (False, zeros)):
            want = forward_probs(m, ds.ids, ds.mask, ctx).data
            got = score_dataset(m, ds, batch_size=batch_size, use_context=use_context)
            assert np.max(np.abs(got - want)) < 1e-6
        assert ds.ids.shape == ds.mask.shape == (len(ds), 16)

    def test_train_step_loss_and_gradients_match_untrimmed(self):
        recs = [r for r in mixed_length_records(40) if len(r.body_text.split()) < 6]
        ds = encode_records(recs, small_vocab(), max_len=16)
        assert ds.mask.sum(axis=1).max() < 12
        cfg = TrainConfig(epochs=1, batch_size=len(ds), balanced=False, learning_rate=1e-3)
        weights = effective_weights(ds, cfg.bec_weight)

        losses, grads = [], []
        for ids, mask in ((ds.ids, ds.mask), trim_padding(ds.ids, ds.mask)):
            m = tiny_model()
            with Tape() as tape:
                loss = bce_loss(forward_probs(m, ids, mask, ds.ctx), ds.labels, weights)
            backward(tape, loss)
            losses.append(float(loss.data))
            grads.append({n: dense_grad(p.grad) for n, p in m.params.items()})
        assert abs(losses[0] - losses[1]) < 1e-6
        for name in grads[0]:
            assert np.max(np.abs(grads[0][name] - grads[1][name])) < 1e-6, name

        # one epoch of one batch: its loss is taken before the step
        history = train(tiny_model(), ds, cfg)
        assert abs(history.epochs[0]["train_loss"] - losses[0]) < 1e-6
