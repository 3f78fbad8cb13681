import numpy as np
import pytest

from catbert.mail import EmailRecord, body_text_of, build_content
from catbert.model import ModelConfig, forward_probs, init_random
from catbert.pipeline import encode_records, encode_texts, score_dataset, score_records
from catbert.tokenizer import Vocabulary, encode


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

    def test_subset(self):
        ds = encode_records(records(), small_vocab(), max_len=12)
        sub = ds.subset([1])
        assert len(sub) == 1 and sub.labels.tolist() == [0]
        assert sub.groups == [None]


class TestEncodeTexts:
    def test_replaces_text_keeps_context(self):
        v = small_vocab()
        recs = records()
        base = encode_records(recs, v, max_len=12)
        swapped = encode_texts(["now now", "pay"], recs, v, max_len=12)
        assert not np.array_equal(swapped.ids[0], base.ids[0])
        assert np.array_equal(swapped.ctx, base.ctx)
        assert swapped.labels.tolist() == base.labels.tolist()

    @pytest.mark.parametrize("truncate", ["head", "tail"])
    def test_records_are_their_built_content(self, truncate):
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
        ds = encode_records(recs, v, max_len=8, truncate=truncate)
        folded = encode_texts([build_content(r) for r in recs], recs, v, max_len=8,
                              truncate=truncate)
        for field in ("ids", "mask", "ctx", "labels", "weights"):
            assert np.array_equal(getattr(ds, field), getattr(folded, field)), field
        assert ds.groups == folded.groups
        # the same rows the subject/body form of encode gives
        for i, r in enumerate(recs):
            seq = encode(r.subject, body_text_of(r), v, max_len=8, truncate=truncate)
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
