import hashlib
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert.cli import main
from catbert.mail import (EmailRecord, body_text_of, build_content, load_dataset,
                          load_dataset_with_report, record_to_json)
from catbert.model import ModelConfig, _pack, _row_groups, forward_probs, init_random
from catbert.synthetic import make_corpus, synthetic_vocab
from catbert.pipeline import (EncodedDataset, encode_records, encode_texts, make_model_scorer,
                              score_dataset, score_records)
from catbert.tensor import Tape, backward, dense_grad
from catbert.tokenizer import DEFAULT_MAX_LEN, Vocabulary, encode
from catbert.train import TrainConfig, balanced_batches, bce_loss, effective_weights, train

from oracles import astype


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
    def test_row_width_has_no_default(self):
        # no width fits every model: rows wider than max_positions are refused
        with pytest.raises(TypeError, match="max_len"):
            encode_records(records(), small_vocab())
        with pytest.raises(TypeError, match="max_len"):
            encode_texts(["pay", "now"], records(), small_vocab())

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
        (DEFAULT_MAX_LEN, "ddbf5cdff8ce1408e1fb7f662c0bf477ecd3178c37ace7bbf06bd1e02cd67380"),
    ], ids=["3", "16", "default"])
    def test_rows_keep_the_head_of_each_email(self, max_len, digest):
        # pinned from the head rows of the encoder that could also keep the
        # tail, at widths that cut every row (3), most rows (16) and none
        recs = make_corpus(n=64, malicious_frac=0.3, seed=0)
        ds = encode_records(recs, Vocabulary(synthetic_vocab()), max_len=max_len)
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

    def test_one_warning_counts_the_unparseable_headers(self, caplog):
        """One warning per call, counting the distinct records whose
        addresses do not parse and quoting the first one short; their rows
        read as external."""
        bad = EmailRecord(subject="pay", from_addr="MAILER-DAEMON", to_addrs=["b@x.co"])
        blank = EmailRecord(subject="now", from_addr="a@x.co")
        recs = records() + [bad, blank, bad]
        with caplog.at_level("WARNING"):
            ds = encode_texts(["pay"] * 5, recs, small_vocab(), max_len=12)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line == ("2 of 4 records have unparseable addresses and are read as external; "
                        "the first: from=str 'MAILER-DAEMON', to=list ['b@x.co']")
        assert ds.ctx[2:, :2].tolist() == [[0, 1]] * 3
        caplog.clear()
        with caplog.at_level("WARNING"):
            encode_texts(["pay", "now"], records(), small_vocab(), max_len=12)
        assert not caplog.records

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

    def test_score_records_wrapper(self):
        m = tiny_model()
        probs = score_records(m, records(), small_vocab())
        assert probs.shape == (2,)
        assert np.all((probs > 0) & (probs < 1))

    def test_library_scoring_defaults_to_the_models_row_width(self):
        # rows of 16 tokens on a 16-position model, whatever the email's length
        m = tiny_model()
        recs = records() + [EmailRecord(subject="pay", body_text="pay money now " * 8, label=1)]
        want = score_dataset(m, encode_records(recs, small_vocab(), max_len=16))
        assert score_records(m, recs, small_vocab()).tobytes() == want.tobytes()
        assert score_records(m, recs, small_vocab(), max_len=16).tobytes() == want.tobytes()
        scorer = make_model_scorer(m, small_vocab())
        assert scorer([build_content(r) for r in recs], recs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("max_len", [12, 17])
    def test_score_records_refuses_another_width(self, max_len):
        with pytest.raises(ValueError, match=f"max_len {max_len} is not the model's row "
                                             f"width 16, the only width its text is encoded at"):
            score_records(tiny_model(), records(), small_vocab(), max_len=max_len)

    def test_contextless_model(self):
        m = tiny_model(context_dim=0)
        ds = encode_records(records(), small_vocab(), max_len=12)
        probs = score_dataset(m, ds)
        assert probs.shape == (2,)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_rejected(self, batch_size):
        """``range(0, n, -1)`` is empty: the output would be uninitialised memory."""
        ds = encode_records(records(), small_vocab(), max_len=12)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            score_dataset(tiny_model(), ds, batch_size=batch_size)


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
    """``score_dataset`` and ``train`` hand the forward rows padded to
    ``max_len``; the forward packs each row's real tokens into one segment
    and reads nothing past them."""

    def test_each_row_is_one_segment_of_its_tokens(self):
        for width in (1, 5, 16):
            lengths = np.array([1, width, max(1, width - 2)])
            mask = (np.arange(16)[None, :] < lengths[:, None]).astype(np.int64)
            coords, (starts, segment_lengths) = _pack(mask)
            assert np.array_equal(segment_lengths, lengths)
            assert np.array_equal(starts, [0, 1, 1 + width])
            assert np.array_equal(coords[0] * 16 + coords[1], np.flatnonzero(mask))

    def test_empty_batch(self):
        empty = np.zeros((0, 16), np.int64)
        assert forward_probs(tiny_model(), empty, empty, np.zeros((0, 4))).data.shape == (0,)

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 64], ids=lambda b: f"{b}-head")
    def test_scores_equal_the_full_width_forward(self, batch_size):
        m = tiny_model()
        ds = encode_records(mixed_length_records(), small_vocab(), max_len=16)
        lengths = ds.mask.sum(axis=1)
        assert lengths.max() == 16 and np.median(lengths) < 8
        want = forward_probs(m, ds.ids, ds.mask, ds.ctx).data
        assert np.array_equal(score_dataset(m, ds, batch_size=batch_size), want)
        assert ds.ids.shape == ds.mask.shape == (len(ds), 16)

    def test_train_step_loss_and_gradients_match_untrimmed(self):
        """The forward of the (B, 16) arrays, with and without a tape, in f32
        and f64, gives the bytes of the forward of the batch cut by hand at
        its longest row, and so does every parameter gradient."""
        recs = [r for r in mixed_length_records(40) if len(r.body_text.split()) < 6]
        ds = encode_records(recs, small_vocab(), max_len=16)
        ds.ids[ds.mask == 0] = 8  # out of the vocabulary, so reading one would raise
        # one balanced batch holds the whole epoch; train() draws it from the same rng
        B = 2 * int(np.bincount(ds.labels).max())
        cfg = TrainConfig(epochs=1, batch_size=B, learning_rate=1e-3)
        (idx,) = balanced_batches(ds.labels, B, np.random.default_rng(cfg.seed))
        width = ds.mask[idx].sum(axis=1).max()
        assert width < 12
        labels, weights = ds.labels[idx], effective_weights(ds, cfg.bec_weight)[idx]

        for dtype in (np.float32, np.float64):
            ctx = ds.ctx[idx].astype(dtype)
            runs = []
            for ids, mask in ((ds.ids[idx], ds.mask[idx]),
                              (ds.ids[idx, :width], ds.mask[idx, :width])):
                m = astype(tiny_model(), dtype)
                probs = forward_probs(m, ids, mask, ctx).data
                with Tape() as tape:
                    loss = bce_loss(forward_probs(m, ids, mask, ctx), labels, weights)
                backward(tape, loss)
                runs.append([probs, loss.data] + [dense_grad(p.grad) for p in m.parameters()])
            for padded, cut in zip(*runs):
                assert padded.dtype == dtype and padded.tobytes() == cut.tobytes()
            if dtype == np.float32:
                loss32 = float(runs[0][1])

        # one epoch of one batch: its loss is taken before the step
        history = train(tiny_model(), ds, cfg)
        assert abs(history.epochs[0]["train_loss"] - loss32) < 1e-6


def ragged_dataset(lengths, seed=0):
    """Rows of the given token counts, [CLS] first, padded to 128."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths)
    mask = (np.arange(128)[None, :] < lengths[:, None]).astype(np.int64)
    ids = rng.integers(4, 50, size=mask.shape) * mask
    ids[:, 0] = 2
    n = len(lengths)
    return EncodedDataset(ids=ids, mask=mask, ctx=rng.random((n, 4)).astype(np.float32),
                          labels=np.arange(n) % 2, weights=np.ones(n, np.float32),
                          groups=[None] * n)


def ragged_model(seed=3):
    cfg = ModelConfig(vocab_size=50, hidden=32, ffn_dim=128, heads=4, max_positions=128,
                      block_plan=("T", "A", "T", "A"))
    m = init_random(cfg, seed)
    for name, p in m.params.items():  # biases that move every row
        if name.endswith((".b", ".b1", ".b2", ".bias")):
            p.data[...] = np.random.default_rng(len(name)).normal(0.0, 0.5, p.data.shape)
    return m


ONE_GROUP = 10**9  # a budget no batch reaches: the whole batch is one group


class TestRowGroups:
    """Without a tape the embeddings and the blocks below the last
    transformer run on consecutive groups of rows, ``GROUP_TOKENS`` tokens
    at most; the scores are those of one group, bit for bit."""

    @pytest.mark.parametrize("budget, lengths, want", [
        (10, [4, 4, 4, 4], [(0, 2), (2, 4)]),
        (10, [3, 12, 3], [(0, 1), (1, 2), (2, 3)]),
        (10, [10, 1], [(0, 2)]),
        (10, [1, 12, 5], [(0, 2), (2, 3)]),
        (10, [6, 4, 6, 1], [(0, 2), (2, 4)]),
        (10, [1], [(0, 1)]),
        (10, [1, 1, 1], [(0, 3)]),
        (10, [], [(0, 0)]),
    ], ids=["even", "long-row-alone", "lone-cls-joins-before", "lone-cls-joins-after",
            "lone-cls-last", "one-token-batch", "cls-only-rows", "empty"])
    def test_groups_tile_the_rows(self, monkeypatch, budget, lengths, want):
        """A lone one-token row would make a group whose GEMMs run on one
        row, as GEMVs that round otherwise; it joins a neighbour instead."""
        monkeypatch.setattr("catbert.model.GROUP_TOKENS", budget)
        assert _row_groups(np.array(lengths, dtype=np.int64)) == want

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_scores_equal_the_one_group_forward(self, monkeypatch, batch_size):
        lengths = np.random.default_rng(1).integers(2, 129, size=64)
        lengths[:3] = (128, 2, 2)
        ds, m = ragged_dataset(lengths), ragged_model()
        runs = []
        for budget in (ONE_GROUP, 100):
            monkeypatch.setattr("catbert.model.GROUP_TOKENS", budget)
            runs.append(score_dataset(m, ds, batch_size=batch_size))
        assert len(_row_groups(lengths[:7])) > 1  # the budget splits batches mid-way
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_a_lone_cls_row_scores_in_a_group_of_two_or_more_tokens(self, monkeypatch):
        """A 100-token group fills the budget and a one-token row follows:
        it joins that group rather than running its GEMMs on one row."""
        ds, m = ragged_dataset([50, 50, 1]), ragged_model()
        monkeypatch.setattr("catbert.model.GROUP_TOKENS", 100)
        assert _row_groups(ds.mask.sum(axis=1)) == [(0, 3)]
        grouped = score_dataset(m, ds, batch_size=3)
        monkeypatch.setattr("catbert.model.GROUP_TOKENS", ONE_GROUP)
        assert grouped.tobytes() == score_dataset(m, ds, batch_size=3).tobytes()

    def test_training_is_unchanged(self, monkeypatch):
        """A taped forward is one group, so a step's gradients, and train()'s
        history and trained tensors with a grouped validation pass, are the
        bytes of one group."""
        lengths = np.random.default_rng(2).integers(2, 60, size=16)
        ds, cfg = ragged_dataset(lengths), TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3)
        runs = []
        for budget in (ONE_GROUP, 40):
            monkeypatch.setattr("catbert.model.GROUP_TOKENS", budget)
            m = ragged_model()
            with Tape() as tape:
                loss = bce_loss(forward_probs(m, ds.ids, ds.mask, ds.ctx), ds.labels,
                                np.ones(len(ds)))
            backward(tape, loss)
            grads = [dense_grad(p.grad).tobytes() for p in m.parameters()]
            trained = ragged_model()
            history = train(trained, ds, cfg, val_set=ds)
            runs.append((len(tape), grads, history.epochs, history.best_epoch,
                         [p.data.tobytes() for p in trained.parameters()]))
        assert runs[0] == runs[1]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=6)
WORDS = st.lists(st.sampled_from(["pay", "money", "hello", "now", "ünï", "<b>x</b>"]),
                 max_size=6).map(" ".join)
ADDRESSES = st.lists(st.sampled_from(["a@x.co", "b@y.co", "bad", ""]), max_size=3)
FIELDS = {"subject": WORDS, "body_text": WORDS, "body_html": WORDS,
          "from": st.sampled_from(["a@x.co", "MAILER-DAEMON", ""]),
          "to": ADDRESSES, "cc": ADDRESSES,
          "group": st.sampled_from(["bec", "english", "non_english"]),
          "weight": st.floats(0.5, 100.0),
          "first_seen": st.sampled_from(["2024-01-02T03:04:05", "2024-01-02T03:04:05+01:00", "x"]),
          "x_custom": JSON_VALUES}
RECORDS = st.fixed_dictionaries({"label": st.sampled_from([0, 1, True, False, 1.0, 0.0])},
                                optional=FIELDS)
# a plausible record, one with any JSON value in one of its fields, or not a record at all
LINES = st.one_of(
    RECORDS.map(json.dumps),
    st.tuples(RECORDS, st.sampled_from(["label", *FIELDS]), JSON_VALUES).map(
        lambda t: json.dumps({**t[0], t[1]: t[2]})),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=20).filter(lambda t: "\n" not in t and "\r" not in t))


class TestHostileRecords:
    """A record in a JSONL file costs at most its own line."""

    @given(st.lists(LINES, min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_each_line_is_skipped_by_number_or_loads_round_trips_and_scores(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = os.path.join(tmp, "in.jsonl"), os.path.join(tmp, "out.jsonl")
            with open(src, "w", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))
            records, errors = load_dataset_with_report(src)
            numbered = [i for i, line in enumerate(lines, 1) if line.strip()]
            assert len(records) + len(errors) == len(numbered)
            skipped = [int(re.match(r"line (\d+): ", e).group(1)) for e in errors]
            assert set(skipped) <= set(numbered)
            assert main(["ingest", "--in", src, "--out", out, "--strict"]) == (2 if errors else 0)
            assert main(["ingest", "--in", src, "--out", out]) == 0
            assert load_dataset(out) == records
            assert all(type(r.label) is int for r in records)
            if records:
                ds = encode_records(records, small_vocab(), max_len=16)
                probs = score_dataset(tiny_model(), ds)
                assert np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))

    def test_bad_lines_leave_the_scores_of_the_good_records_unchanged(self, tmp_path):
        good = [record_to_json(r) for r in mixed_length_records(12)]
        bad = ['{"label": 0, "subject": 7}', '{"label": 1, "subject": ["x"]}',
               '{"label": 1, "body_text": {"a": 1}}', '{"label": 0, "body_html": 3}',
               '{"label": 1, "from": 5}', '{"label": 0, "to": [1, 2]}', "not json", "[" * 5000]
        clean, dirty = tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"
        clean.write_text("".join(line + "\n" for line in good))
        mixed = [line for pair in zip(good, bad) for line in pair] + good[len(bad):]
        dirty.write_text("".join(line + "\n" for line in mixed))
        records, errors = load_dataset_with_report(dirty)
        assert [e.split(":")[0] for e in errors] == [f"line {2 * i + 2}" for i in range(len(bad))]
        assert records == load_dataset(clean)
        m, vocab = tiny_model(), small_vocab()
        scores = [score_dataset(m, encode_records(recs, vocab, max_len=16))
                  for recs in (load_dataset(clean), records)]
        assert scores[0].tobytes() == scores[1].tobytes()
