import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert.tokenizer import (
    TokenSequence,
    Vocabulary,
    VocabularyError,
    decode,
    encode,
    load_vocab,
    pre_tokenize,
    save_vocab,
    wordpiece,
)

TOY = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "pay", "##ment", "money"]


@pytest.fixture
def toy():
    return Vocabulary(list(TOY))


class TestLoadVocab:
    def test_toy_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        save_vocab(TOY, p)
        v = load_vocab(p)
        assert len(v) == 7
        assert v.cls_id == 2
        assert v.id_of("money") == 6

    def test_empty_file_missing_specials(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("")
        with pytest.raises(VocabularyError, match=r"\[PAD\]"):
            load_vocab(p)

    def test_duplicate_reports_both_lines(self, tmp_path):
        p = tmp_path / "vocab.txt"
        lines = TOY + ["x", "pay"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(VocabularyError, match="lines 5 and 9"):
            load_vocab(p)

    def test_missing_one_special_named(self):
        with pytest.raises(VocabularyError, match=r"\[SEP\]"):
            Vocabulary(["[PAD]", "[UNK]", "[CLS]", "pay"])


class TestWordpiece:
    def test_greedy_trace(self, toy):
        assert wordpiece("payment", toy) == ["pay", "##ment"]

    def test_empty(self, toy):
        assert wordpiece("", toy) == []

    def test_unknown_word_is_single_unk(self, toy):
        assert wordpiece("xyzzy", toy) == ["[UNK]"]

    def test_partial_match_still_unk(self, toy):
        # "pay" matches but "zzz" has no continuation: whole word falls back
        assert wordpiece("payzzz", toy) == ["[UNK]"]

    def test_lowercases(self, toy):
        assert wordpiece("PAYMENT", toy) == ["pay", "##ment"]

    def test_punctuation_splits_word(self, toy):
        # homoglyph '@' breaks the word into pieces, never the original token
        pieces = wordpiece("p@yment", toy)
        assert pieces != ["pay", "##ment"]
        assert len(pieces) == 3  # p / @ / yment, each mapped or [UNK]

    def test_multiword(self, toy):
        assert wordpiece("money payment", toy) == ["money", "pay", "##ment"]

    def test_long_word_costs_at_most_longest_lookups_per_letter(self, monkeypatch):
        v = Vocabulary(TOY + ["a", "##a"])
        lookups = []
        contains = Vocabulary.__contains__
        monkeypatch.setattr(Vocabulary, "__contains__",
                            lambda self, tok: lookups.append(tok) or contains(self, tok))
        for n in (1, 10, 500):
            lookups.clear()
            assert wordpiece("a" * n, v) == ["a"] + ["##a"] * (n - 1)
            assert len(lookups) <= n * v.longest
        lookups.clear()
        assert wordpiece("z" * 500, v) == ["[UNK]"]
        assert len(lookups) <= v.longest


class TestPreTokenize:
    def test_whitespace_and_punct(self):
        assert pre_tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_at_sign_is_its_own_token(self):
        assert pre_tokenize("p@yment") == ["p", "@", "yment"]

    def test_runs_of_space(self):
        assert pre_tokenize("  a \t b\n") == ["a", "b"]


class TestEncode:
    def test_frame_and_padding(self, toy):
        seq = encode("payment", "", toy, max_len=8)
        assert seq.ids == [2, 4, 5, 3, 0, 0, 0, 0]
        assert seq.attention_mask == [1, 1, 1, 1, 0, 0, 0, 0]
        assert seq.n_tokens == 2

    def test_truncation_exact_length(self, toy):
        body = " ".join(["money"] * 300)
        seq = encode("", body, toy, max_len=128)
        assert len(seq.ids) == 128
        assert seq.ids[0] == toy.cls_id
        assert seq.ids[-1] == toy.sep_id
        assert sum(seq.attention_mask) == 128
        assert seq.n_tokens == 300

    def test_empty_input(self, toy):
        seq = encode("", "", toy, max_len=5)
        assert seq.ids == [2, 3, 0, 0, 0]
        assert seq.attention_mask == [1, 1, 0, 0, 0]

    def test_max_len_contract(self, toy):
        with pytest.raises(ValueError):
            encode("x", "y", toy, max_len=2)

    def test_mask_matches_nonpad(self, toy):
        seq = encode("money", "pay money", toy, max_len=16)
        for i, m in zip(seq.ids, seq.attention_mask):
            assert (m == 1) == (i != toy.pad_id)


WORDS = st.lists(
    st.sampled_from(["pay", "money", "cash", "wire", "now"]),
    min_size=1, max_size=20,
)


@settings(max_examples=100, deadline=None)
@given(WORDS)
def test_roundtrip_in_vocab_words(words):
    v = Vocabulary(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "pay", "money", "cash", "wire", "now"])
    text = " ".join(words)
    seq = encode(text, "", v, max_len=64)
    assert decode(seq.ids, v) == text


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80), st.integers(3, 40))
def test_encode_total_and_fixed_length(text, max_len):
    v = Vocabulary(TOY)
    seq = encode(text, text, v, max_len=max_len)
    assert len(seq.ids) == max_len
    assert len(seq.attention_mask) == max_len
    assert seq.ids[0] == v.cls_id
    nonpad = [i for i in seq.ids if i != v.pad_id]
    assert nonpad[-1] == v.sep_id


def test_decode_merges_continuations(toy):
    seq = encode("payment", "money", toy, max_len=16)
    assert decode(seq.ids, toy) == "payment money"
