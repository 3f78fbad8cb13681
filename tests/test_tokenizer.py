import itertools
import re
import string
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbert import tokenizer
from catbert.synthetic import synthetic_vocab
from catbert.tokenizer import (
    _SPECIALS,
    CONT,
    TokenSequence,
    Vocabulary,
    VocabularyError,
    _is_punct,
    _split_word,
    encode,
    load_vocab,
    pre_tokenize,
    save_vocab,
    wordpiece,
)

from oracles import decode, vocabulary_reference

TOY = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "pay", "##ment", "money"]


@pytest.fixture
def toy():
    return Vocabulary(list(TOY))


def generated_tokens(n: int = 30522) -> list[str]:
    """``n`` distinct tokens, BERT-base's count by default: the specials,
    then each lowercase word of one, two, ... letters whole and as a
    ``##`` piece."""
    words = ("".join(w) for k in itertools.count(1)
             for w in itertools.product(string.ascii_lowercase, repeat=k))
    pieces = itertools.chain.from_iterable((w, CONT + w) for w in words)
    return [*_SPECIALS, *itertools.islice(pieces, n - len(_SPECIALS))]


def assert_matches_reference(vocab: Vocabulary, tokens: list[str]) -> None:
    token_to_id, longest = vocabulary_reference(tokens)
    assert vocab.tokens == tokens
    assert vocab.token_to_id == token_to_id
    assert vocab.longest == longest
    assert ([vocab.pad_id, vocab.unk_id, vocab.cls_id, vocab.sep_id]
            == [token_to_id[s] for s in _SPECIALS])


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

    @pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no-newline"])
    def test_loads_with_or_without_a_final_newline(self, tmp_path, final_newline):
        p = tmp_path / "vocab.txt"
        p.write_text("\n".join(TOY) + "\n" * final_newline)
        assert load_vocab(p).tokens == TOY

    def test_blank_line_is_an_error_naming_it(self, tmp_path):
        """A blank line would shift every later id ([CLS] to 3 here)."""
        p = tmp_path / "vocab.txt"
        p.write_text("[PAD]\n[UNK]\n\n[CLS]\n[SEP]\na\n")
        with pytest.raises(VocabularyError, match=f"empty token on line 3, in {re.escape(str(p))}"):
            load_vocab(p)

    def test_a_byte_that_is_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_bytes("\n".join(TOY).encode() + b"\npay\xff\n")
        with pytest.raises(VocabularyError, match=f"vocab file {re.escape(str(p))} is not UTF-8"):
            load_vocab(p)

    def test_saved_empty_token_does_not_reload_one_short(self, tmp_path):
        p = tmp_path / "vocab.txt"
        with pytest.raises(VocabularyError, match="token '' on line 8 is empty"):
            save_vocab(TOY + [""], p)
        assert not p.exists()

    @pytest.mark.parametrize("token", ["a\nb", "a\rb", "a\r\nb", "\n"])
    def test_a_token_with_a_line_break_is_refused_before_writing(self, tmp_path, token):
        """Saved as given, the token would reload as two lines (or an empty
        one) and shift every later id. The old file is left as it was."""
        p = tmp_path / "vocab.txt"
        save_vocab(TOY, p)
        tokens = TOY[:5] + [token] + TOY[5:]
        with pytest.raises(VocabularyError, match=f"token {re.escape(repr(token))} on line 6"):
            save_vocab(tokens, p)
        assert load_vocab(p).tokens == TOY
        assert sorted(q.name for q in tmp_path.iterdir()) == ["vocab.txt"]

    def test_round_trip_keeps_every_id(self, tmp_path):
        p = tmp_path / "vocab.txt"
        tokens = TOY + ["a b", "##\u00e9t\u00e9", "\u2028", "\t"]
        save_vocab(tokens, p)
        assert load_vocab(p).tokens == tokens

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_bert_sized_vocabulary_loads_as_the_line_walk_builds_it(self, tmp_path, line_end):
        tokens = generated_tokens()
        p = tmp_path / "vocab.txt"
        p.write_bytes("".join(t + line_end for t in tokens).encode())
        assert_matches_reference(load_vocab(p), tokens)


class TestLineWalk:
    """The lines of a vocabulary are walked only to name a refused one."""

    def test_a_valid_file_is_never_walked(self, tmp_path, monkeypatch):
        def walk(tokens):
            raise AssertionError("walked the lines of a valid vocabulary")

        monkeypatch.setattr(tokenizer, "_bad_line", walk)
        p = tmp_path / "vocab.txt"
        for tokens in (synthetic_vocab(), generated_tokens()):
            save_vocab(tokens, p)
            assert_matches_reference(load_vocab(p), tokens)

    @pytest.mark.parametrize("data, walks", [
        ("\n".join(TOY + ["x", "pay"]) + "\n", 1),
        ("[PAD]\n[UNK]\n\n[CLS]\n[SEP]\na\n", 1),
        ("\n".join(TOY[:4] + ["", "pay", "pay"]) + "\n", 1),
        ("", 0),
        ("[PAD]\n[UNK]\n[CLS]\npay\n", 0),
        ("\n".join(TOY) + "\npay\udcff\n", 0),
    ], ids=["duplicate", "blank-line", "blank-and-duplicate", "empty-file", "missing-special",
            "not-utf8"])
    def test_a_refused_file_is_walked_once_for_a_bad_line(self, tmp_path, monkeypatch, data,
                                                         walks):
        calls = []
        bad_line = tokenizer._bad_line
        monkeypatch.setattr(tokenizer, "_bad_line",
                            lambda tokens: calls.append(tokens) or bad_line(tokens))
        p = tmp_path / "vocab.txt"
        p.write_bytes(data.encode("utf-8", "surrogateescape"))
        with pytest.raises(VocabularyError, match=re.escape(f"{p}")):
            load_vocab(p)
        assert len(calls) == walks


# Line separators that str.splitlines() breaks at and a vocabulary line may hold.
SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
PIECE = st.text(alphabet="ab#" + SEPARATORS, max_size=4)
TOKEN = st.one_of(PIECE, PIECE.map(CONT.__add__), st.sampled_from(["", CONT, *_SPECIALS]))
TOKEN_LISTS = st.tuples(st.lists(TOKEN, max_size=10), st.booleans()).flatmap(
    lambda drawn: st.permutations(drawn[0] + list(_SPECIALS) * drawn[1]))


@settings(max_examples=300, deadline=None)
@given(TOKEN_LISTS)
@example(TOY + ["pay"])
@example(TOY[:4] + ["", "pay", "pay"])  # an empty line before a duplicate
@example(TOY[:4] + ["pay", "pay", ""])  # a duplicate before an empty line
@example(TOY[:4] + ["pay", "", "pay"])  # an empty line between a duplicate's lines
@example(["pay", "", "", "pay"])
@example(TOY[:4] + ["##", "a\u2028b"])
def test_vocabulary_builds_what_the_line_walk_builds(tokens):
    """``Vocabulary`` and ``load_vocab`` of the same lines give the line
    walk's ids and ``longest``, or its refusal."""
    expected = vocabulary_reference(tokens)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "vocab.txt"
        p.write_bytes("".join(t + "\n" for t in tokens).encode())
        if isinstance(expected, str):
            with pytest.raises(VocabularyError) as e:
                Vocabulary(tokens)
            assert str(e.value) == expected
            with pytest.raises(VocabularyError) as e:
                load_vocab(p)
            assert str(e.value) == f"{expected}, in {p}"
        else:
            assert_matches_reference(Vocabulary(tokens), tokens)
            assert_matches_reference(load_vocab(p), tokens)


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
        assert seq.n_tokens == 127  # counted up to the budget + 1

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


def _eager_ids(subject, body, vocab, max_len):
    """The uncapped oracle: lowercase the whole text at once, split it and
    WordPiece every word, then keep the first max_len - 2 pieces. Returns
    (ids without padding, content piece count)."""
    words, buf = [], []
    for ch in (subject + " " + body).lower():
        if ch.isspace() or _is_punct(ch):
            if buf:
                words.append("".join(buf))
                buf = []
            if not ch.isspace():
                words.append(ch)
        else:
            buf.append(ch)
    if buf:
        words.append("".join(buf))
    pieces = [piece for w in words for piece in _split_word(w, vocab)]
    ids = [vocab.cls_id] + [vocab.id_of(t) for t in pieces[:max_len - 2]] + [vocab.sep_id]
    return ids, len(pieces)


SIGMA_VOCAB = TOY + ["ας", "ασ", "##ς", "##σ", "α", "σ", "ς", "##α", "i", "##\u0307"]
SIGMA_TEXT = st.text(st.sampled_from(list("ΑΣσςαİIpay.'’-, \t\n\u00a0\u2003\u3000\x1c\u0301")),
                     max_size=40)


class TestEarlyStop:
    """``encode`` stops tokenizing once a row is full; every row's ids stay
    those of tokenizing the whole text."""

    @settings(max_examples=300, deadline=None)
    @given(SIGMA_TEXT, SIGMA_TEXT, st.integers(3, 12))
    @example("ΑΣ", "ΑΣ.Α ΑΣΑ ΑΣ' Α", 5)
    @example("", "İ ΑΣ\u3000ΑΣ", 3)
    def test_ids_match_the_uncapped_path(self, subject, body, max_len):
        v = Vocabulary(list(SIGMA_VOCAB))
        seq = encode(subject, body, v, max_len=max_len)
        want, n_pieces = _eager_ids(subject, body, v, max_len)
        assert seq.ids[:len(want)] == want
        assert set(seq.ids[len(want):]) <= {v.pad_id}
        assert seq.n_tokens == min(n_pieces, max_len - 1)

    def test_final_sigma_keeps_its_form_at_the_cut(self):
        v = Vocabulary(list(SIGMA_VOCAB))
        seq = encode("", "ΑΣ ΑΣΑ ΑΣ ΑΣΑ", v, max_len=5)  # budget 3; the fourth piece cuts
        assert seq.ids[1:4] == [v.id_of("ας"), v.id_of("ασ"), v.id_of("##α")]
        assert seq.n_tokens == 4

    def test_whitespace_ends_every_case_context(self):
        """Chunks split at whitespace lowercase alone as in the whole text:
        re's \\s is exactly str.isspace, lowercasing makes and changes no
        whitespace, and no whitespace character is cased or case-ignorable,
        so a final-sigma context stops at it."""
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = "".join(c for c in everything if c.isspace())
        assert "".join(re.findall(r"\s", everything)) == spaces
        assert "".join(re.findall(r"\s", everything.lower())) == spaces  # none made or changed
        for c in spaces:
            assert ("ΑΣ" + c + "Α").lower() == "ας" + c + "α", hex(ord(c))
            assert (c + "ΣΑ").lower() == c + "σα", hex(ord(c))

    def test_lookups_do_not_grow_with_the_body(self, toy, monkeypatch):
        lookups = []
        contains = Vocabulary.__contains__
        monkeypatch.setattr(Vocabulary, "__contains__",
                            lambda self, tok: lookups.append(tok) or contains(self, tok))
        counts, rows = [], []
        for size in (16 << 10, 4 << 20):
            body = ("payment money xyzzy, " * (size // 21 + 1))[:size]
            lookups.clear()
            rows.append(encode("Subject", body, toy).ids)
            counts.append(len(lookups))
        assert counts[0] == counts[1] > 0
        assert rows[0] == rows[1]


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
