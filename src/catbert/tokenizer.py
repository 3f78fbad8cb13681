"""WordPiece tokenization with BERT-style special-token framing.

A vocabulary is a plain text file, one token per line, id = line index.
Sub-word continuation pieces carry the ``##`` prefix. Tokenization is
lowercase, splits on whitespace and punctuation (punctuation survives as
single-char tokens), then greedy longest-match-first within each word.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterator

from .atomic import replacing

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
_SPECIALS = (PAD, UNK, CLS, SEP)
CONT = "##"
MIN_MAX_LEN = 3  # the shortest row: [CLS], one content token, [SEP]
DEFAULT_MAX_LEN = 128  # row width when the caller names none
_CHUNK = re.compile(r"\S+")  # re's \s is exactly str.isspace


class VocabularyError(ValueError):
    pass


@dataclass
class Vocabulary:
    tokens: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.tokens)
        self.token_to_id = dict(zip(self.tokens, range(n)))
        # a blank line would shift every later id, a repeated one leave an id unreachable
        if len(self.token_to_id) != n or "" in self.token_to_id:
            raise VocabularyError(_bad_line(self.tokens))
        missing = [s for s in _SPECIALS if s not in self.token_to_id]
        if missing:
            raise VocabularyError(f"vocabulary missing special tokens: {', '.join(missing)}")
        self.pad_id = self.token_to_id[PAD]
        self.unk_id = self.token_to_id[UNK]
        self.cls_id = self.token_to_id[CLS]
        self.sep_id = self.token_to_id[SEP]
        # longest token without its ## prefix: no longer WordPiece candidate can match
        self.longest = max(map(len, map(str.removeprefix, self.tokens, itertools.repeat(CONT))))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]


def _bad_line(tokens: list[str]) -> str:
    """The refusal of the first empty or repeated token, in line order."""
    first: dict[str, int] = {}
    for i, tok in enumerate(tokens, 1):
        if not tok:
            return f"empty token on line {i}"
        if tok in first:
            return f"duplicate token {tok!r} on lines {first[tok]} and {i}"
        first[tok] = i
    raise AssertionError("no empty or repeated token")


def load_vocab(path) -> Vocabulary:
    """Read a UTF-8 vocab file, one token per line (line index = token id).
    A valid file is read in C-level passes (one read, one split, one dict
    build); its lines are walked one by one only to name a refused one."""
    try:
        with open(path, encoding="utf-8") as f:
            # split on "\n" alone: splitlines() would also break at \x0b, \x85, \u2028, ...
            tokens = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise VocabularyError(f"vocab file {path} is not UTF-8 text: {e.reason}") from None
    if tokens[-1] == "":  # the final newline ends the last line, it opens no new one
        tokens.pop()
    try:
        return Vocabulary(tokens)
    except VocabularyError as e:
        raise VocabularyError(f"{e}, in {path}") from None


def save_vocab(tokens: list[str], path) -> None:
    """Write one token per line, for ``load_vocab``. VocabularyError, before
    anything is written, for a token that is empty or holds a line break,
    which would load as another count of lines and shift every later id."""
    for i, tok in enumerate(tokens):
        if not tok or "\n" in tok or "\r" in tok:
            raise VocabularyError(f"token {tok!r} on line {i + 1} is empty or holds a line break")
    with replacing(path) as f:
        for tok in tokens:
            f.write(tok + "\n")


def _is_punct(ch: str) -> bool:
    # ASCII symbol ranges count too ('$', '@', ...), matching uncased BERT
    o = ord(ch)
    if 33 <= o <= 47 or 58 <= o <= 64 or 91 <= o <= 96 or 123 <= o <= 126:
        return True
    return unicodedata.category(ch).startswith("P")


def iter_words(text: str) -> Iterator[str]:
    """Lowercase and split into words, punctuation as single-char tokens,
    one whitespace-separated chunk at a time: a caller that stops early
    leaves the rest of ``text`` unread. Lowercasing a chunk alone gives
    what lowercasing ``text`` would, since no whitespace character is
    cased or case-ignorable (so even a final Σ sees the same context)."""
    for match in _CHUNK.finditer(text):
        chunk = match.group().lower()
        start = 0
        for i, ch in enumerate(chunk):
            if _is_punct(ch):
                if i > start:
                    yield chunk[start:i]
                yield ch
                start = i + 1
        if start < len(chunk):
            yield chunk[start:]


def pre_tokenize(text: str) -> list[str]:
    """Lowercase and split into words, punctuation as single-char tokens."""
    return list(iter_words(text))


def _split_word(word: str, vocab: Vocabulary) -> list[str]:
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = min(len(word), start + vocab.longest)
        piece = None
        while end > start:
            cand = word[start:end]
            if start > 0:
                cand = CONT + cand
            if cand in vocab:
                piece = cand
                break
            end -= 1
        if piece is None:
            return [UNK]
        pieces.append(piece)
        start = end
    return pieces


def wordpiece(text: str, vocab: Vocabulary) -> list[str]:
    """Tokenize ``text`` into vocab pieces; unmatchable words become [UNK]."""
    out: list[str] = []
    for word in iter_words(text):
        out.extend(_split_word(word, vocab))
    return out


@dataclass
class TokenSequence:
    ids: list[int]
    attention_mask: list[int]
    n_tokens: int  # content tokens, counted up to max_len - 1: above max_len - 2 means cut


def encode(subject: str, body: str, vocab: Vocabulary,
           max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Tokenize subject+body, keep the first max_len-2 content tokens, frame
    them with [CLS]/[SEP] and pad to max_len. Tokenizing stops after the
    word that takes the count past max_len-2, so the cost of a row does
    not grow with the text it leaves out."""
    if max_len < MIN_MAX_LEN:
        raise ValueError(f"max_len must be >= {MIN_MAX_LEN}, got {max_len}")
    budget = max_len - 2
    content: list[str] = []
    # subject and body are separate whitespace chunks, as in subject + " " + body
    for word in itertools.chain(iter_words(subject), iter_words(body)):
        content.extend(_split_word(word, vocab))
        if len(content) > budget:
            break
    ids = [vocab.cls_id] + [vocab.id_of(t) for t in content[:budget]] + [vocab.sep_id]
    mask = [1] * len(ids)
    pad = max_len - len(ids)
    ids.extend([vocab.pad_id] * pad)
    mask.extend([0] * pad)
    return TokenSequence(ids=ids, attention_mask=mask, n_tokens=min(len(content), budget + 1))

