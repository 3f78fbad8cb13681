"""Seeded adversarial text perturbations and accuracy-under-attack reports.

Three perturbation kinds: synonym substitution from a lookup table, a single
seeded character edit per word (adjacent swap, drop, or double), and
homoglyph substitution from a char map. Words are split on whitespace; a
synonym is looked up, case-folded, in the word without its leading and
trailing punctuation, which the substitution keeps. An attack is a pure
function of (text, spec): same input and spec always give the same output,
and rate 0 is the exact identity. Attacks touch content text only; header
context features stay intact.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .mail import EmailRecord, build_content
from .tokenizer import _is_punct

KINDS = ("synonym", "typo", "homoglyph")

DEFAULT_HOMOGLYPHS = {
    "a": "@", "e": "3", "i": "1", "o": "0", "s": "$", "l": "|", "t": "+",
}


@dataclass(frozen=True)
class AttackSpec:
    """One attack. ``synonyms`` maps a word to a replacement or a list of
    them; it is stored with lowercased keys and list values, and two keys
    that are the same word in lower case are an error."""

    kind: str
    rate: float
    seed: int = 0
    synonyms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0,1], got {self.rate}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        if self.kind == "synonym" and not self.synonyms:
            raise ValueError("synonym attack needs a non-empty synonym table")
        object.__setattr__(self, "synonyms", synonym_table(self.synonyms))


def synonym_table(synonyms: dict) -> dict:
    """``synonyms`` with lowercased keys and list values. ValueError on an
    entry that offers no replacement, or two keys that are one word."""
    folded = {}
    for word, choices in synonyms.items():
        if isinstance(choices, str):
            choices = [choices]
        if not (isinstance(choices, list) and choices
                and all(isinstance(c, str) and c for c in choices)):
            raise ValueError(f"synonyms[{word!r}] must be a non-empty string or a "
                             "non-empty list of non-empty strings")
        if word.lower() in folded:
            first = next(w for w in synonyms if w.lower() == word.lower())
            raise ValueError(f"synonym keys {first!r} and {word!r} are the same word")
        folded[word.lower()] = choices
    return folded


def _typo(word: str, rng: np.random.Generator) -> str:
    # one edit: adjacent swap, drop, or double, position chosen by the rng
    op = int(rng.integers(0, 3))
    if op == 0 and len(word) >= 2:
        p = int(rng.integers(0, len(word) - 1))
        return word[:p] + word[p + 1] + word[p] + word[p + 2:]
    if op == 1 and len(word) >= 2:
        p = int(rng.integers(0, len(word)))
        return word[:p] + word[p + 1:]
    p = int(rng.integers(0, len(word)))
    return word[:p] + word[p] + word[p:]


def _eligible(word: str, spec: AttackSpec) -> bool:
    if spec.kind == "synonym":
        return word.lower() in spec.synonyms
    if spec.kind == "typo":
        return len(word) >= 2
    return any(ch in DEFAULT_HOMOGLYPHS for ch in word.lower())


def _perturb(word: str, spec: AttackSpec, rng: np.random.Generator) -> str:
    if spec.kind == "synonym":
        choices = spec.synonyms[word.lower()]
        return choices[int(rng.integers(0, len(choices)))]
    if spec.kind == "typo":
        return _typo(word, rng)
    return "".join(DEFAULT_HOMOGLYPHS.get(ch.lower(), ch) for ch in word)


def _strip_punct(part: str) -> tuple[str, str, str]:
    """``part`` as (leading punctuation, word, trailing punctuation)."""
    i, j = 0, len(part)
    while i < j and _is_punct(part[i]):
        i += 1
    while j > i and _is_punct(part[j - 1]):
        j -= 1
    return part[:i], part[i:j], part[j:]


def attack(text: str, spec: AttackSpec) -> str:
    """Perturb eligible words at ``spec.rate``. Whitespace is preserved, and
    so is the punctuation around a synonym; rate 0 returns ``text``
    unchanged, byte for byte."""
    if spec.rate == 0.0:
        return text
    # seed mixes in a digest of the text so per-word draws decorrelate
    # across a corpus; hashlib keeps it stable across processes
    digest = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    rng = np.random.default_rng([spec.seed, digest])
    parts = re.split(r"(\s+)", text)
    out = []
    for part in parts:
        lead, word, trail = _strip_punct(part) if spec.kind == "synonym" else ("", part, "")
        if word and not word.isspace() and _eligible(word, spec):
            if rng.random() < spec.rate:
                part = lead + _perturb(word, spec, rng) + trail
        out.append(part)
    return "".join(out)


def check_threshold(threshold: float) -> None:
    """ValueError unless ``threshold`` is strictly between 0 and 1."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")


def accuracy_under_attack(scorer, records: list[EmailRecord], spec: AttackSpec,
                          threshold: float = 0.5) -> dict:
    """Detection accuracy on the malicious subset, clean vs attacked.

    ``scorer(texts, records) -> probs`` sees perturbed content text while the
    records keep their original headers.
    """
    check_threshold(threshold)
    malicious = [r for r in records if r.label == 1]
    if not malicious:
        raise ValueError("no malicious records to attack")
    clean_texts = [build_content(r) for r in malicious]
    attacked_texts = [attack(t, spec) for t in clean_texts]
    clean = np.asarray(scorer(clean_texts, malicious))
    attacked = np.asarray(scorer(attacked_texts, malicious))
    clean_acc = float((clean >= threshold).mean())
    attacked_acc = float((attacked >= threshold).mean())
    return {
        "kind": spec.kind, "rate": spec.rate, "seed": spec.seed,
        "n_malicious": len(malicious), "threshold": threshold,
        "clean_acc": clean_acc, "attacked_acc": attacked_acc,
        "delta": clean_acc - attacked_acc,
    }
