import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert.attacks import (
    DEFAULT_HOMOGLYPHS,
    KINDS,
    AttackSpec,
    accuracy_under_attack,
    attack,
)
from catbert.mail import EmailRecord

GOLDEN = json.loads((Path(__file__).parent / "data" / "typo_golden.json").read_text())


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        AttackSpec(kind="delete-everything", rate=0.5, seed=0)
    with pytest.raises(ValueError, match="rate"):
        AttackSpec(kind="typo", rate=1.5, seed=0)
    with pytest.raises(ValueError, match="synonym"):
        AttackSpec(kind="synonym", rate=0.5, seed=0)  # no table
    for seed in (-1, 1.0):
        with pytest.raises(ValueError, match=f"seed must be an int >= 0, got {seed}"):
            AttackSpec(kind="typo", rate=0.5, seed=seed)
    for kind in ("typo", "homoglyph"):  # only a synonym attack reads a table
        with pytest.raises(ValueError, match=f"a {kind} attack reads no synonym table, "
                                             f"got one of 1 entries"):
            AttackSpec(kind=kind, rate=0.5, synonyms={"money": "funds"})
        assert AttackSpec(kind=kind, rate=0.5, synonyms={}).synonyms == {}
    assert set(KINDS) == {"synonym", "typo", "homoglyph"}


@pytest.mark.parametrize("choices", [[], "", [""], ["ok", 3], None, {"a": "b"}],
                         ids=["empty-list", "empty-string", "list-of-empty-string",
                              "list-with-number", "null", "object"])
def test_every_synonym_entry_must_offer_a_replacement(choices):
    with pytest.raises(ValueError, match=r"synonyms\['money'\] must be a non-empty string"):
        AttackSpec(kind="synonym", rate=0.5, synonyms={"wire": "cable", "money": choices})


def test_rate_zero_returns_text_byte_identical():
    text = "Pay  the\tinvoice\n now"
    spec = AttackSpec(kind="typo", rate=0.0, seed=3)
    assert attack(text, spec) is text


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60), st.integers(0, 2 ** 16))
def test_rate_zero_identity_property(text, seed):
    spec = AttackSpec(kind="homoglyph", rate=0.0, seed=seed)
    assert attack(text, spec) == text


def test_synonym_swaps_table_words():
    spec = AttackSpec(kind="synonym", rate=1.0, seed=0,
                      synonyms={"money": ["funds"]})
    assert attack("send money today", spec) == "send funds today"
    # lookup is case-insensitive, replacement comes from the table as-is
    assert attack("send Money today", spec) == "send funds today"
    assert attack("nothing eligible here", spec) == "nothing eligible here"


def test_synonym_keys_fold_case():
    spec = AttackSpec(kind="synonym", rate=1.0, synonyms={"Money": ["funds"], "WIRE": "cable"})
    assert spec.synonyms == {"money": ["funds"], "wire": ["cable"]}
    assert attack("send money now", spec) == "send funds now"
    assert attack("WIRE it", spec) == "cable it"


def test_synonym_keys_that_fold_together_are_rejected():
    with pytest.raises(ValueError, match="synonym keys 'money' and 'MONEY' are the same word"):
        AttackSpec(kind="synonym", rate=0.5, synonyms={"money": ["funds"], "MONEY": ["cash"]})


def test_synonym_matches_through_punctuation():
    spec = AttackSpec(kind="synonym", rate=1.0, synonyms={"money": ["funds"]})
    assert attack("send money, now. money", spec) == "send funds, now. funds"
    assert attack('("Money!") ... money\'s', spec) == '("funds!") ... money\'s'
    # a typo still edits the whole whitespace-split part: "a," is long enough
    assert attack("a,", AttackSpec(kind="typo", rate=1.0)) != "a,"


def test_synonym_picks_among_choices_deterministically():
    spec = AttackSpec(kind="synonym", rate=1.0, seed=5,
                      synonyms={"wire": ["cable", "line"]})
    out = attack("wire the amount", spec)
    assert out in ("cable the amount", "line the amount")
    assert attack("wire the amount", spec) == out


def test_homoglyph_maps_all_mappable_chars():
    spec = AttackSpec(kind="homoglyph", rate=1.0, seed=0)
    assert attack("payment", spec) == "p@ym3n+"
    assert attack("xyz", spec) == "xyz"  # nothing mappable, word not eligible
    assert DEFAULT_HOMOGLYPHS["a"] == "@"


def test_typo_golden_outputs():
    for case in GOLDEN:
        spec = AttackSpec(kind="typo", rate=1.0, seed=case["seed"])
        assert attack(case["text"], spec) == case["attacked"], case


def _one_edit_variants(word):
    variants = set()
    for i in range(len(word) - 1):  # adjacent swap
        variants.add(word[:i] + word[i + 1] + word[i] + word[i + 2:])
    for i in range(len(word)):      # drop
        variants.add(word[:i] + word[i + 1:])
    for i in range(len(word)):      # double
        variants.add(word[:i] + word[i] + word[i:])
    return variants


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefgh", min_size=2, max_size=12),
       st.integers(0, 2 ** 16))
def test_typo_is_exactly_one_edit(word, seed):
    spec = AttackSpec(kind="typo", rate=1.0, seed=seed)
    out = attack(word, spec)
    assert out in _one_edit_variants(word)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["pay", "now", "invoice", "xx"]), min_size=1, max_size=8),
       st.sampled_from([" ", "  ", "\t", "\n", " \t "]),
       st.integers(0, 2 ** 10))
def test_whitespace_runs_survive_attacks(words, sep, seed):
    text = sep.join(words)
    spec = AttackSpec(kind="typo", rate=1.0, seed=seed)
    out = attack(text, spec)
    assert re.split(r"(\s+)", out)[1::2] == re.split(r"(\s+)", text)[1::2]


def test_attack_is_a_pure_function_of_text_and_spec():
    spec = AttackSpec(kind="typo", rate=0.5, seed=11)
    a, b = "urgent wire transfer", "review the schedule"
    first = (attack(a, spec), attack(b, spec))
    # order of calls must not matter
    second = (attack(b, spec), attack(a, spec))
    assert first == (second[1], second[0])


def test_different_texts_draw_independently():
    # with a shared draw, rate 0.5 would perturb either all texts or none
    spec = AttackSpec(kind="synonym", rate=0.5, seed=0,
                      synonyms={f"w{i}": ["x"] for i in range(40)})
    flips = [attack(f"w{i}", spec) == "x" for i in range(40)]
    assert 5 < sum(flips) < 35


def test_rate_half_perturbs_about_half_the_words():
    words = [f"word{i:03d}" for i in range(400)]
    spec = AttackSpec(kind="typo", rate=0.5, seed=2)
    out = attack(" ".join(words), spec).split(" ")
    changed = sum(a != b for a, b in zip(words, out))
    assert 140 <= changed <= 260


def _mk_records(n_mal=6, n_ben=4):
    recs = []
    for i in range(n_mal):
        recs.append(EmailRecord(subject="pay", body_text=f"wire transfer {i}",
                                from_addr="a@x.com", to_addrs=["b@y.com"], label=1))
    for i in range(n_ben):
        recs.append(EmailRecord(subject="hi", body_text=f"meeting notes {i}",
                                from_addr="a@x.com", to_addrs=["b@y.com"], label=0))
    return recs


def test_accuracy_under_attack_rate_zero_delta_is_exactly_zero():
    def scorer(texts, records):
        return np.full(len(texts), 0.9)

    report = accuracy_under_attack(scorer, _mk_records(),
                                   AttackSpec(kind="typo", rate=0.0, seed=0))
    assert report["clean_acc"] == report["attacked_acc"] == 1.0
    assert report["delta"] == 0.0
    assert report["n_malicious"] == 6


def test_accuracy_under_attack_counts_threshold_crossings():
    def scorer(texts, records):
        # attacked variants differ from clean ones; score those low
        return np.array([0.9 if "wire transfer" in t else 0.1 for t in texts])

    report = accuracy_under_attack(scorer, _mk_records(),
                                   AttackSpec(kind="typo", rate=1.0, seed=0))
    assert report["clean_acc"] == 1.0
    assert report["attacked_acc"] == 0.0
    assert report["delta"] == 1.0


def test_accuracy_under_attack_validates_inputs():
    def scorer(texts, records):
        return np.zeros(len(texts))

    spec = AttackSpec(kind="typo", rate=0.5, seed=0)
    with pytest.raises(ValueError, match="threshold"):
        accuracy_under_attack(scorer, _mk_records(), spec, threshold=1.0)
    benign_only = [r for r in _mk_records() if r.label == 0]
    with pytest.raises(ValueError, match="malicious"):
        accuracy_under_attack(scorer, benign_only, spec)
