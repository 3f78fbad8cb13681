import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert.mail import (
    ContextFeatures,
    DatasetError,
    EmailRecord,
    build_content,
    context_vector,
    extract_context,
    html_to_text,
    load_dataset,
    load_dataset_with_report,
    record_to_json,
    save_dataset,
)


class TestExtractContext:
    def test_same_domain_is_internal(self):
        rec = EmailRecord(from_addr="a@acme.com", to_addrs=["b@acme.com"])
        assert extract_context(rec) == ContextFeatures(1, 0, 1, 0)

    def test_any_cross_domain_recipient_is_external(self):
        rec = EmailRecord(from_addr="a@acme.com",
                          to_addrs=["b@other.org", "c@acme.com"],
                          cc_addrs=["d@x.io", "e@x.io"])
        assert extract_context(rec) == ContextFeatures(0, 1, 2, 2)

    def test_degenerate_input_defaults_external(self, caplog):
        rec = EmailRecord(from_addr="", to_addrs=[])
        with caplog.at_level("WARNING"):
            feats = extract_context(rec)
        assert feats == ContextFeatures(0, 1, 0, 0)
        assert caplog.records

    def test_unparseable_warning_stays_short_for_a_huge_header(self, caplog):
        rec = EmailRecord(from_addr="x" * 1_000_000,
                          to_addrs=[f"user{i}" for i in range(1000)])
        with caplog.at_level("WARNING"):
            feats = extract_context(rec)
        assert feats == ContextFeatures(0, 1, 1000, 0)
        (line,) = [r.getMessage() for r in caplog.records]
        assert len(line) < 300 and "xxx..." in line and "'user0'" in line

    def test_case_and_trailing_dot_ignored(self):
        rec = EmailRecord(from_addr="a@ACME.com.", to_addrs=["b@acme.COM"])
        assert extract_context(rec).internal == 1

    def test_unparseable_recipient(self):
        rec = EmailRecord(from_addr="a@acme.com", to_addrs=["not-an-address"])
        feats = extract_context(rec)
        assert (feats.internal, feats.external) == (0, 1)

    @given(st.text(max_size=30), st.lists(st.text(max_size=30), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_total_and_flag_partition(self, sender, rcpts):
        feats = extract_context(EmailRecord(from_addr=sender, to_addrs=rcpts))
        assert feats.internal + feats.external == 1
        assert feats.n_recipients == len(rcpts)


class TestContextVector:
    def test_shape_dtype_scaling(self):
        v = context_vector(ContextFeatures(1, 0, 3, 0))
        assert v.shape == (4,)
        assert v.dtype == np.float32
        assert v[0] == 1.0 and v[1] == 0.0
        assert abs(v[2] - np.log1p(3.0)) < 1e-6
        assert v[3] == 0.0


class TestHtmlToText:
    def test_simple_tags(self):
        assert html_to_text("<p>Hello <b>world</b></p>") == "Hello world"

    def test_script_removed_entity_decoded(self):
        assert html_to_text("pay<script>x=1</script>ment &amp; send") == "payment & send"

    def test_style_removed(self):
        assert html_to_text("<style>.a{color:red}</style>money") == "money"

    def test_inline_tags_do_not_split_words(self):
        assert html_to_text("<span>p</span><span>ayment</span>") == "payment"

    def test_block_tags_separate_words(self):
        assert html_to_text("<p>pay</p><p>ment</p>") == "pay ment"
        assert html_to_text("one<br/>two") == "one two"

    def test_numeric_entity(self):
        assert html_to_text("a&#65;b") == "aAb"

    def test_unclosed_tags_tolerated(self):
        assert html_to_text("<div><b>bold text") == "bold text"

    def test_obfuscation_corpus(self):
        # inline-tag obfuscation must reassemble the word; block tags must not
        word = "payment"
        inline = ["span", "b", "i", "em", "strong", "a", "u", "font", "small", "code"]
        for tag in inline:
            for cut in (1, 3, 5):
                html = f"<{tag}>{word[:cut]}</{tag}><{tag}>{word[cut:]}</{tag}>"
                assert html_to_text(html) == word, html
        block = ["p", "div", "td", "li", "h1"]
        for tag in block:
            html = f"<{tag}>{word[:3]}</{tag}><{tag}>{word[3:]}</{tag}>"
            assert html_to_text(html) == "pay ment", html

    def test_whitespace_collapsed(self):
        assert html_to_text("a\n\n   b\t c") == "a b c"

    @given(st.lists(st.sampled_from(["pay", "ment", "wire", "now"]), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, words):
        html = "<div>" + "</b> <b>".join(words) + "</div>"
        once = html_to_text(html)
        assert html_to_text(once) == once


class TestBuildContent:
    def test_plain_body(self):
        assert build_content(EmailRecord(subject="hi", body_text="pay me")) == "hi pay me"

    def test_html_fallback(self):
        rec = EmailRecord(subject="s", body_html="<p>pay</p>")
        assert build_content(rec) == "s pay"

    def test_plain_wins_over_html(self):
        rec = EmailRecord(subject="s", body_text="plain", body_html="<p>html</p>")
        assert build_content(rec) == "s plain"

    def test_all_empty(self):
        assert build_content(EmailRecord()) == " "

    def test_no_markup_leaks(self):
        rec = EmailRecord(subject="s", body_html="<div><a href='x'>go</a></div>")
        out = build_content(rec)
        assert "<" not in out and ">" not in out


class TestDatasetIO:
    def make_lines(self):
        return [
            {"subject": "a", "body_text": "x", "from": "a@a.co", "to": ["b@a.co"],
             "cc": [], "label": 0},
            {"subject": "b", "body_html": "<p>y</p>", "from": "c@c.co",
             "to": ["d@d.co"], "label": 1, "group": "bec", "weight": 100.0,
             "first_seen": "2024-01-02T03:04:05"},
            {"subject": "c", "body_text": "", "from": "e@e.co", "to": [], "label": 1},
        ]

    def test_load_valid(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join(json.dumps(o) for o in self.make_lines()) + "\n")
        recs = load_dataset(p)
        assert len(recs) == 3
        assert recs[1].group == "bec"
        assert recs[1].weight == 100.0
        assert recs[0].weight == 1.0

    def test_bad_label_reported_with_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        lines = self.make_lines()
        lines[1]["label"] = 2
        p.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
        recs, errors = load_dataset_with_report(p)
        assert len(recs) == 2
        assert len(errors) == 1 and errors[0].startswith("line 2:")

    def test_missing_label_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"subject": "x"}\n')
        recs, errors = load_dataset_with_report(p)
        assert recs == [] and "label" in errors[0]

    def test_strict_mode_raises(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("not json\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        assert load_dataset(p) == []

    def test_unknown_fields_ignored(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"label": 1, "subject": "s", "x_custom": 42}\n')
        recs = load_dataset(p)
        assert len(recs) == 1 and recs[0].subject == "s"

    def test_roundtrip_equality(self, tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        p1.write_text("\n".join(json.dumps(o) for o in self.make_lines()) + "\n")
        recs = load_dataset(p1)
        save_dataset(recs, p2)
        assert load_dataset(p2) == recs

    def test_record_to_json_drops_nones(self):
        s = record_to_json(EmailRecord(subject="s", label=1))
        obj = json.loads(s)
        assert "body_html" not in obj and "first_seen" not in obj
        assert obj["from"] == "" and obj["to"] == []

    def test_label_is_stored_as_an_int(self, tmp_path):
        src, out = tmp_path / "d.jsonl", tmp_path / "o.jsonl"
        src.write_text('{"label": true}\n{"label": 1.0}\n{"label": false}\n{"label": 0.0}\n')
        recs = load_dataset(src)
        assert [(type(r.label), r.label) for r in recs] == [(int, 1), (int, 1), (int, 0), (int, 0)]
        save_dataset(recs, out)
        labels = [json.loads(line)["label"] for line in out.read_text().splitlines()]
        assert [(type(v), v) for v in labels] == [(int, 1), (int, 1), (int, 0), (int, 0)]

    def test_nonpositive_weight_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"label": 0, "weight": 0}\n')
        recs, errors = load_dataset_with_report(p)
        assert recs == [] and "weight" in errors[0]


def test_readme_dataset_example_parses_with_its_headers(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Dataset format"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "example.jsonl"
    path.write_text(json.dumps(json.loads(block)) + "\n", encoding="utf-8")
    (rec,) = load_dataset(path)
    assert (rec.from_addr, rec.to_addrs) == ("ceo@partner.io", ["ap@acme.com"])
    assert extract_context(rec) == ContextFeatures(internal=0, external=1,
                                                   n_recipients=1, n_cc=0)
