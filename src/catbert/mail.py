"""Email records, header context features, and HTML-to-text extraction.

Records arrive pre-fielded as JSON Lines (no MIME parsing here). Each record
yields exactly two model inputs: a content string (subject + body) and a
4-dimensional context vector derived from the headers.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from html.parser import HTMLParser

import numpy as np

log = logging.getLogger(__name__)


class DatasetError(ValueError):
    pass


@dataclass
class EmailRecord:
    subject: str = ""
    body_text: str | None = None
    body_html: str | None = None
    from_addr: str = ""
    to_addrs: list[str] = field(default_factory=list)
    cc_addrs: list[str] = field(default_factory=list)
    label: int = 0
    group: str | None = None
    weight: float = 1.0
    first_seen: str | None = None


@dataclass
class ContextFeatures:
    internal: int
    external: int
    n_recipients: int
    n_cc: int


def _domain(addr: str) -> str | None:
    addr = addr.strip()
    at = addr.rfind("@")
    if at <= 0 or at == len(addr) - 1:
        return None
    return addr[at + 1:].rstrip(".").lower()


def extract_context(record: EmailRecord) -> ContextFeatures:
    """Header-derived features: internal/external flag plus recipient counts.

    Internal means the sender domain matches every recipient domain. When
    the sender or all recipients fail to parse, the mail is treated as
    external and a warning is logged; this never hard-fails.
    """
    n_to = len(record.to_addrs)
    n_cc = len(record.cc_addrs)
    sender = _domain(record.from_addr)
    rcpt_domains = [_domain(a) for a in record.to_addrs]
    parseable = sender is not None and rcpt_domains and all(d is not None for d in rcpt_domains)
    if not parseable:
        log.warning("unparseable addresses (from=%r, to=%r); assuming external",
                    record.from_addr, record.to_addrs)
        return ContextFeatures(internal=0, external=1, n_recipients=n_to, n_cc=n_cc)
    internal = int(all(d == sender for d in rcpt_domains))
    return ContextFeatures(internal=internal, external=1 - internal,
                           n_recipients=n_to, n_cc=n_cc)


CONTEXT_DIM = 4  # width of context_vector, the model's header input


def context_vector(features: ContextFeatures) -> np.ndarray:
    """CONTEXT_DIM-vector fed to the model; counts are log(1+n) scaled."""
    return np.array(
        [features.internal, features.external,
         math.log1p(features.n_recipients), math.log1p(features.n_cc)],
        dtype=np.float32,
    )


# Tags whose boundaries separate words. Inline tags (span, b, a, ...) do not,
# so '<span>p</span><span>ayment</span>' reads back as one word.
_BLOCK_TAGS = frozenset(
    "p div br li ul ol dl dt dd tr td th table thead tbody h1 h2 h3 h4 h5 h6 "
    "blockquote pre hr section article header footer form title option".split()
)
_SKIP_TAGS = frozenset(("script", "style"))


class _TextExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self.parts.append(" ")

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
        elif tag in _BLOCK_TAGS:
            self.parts.append(" ")

    def handle_startendtag(self, tag, attrs):
        if tag in _BLOCK_TAGS:
            self.parts.append(" ")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


def html_to_text(html: str) -> str:
    """Strip markup, drop script/style bodies, decode entities, collapse
    whitespace. Malformed markup is tolerated best-effort."""
    parser = _TextExtractor()
    parser.feed(html)
    parser.close()
    return " ".join("".join(parser.parts).split())


def body_text_of(record: EmailRecord) -> str:
    """The record's body as plain text. A plain body wins; HTML is converted
    only when no plain body exists. The two are never concatenated."""
    if record.body_text is not None:
        return record.body_text
    if record.body_html is not None:
        return html_to_text(record.body_html)
    return ""


def build_content(record: EmailRecord) -> str:
    """Subject + space + body: the single text input the model sees."""
    return record.subject + " " + body_text_of(record)


_JSON_KEYS = {
    "subject": "subject", "body_text": "body_text", "body_html": "body_html",
    "from": "from_addr", "to": "to_addrs", "cc": "cc_addrs", "label": "label",
    "group": "group", "weight": "weight", "first_seen": "first_seen",
}
GROUPS = (None, "bec", "english", "non_english")


def _parse_record(obj: dict) -> EmailRecord:
    if not isinstance(obj, dict):
        raise DatasetError("record is not a JSON object")
    if "label" not in obj:
        raise DatasetError("missing label")
    kwargs = {}
    for key, attr in _JSON_KEYS.items():
        if key in obj and obj[key] is not None:
            kwargs[attr] = obj[key]
    rec = EmailRecord(**kwargs)
    if rec.label not in (0, 1):
        raise DatasetError(f"label must be 0 or 1, got {rec.label!r}")
    if not isinstance(rec.to_addrs, list) or not isinstance(rec.cc_addrs, list):
        raise DatasetError("to/cc must be lists")
    try:
        weight = float(rec.weight)
    except (TypeError, ValueError, OverflowError):
        weight = math.nan
    if not (math.isfinite(weight) and weight > 0):
        raise DatasetError(f"weight must be a finite number > 0, got {rec.weight!r}")
    rec.weight = weight
    if rec.group not in GROUPS:
        raise DatasetError(f"unknown group {rec.group!r}")
    if not isinstance(rec.first_seen, (str, type(None))):
        raise DatasetError(f"first_seen must be an ISO timestamp string, got {rec.first_seen!r}")
    return rec


def load_dataset_with_report(path, strict: bool = False):
    """Parse a JSONL file. Returns (records, errors) where each error is a
    '<line>: <reason>' string; strict mode raises on the first bad line."""
    records: list[EmailRecord] = []
    errors: list[str] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                records.append(_parse_record(json.loads(line)))
            except (json.JSONDecodeError, RecursionError, DatasetError, TypeError) as e:
                msg = f"line {lineno}: {e}"
                if strict:
                    raise DatasetError(msg) from e
                errors.append(msg)
    return records, errors


def load_dataset(path, strict: bool = False) -> list[EmailRecord]:
    records, errors = load_dataset_with_report(path, strict=strict)
    for msg in errors:
        log.warning("skipped %s", msg)
    return records


def record_to_json(record: EmailRecord) -> str:
    d = asdict(record)
    obj = {key: d[attr] for key, attr in _JSON_KEYS.items() if d[attr] is not None}
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def save_dataset(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(record_to_json(rec) + "\n")
