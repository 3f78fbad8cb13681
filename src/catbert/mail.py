"""Email records, header context features, and HTML-to-text extraction.

Records arrive pre-fielded as JSON Lines (no MIME parsing here). Each record
yields exactly two model inputs: a content string (subject + body) and a
4-dimensional context vector derived from the headers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from html.parser import HTMLParser

import numpy as np

from .atomic import json_object, replacing

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


def addresses_parse(record: EmailRecord) -> bool:
    """Whether the sender and at least one To address are there, and each
    has a domain; ``extract_context`` reads any other mail as external."""
    return (_domain(record.from_addr) is not None and bool(record.to_addrs)
            and all(_domain(a) is not None for a in record.to_addrs))


def shown_addresses(record: EmailRecord) -> str:
    """The record's From and To as a log line quotes them, each cut to
    ``SHOWN_CHARS``."""
    return f"from={_shown(record.from_addr)}, to={_shown(record.to_addrs)}"


def extract_context(record: EmailRecord) -> ContextFeatures:
    """Header-derived features: internal/external flag plus recipient counts.

    Internal means the sender domain matches every recipient domain. Mail
    whose addresses do not parse (``addresses_parse``) is treated as
    external; this never hard-fails and logs nothing.
    """
    n_to = len(record.to_addrs)
    n_cc = len(record.cc_addrs)
    if not addresses_parse(record):
        return ContextFeatures(internal=0, external=1, n_recipients=n_to, n_cc=n_cc)
    sender = _domain(record.from_addr)
    internal = int(all(_domain(a) == sender for a in record.to_addrs))
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


_TEXT_KEYS = {"subject": "a string", "body_text": "a string", "body_html": "a string",
              "from": "a string", "first_seen": "an ISO timestamp string"}


SHOWN_CHARS = 80  # the most of a bad value's repr that a skip message quotes


def _shown(value) -> str:
    """``value``'s type and its repr cut to ``SHOWN_CHARS``, so a message
    about a hostile line stays short however long the value is."""
    text = repr(value)
    if len(text) > SHOWN_CHARS:
        text = text[:SHOWN_CHARS - 3] + "..."
    return f"{type(value).__name__} {text}"


def parse_first_seen(value: str | None) -> datetime | None:
    """``first_seen`` as an aware datetime, a naive one read as UTC; None if
    absent. DatasetError unless it is an ISO 8601 string."""
    if value is None:
        return None
    try:
        ts = datetime.fromisoformat(value)
    except (TypeError, ValueError):
        raise DatasetError(
            f"first_seen must be an ISO timestamp string, got {_shown(value)}") from None
    return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


def _check_text(name: str, value, what: str) -> None:
    """DatasetError unless ``value`` is a str that UTF-8 can write back (a
    JSON escape can smuggle in a lone surrogate, which it cannot, and a byte
    that is not UTF-8 reads as one)."""
    if not isinstance(value, str):
        raise DatasetError(f"{name} must be {what}, got {type(value).__name__}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetError(
                f"{name} holds a lone surrogate or a byte that is not UTF-8") from None


def _parse_record(obj: dict) -> EmailRecord:
    """One JSON object as a record, or a DatasetError that names the first
    field a later stage could not read and the type of its value, quoting
    at most ``SHOWN_CHARS`` of it. A null field counts as absent, and a key
    the format does not name is ignored unless UTF-8 cannot write it."""
    if "label" not in obj:
        raise DatasetError("missing label")
    for key in obj:
        _check_text("a key", key, "a string")
    kwargs = {}
    for key, attr in _JSON_KEYS.items():
        value = obj.get(key)
        if value is None:
            continue
        if key in _TEXT_KEYS:
            _check_text(key, value, _TEXT_KEYS[key])
        elif key in ("to", "cc"):
            if not isinstance(value, list):
                raise DatasetError(f"{key} must be a list of strings, got {type(value).__name__}")
            for i, addr in enumerate(value):
                _check_text(f"{key}[{i}]", addr, "a string")
        kwargs[attr] = value
    rec = EmailRecord(**kwargs)
    if rec.label not in (0, 1):
        raise DatasetError(f"label must be 0 or 1, got {_shown(rec.label)}")
    rec.label = int(rec.label)  # so true and 1.0 are written back as 1
    if (type(rec.weight) not in (int, float)  # not a bool or a string
            or not 0 < rec.weight <= sys.float_info.max):
        raise DatasetError(f"weight must be a finite number > 0, got {_shown(rec.weight)}")
    rec.weight = float(rec.weight)
    if rec.group not in GROUPS:
        raise DatasetError(f"group must be one of {GROUPS[1:]} or absent, "
                           f"got {_shown(rec.group)}")
    parse_first_seen(rec.first_seen)
    return rec


def load_dataset_with_report(path, strict: bool = False):
    """Parse a JSONL file. Returns (records, errors) where each error is a
    '<line>: <reason>' string; strict mode raises on the first bad line. A
    byte that is not UTF-8 reads as a lone surrogate, so the line that holds
    it is a bad line like any other."""
    records: list[EmailRecord] = []
    errors: list[str] = []
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                records.append(_parse_record(json_object(line)))
            except ValueError as e:  # DatasetError is one
                msg = f"line {lineno}: {e}"
                if strict:
                    raise DatasetError(f"{msg}, in {path}") from e
                errors.append(msg)
    return records, errors


def load_dataset(path) -> list[EmailRecord]:
    """Parse a JSONL file, raising ``DatasetError`` on the first bad line."""
    return load_dataset_with_report(path, strict=True)[0]


def record_to_json(record: EmailRecord) -> str:
    d = asdict(record)
    obj = {key: d[attr] for key, attr in _JSON_KEYS.items() if d[attr] is not None}
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def save_dataset(records, path) -> None:
    with replacing(path) as f:
        for rec in records:
            f.write(record_to_json(rec) + "\n")
