"""Glue between email records and model arrays: batch encoding and scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mail import CONTEXT_DIM, EmailRecord, build_content, context_vector, extract_context
from .model import CatBertModel, forward_probs, row_width
from .tokenizer import Vocabulary, encode

SCORE_BATCH = 64  # rows per forward for every score the program reports


@dataclass
class EncodedDataset:
    """Model-ready arrays for a list of records, row i = record i."""

    ids: np.ndarray       # (N, L) int64
    mask: np.ndarray      # (N, L) int64
    ctx: np.ndarray       # (N, CONTEXT_DIM) f32
    labels: np.ndarray    # (N,) int64
    weights: np.ndarray   # (N,) f32, from the record weight field
    groups: list          # group tag or None per record

    def __len__(self) -> int:
        return self.ids.shape[0]


def encode_records(records: list[EmailRecord], vocab: Vocabulary,
                   max_len: int) -> EncodedDataset:
    return encode_texts([build_content(r) for r in records], records, vocab, max_len=max_len)


def encode_texts(texts: list[str], records: list[EmailRecord], vocab: Vocabulary,
                 max_len: int) -> EncodedDataset:
    """Encode one content text per record next to that record's context
    features, label, weight and group. Attacks and explanations pass
    perturbed texts here, which must not touch the headers. Context is
    extracted once per distinct record object, so a record repeated for
    every variant logs a header warning once."""
    if len(texts) != len(records):
        raise ValueError(f"{len(texts)} texts for {len(records)} records")
    n = len(records)
    ids = np.zeros((n, max_len), dtype=np.int64)
    mask = np.zeros((n, max_len), dtype=np.int64)
    ctx = np.zeros((n, CONTEXT_DIM), dtype=np.float32)
    labels = np.zeros(n, dtype=np.int64)
    weights = np.ones(n, dtype=np.float32)
    groups = []
    contexts: dict[int, np.ndarray] = {}
    for i, (text, rec) in enumerate(zip(texts, records)):
        seq = encode(text, "", vocab, max_len=max_len)
        ids[i] = seq.ids
        mask[i] = seq.attention_mask
        if id(rec) not in contexts:
            contexts[id(rec)] = context_vector(extract_context(rec))
        ctx[i] = contexts[id(rec)]
        labels[i] = rec.label
        weights[i] = rec.weight
        groups.append(rec.group)
    return EncodedDataset(ids, mask, ctx, labels, weights, groups)


def score_dataset(model: CatBertModel, ds: EncodedDataset,
                  batch_size: int = SCORE_BATCH) -> np.ndarray:
    """Probabilities for every row, in row order, each read with its row's
    context features (a model of ``context_dim`` 0 reads none)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    out = np.empty(len(ds), dtype=np.float32)
    for lo in range(0, len(ds), batch_size):
        hi = min(lo + batch_size, len(ds))
        out[lo:hi] = forward_probs(model, ds.ids[lo:hi], ds.mask[lo:hi], ds.ctx[lo:hi]).data
    return out


def score_records(model: CatBertModel, records: list[EmailRecord], vocab: Vocabulary,
                  max_len: int | None = None, batch_size: int = SCORE_BATCH) -> np.ndarray:
    """Probabilities for ``records``, encoded into rows of ``max_len``
    tokens (by default the model's ``row_width``)."""
    if max_len is None:
        max_len = row_width(model.config)
    ds = encode_records(records, vocab, max_len=max_len)
    return score_dataset(model, ds, batch_size=batch_size)


def make_model_scorer(model: CatBertModel, vocab: Vocabulary, max_len: int | None = None):
    """Scorer closure over (texts, records) for attack evaluation, on rows
    of ``max_len`` tokens (by default the model's ``row_width``)."""
    if max_len is None:
        max_len = row_width(model.config)

    def scorer(texts, records):
        ds = encode_texts(texts, records, vocab, max_len=max_len)
        return score_dataset(model, ds)

    return scorer
