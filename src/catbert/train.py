"""Weighted BCE training with balanced batches and time-based splitting.

Batches are class-balanced: the first half of every batch is benign, the
second half malicious. The majority class is consumed without replacement
(reshuffled each epoch) while the minority class cycles through reshuffled
copies of itself, so with equal class sizes one batch holds every sample
exactly once. BEC-tagged records get an extra loss weight.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .mail import EmailRecord, parse_first_seen
from .metrics import _check_two_class, roc_auc
from .model import (PARTIAL_FINETUNE, CatBertModel, config_keys, forward_probs, freeze_preset,
                    set_trainable)
from .pipeline import EncodedDataset, score_dataset
from .tensor import AdamState, Tape, Tensor, adam_step, backward

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


def _finite(x) -> bool:
    """An int or float, not a bool or a string, that a float holds finitely."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 128
    learning_rate: float = 5e-5
    seed: int = 0
    bec_weight: float = 100.0
    freeze: str | None = None  # None or PARTIAL_FINETUNE

    def __post_init__(self):
        for key in ("epochs", "batch_size", "seed"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be an int, got {getattr(self, key)!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1 or self.batch_size % 2:
            raise ValueError(f"batches are class-balanced, so batch_size must be even "
                             f"and >= 2, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (_finite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be a finite number >= 0, "
                             f"got {self.learning_rate!r}")
        if not (_finite(self.bec_weight) and self.bec_weight > 0):
            raise ValueError(f"bec_weight must be a finite number > 0, got {self.bec_weight!r}")
        self.learning_rate, self.bec_weight = float(self.learning_rate), float(self.bec_weight)
        if self.freeze not in (None, PARTIAL_FINETUNE):
            raise ValueError(f"freeze must be {PARTIAL_FINETUNE!r} or absent, got {self.freeze!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build from a config dict. Run manifests written while batches
        could be unbalanced hold ``balanced: true``, which still loads."""
        retired = {"balanced": (True, "every batch is class-balanced")}
        return cls(**config_keys(d, "train", cls.__dataclass_fields__, retired))


def bce_loss(probs: Tensor, labels, weights) -> Tensor:
    """Mean over samples of w * -(y log f + (1-y) log(1-f)), with f clamped
    to [1e-7, 1-1e-7]. Differentiable through ``probs``."""
    dtype = probs.data.dtype
    y = np.asarray(labels, dtype=dtype)
    w = np.asarray(weights, dtype=dtype)
    if probs.data.shape != y.shape or y.shape != w.shape:
        raise ValueError(
            f"length mismatch: probs {probs.data.shape}, labels {y.shape}, weights {w.shape}"
        )
    f = T.clip(probs, 1e-7, 1.0 - 1e-7)
    ll = T.add(T.mul(T.log(f), y), T.mul(T.log(T.sub(1.0, f)), 1.0 - y))
    return T.mean_all(T.mul(ll, -w))


def check_fractions(fractions) -> None:
    """ValueError unless ``fractions`` are three non-negative numbers summing to 1."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError(f"need three non-negative fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")


def split_by_time(records: list[EmailRecord], fractions=(0.7, 0.15, 0.15)):
    """Sort by first_seen (missing timestamps last, original order preserved
    among ties) and cut at the cumulative fractions; sizes are floored and
    the remainder goes to test. A first_seen that is not an ISO timestamp
    is a ValueError (``mail.parse_first_seen``)."""
    check_fractions(fractions)
    keyed = sorted(records, key=lambda r: ((ts := parse_first_seen(r.first_seen)) is None,
                                           ts or datetime.min))
    n = len(records)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    return keyed[:n_train], keyed[n_train:n_train + n_val], keyed[n_train + n_val:]


def _cycled_shuffled(indices: np.ndarray, total: int, rng: np.random.Generator) -> np.ndarray:
    """``total`` draws made of whole reshuffled copies of ``indices``; every
    element appears once per cycle, repeats only across cycles."""
    reps = math.ceil(total / len(indices))
    stream = np.concatenate([rng.permutation(indices) for _ in range(reps)])
    return stream[:total]


def balanced_batches(labels, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch of balanced batch index arrays: benign half first, then the
    malicious half. Epoch length = 2 * majority / batch_size, floored, min 1."""
    if batch_size % 2:
        raise ValueError(f"batch_size must be even, got {batch_size}")
    labels = np.asarray(labels)
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    if len(idx0) == 0 or len(idx1) == 0:
        raise ValueError(f"both classes required, got {len(idx0)} benign / {len(idx1)} malicious")
    half = batch_size // 2
    majority = max(len(idx0), len(idx1))
    n_batches = max(1, (2 * majority) // batch_size)
    need = n_batches * half
    stream0 = _cycled_shuffled(idx0, need, rng)
    stream1 = _cycled_shuffled(idx1, need, rng)
    return [np.concatenate([stream0[b * half:(b + 1) * half],
                            stream1[b * half:(b + 1) * half]])
            for b in range(n_batches)]


def effective_weights(ds: EncodedDataset, bec_weight: float) -> np.ndarray:
    mult = np.array([bec_weight if g == "bec" else 1.0 for g in ds.groups],
                    dtype=np.float32)
    return ds.weights * mult


@dataclass
class TrainingHistory:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int | None = None
    best_val_auc: float | None = None


def train(model: CatBertModel, train_set: EncodedDataset, config: TrainConfig,
          val_set: EncodedDataset | None = None,
          out_dir: str | None = None) -> TrainingHistory:
    """Adam on weighted BCE over balanced batches. Tracks per-epoch loss and
    validation AUC, scored as ``eval`` scores, and keeps the best one's
    checkpoint in ``out_dir/best``. Aborts on non-finite loss, and on a
    validation set without both classes before the first step."""
    if val_set is not None:
        _check_two_class(val_set.labels)
    set_trainable(model, freeze_preset(model.config) if config.freeze else [])
    rng = np.random.default_rng(config.seed)
    state = AdamState(lr=config.learning_rate)
    weights = effective_weights(train_set, config.bec_weight)
    params = model.parameters()
    history = TrainingHistory()
    best_auc = -1.0

    for epoch in range(config.epochs):
        losses = []
        for bi, idx in enumerate(balanced_batches(train_set.labels, config.batch_size, rng=rng)):
            with Tape() as tape:
                probs = forward_probs(model, train_set.ids[idx], train_set.mask[idx],
                                      train_set.ctx[idx])
                loss = bce_loss(probs, train_set.labels[idx], weights[idx])
            lv = float(loss.data)
            if not math.isfinite(lv):
                n1 = int(train_set.labels[idx].sum())
                raise TrainingError(
                    f"non-finite loss {lv} at epoch {epoch} batch {bi} "
                    f"({len(idx)} samples, {n1} malicious, max weight {weights[idx].max()})"
                )
            backward(tape, loss)
            del tape, probs, loss  # backward freed the activations: only the spent list and scalars
            adam_step(params, state)
            losses.append(lv)
        row = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if val_set is not None:
            val_probs = score_dataset(model, val_set)
            row["val_auc"] = roc_auc(val_probs, val_set.labels)
            if row["val_auc"] > best_auc:
                best_auc = row["val_auc"]
                history.best_epoch = epoch
                history.best_val_auc = best_auc
                if out_dir:
                    save_checkpoint(model, os.path.join(out_dir, "best"))
        log.info("epoch %d: %s", epoch, row)
        history.epochs.append(row)
    if out_dir and val_set is None:
        save_checkpoint(model, os.path.join(out_dir, "best"))
    return history
