"""Span tracing for the benchmark process only.

``Tracer.install`` replaces each traced ``catbert`` function with a timing
wrapper in every ``catbert`` module namespace that holds it (so names bound
by ``from .x import f`` are caught too); ``uninstall`` puts the originals
back. Spans (name, start, end, parent) stay in memory and are written out
once, at the end. A span's self time is its duration minus the time its
direct children cover. Counters are observed at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import re
import sys
import time
from collections import defaultdict

import numpy as np

import reference

# (module, function) pairs wrapped in a traced run; the span is named
# "<module>.<function>".
TRACED = [
    ("checkpoint", "load_checkpoint"), ("checkpoint", "save_checkpoint"),
    ("tokenizer", "load_vocab"), ("tokenizer", "encode"),
    ("mail", "load_dataset"), ("mail", "html_to_text"), ("mail", "extract_context"),
    ("pipeline", "encode_records"), ("pipeline", "encode_texts"),
    ("pipeline", "score_dataset"), ("pipeline", "score_records"),
    ("model", "forward_probs"),
    ("tensor", "matmul"), ("tensor", "softmax_rows"), ("tensor", "layer_norm"),
    ("tensor", "gelu"), ("tensor", "embedding_lookup"),
    ("tensor", "backward"), ("tensor", "adam_step"),
    ("train", "train"), ("train", "bce_loss"),
    ("explain", "explain_record"), ("explain", "lime_explain"),
    ("metrics", "roc_auc"), ("metrics", "tpr_at_fpr"),
]

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "model.forward_probs.ms": "ms",
    "model.forward_probs.self_ms": "ms",
    "tensor.matmul.ms": "ms",
    "tensor.softmax_rows.ms": "ms",
    "tensor.layer_norm.ms": "ms",
    "tensor.gelu.ms": "ms",
    "tensor.embedding_lookup.ms": "ms",
    "tensor.matmul.gflop": "GFLOP",
    "pipeline.token_fill": "ratio",
    "tokenizer.encode.ms": "ms",
    "tokenizer.content_tokens": "count",
    "tokenizer.truncated": "count",
    "tokenizer.unk_tokens": "count",
    "tokenizer.longest_word_chars": "chars",
    "mail.html_to_text.ms": "ms",
    "mail.extract_context.ms": "ms",
    "mail.unparseable_headers": "count",
    "pipeline.encode_records.self_ms": "ms",
    "pipeline.encode_texts.self_ms": "ms",
    "pipeline.score_dataset.self_ms": "ms",
    "pipeline.score_records.self_ms": "ms",
    "explain.lime_explain.self_ms": "ms",
    "tensor.backward.ms": "ms",
    "tensor.tape_entries": "count",
    "tensor.adam_step.ms": "ms",
    "tensor.adam_step.mb": "MB",
    "train.train.self_ms": "ms",
    "train.bce_loss.ms": "ms",
    "train.steps": "count",
    "checkpoint.save.ms": "ms",
    "checkpoint.save.mb": "MB",
    "checkpoint.load.ms": "ms",
    "checkpoint.load.mb": "MB",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

_WORD = re.compile(r"[^\W_]+")


def _model_mb(model) -> float:
    return sum(p.data.nbytes for p in model.params.values()) / 1e6


def _matmul_gflop(a, b) -> float:
    batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    return 2.0 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1] / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []
        self.count = defaultdict(float)
        self.encodes: list = []      # (text, result, max_len, vocab) per tokenizer.encode
        self.masks: list = []        # attention masks given to forward_probs
        self.headers: list = []      # records given to extract_context

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    # -- wrappers --------------------------------------------------------
    def _observers(self) -> dict:
        """Span name -> f(bound arguments, result), run after the span closes."""
        c = self.count

        def add(key, amount):
            c[key] += amount

        def encode(a, seq):
            self.encodes.append((a["subject"] + " " + a["body"], seq, a["max_len"], a["vocab"]))

        def adam(a, _):
            add("adam_mb", sum(p.data.nbytes for p in a["params"] if p.trainable) / 1e6)
            add("steps", 1)

        return {
            "tensor.matmul": lambda a, _: add("gflop", _matmul_gflop(a["a"], a["b"])),
            "model.forward_probs": lambda a, _: self.masks.append(a["mask"]),
            "tokenizer.encode": encode,
            "mail.extract_context": lambda a, _: self.headers.append(a["record"]),
            "tensor.backward": lambda a, _: add("tape_entries", len(a["tape"])),
            "tensor.adam_step": adam,
            "checkpoint.save_checkpoint": lambda a, _: add("save_mb", _model_mb(a["model"])),
            "checkpoint.load_checkpoint": lambda a, model: add("load_mb", _model_mb(model)),
        }

    def _wrapper(self, name: str, fn, observe):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        sig = inspect.signature(fn)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, _ in TRACED:
            importlib.import_module(f"catbert.{mod_name}")
        modules = [m for n, m in sys.modules.items()
                   if (n == "catbert" or n.startswith("catbert.")) and m is not None]
        observers = self._observers()
        for mod_name, attr in TRACED:
            orig = getattr(sys.modules[f"catbert.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            wrapped = self._wrapper(name, orig, observers.get(name))
            for m in modules:
                ns = vars(m)
                for key, val in list(ns.items()):
                    if val is orig:
                        self._patched.append((ns, key, orig))
                        ns[key] = wrapped

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._patched):
            ns[key] = orig
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def metrics(self, overhead_ms: float) -> dict:
        """Per-layer metrics. The first span is the root around the traced run."""
        root = self.spans[0]
        total = defaultdict(float)
        own = defaultdict(float)
        children = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[i]

        def ms(name):
            return total[name] * 1000.0

        def self_ms(name):
            return own[name] * 1000.0

        real = padded = 0
        for mask in self.masks:
            real += int(mask.sum())
            padded += mask.size
        content = truncated = unk = longest = 0
        for text, seq, max_len, vocab in self.encodes:
            content += seq.n_tokens
            truncated += seq.n_tokens > max_len - 2
            unk += seq.ids.count(vocab.unk_id)
            longest = max([longest] + [len(w) for w in _WORD.findall(text)])
        c = self.count
        values = {
            "model.forward_probs.ms": ms("model.forward_probs"),
            "model.forward_probs.self_ms": self_ms("model.forward_probs"),
            "tensor.matmul.ms": ms("tensor.matmul"),
            "tensor.softmax_rows.ms": ms("tensor.softmax_rows"),
            "tensor.layer_norm.ms": ms("tensor.layer_norm"),
            "tensor.gelu.ms": ms("tensor.gelu"),
            "tensor.embedding_lookup.ms": ms("tensor.embedding_lookup"),
            "tensor.matmul.gflop": c["gflop"],
            "pipeline.token_fill": real / padded if padded else 0.0,
            "tokenizer.encode.ms": ms("tokenizer.encode"),
            "tokenizer.content_tokens": content,
            "tokenizer.truncated": truncated,
            "tokenizer.unk_tokens": unk,
            "tokenizer.longest_word_chars": longest,
            "mail.html_to_text.ms": ms("mail.html_to_text"),
            "mail.extract_context.ms": ms("mail.extract_context"),
            "mail.unparseable_headers": sum(
                not reference.context(r.from_addr, r.to_addrs, r.cc_addrs)[1]
                for r in self.headers),
            "pipeline.encode_records.self_ms": self_ms("pipeline.encode_records"),
            "pipeline.encode_texts.self_ms": self_ms("pipeline.encode_texts"),
            "pipeline.score_dataset.self_ms": self_ms("pipeline.score_dataset"),
            "pipeline.score_records.self_ms": self_ms("pipeline.score_records"),
            "explain.lime_explain.self_ms": self_ms("explain.lime_explain"),
            "tensor.backward.ms": ms("tensor.backward"),
            "tensor.tape_entries": c["tape_entries"],
            "tensor.adam_step.ms": ms("tensor.adam_step"),
            "tensor.adam_step.mb": c["adam_mb"],
            "train.train.self_ms": self_ms("train.train"),
            "train.bce_loss.ms": ms("train.bce_loss"),
            "train.steps": c["steps"],
            "checkpoint.save.ms": ms("checkpoint.save_checkpoint"),
            "checkpoint.save.mb": c["save_mb"],
            "checkpoint.load.ms": ms("checkpoint.load_checkpoint"),
            "checkpoint.load.mb": c["load_mb"],
            "trace.unattributed_ms": (root[2] - root[1] - children[0]) * 1000.0,
            "trace.overhead_ms": overhead_ms,
        }
        return {k: {"value": float(values[k]), "unit": unit} for k, unit in PER_LAYER.items()}

    def dump(self, path: str, workload: str, metrics: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": workload, "metrics": metrics,
                       "spans": [[n, round((s - t0) * 1e3, 4), round((e - t0) * 1e3, 4), p]
                                 for n, s, e, p in self.spans]}, f)
