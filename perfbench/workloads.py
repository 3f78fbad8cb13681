"""The three benchmark workloads.

Each drives the public functions that ``catbert eval``/``explain``/``train``
call, through their modules (``pipeline.score_records(...)``), so that a
traced run's wrappers see every call. A workload has:

- ``setup()``: the program's set-up (vocabulary, checkpoint, data), timed;
- ``round(i)``: one whole round of operations, returning (attempted, failed);
- ``end_to_end()``: its two timing metrics, ``primary_ms`` and
  ``secondary_ms``;
- ``check()``: comparisons of the outputs with the references, returning
  failure messages.
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import time
import traceback

import numpy as np

import checks
import reference as ref
from catbert import checkpoint, explain, mail, metrics, model, pipeline, tensor, tokenizer, train

MAX_LEN = 128
FPRS = (0.01, 0.1)
log = logging.getLogger("perfbench")


class Workload:
    round_seconds = 1.0  # one round's length on the reference machine (README)
    min_rounds = 1
    traced_rounds = 1

    def __init__(self, inputs: str, work: str):
        self.inputs = inputs
        self.work = work
        with open(os.path.join(inputs, "plain.json"), encoding="utf-8") as f:
            self.plain = json.load(f)
        with open(os.path.join(inputs, "vocab.txt"), encoding="utf-8") as f:
            self.ref_vocab = f.read().split("\n")[:-1]
        self.model = None
        self.vocab = None

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def load_model(self) -> None:
        self.model = None  # drop the old copy first so two never coexist
        self.model = checkpoint.load_checkpoint(self.path("model"))

    def setup(self) -> None:
        self.vocab = tokenizer.load_vocab(self.path("vocab.txt"))
        self.load_model()

    def _op(self, fn, *args, **kwargs):
        """(result or None, seconds); a raised exception is a failed operation."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # an operation failure is counted, not fatal
            log.error("operation %s failed:\n%s", fn.__name__, traceback.format_exc())
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def _forward_check(self, ids, mask, ctx, program_probs) -> list[str]:
        """The measured probabilities of a few rows, and the CLS state the
        classifier reads, vs the f64 forward."""
        cfg, params = ref.read_checkpoint(self.path("model"))
        _, hiddens = model.forward_probs(self.model, ids, mask, ctx, return_hidden=True)
        want_p, want_cls = ref.forward(cfg, params, ids, mask, ctx)
        return checks.forward(program_probs, hiddens[-1].data[:, 0], want_p, want_cls)

    def _encoding_checks(self, records, texts, ds) -> list[str]:
        wp = ref.WordPiece(self.ref_vocab)
        return checks.token_ids(wp, texts, ds.ids, MAX_LEN) + checks.context(records, ds.ctx)


def _texts(records, plain) -> list[str]:
    return [r.subject + " " + p for r, p in zip(records, plain)]


class InboxShort(Workload):
    """Batched ``eval`` of one 64-record mailbox shard of short mail at batch
    64, then one LIME ``explain`` of a malicious record of that shard, 64
    variants scored as one batch of 64. Both are the batch size ``catbert
    eval``/``explain`` use; the README gives the CLI's 1000-variant explain
    for comparison."""

    round_seconds = 20.0
    batch_size = 64
    n_variants = 64

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.shards = sorted((k for k in self.plain if k.startswith("short-")),
                             key=lambda k: int(k.split("-")[1]))
        self.eval_ms, self.explain_ms = [], []
        self.evals, self.explains = [], []

    def _eval(self, shard):
        records = mail.load_dataset(self.path(shard + ".jsonl"))
        ds = pipeline.encode_records(records, self.vocab, max_len=MAX_LEN)
        probs = pipeline.score_dataset(self.model, ds, batch_size=self.batch_size)
        return (records, ds, probs, metrics.roc_auc(probs, ds.labels),
                metrics.tpr_at_fpr(probs, ds.labels, FPRS))

    def round(self, i):
        shard = self.shards[i % len(self.shards)]
        out, dt = self._op(self._eval, shard)
        if out is None:
            return 2, 2
        records = out[0]
        self.eval_ms.append(dt * 1000.0 / len(records))
        self.evals.append((shard,) + out)
        j = next(j for j, r in enumerate(records) if r.label == 1)
        attr, dt = self._op(explain.explain_record, self.model, self.vocab, records[j],
                            n_samples=self.n_variants, seed=i, max_len=MAX_LEN)
        if attr is None:
            return 2, 1
        self.explain_ms.append(dt * 1000.0 / self.n_variants)
        self.explains.append((records[j].subject + " " + self.plain[shard][j], attr))
        return 2, 0

    def end_to_end(self):
        return statistics.median(self.eval_ms), statistics.median(self.explain_ms)

    def check(self):
        out = []
        for shard, records, ds, probs, auc, tprs in self.evals:
            out += checks.probabilities(probs)
            out += checks.metrics(probs, ds.labels, auc, tprs, FPRS)
        shard, records, ds, probs, _, _ = self.evals[0]
        out += self._encoding_checks(records, _texts(records, self.plain[shard]), ds)
        rows = np.arange(4)
        out += self._forward_check(ds.ids[rows], ds.mask[rows], ds.ctx[rows], probs[rows])
        for content, attr in self.explains:
            out += checks.explanation(attr.weights, content)
        return out


class GatewayLongtail(Workload):
    """One caller scoring records one at a time (a closed loop) with
    ``score_records``, batch size 1, over a long-tail length mix."""

    round_seconds = 3.3
    min_rounds = 5       # >= 100 requests, so p90 has >= 10 samples above it
    traced_rounds = 3

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        names = sorted((k for k in self.plain if k.startswith("gateway-")),
                       key=lambda k: int(k.split("-")[1]))
        self.rounds = [(n, mail.load_dataset(self.path(n + ".jsonl"))) for n in names]
        self.latency_ms = []
        self.scored = {}

    def round(self, i):
        name, records = self.rounds[i % len(self.rounds)]
        probs, failed = [], 0
        for rec in records:
            p, dt = self._op(pipeline.score_records, self.model, [rec], self.vocab,
                             max_len=MAX_LEN, batch_size=1)
            if p is None:
                failed += 1
                continue
            self.latency_ms.append(dt * 1000.0)
            probs.append(float(p[0]))
        if not failed:
            self.scored.setdefault(name, (records, np.asarray(probs)))
        return len(records), failed

    def end_to_end(self):
        lat = np.asarray(self.latency_ms)
        return float(np.percentile(lat, 50)), float(np.percentile(lat, 90))

    def check(self):
        out = []
        for records, probs in self.scored.values():
            out += checks.probabilities(probs)
        name, (records, alone) = next(iter(self.scored.items()))
        ds = pipeline.encode_records(records, self.vocab, max_len=MAX_LEN)
        batched = pipeline.score_dataset(self.model, ds, batch_size=len(records))
        out += checks.alone_vs_batch(alone, batched)
        out += self._encoding_checks(records, _texts(records, self.plain[name]), ds)
        longest = max(range(len(records)), key=lambda j: max(
            map(len, self.plain[name][j].split())))
        rows = np.array(sorted({0, 1, 2, longest}))
        out += self._forward_check(ds.ids[rows], ds.mask[rows], ds.ctx[rows], alone[rows])
        return out


class TrainPaper(Workload):
    """``train()`` for one epoch on 4 full-length rows at batch size 4, with
    validation scoring and the ``best/`` save: once with full fine-tuning and
    once with the paper's partial-finetune freeze."""

    round_seconds = 8.0
    traced_rounds = 2
    batch_size = 4

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.out_dir = os.path.join(work, "train-out")
        self.ms = {"full": [], "frozen": []}
        self.losses = []
        self.frozen = []

    def setup(self):
        super().setup()
        self.train_set = pipeline.encode_records(
            mail.load_dataset(self.path("train.jsonl")), self.vocab, max_len=MAX_LEN)
        self.val_set = pipeline.encode_records(
            mail.load_dataset(self.path("val.jsonl")), self.vocab, max_len=MAX_LEN)

    def round(self, i):
        failed = 0
        for mode, freeze in (("full", None), ("frozen", model.PARTIAL_FINETUNE)):
            self.load_model()
            cfg = train.TrainConfig(epochs=1, batch_size=self.batch_size,
                                    learning_rate=1e-4, seed=i, freeze=freeze)
            hist, dt = self._op(train.train, self.model, self.train_set, cfg,
                                val_set=self.val_set, out_dir=self.out_dir)
            if hist is None:
                failed += 1
                continue
            self.ms[mode].append(dt * 1000.0 / len(self.train_set))
            self.losses += [row["train_loss"] for row in hist.epochs]
        self.frozen = [n for n, p in self.model.params.items() if not p.trainable]
        return 2, failed

    def end_to_end(self):
        return statistics.median(self.ms["full"]), statistics.median(self.ms["frozen"])

    def check(self):
        _, original = ref.read_checkpoint(self.path("model"))
        trained = {n: p.data for n, p in self.model.params.items()}
        out = checks.losses(self.losses)
        if not self.frozen:
            out.append("partial-finetune froze nothing")
        out += checks.unchanged(self.frozen, original, trained)
        best = checkpoint.load_checkpoint(os.path.join(self.out_dir, "best"))
        out += checks.unchanged(list(trained), trained,
                                {n: p.data for n, p in best.params.items()})
        del best, original
        return out + self._gradient_and_adam_checks()

    def _gradient_and_adam_checks(self) -> list[str]:
        """Backward on two rows cut to 32 positions: sampled coordinates vs
        f64 central differences of the reference loss, then two Adam steps
        on the classifier vs the f64 Adam."""
        m = self.model
        model.set_trainable(m, [])
        ds = self.train_set
        ids, mask, ctx = ds.ids[:2, :32], ds.mask[:2, :32], ds.ctx[:2]
        labels, weights = ds.labels[:2], np.ones(2, np.float32)
        for p in m.parameters():
            p.grad = None
        with tensor.Tape() as tape:
            loss = train.bce_loss(model.forward_probs(m, ids, mask, ctx), labels, weights)
        tensor.backward(tape, loss)

        cfg = m.config.to_dict()
        params = {n: p.data for n, p in m.params.items()}

        def ref_loss(name, flat_index, delta):
            arr = params[name].astype(np.float64)
            arr.reshape(-1)[flat_index] += delta
            probs, _ = ref.forward(cfg, {**params, name: arr}, ids, mask, ctx)
            return ref.bce(probs, labels, weights)

        rng = np.random.default_rng(0)
        eps = 1e-5
        analytic, numeric = [], []
        for name in ("classifier.out.w", "classifier.fusion.w", "blocks.5.dense2.w",
                     "blocks.4.ffn.w1", "blocks.4.attn.v.w", "blocks.2.attn.q.w",
                     "embeddings.ln.gain"):
            g = m.params[name].grad.data.reshape(-1)
            cand = rng.choice(g.size, size=min(64, g.size), replace=False)
            c = int(cand[np.argmax(np.abs(g[cand]))])
            analytic.append((f"{name}[{c}]", float(g[c])))
            numeric.append((ref_loss(name, c, eps) - ref_loss(name, c, -eps)) / (2 * eps))
        out = checks.gradient(analytic, numeric)

        subset = [m.params[n] for n in ("classifier.fusion.b", "classifier.out.w",
                                        "classifier.out.b", "blocks.5.dense2.b")]
        state = tensor.AdamState(lr=1e-3)
        want = [(p.data.astype(np.float64), np.zeros(p.data.shape), np.zeros(p.data.shape))
                for p in subset]
        for t in (1, 2):
            if t == 2:
                for p in subset:
                    p.grad = tensor.Tensor(rng.normal(0.0, 0.01, p.data.shape))
            grads = [p.grad.data for p in subset]
            want = [ref.adam(w, g, mm, v, t, lr=1e-3) for (w, mm, v), g in zip(want, grads)]
            tensor.adam_step(subset, state)
        out += checks.adam_step([p.data for p in subset], [w for w, _, _ in want])
        for p in m.parameters():
            p.grad = None
        return out


WORKLOADS = {"inbox-short": InboxShort, "gateway-longtail": GatewayLongtail,
             "train-paper": TrainPaper}
