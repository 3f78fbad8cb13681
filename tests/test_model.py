import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbert import tensor as T
from catbert.mail import CONTEXT_DIM
from catbert.model import (
    ADAPTER,
    TRANSFORMER,
    CatBertModel,
    ConfigError,
    ModelConfig,
    ParamReport,
    _adapter_block,
    _pack,
    count_params,
    forward_probs,
    freeze_preset,
    init_random,
    millions,
    param_shapes,
    set_trainable,
    surgery_from_donor,
)
from catbert.tensor import Parameter, Tape, backward, dense_grad
from catbert.train import bce_loss

from oracles import astype, grad_check

TINY = dict(vocab_size=100, hidden=8, ffn_dim=16, heads=2, max_positions=16,
            block_plan=("T", "A"))


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return init_random(cfg, seed)


def rand_batch(cfg, B=2, L=10, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, size=(B, L))
    mask = np.ones((B, L), dtype=np.int64)
    ctx = rng.random((B, cfg.context_dim)).astype(np.float32) if cfg.context_dim else None
    return ids, mask, ctx


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(vocab_size=10, hidden=10, heads=3)

    def test_empty_plan(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ModelConfig(vocab_size=10, block_plan=())

    def test_unknown_block_kind(self):
        with pytest.raises(ConfigError, match="x"):
            ModelConfig(vocab_size=10, block_plan=("T", "x"))

    @pytest.mark.parametrize("plan", [5, "TA", ["T", 1], None], ids=["int", "str", "int-kind", "none"])
    def test_plan_must_be_a_list_of_strings(self, plan):
        with pytest.raises(ConfigError, match="block_plan must be a list of block kinds"):
            ModelConfig(vocab_size=10, block_plan=plan)

    def test_plan_aliases_normalized(self):
        cfg = ModelConfig(vocab_size=10, hidden=8, heads=2, block_plan=("T", "a", "Transformer"))
        assert cfg.block_plan == (TRANSFORMER, ADAPTER, TRANSFORMER)

    def test_roundtrip_dict(self):
        cfg = ModelConfig(**TINY)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_config_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            ModelConfig.from_dict({"vocab_size": 10, "bogus": 1})

    def test_context_dim_is_zero_or_context_width(self):
        assert ModelConfig(**{**TINY, "context_dim": 0}).context_dim == 0
        assert ModelConfig(**TINY).context_dim == CONTEXT_DIM
        for bad in (3, 5, -1, False, 4.0):
            with pytest.raises(ConfigError, match="context_dim"):
                ModelConfig(**{**TINY, "context_dim": bad})

    @pytest.mark.parametrize("key", ["vocab_size", "hidden", "ffn_dim", "heads",
                                     "max_positions"])
    @pytest.mark.parametrize("value", [0, True, "8"])
    def test_sizes_are_ints_of_at_least_one(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be an int >= 1, got {value!r}"):
            ModelConfig(**{**TINY, key: value})

    @pytest.mark.parametrize("value", [-5, True, "x", 1.0])
    def test_seed_is_an_int_of_at_least_zero(self, value):
        with pytest.raises(ConfigError, match=f"seed must be an int >= 0, got {value!r}"):
            ModelConfig(**{**TINY, "seed": value})

    @pytest.mark.parametrize("key,value", [("cls_from", "last_transformer"),
                                           ("cls_from", "middle"),
                                           ("classifier_hidden", 16)])
    def test_retired_keys_reject_other_values(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}.*retired"):
            ModelConfig.from_dict({**ModelConfig(**TINY).to_dict(), key: value})


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = tiny_model(7), tiny_model(7)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a, b = tiny_model(7), tiny_model(8)
        assert any(not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)

    def test_ln_and_bias_init(self):
        m = tiny_model()
        assert np.all(m.params["embeddings.ln.gain"].data == 1.0)
        assert np.all(m.params["blocks.0.attn.q.b"].data == 0.0)

    def test_weights_within_trunc_bound(self):
        m = tiny_model()
        w = m.params["blocks.0.ffn.w1"].data
        assert np.all(np.abs(w) <= 0.04 + 1e-8)
        assert w.std() > 0.005

    def test_smoke_forward(self):
        m = tiny_model()
        ids, mask, ctx = rand_batch(m.config, B=3, L=12)
        probs = forward_probs(m, ids, mask, ctx)
        assert probs.shape == (3,)
        assert np.all((probs.data > 0) & (probs.data < 1))


class TestForward:
    def test_zero_head_gives_half(self):
        m = tiny_model()
        m.params["classifier.fusion.w"].data[:] = 0
        m.params["classifier.fusion.b"].data[:] = 0
        m.params["classifier.out.w"].data[:] = 0
        m.params["classifier.out.b"].data[:] = 0
        ids, mask, ctx = rand_batch(m.config)
        probs = forward_probs(m, ids, mask, ctx)
        assert np.allclose(probs.data, 0.5)

    def test_deterministic(self):
        m = tiny_model()
        ids, mask, ctx = rand_batch(m.config)
        a = forward_probs(m, ids, mask, ctx).data
        b = forward_probs(m, ids, mask, ctx).data
        assert np.array_equal(a, b)

    def test_padding_invariance(self):
        m = tiny_model()
        rng = np.random.default_rng(3)
        ids = rng.integers(1, m.config.vocab_size, size=(2, 8))
        mask = np.ones((2, 8), dtype=np.int64)
        ctx = rng.random((2, 4)).astype(np.float32)
        base = forward_probs(m, ids, mask, ctx).data
        ids_pad = np.concatenate([ids, np.zeros((2, 4), dtype=np.int64)], axis=1)
        mask_pad = np.concatenate([mask, np.zeros((2, 4), dtype=np.int64)], axis=1)
        padded = forward_probs(m, ids_pad, mask_pad, ctx).data
        assert np.max(np.abs(base - padded)) < 1e-5

    def test_adapter_zero_dense2_is_identity(self):
        m = tiny_model()
        m.params["blocks.1.dense2.w"].data[:] = 0
        m.params["blocks.1.dense2.b"].data[:] = 0
        ids, mask, ctx = rand_batch(m.config)
        _, hiddens = forward_probs(m, ids, mask, ctx, return_hidden=True)
        assert np.array_equal(hiddens[0].data, hiddens[1].data)

    def test_context_ablation_exact(self):
        m = tiny_model()
        d = m.config.hidden
        m.params["classifier.fusion.w"].data[d:, :] = 0
        ids, mask, _ = rand_batch(m.config)
        a = forward_probs(m, ids, mask, np.zeros((2, 4), dtype=np.float32)).data
        b = forward_probs(m, ids, mask, np.full((2, 4), 9.0, dtype=np.float32)).data
        assert np.array_equal(a, b)

    def test_length_over_positions_rejected(self):
        m = tiny_model()
        ids = np.zeros((1, 17), dtype=np.int64)
        with pytest.raises(ValueError, match="max positions"):
            forward_probs(m, ids, np.ones((1, 17)), np.zeros((1, 4), dtype=np.float32))

    def test_id_out_of_vocab_rejected(self):
        m = tiny_model()
        ids = np.full((1, 4), 100, dtype=np.int64)
        with pytest.raises(IndexError):
            forward_probs(m, ids, np.ones((1, 4)), np.zeros((1, 4), dtype=np.float32))


MASK_OFF = -1e9  # additive score penalty for padded key positions


def _padded_transformer_block(x, p, prefix, heads, add_mask):
    """One transformer over every (B, L) position, padded ones included,
    every row a query: the layout ``forward_probs`` no longer computes."""
    B, L, d = x.data.shape
    dh = d // heads

    def heads_first(t):
        return T.transpose(T.reshape(t, (B, L, heads, dh)), (0, 2, 1, 3))

    def proj(t, name):
        return T.matmul(t, p[f"{prefix}.{name}.w"], bias=p[f"{prefix}.{name}.b"])

    q, k, v = (heads_first(proj(x, f"attn.{n}")) for n in "qkv")
    scores = T.add(T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh)), add_mask)
    mixed = T.matmul(T.softmax_rows(scores), v)
    attn = proj(T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (B, L, d)), "attn.o")
    x = T.layer_norm(T.add(x, attn), p[f"{prefix}.attn.ln.gain"], p[f"{prefix}.attn.ln.bias"])
    h = T.gelu(T.matmul(x, p[f"{prefix}.ffn.w1"], bias=p[f"{prefix}.ffn.b1"]))
    ffn = T.matmul(h, p[f"{prefix}.ffn.w2"], bias=p[f"{prefix}.ffn.b2"])
    return T.layer_norm(T.add(x, ffn), p[f"{prefix}.ffn.ln.gain"], p[f"{prefix}.ffn.ln.bias"])


def _with_context(cls, ctx):
    """[cls, ctx] as one (B, d + context_dim) tensor, so the fusion is one
    dense layer over both; the gradient keeps the columns of ``cls``."""
    d = cls.data.shape[1]
    return T._emit(np.concatenate([cls.data, ctx], axis=1), (cls,), lambda g: (g[:, :d],))


def full_width_forward(model, ids, mask, ctx):
    """The forward over the padded (B, L) grid with every row as a query in
    every transformer: the oracle for ``forward_probs``, which computes the
    real rows alone and whose last transformer queries the [CLS] row alone.
    Returns (probabilities, per-block hidden states)."""
    cfg, p = model.config, model.params
    B, L = ids.shape
    tok = T.embedding_lookup(p["embeddings.token"], ids)
    pos = T.embedding_lookup(p["embeddings.position"], np.arange(L))
    h = T.layer_norm(T.add(tok, pos), p["embeddings.ln.gain"], p["embeddings.ln.bias"])
    add_mask = np.where(mask.astype(bool), 0.0, MASK_OFF).astype(h.data.dtype)
    add_mask = add_mask.reshape(B, 1, 1, L)
    hiddens = []
    for i, kind in enumerate(cfg.block_plan):
        if kind == TRANSFORMER:
            h = _padded_transformer_block(h, p, f"blocks.{i}", cfg.heads, add_mask)
        else:
            h = _adapter_block(h, p, f"blocks.{i}")
        hiddens.append(h)
    cls = T.take_rows(T.reshape(h, (B * L, cfg.hidden)), np.arange(B) * L)
    cls = _with_context(cls, np.asarray(ctx, dtype=h.data.dtype))
    fused = T.relu(T.matmul(cls, p["classifier.fusion.w"], bias=p["classifier.fusion.b"]))
    logit = T.matmul(fused, p["classifier.out.w"], bias=p["classifier.out.b"])
    return T.sigmoid(T.reshape(logit, (B,))), hiddens


class TestClsTail:
    """The last transformer and the adapter after it run on the [CLS] row."""

    CFG = dict(TINY, max_positions=12, block_plan=("T", "A", "T", "A"))

    def padded_batch(self, B=5, L=12, seed=4):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 100, size=(B, L))
        lengths = np.array([L, 2, 7, 3, L - 1][:B])
        mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.int64)
        ids = ids * mask
        ctx = rng.random((B, 4)).astype(np.float32)
        return ids, mask, ctx

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_full_width_oracle(self, dtype, tol):
        m = astype(init_random(ModelConfig(**self.CFG), 3), dtype)
        for i in (1, 3):  # make the adapters matter
            m.params[f"blocks.{i}.dense2.w"].data = m.params[f"blocks.{i}.dense2.w"].data * 20
        ids, mask, ctx = self.padded_batch()
        ctx = ctx.astype(dtype)
        probs, hiddens = forward_probs(m, ids, mask, ctx, return_hidden=True)
        want, full = full_width_forward(m, ids, mask, ctx)
        assert probs.data.dtype == dtype
        assert np.max(np.abs(probs.data - want.data)) < tol
        lengths = mask.sum(axis=1)
        for h, f in zip(hiddens, full):  # packed (N, d) rows, then (B, 1, d) [CLS] rows
            cls = h.data[np.cumsum(lengths) - lengths] if h.data.ndim == 2 else h.data[:, 0]
            assert np.max(np.abs(cls - f.data[:, 0])) < 100 * tol

    def test_hidden_shapes(self):
        m = init_random(ModelConfig(**self.CFG), 3)
        ids, mask, ctx = self.padded_batch()
        _, hiddens = forward_probs(m, ids, mask, ctx, return_hidden=True)
        B, N, d = len(ids), mask.sum(), m.config.hidden
        assert [h.shape for h in hiddens] == [(N, d), (N, d), (B, 1, d), (B, 1, d)]

    def test_gradients_match_oracle_and_finite_differences(self):
        # probe model chosen so no sampled coordinate sits within eps of a
        # relu kink, where central differences straddle the corner
        m32 = init_random(ModelConfig(**self.CFG), 3)
        m64 = astype(m32, np.float64)
        ids, mask, ctx32 = self.padded_batch()
        y = np.array([1, 0, 1, 0, 1], dtype=np.float64)
        w = np.ones(5)

        def loss_fn(model, ctx):
            return lambda: bce_loss(forward_probs(model, ids, mask, ctx), y, w)

        grads = []
        for fwd in (forward_probs, lambda *a: full_width_forward(*a)[0]):
            with Tape() as tape:
                loss = bce_loss(fwd(m64, ids, mask, ctx32.astype(np.float64)), y, w)
            backward(tape, loss)
            grads.append({n: dense_grad(p.grad) for n, p in m64.params.items()})
        for name in grads[0]:
            assert np.max(np.abs(grads[0][name] - grads[1][name])) < 1e-12, name

        # the check-03 bounds
        err32 = grad_check(loss_fn(m32, ctx32), m32.parameters(),
                           eps=1e-3, samples_per_param=8, seed=0)
        err64 = grad_check(loss_fn(m64, ctx32.astype(np.float64)), m64.parameters(),
                           eps=3e-4, samples_per_param=8, seed=0)
        assert err32 < 1e-2
        assert err64 < 1e-4


    @pytest.mark.parametrize("full", [False, True], ids=["padded", "all-full"])
    def test_last_transformer_gradients_match_full_width_in_f64(self, full):
        """The [CLS] attention projects no key or value, yet every parameter
        of the last transformer, the key bias included, gets the gradient of
        the full-width layer, which projects them for every row."""
        ids, mask, ctx = self.padded_batch()
        if full:
            rng = np.random.default_rng(5)
            ids, mask = rng.integers(1, 100, size=ids.shape), np.ones_like(mask)
        y, w = np.array([1.0, 0.0, 1.0, 0.0, 1.0]), np.ones(5)
        grads = []
        for fwd in (forward_probs, lambda *a: full_width_forward(*a)[0]):
            m = astype(init_random(ModelConfig(**self.CFG), 3), np.float64)
            with Tape() as tape:
                loss = bce_loss(fwd(m, ids, mask, ctx.astype(np.float64)), y, w)
            backward(tape, loss)
            grads.append({n: p.grad for n, p in m.params.items() if n.startswith("blocks.2.")})
        cls_path, full_width = grads
        assert "blocks.2.attn.k.b" in cls_path and len(cls_path) == 16
        for name, g in cls_path.items():
            assert g is not None and full_width[name] is not None, name
            assert np.max(np.abs(dense_grad(g) - dense_grad(full_width[name]))) < 1e-12, name


class TestPacking:
    """Every layer runs on the real tokens alone, and each row attends over
    its own tokens; the padded full-width forward is the oracle."""

    CFG = TestClsTail.CFG

    def batch(self, dtype=np.float32, full=False):
        """Mixed lengths, a full row, a [CLS][SEP]-only row, a [CLS]-only
        row, and a row whose mask has a hole; with ``full``, every row full."""
        rng = np.random.default_rng(8)
        B, L = 6, 12
        ids = rng.integers(1, 100, size=(B, L))
        lengths = np.full(B, L) if full else np.array([L, 2, 7, 1, 9, 5])
        mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.int64)
        if not full:
            mask[4, 3:5] = 0
        return ids * mask, mask, rng.random((B, 4)).astype(dtype)

    def model(self, dtype, plan=CFG["block_plan"]):
        m = astype(init_random(ModelConfig(**{**self.CFG, "block_plan": plan}), 5), dtype)
        for i, kind in enumerate(plan):  # make the adapters matter
            if kind == "A":
                m.params[f"blocks.{i}.dense2.w"].data = m.params[f"blocks.{i}.dense2.w"].data * 20
        return m

    @pytest.mark.parametrize("full", [False, True], ids=["mixed", "all-full"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_padded_oracle(self, dtype, tol, full):
        m = self.model(dtype)
        ids, mask, ctx = self.batch(dtype, full)
        probs, hiddens = forward_probs(m, ids, mask, ctx, return_hidden=True)
        want, full = full_width_forward(m, ids, mask, ctx)
        assert np.max(np.abs(probs.data - want.data)) < tol
        real = mask.astype(bool)
        for h, f in zip(hiddens[:2], full[:2]):  # the packed rows, before the last transformer
            assert np.max(np.abs(h.data - f.data[real])) < 100 * tol

    @pytest.mark.parametrize("full", [False, True], ids=["mixed", "all-full"])
    @pytest.mark.parametrize("freeze", [False, True], ids=["full", "partial-finetune"])
    def test_f64_gradients_match_padded_oracle(self, freeze, full):
        ids, mask, ctx = self.batch(np.float64, full)
        y, w = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), np.ones(6)
        grads = []
        for fwd in (forward_probs, lambda *a: full_width_forward(*a)[0]):
            m = self.model(np.float64)
            set_trainable(m, freeze_preset(m.config) if freeze else [])
            with Tape() as tape:
                loss = bce_loss(fwd(m, ids, mask, ctx), y, w)
            backward(tape, loss)
            grads.append({n: p.grad for n, p in m.params.items()})
        packed, padded = grads
        assert (packed["embeddings.token"] is None) == freeze
        for name, g in packed.items():
            if g is None:
                assert padded[name] is None, name
            else:
                assert np.max(np.abs(dense_grad(g) - dense_grad(padded[name]))) < 1e-12, name

    @pytest.mark.parametrize("plan", [("A",), ("A", "A")], ids=["A", "A,A"])
    def test_adapter_only_plans_are_rejected(self, plan):
        """With no transformer the [CLS] row reads no other token, so two
        emails with the same headers would score the same."""
        with pytest.raises(ConfigError, match="block plan needs a transformer"):
            ModelConfig(**{**self.CFG, "block_plan": plan})

    def test_grad_check_within_check_03_bounds(self):
        m32 = init_random(ModelConfig(**self.CFG), 3)
        m64 = astype(m32, np.float64)
        ids, mask, ctx32 = self.batch()
        y, w = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), np.ones(6)

        def loss_fn(model, ctx):
            return lambda: bce_loss(forward_probs(model, ids, mask, ctx), y, w)

        err32 = grad_check(loss_fn(m32, ctx32), m32.parameters(),
                           eps=1e-3, samples_per_param=8, seed=0)
        err64 = grad_check(loss_fn(m64, ctx32.astype(np.float64)), m64.parameters(),
                           eps=3e-4, samples_per_param=8, seed=0)
        assert err32 < 1e-2
        assert err64 < 1e-4

    def test_segments_tile_the_packed_rows(self):
        """Each row owns one segment of the packed rows, its [CLS] first, a
        masked hole included. Mixed or full, the tape holds the same ops:
        no grid is scattered or gathered."""
        coords, (starts, lengths) = _pack(self.batch()[1])
        assert list(lengths) == [12, 2, 7, 1, 7, 5]
        assert list(starts) == [0, 12, 14, 21, 22, 29]
        assert not coords[1][starts].any()
        m = self.model(np.float32)
        entries = []
        for full in (False, True):
            ids, mask, ctx = self.batch(full=full)
            with Tape() as tape:
                forward_probs(m, ids, mask, ctx)
            entries.append(len(tape))
        assert entries[0] == entries[1]

    @pytest.mark.parametrize("lengths", [[1], [7], [1, 12, 1], []],
                             ids=["cls-only-alone", "one-row", "cls-only-rows", "empty"])
    def test_edge_batches_match_padded_oracle(self, lengths):
        """A row of [CLS] alone, a batch of one and the empty batch: f64
        probabilities and every gradient within 1e-12 of the oracle."""
        B, L = len(lengths), 12
        rng = np.random.default_rng(2)
        mask = (np.arange(L)[None, :] < np.array(lengths, dtype=int).reshape(B, 1)).astype(np.int64)
        ids, ctx = rng.integers(1, 100, size=(B, L)) * mask, rng.random((B, 4))
        y = (np.arange(B) % 2).astype(np.float64)
        runs = []
        for fwd in (forward_probs, lambda *a: full_width_forward(*a)[0]):
            m = self.model(np.float64)
            with Tape() as tape:
                probs = fwd(m, ids, mask, ctx)
                loss = bce_loss(probs, y, np.ones(B)) if B else None
            if B:
                backward(tape, loss)
            runs.append((probs.data, {n: p.grad for n, p in m.params.items()}))
        (got, grads), (want, oracle) = runs
        assert got.shape == want.shape == (B,)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
        for name, g in grads.items():
            assert (g is None) == (oracle[name] is None) == (B == 0), name
            if B:
                assert np.max(np.abs(dense_grad(g) - dense_grad(oracle[name]))) < 1e-12, name

    def test_row_without_cls_rejected(self):
        m = self.model(np.float32)
        ids, mask, ctx = self.batch()
        mask[2, 0] = 0
        with pytest.raises(ValueError, match="mask row 2 .*column 0"):
            forward_probs(m, ids, mask, ctx)

    @pytest.mark.parametrize("edit, message", [
        (lambda ids, mask, ctx: (ids[0], mask, ctx), r"ids must be \(B, W\), got shape \(12,\)"),
        (lambda ids, mask, ctx: (ids, mask[:, :11], ctx),
         r"mask shape \(6, 11\) does not match ids \(6, 12\)"),
        (lambda ids, mask, ctx: (ids, mask, None), "model takes context features but ctx is None"),
        (lambda ids, mask, ctx: (ids, mask, ctx[:, :3]), r"ctx shape \(6, 3\) != \(6, 4\)"),
    ], ids=["one-dimensional-ids", "mask-of-another-shape", "no-ctx", "ctx-of-another-shape"])
    def test_malformed_input_is_a_value_error_naming_it(self, edit, message):
        m = self.model(np.float32)
        with pytest.raises(ValueError, match=message):
            forward_probs(m, *edit(*self.batch()))

    def test_ctx_is_checked_before_any_work(self, monkeypatch):
        m = self.model(np.float32)
        ids, mask, ctx = self.batch()

        def lookup(*args):
            raise AssertionError("forward work before the ctx check")

        monkeypatch.setattr(T, "embedding_lookup", lookup)
        for bad, message in ((None, "ctx is None"), (ctx[:, :3], r"ctx shape \(6, 3\)")):
            with pytest.raises(ValueError, match=message):
                forward_probs(m, ids, mask, bad)
        with pytest.raises(AssertionError, match="before the ctx check"):
            forward_probs(m, ids, mask, ctx)


FULL_SCALE = dict(vocab_size=119547, hidden=768, ffn_dim=3072, heads=12,
                   max_positions=512)


class TestCountParams:
    def test_compressed_full_scale(self):
        cfg = ModelConfig(**FULL_SCALE, block_plan=("T", "A") * 3)
        r = count_params(cfg)
        assert r.embedding == 92_206_848
        assert r.non_embedding == 25_401_601
        assert r.total == 117_608_449
        assert (millions(r.total), millions(r.embedding), millions(r.non_embedding)) == (117, 92, 25)

    def test_six_transformer_donor_scale(self):
        cfg = ModelConfig(**FULL_SCALE, block_plan=("T",) * 6, context_dim=0)
        r = count_params(cfg)
        assert r.total == 135_325_441
        assert r.non_embedding == 43_118_593
        assert (millions(r.total), millions(r.embedding), millions(r.non_embedding)) == (135, 92, 43)

    def test_hand_count_minimal(self):
        cfg = ModelConfig(vocab_size=1, hidden=1, ffn_dim=1, heads=1,
                          max_positions=1, block_plan=("T",))
        r = count_params(cfg)
        assert r.embedding == 4
        assert r.per_transformer == 16
        assert r.classifier == 8
        assert r.total == 28

    def test_structural_oracle_tiny(self):
        cfg = ModelConfig(**TINY)
        shapes = param_shapes(cfg)
        runtime = sum(int(np.prod(s)) for s in shapes.values())
        assert count_params(cfg).total == runtime

    @given(st.integers(1, 50), st.integers(1, 4), st.integers(1, 20), st.integers(1, 8),
           st.lists(st.sampled_from(["T", "A"]), min_size=1, max_size=6).filter(
               lambda plan: "T" in plan),  # a plan needs a transformer
           st.sampled_from([0, CONTEXT_DIM]))
    @settings(max_examples=60, deadline=None)
    def test_structural_oracle_property(self, V, h, f, P, plan, c):
        d = h * 4
        cfg = ModelConfig(vocab_size=V, hidden=d, ffn_dim=f, heads=h,
                          max_positions=P, block_plan=tuple(plan), context_dim=c)
        runtime = sum(int(np.prod(s)) for s in param_shapes(cfg).values())
        assert count_params(cfg).total == runtime

    def test_report_fields(self):
        r = count_params(ModelConfig(**TINY))
        assert isinstance(r, ParamReport)
        assert r.total == r.embedding + r.per_transformer + r.per_adapter + r.classifier


class TestSurgery:
    def make_donor(self, n_blocks=4, seed=11):
        cfg = ModelConfig(vocab_size=50, hidden=8, ffn_dim=16, heads=2,
                          max_positions=16, block_plan=("T",) * n_blocks, context_dim=0)
        return init_random(cfg, seed)

    def test_copied_blocks_bit_equal(self):
        donor = self.make_donor()
        m = surgery_from_donor(donor, keep=[0, 2], seed=3)
        assert m.config.block_plan == (TRANSFORMER, ADAPTER) * 2
        for new_pos, donor_pos in ((0, 0), (2, 2)):
            for name, p in m.params.items():
                if name.startswith(f"blocks.{new_pos}.attn") or name.startswith(f"blocks.{new_pos}.ffn"):
                    donor_name = name.replace(f"blocks.{new_pos}.", f"blocks.{donor_pos}.", 1)
                    assert np.array_equal(p.data, donor.params[donor_name].data), name
        assert np.array_equal(m.params["embeddings.token"].data,
                              donor.params["embeddings.token"].data)

    def test_default_keep_every_other(self):
        donor = self.make_donor(6)
        m = surgery_from_donor(donor)
        assert m.provenance["blocks.4.attn.q.w"] == "copied:blocks.4.attn.q.w"
        assert np.array_equal(m.params["blocks.2.ffn.w1"].data,
                              donor.params["blocks.2.ffn.w1"].data)

    def test_provenance_flags(self):
        donor = self.make_donor()
        m = surgery_from_donor(donor, keep=[1, 3])
        assert m.provenance["embeddings.token"] == "copied:embeddings.token"
        assert m.provenance["blocks.0.attn.q.w"] == "copied:blocks.1.attn.q.w"
        assert m.provenance["blocks.1.dense1.w"] == "fresh"
        assert m.provenance["classifier.fusion.w"] == "fresh"

    def test_keep_first_three(self):
        donor = self.make_donor(6)
        m = surgery_from_donor(donor, keep=[0, 1, 2])
        assert m.provenance["blocks.2.attn.q.w"] == "copied:blocks.1.attn.q.w"

    def test_keep_out_of_range(self):
        donor = self.make_donor(6)
        with pytest.raises(ValueError, match="7"):
            surgery_from_donor(donor, keep=[0, 2, 7])

    def test_adapters_start_nonzero(self):
        donor = self.make_donor()
        m = surgery_from_donor(donor, keep=[0, 2], seed=3)
        assert np.abs(m.params["blocks.1.dense1.w"].data).max() > 0

    def test_zeroed_adapters_match_transformer_only_model(self):
        donor = self.make_donor()
        m = surgery_from_donor(donor, keep=[0, 2], seed=3)
        for i in (1, 3):
            m.params[f"blocks.{i}.dense2.w"].data[:] = 0
            m.params[f"blocks.{i}.dense2.b"].data[:] = 0
        # hand-build the adapter-free twin sharing every remaining tensor
        cfg2 = ModelConfig(vocab_size=50, hidden=8, ffn_dim=16, heads=2,
                           max_positions=16, block_plan=("T", "T"), context_dim=4)
        remap = {"blocks.1.": "blocks.2."}
        params = {}
        for name in param_shapes(cfg2):
            src = name
            for pre, donor_pre in remap.items():
                if name.startswith(pre):
                    src = name.replace(pre, donor_pre, 1)
            params[name] = Parameter(name, m.params[src].data.copy())
        twin = CatBertModel(cfg2, params)
        rng = np.random.default_rng(0)
        for _ in range(10):
            ids = rng.integers(0, 50, size=(1, 12))
            mask = np.ones((1, 12), dtype=np.int64)
            ctx = rng.random((1, 4)).astype(np.float32)
            a = forward_probs(m, ids, mask, ctx).data
            b = forward_probs(twin, ids, mask, ctx).data
            assert np.max(np.abs(a - b)) < 1e-6


class TestFreeze:
    def test_preset_golden_list(self):
        cfg = ModelConfig(vocab_size=50, hidden=8, ffn_dim=16, heads=2,
                          max_positions=16, block_plan=("T", "A") * 3)
        assert freeze_preset(cfg) == ["embeddings", "blocks.0", "blocks.2"]

    def test_preset_applied_exact_name_set(self):
        cfg = ModelConfig(vocab_size=50, hidden=8, ffn_dim=16, heads=2,
                          max_positions=16, block_plan=("T", "A") * 3)
        m = init_random(cfg, 0)
        set_trainable(m, freeze_preset(cfg))
        frozen = {n for n, p in m.params.items() if not p.trainable}
        expect = {n for n in m.params
                  if n.startswith(("embeddings.", "blocks.0.", "blocks.2."))}
        assert frozen == expect
        assert m.params["blocks.4.attn.q.w"].trainable
        assert m.params["blocks.1.dense1.w"].trainable
        assert m.params["classifier.out.w"].trainable

    def test_pruned_tape_gives_the_full_tape_gradients(self):
        cfg = ModelConfig(**{**TINY, "block_plan": ("T", "A", "T", "A")})
        ids, mask, ctx = rand_batch(cfg, B=3, L=10, seed=1)
        mask[1, 6:] = 0
        y, w = np.array([1.0, 0.0, 1.0]), np.ones(3)
        runs = []
        for freeze in ([], freeze_preset(cfg)):
            m = init_random(cfg, 0)
            set_trainable(m, freeze)
            with Tape() as tape:
                loss = bce_loss(forward_probs(m, ids, mask, ctx), y, w)
            entries = list(tape._entries)  # backward consumes them
            backward(tape, loss)
            runs.append((m, tape, entries))
        (full, full_tape, _), (pruned, pruned_tape, pruned_entries) = runs
        assert len(pruned_tape) < len(full_tape)
        on_tape = set()
        for out, inputs, _ in pruned_entries:
            assert any(id(t) in on_tape or (isinstance(t, Parameter) and t.trainable)
                       for t in inputs)
            on_tape.add(id(out))
        frozen = [n for n, p in pruned.params.items() if not p.trainable]
        assert frozen and all(pruned.params[n].grad is None for n in frozen)
        for name, p in pruned.params.items():
            if p.trainable:
                assert np.array_equal(dense_grad(p.grad), dense_grad(full.params[name].grad)), name

    def test_empty_mask_all_trainable(self):
        m = tiny_model()
        set_trainable(m, ["embeddings"])
        set_trainable(m, [])
        assert all(p.trainable for p in m.parameters())

    def test_unknown_prefix_lists_known(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="blocks.0"):
            set_trainable(m, ["blocks.9"])


class TestAstype:
    def test_float64_copy_forward(self):
        m = tiny_model()
        m64 = astype(m, np.float64)
        assert m64.params["embeddings.token"].data.dtype == np.float64
        ids, mask, ctx = rand_batch(m.config)
        p32 = forward_probs(m, ids, mask, ctx).data
        p64 = forward_probs(m64, ids, mask, ctx).data
        assert p64.dtype == np.float64
        assert np.allclose(p32, p64, atol=1e-5)

    def test_the_cast_is_test_code(self):
        # only the gradient oracles run a model in float64
        assert not hasattr(CatBertModel, "astype")


# Scores one fixed paper-width batch (hidden 768, ffn 3072, 12 heads, the
# default plan, biases drawn N(0, 0.5) so every bias term shows) at batch
# sizes 40, 7 and 1, and prints one SHA-256 of the probabilities per size.
_SCORE_FIXED_BATCH = """
import hashlib
import numpy as np
from catbert.model import ModelConfig, forward_probs, init_random
model = init_random(ModelConfig(vocab_size=1000), seed=1)
rng = np.random.default_rng(1)
for name, p in model.params.items():
    if name.rsplit(".", 1)[1] in ("b", "b1", "b2", "bias"):
        p.data[:] = rng.normal(0.0, 0.5, p.data.shape)
data = np.random.default_rng(5)
lengths = data.integers(8, 129, 40)
mask = (np.arange(128)[None, :] < lengths[:, None]).astype(np.int64)
ids = data.integers(1, 1000, mask.shape) * mask
ctx = data.random((40, 4)).astype(np.float32)
for batch in (40, 7, 1):
    probs = np.concatenate([forward_probs(model, ids[i:i + batch], mask[i:i + batch],
                                          ctx[i:i + batch]).data for i in range(0, 40, batch)])
    print(batch, hashlib.sha256(probs.tobytes()).hexdigest())
"""


def test_scores_do_not_depend_on_the_blas_thread_count():
    """The same batch scores to the same bytes with one BLAS thread and with
    two, each in a fresh process (the thread count is read at start-up)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _SCORE_FIXED_BATCH], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.split())
    assert len(outs[0]) == 6
    assert outs[0] == outs[1]
