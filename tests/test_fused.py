"""The fused forward ops against the unfused op sequence they replace.

``unfused_forward_probs`` is ``forward_probs`` written with one op per
step: ``add(matmul(x, w), b)`` for a dense layer, then ``relu`` or
``gelu``, and ``mul`` and ``add`` before ``softmax_rows``. Its softmax,
GELU and layer norm are the out-of-place ops the in-place ones replace
(``ref_*`` below). The fused ops keep their float operations and their
order, so probabilities and gradients must be bit-identical to the
oracle's, and the forward must hold fewer bytes.
"""

import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from catbert import tensor as T
from catbert.model import (
    TRANSFORMER,
    ModelConfig,
    _Packing,
    forward_probs,
    freeze_preset,
    init_random,
    set_trainable,
)
from catbert.tensor import Parameter, Tape, Tensor, backward, dense_grad
from catbert.train import bce_loss

CFG = dict(vocab_size=100, hidden=8, ffn_dim=16, heads=2, max_positions=12,
           block_plan=("T", "A", "T", "A"))


def ref_softmax_rows(x):
    v = x.data
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return T._emit(out.astype(v.dtype, copy=False), (x,), grad_fn)


def ref_gelu(x):
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    v = x.data
    t = v * a
    t *= v
    t *= v
    t += v
    t *= c
    np.tanh(t, out=t)
    out = t + 1.0
    out *= v
    out *= 0.5

    def grad_fn(g):
        d_inner = v * (3.0 * a)
        d_inner *= v
        d_inner += 1.0
        d_inner *= c
        d = t * t
        np.subtract(1.0, d, out=d)
        d *= v
        d *= 0.5
        d *= d_inner
        np.add(t, 1.0, out=d_inner)
        d_inner *= 0.5
        d += d_inner
        d *= g
        return (d,)

    return T._emit(out, (x,), grad_fn)


def ref_layer_norm(x, gain, bias):
    v, gv, bv = x.data, gain.data, bias.data
    d = v.shape[-1]
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + T.LN_EPS)
    xhat = centered * inv_std
    out = xhat * gv + bv
    needs = T._needs(x, gain, bias)

    def grad_fn(g):
        gx = gg = gb = None
        if needs[0]:
            gxh = g * gv
            m1 = gxh.mean(axis=-1, keepdims=True)
            m2 = (gxh * xhat).mean(axis=-1, keepdims=True)
            gx = inv_std * (gxh - m1 - xhat * m2)
        if needs[1]:
            gg = (g * xhat).reshape(-1, d).sum(axis=0)
        if needs[2]:
            gb = g.reshape(-1, d).sum(axis=0)
        return gx, gg, gb

    return T._emit(out.astype(v.dtype, copy=False), (x, gain, bias), grad_fn, needs)


def _dense(x, w, b):
    return T.add(T.matmul(x, w), b)


def _attention(x, p, prefix, heads, pack):
    B, L = pack.B, pack.L
    d = x.data.shape[-1]
    dh = d // heads

    def project(n):
        t = pack.pad(_dense(x, p[f"{prefix}.attn.{n}.w"], p[f"{prefix}.attn.{n}.b"]))
        return T.transpose(T.reshape(t, (B, L, heads, dh)), (0, 2, 1, 3))

    q, k, v = project("q"), project("k"), project("v")
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    weights = ref_softmax_rows(T.add(scores, pack.add_mask))
    mixed = pack.unpad(T.transpose(T.matmul(weights, v), (0, 2, 1, 3)))
    mixed = T.reshape(mixed, (-1, d))
    return _dense(mixed, p[f"{prefix}.attn.o.w"], p[f"{prefix}.attn.o.b"])


def _cls_attention(xq, x, p, prefix, heads, pack):
    B, L = pack.B, pack.L
    d = x.data.shape[-1]
    dh = d // heads
    q = _dense(xq, p[f"{prefix}.attn.q.w"], p[f"{prefix}.attn.q.b"])
    q = T.transpose(T.reshape(T.mul(q, 1.0 / math.sqrt(dh)), (B, heads, dh)), (1, 0, 2))
    wk = T.transpose(T.reshape(p[f"{prefix}.attn.k.w"], (d, heads, dh)), (1, 2, 0))
    u = T.matmul(q, wk)
    shift = T.matmul(q, T.reshape(p[f"{prefix}.attn.k.b"], (heads, dh, 1)))
    grid = T.reshape(pack.pad(x), (B, L, d))
    scores = T.matmul(T.transpose(u, (1, 0, 2)), T.transpose(grid, (0, 2, 1)))
    scores = T.add(T.add(scores, T.transpose(shift, (1, 0, 2))), pack.add_mask[:, 0])
    z = T.matmul(ref_softmax_rows(scores), grid)
    wv = T.transpose(T.reshape(p[f"{prefix}.attn.v.w"], (d, heads, dh)), (1, 0, 2))
    mixed = T.matmul(T.transpose(z, (1, 0, 2)), wv)
    mixed = T.add(T.reshape(T.transpose(mixed, (1, 0, 2)), (B, d)), p[f"{prefix}.attn.v.b"])
    return _dense(mixed, p[f"{prefix}.attn.o.w"], p[f"{prefix}.attn.o.b"])


def unfused_forward_probs(model, ids, mask, ctx):
    """``forward_probs`` with one op per step: the oracle for the fused ops."""
    cfg, p = model.config, model.params
    pack = _Packing(np.asarray(mask), p["embeddings.token"].data.dtype)
    B = pack.B
    tok = T.embedding_lookup(p["embeddings.token"], ids[pack.coords])
    pos = T.embedding_lookup(p["embeddings.position"], pack.coords[1])
    h = ref_layer_norm(T.add(tok, pos), p["embeddings.ln.gain"], p["embeddings.ln.bias"])
    last_t = max(i for i, k in enumerate(cfg.block_plan) if k == TRANSFORMER)
    for i, kind in enumerate(cfg.block_plan):
        pre = f"blocks.{i}"
        if kind == TRANSFORMER:
            if i == last_t:
                xq = T.take_rows(h, pack.cls)
                attn = _cls_attention(xq, h, p, pre, cfg.heads, pack)
            else:
                xq = h
                attn = _attention(h, p, pre, cfg.heads, pack)
            x = ref_layer_norm(T.add(xq, attn), p[f"{pre}.attn.ln.gain"], p[f"{pre}.attn.ln.bias"])
            f = ref_gelu(_dense(x, p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"]))
            f = _dense(f, p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"])
            h = ref_layer_norm(T.add(x, f), p[f"{pre}.ffn.ln.gain"], p[f"{pre}.ffn.ln.bias"])
        else:
            a = T.relu(_dense(h, p[f"{pre}.dense1.w"], p[f"{pre}.dense1.b"]))
            h = T.add(h, _dense(a, p[f"{pre}.dense2.w"], p[f"{pre}.dense2.b"]))
    cls = T.concat([h, Tensor._wrap(np.asarray(ctx, dtype=h.data.dtype))], axis=1)
    fused = T.relu(_dense(cls, p["classifier.fusion.w"], p["classifier.fusion.b"]))
    logit = _dense(fused, p["classifier.out.w"], p["classifier.out.b"])
    return T.sigmoid(T.reshape(logit, (B,)))


def batch(full, B=6, L=12, seed=8):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, 100, size=(B, L))
    lengths = np.full(B, L) if full else np.array([L, 2, 7, 1, 9, 5])[:B]
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.int64)
    return ids * mask, mask, rng.random((B, 4))


def model(dtype, seed=5):
    m = init_random(ModelConfig(**CFG), seed).astype(dtype)
    for i in (1, 3):  # make the adapters matter
        m.params[f"blocks.{i}.dense2.w"].data *= 20
    for i in (0, 2):  # and GELU's cubic term, so its rounding shows in the output
        m.params[f"blocks.{i}.ffn.w1"].data *= 50
    return m


@pytest.mark.parametrize("full", [False, True], ids=["padded", "full"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
def test_probabilities_bit_identical(dtype, full, tape):
    m = model(dtype)
    ids, mask, ctx = batch(full)
    ctx = ctx.astype(dtype)
    got = []
    for fwd in (forward_probs, unfused_forward_probs):
        with Tape() if tape else nullcontext():
            got.append(fwd(m, ids, mask, ctx).data)
    assert got[0].dtype == dtype
    assert got[0].tobytes() == got[1].tobytes()


@pytest.mark.parametrize("freeze", [False, True], ids=["full", "partial-finetune"])
@pytest.mark.parametrize("full", [False, True], ids=["padded", "full"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradients_bit_identical(dtype, full, freeze):
    ids, mask, ctx = batch(full)
    y, w = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), np.ones(6)
    grads, entries = [], []
    for fwd in (forward_probs, unfused_forward_probs):
        m = model(dtype)
        set_trainable(m, freeze_preset(m.config) if freeze else [])
        with Tape() as tape:
            loss = bce_loss(fwd(m, ids, mask, ctx.astype(dtype)), y, w)
        entries.append(len(tape))
        backward(tape, loss)
        grads.append({n: p.grad for n, p in m.params.items()})
    fused, unfused = grads
    assert entries[0] < entries[1]
    assert (fused["embeddings.token"] is None) == freeze
    for name, g in fused.items():
        if g is None:
            assert unfused[name] is None, name
        else:
            a, b = dense_grad(g), dense_grad(unfused[name])
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("act", [None, "relu", "gelu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_layer_matches_unfused_ops(dtype, act, tape, monkeypatch):
    monkeypatch.setattr(T, "CACHE_BLOCK", 1000)  # several blocks of 3 rows
    ops = {None: lambda t: t, "relu": T.relu, "gelu": ref_gelu}[act]
    rng = np.random.default_rng(0)
    x = Parameter("x", rng.standard_normal((3, 5, 7)), dtype=dtype)
    w = Parameter("w", rng.standard_normal((7, 300)), dtype=dtype)
    b = Parameter("b", rng.standard_normal(300), dtype=dtype)
    before = [p.data.copy() for p in (x, w, b)]
    outs, grads = [], []
    for fused in (True, False):
        for p in (x, w, b):
            p.grad = None
        with Tape() if tape else nullcontext() as t:
            out = (T.matmul(x, w, bias=b, act=act) if fused
                   else ops(T.add(T.matmul(x, w), b)))
            loss = T.sum_all(T.mul(out, out))
        if tape:
            backward(t, loss)
            grads.append([p.grad.data.tobytes() for p in (x, w, b)])
        outs.append(out.data.tobytes())
    assert outs[0] == outs[1]
    if tape:
        assert grads[0] == grads[1]
    for p, old in zip((x, w, b), before):
        assert p.data.tobytes() == old.tobytes()


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
def test_softmax_scale_and_mask_match_unfused_ops(tape):
    rng = np.random.default_rng(1)
    x = Parameter("x", rng.standard_normal((2, 3, 4, 5)), dtype=np.float32)
    mask = np.where(rng.random((2, 1, 1, 5)) < 0.3, -1e9, 0.0).astype(np.float32)
    before, mask_before = x.data.copy(), mask.copy()
    scale = 1.0 / math.sqrt(7)
    g = rng.standard_normal(x.data.shape).astype(np.float32)
    outs, grads = [], []
    for fused in (True, False):
        x.grad = None
        with Tape() if tape else nullcontext() as t:
            out = (T.softmax_rows(x, scale=scale, mask=mask) if fused
                   else ref_softmax_rows(T.add(T.mul(x, scale), mask)))
            loss = T.sum_all(T.mul(out, Tensor(g)))
        if tape:
            backward(t, loss)
            grads.append(x.grad.data.tobytes())
        outs.append(out.data.tobytes())
    assert outs[0] == outs[1]
    if tape:
        assert grads[0] == grads[1]
    assert x.data.tobytes() == before.tobytes() and mask.tobytes() == mask_before.tobytes()
    with pytest.raises(T.ShapeError, match="does not broadcast"):
        T.softmax_rows(x, mask=np.zeros((2, 3, 4, 6), np.float32))


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_and_gelu_match_out_of_place_ops(dtype, tape):
    rng = np.random.default_rng(2)
    x = Parameter("x", rng.standard_normal((4, 6)), dtype=dtype)
    gain = Parameter("g", rng.standard_normal(6), dtype=dtype)
    bias = Parameter("b", rng.standard_normal(6), dtype=dtype)
    g = rng.standard_normal((4, 6)).astype(dtype)
    before = [p.data.copy() for p in (x, gain, bias)]
    outs, grads = [], []
    for ln_op, gelu_op in ((T.layer_norm, T.gelu), (ref_layer_norm, ref_gelu)):
        for p in (x, gain, bias):
            p.grad = None
        with Tape() if tape else nullcontext() as t:
            ln, ge = ln_op(x, gain, bias), gelu_op(x)
            loss = T.sum_all(T.mul(T.add(ln, ge), Tensor(g)))
        assert not np.shares_memory(ln.data, x.data) and not np.shares_memory(ge.data, x.data)
        outs.append((ln.data.tobytes(), ge.data.tobytes()))
        if tape:
            backward(t, loss)
            grads.append([p.grad.data.tobytes() for p in (x, gain, bias)])
    assert outs[0] == outs[1]
    if tape:
        assert grads[0] == grads[1]
    for p, old in zip((x, gain, bias), before):
        assert p.data.tobytes() == old.tobytes()


@pytest.mark.parametrize("recorded", [False, True])
def test_relu_epilogue_matches_relu_on_signed_zero_and_nan(recorded):
    """Both give +0.0 for every input that is not > 0, -0.0 and NaN
    included (``np.maximum`` would keep NaN), and zero the same gradient
    positions."""
    v = np.array([[-0.0, 0.0, np.nan, -np.nan, -1.0, 2.0, np.inf, -np.inf]], np.float32)
    want = T.relu(Tensor(v)).data
    got, kept = T._epilogue(v.copy(), None, "relu", recorded)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any() and not np.isnan(got).any()
    if recorded:
        assert kept.tobytes() == (v > 0).tobytes()


def test_matmul_rejects_bad_epilogue_arguments():
    x, w = Tensor(np.ones((2, 3), np.float32)), Parameter("w", np.ones((3, 4)))
    with pytest.raises(ValueError, match="unknown activation"):
        T.matmul(x, w, act="tanh")
    with pytest.raises(T.ShapeError, match="bias must have shape"):
        T.matmul(x, w, bias=Parameter("b", np.ones(3)))
    with pytest.raises(T.ShapeError, match="2-D weight"):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))), act="relu")


MEM_CFG = dict(vocab_size=50, hidden=64, ffn_dim=256, heads=4, max_positions=64,
               block_plan=("T", "A", "T", "A"))


def _traced_peak(fn) -> tuple[int, int]:
    """(peak, still held) bytes that numpy and Python allocate during ``fn()``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return peak - base, held - base


def test_forward_holds_each_activation_once():
    """Measured by tracemalloc, not RSS: where N·ffn_dim dominates, a
    no-tape forward peaks at most at 60% of the unfused ops' peak, and a
    taped forward's entries hold fewer bytes than the unfused tape's."""
    m = init_random(ModelConfig(**MEM_CFG), 0)
    rng = np.random.default_rng(0)
    ids = rng.integers(1, 50, size=(16, 64))
    mask = np.ones((16, 64), np.int64)
    ctx = rng.random((16, 4)).astype(np.float32)
    for fwd in (forward_probs, unfused_forward_probs):  # warm caches and imports
        fwd(m, ids, mask, ctx)
    fused_peak, _ = _traced_peak(lambda: forward_probs(m, ids, mask, ctx))
    unfused_peak, _ = _traced_peak(lambda: unfused_forward_probs(m, ids, mask, ctx))
    assert fused_peak <= 0.6 * unfused_peak, (fused_peak, unfused_peak)

    def taped(fwd):
        tape = Tape()
        with tape:
            fwd(m, ids, mask, ctx)
        return tape

    _, fused_held = _traced_peak(lambda: taped(forward_probs))
    _, unfused_held = _traced_peak(lambda: taped(unfused_forward_probs))
    assert fused_held < unfused_held, (fused_held, unfused_held)
