"""The fused forward ops against the unfused op sequence they replace.

``unfused_forward_probs`` is ``forward_probs`` written with one op per
step: ``add(matmul(x, w), b)`` for a dense layer, then ReLU or GELU, and
attention as batched products over a padded (B, L) grid of its own, with
``mul`` and an additive mask before the softmax. Its softmax, ReLU, GELU
and layer norm are the out-of-place ops the in-place ones replace
(``ref_*`` below). The fused ops keep their float operations and their
order, so on full batches probabilities and gradients must be
bit-identical to the oracle's, and the forward must hold fewer bytes. On
mixed lengths a row's sums no longer run over the grid's padding, so they
agree to rounding.
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
    forward_probs,
    freeze_preset,
    init_random,
    set_trainable,
)
from catbert.tensor import Parameter, Tape, Tensor, backward, dense_grad
from catbert.train import bce_loss

from oracles import astype, sum_all

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


def ref_relu(x):
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return T._emit(np.where(mask, x.data, 0.0).astype(x.data.dtype, copy=False), (x,), grad_fn)


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


MASK_OFF = -1e9  # additive score penalty for padded key positions


class Grid:
    """The padded (B, L) grid of a mask: the flat grid index of each real
    token in row-major order, and the additive attention mask."""

    def __init__(self, mask, dtype):
        self.B, self.L = mask.shape
        self.rows = np.flatnonzero(mask)
        self.add_mask = np.where(mask.astype(bool), 0.0, MASK_OFF).astype(dtype)
        self.add_mask = self.add_mask.reshape(self.B, 1, 1, self.L)

    def pad(self, x):
        """Packed rows (N, w) as the (B*L, w) grid, zeros at padded positions."""
        out = np.zeros((self.B * self.L,) + x.data.shape[1:], x.data.dtype)
        out[self.rows] = x.data
        return T._emit(out, (x,), lambda g: (g[self.rows],))

    def unpad(self, x):
        """The real rows of a (B*L, w) grid."""
        return T.take_rows(x, self.rows)


def _attention(x, p, prefix, heads, grid):
    B, L = grid.B, grid.L
    d = x.data.shape[-1]
    dh = d // heads

    def project(n):
        t = grid.pad(_dense(x, p[f"{prefix}.attn.{n}.w"], p[f"{prefix}.attn.{n}.b"]))
        return T.transpose(T.reshape(t, (B, L, heads, dh)), (0, 2, 1, 3))

    q, k, v = project("q"), project("k"), project("v")
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    weights = ref_softmax_rows(T.add(scores, grid.add_mask))
    mixed = T.reshape(T.transpose(T.matmul(weights, v), (0, 2, 1, 3)), (B * L, d))
    return _dense(grid.unpad(mixed), p[f"{prefix}.attn.o.w"], p[f"{prefix}.attn.o.b"])


def _cls_attention(xq, x, p, prefix, heads, grid):
    B, L = grid.B, grid.L
    d = x.data.shape[-1]
    dh = d // heads
    q = _dense(xq, p[f"{prefix}.attn.q.w"], p[f"{prefix}.attn.q.b"])
    q = T.transpose(T.reshape(q, (B, heads, dh)), (1, 0, 2))
    wk = T.transpose(T.reshape(p[f"{prefix}.attn.k.w"], (d, heads, dh)), (1, 2, 0))
    u = T.matmul(q, wk)
    x_grid = T.reshape(grid.pad(x), (B, L, d))
    scores = T.matmul(T.transpose(u, (1, 0, 2)), T.transpose(x_grid, (0, 2, 1)))
    scores = T.add(T.mul(scores, 1.0 / math.sqrt(dh)), grid.add_mask[:, 0])
    z = T.matmul(ref_softmax_rows(scores), x_grid)
    wv = T.transpose(T.reshape(p[f"{prefix}.attn.v.w"], (d, heads, dh)), (1, 0, 2))
    mixed = T.matmul(T.transpose(z, (1, 0, 2)), wv)
    vb = T.add(p[f"{prefix}.attn.v.b"], T.mul(p[f"{prefix}.attn.k.b"], 0.0))
    mixed = T.add(T.reshape(T.transpose(mixed, (1, 0, 2)), (B, d)), vb)
    return _dense(mixed, p[f"{prefix}.attn.o.w"], p[f"{prefix}.attn.o.b"])


def unfused_forward_probs(model, ids, mask, ctx):
    """``forward_probs`` with one op per step: the oracle for the fused ops."""
    cfg, p = model.config, model.params
    mask = np.asarray(mask)
    grid = Grid(mask, p["embeddings.token"].data.dtype)
    real = np.nonzero(mask)
    lengths = mask.sum(axis=1)
    tok = T.embedding_lookup(p["embeddings.token"], ids[real])
    pos = T.embedding_lookup(p["embeddings.position"], real[1])
    h = ref_layer_norm(T.add(tok, pos), p["embeddings.ln.gain"], p["embeddings.ln.bias"])
    last_t = max(i for i, k in enumerate(cfg.block_plan) if k == TRANSFORMER)
    for i, kind in enumerate(cfg.block_plan):
        pre = f"blocks.{i}"
        if kind == TRANSFORMER:
            if i == last_t:
                xq = T.take_rows(h, np.cumsum(lengths) - lengths)
                attn = _cls_attention(xq, h, p, pre, cfg.heads, grid)
            else:
                xq = h
                attn = _attention(h, p, pre, cfg.heads, grid)
            x = ref_layer_norm(T.add(xq, attn), p[f"{pre}.attn.ln.gain"], p[f"{pre}.attn.ln.bias"])
            f = ref_gelu(_dense(x, p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"]))
            f = _dense(f, p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"])
            h = ref_layer_norm(T.add(x, f), p[f"{pre}.ffn.ln.gain"], p[f"{pre}.ffn.ln.bias"])
        else:
            a = ref_relu(_dense(h, p[f"{pre}.dense1.w"], p[f"{pre}.dense1.b"]))
            h = T.add(h, _dense(a, p[f"{pre}.dense2.w"], p[f"{pre}.dense2.b"]))
    w, d = p["classifier.fusion.w"], cfg.hidden
    fused = T.matmul(h, T.take_rows(w, slice(0, d)))
    ctx = np.asarray(ctx, dtype=h.data.dtype)
    for j in range(cfg.context_dim):
        fused = T.add(fused, T.mul(ctx[:, j:j + 1], T.take_rows(w, slice(d + j, d + j + 1))))
    fused = ref_relu(T.add(fused, p["classifier.fusion.b"]))
    logit = _dense(fused, p["classifier.out.w"], p["classifier.out.b"])
    return T.sigmoid(T.reshape(logit, (grid.B,)))


def batch(full, B=6, L=12, seed=8):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, 100, size=(B, L))
    lengths = np.full(B, L) if full else np.array([L, 2, 7, 1, 9, 5])[:B]
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.int64)
    return ids * mask, mask, rng.random((B, 4))


def model(dtype, seed=5):
    m = astype(init_random(ModelConfig(**CFG), seed), dtype)
    for i in (1, 3):  # make the adapters matter
        m.params[f"blocks.{i}.dense2.w"].data *= 20
    for i in (0, 2):  # and GELU's cubic term, so its rounding shows in the output
        m.params[f"blocks.{i}.ffn.w1"].data *= 50
    return m


MIXED_TOL = {np.float32: 1e-6, np.float64: 1e-12}


@pytest.mark.parametrize("full", [False, True], ids=["padded", "full"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
def test_probabilities_bit_identical(dtype, full, tape):
    """Bit-identical on full batches; on mixed lengths within 1e-6 (f32)
    and 1e-12 (f64), since a row's rounding no longer depends on the grid."""
    m = model(dtype)
    ids, mask, ctx = batch(full)
    ctx = ctx.astype(dtype)
    got = []
    for fwd in (forward_probs, unfused_forward_probs):
        with Tape() if tape else nullcontext():
            got.append(fwd(m, ids, mask, ctx).data)
    assert got[0].dtype == dtype
    if full:
        assert got[0].tobytes() == got[1].tobytes()
    else:
        assert np.max(np.abs(got[0] - got[1])) < MIXED_TOL[dtype]


@pytest.mark.parametrize("freeze", [False, True], ids=["full", "partial-finetune"])
@pytest.mark.parametrize("full", [False, True], ids=["padded", "full"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradients_bit_identical(dtype, full, freeze):
    """Bit-identical on full batches; within ``MIXED_TOL`` on mixed lengths."""
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
            assert a.dtype == b.dtype == dtype, name
            if full:
                assert a.tobytes() == b.tobytes(), name
            else:
                assert np.max(np.abs(a - b)) < MIXED_TOL[dtype], name


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("act", [None, "relu", "gelu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_layer_matches_unfused_ops(dtype, act, tape, monkeypatch):
    monkeypatch.setattr(T, "CACHE_BLOCK", 1000)  # several blocks of 3 rows
    ops = {None: lambda t: t, "relu": ref_relu, "gelu": ref_gelu}[act]
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
            loss = sum_all(T.mul(out, out))
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
def test_softmax_matches_unfused_ops(tape):
    rng = np.random.default_rng(1)
    x = Parameter("x", rng.standard_normal((2, 3, 4, 5)), dtype=np.float32)
    before = x.data.copy()
    g = rng.standard_normal(x.data.shape).astype(np.float32)
    outs, grads = [], []
    for fused in (True, False):
        x.grad = None
        with Tape() if tape else nullcontext() as t:
            out = T.softmax_rows(x) if fused else ref_softmax_rows(x)
            loss = sum_all(T.mul(out, Tensor(g)))
        if tape:
            backward(t, loss)
            grads.append(x.grad.data.tobytes())
        outs.append(out.data.tobytes())
    assert outs[0] == outs[1]
    if tape:
        assert grads[0] == grads[1]
    assert x.data.tobytes() == before.tobytes()


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
            loss = sum_all(T.mul(T.add(ln, ge), Tensor(g)))
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
    """The epilogue gives +0.0 for every input that is not > 0, -0.0 and
    NaN included, as ``np.where`` does (``np.maximum`` would keep NaN), and
    its gradient, read off the result, zeros the gradient positions that a
    mask of the input zeros."""
    v = np.array([[-0.0, 0.0, np.nan, -np.nan, -1.0, 2.0, np.inf, -np.inf]], np.float32)
    want = np.where(v > 0, v, 0.0)
    got = T._epilogue(v.copy(), None, "relu", recorded)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any() and not np.isnan(got).any()
    g = np.arange(1, v.size + 1, dtype=np.float32).reshape(v.shape)
    assert T._ACT_GRAD["relu"](g, v, got).tobytes() == (g * (v > 0)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_activations_bit_identical_with_and_without_a_tape(dtype, monkeypatch):
    """relu, gelu and a dense layer's epilogue run one block loop, recorded
    or not: blocks of 2 rows of 5 and a ragged last block of 1 row."""
    monkeypatch.setattr(T, "CACHE_BLOCK", 10)
    rng = np.random.default_rng(3)
    x = Parameter("x", 3 * rng.standard_normal((7, 5)), dtype=dtype)
    w = Parameter("w", rng.standard_normal((5, 5)), dtype=dtype)
    b = Parameter("b", rng.standard_normal(5), dtype=dtype)
    before = x.data.copy()
    ops = [T.relu, T.gelu] + [lambda v, act=act: T.matmul(v, w, bias=b, act=act)
                              for act in (None, "relu", "gelu")]
    for op in ops:
        plain = op(x).data
        with Tape() as tape:
            taped = op(x).data
        assert len(tape) == 1
        assert plain.dtype == taped.dtype == dtype and plain.tobytes() == taped.tobytes()
    assert x.data.tobytes() == before.tobytes()


def test_gelu_grad_runs_in_blocks_with_the_unfused_float_operations():
    """Bit-identical to the out-of-place gradient over rows that end in a
    partial block, holding one block of scratch beside its result."""
    rng = np.random.default_rng(3)
    v = rng.standard_normal((512, 3072)).astype(np.float32)
    g = rng.standard_normal(v.shape).astype(np.float32)
    assert v.shape[0] % (T.CACHE_BLOCK // v.shape[1])  # the last block is partial
    x = Parameter("x", v)
    with Tape() as tape:
        loss = sum_all(T.mul(ref_gelu(x), Tensor(g)))
    backward(tape, loss)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = T._gelu_grad(v, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got.tobytes() == x.grad.data.tobytes()
    assert peak < got.nbytes + 4 * T.CACHE_BLOCK * v.itemsize


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
    taped forward's entries hold at most 45% of the unfused tape's bytes,
    since a gradient recomputes x̂, softmax weights, ReLU's mask and GELU's
    tanh term instead of keeping them."""
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
    assert fused_held <= 0.45 * unfused_held, (fused_held, unfused_held)


def test_skewed_batch_peak_stays_below_the_padded_grid():
    """One 64-token row and fifteen 4-token rows: the padded grid holds 16
    rows of 64 positions for attention, and its (B, heads, L, L) scores,
    while the no-tape forward holds one row's scores at a time."""
    m = init_random(ModelConfig(**MEM_CFG), 0)
    rng = np.random.default_rng(1)
    lengths = np.array([64] + [4] * 15)
    mask = (np.arange(64)[None, :] < lengths[:, None]).astype(np.int64)
    ids = rng.integers(1, 50, size=mask.shape) * mask
    ctx = rng.random((16, 4)).astype(np.float32)
    for fwd in (forward_probs, unfused_forward_probs):
        fwd(m, ids, mask, ctx)
    packed, _ = _traced_peak(lambda: forward_probs(m, ids, mask, ctx))
    padded, _ = _traced_peak(lambda: unfused_forward_probs(m, ids, mask, ctx))
    assert packed <= 0.25 * padded, (packed, padded)


def test_row_groups_halve_the_scoring_peak(monkeypatch):
    """A no-tape forward of 64 rows of 2-128 tokens, run a group of rows at
    a time below the [CLS] stage, peaks at most at half the peak of the
    whole batch as one group."""
    m = init_random(ModelConfig(**{**MEM_CFG, "max_positions": 128}), 0)
    rng = np.random.default_rng(2)
    lengths = rng.integers(2, 129, size=64)
    mask = (np.arange(128)[None, :] < lengths[:, None]).astype(np.int64)
    ids = rng.integers(1, 50, size=mask.shape) * mask
    ctx = rng.random((64, 4)).astype(np.float32)
    peaks = []
    for budget in (10**9, 512):
        monkeypatch.setattr("catbert.model.GROUP_TOKENS", budget)
        forward_probs(m, ids, mask, ctx)  # warm caches and imports
        peaks.append(_traced_peak(lambda: forward_probs(m, ids, mask, ctx))[0])
    one_group, grouped = peaks
    assert grouped <= 0.5 * one_group, (grouped, one_group)
