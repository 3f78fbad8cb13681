"""Dense tensor math with a reverse-mode gradient tape and an Adam optimizer.

Everything the model computes runs through the ops in this module. Arrays are
float32; an op keeps its inputs' dtype, so the tests' finite-difference
gradient oracle runs the same ops in float64. Ops record onto the active
:class:`Tape` (if any) when an input leads to a trainable parameter, and
``backward`` replays the tape in reverse to populate ``Parameter.grad``.

Each op has one forward body, recorded or not. The fused ops (``matmul``
with a bias and an activation, ``softmax_rows``, ``layer_norm``,
``attention``) write each step over the buffer the previous step
allocated, and a gradient recomputes what it reads beyond the op's inputs,
output and per-row statistics. Their float operations, and the
order of them, are those of the unfused op sequence, so results and
gradients are bit-identical to it (``attention``'s on rows with no padding).
"""

from __future__ import annotations

import math
import mmap
import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GradientError(RuntimeError):
    """A backward/optimizer contract was violated."""


_TRACING = threading.local()

# elements per block of the in-place matmul epilogue and of Adam; block and scratch stay in cache
CACHE_BLOCK = 1 << 16


def _active_tape() -> "Tape | None":
    return getattr(_TRACING, "tape", None)


class Tensor:
    """Dense row-major array.

    Immutable once produced by an op; ``data`` is an ``np.ndarray`` whose
    length always equals the product of its shape.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = object.__new__(cls)
        t.data = arr
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Named, optionally trainable tensor. Once ``backward`` has run, ``grad``
    is a dense ``Tensor`` of ``data``'s shape, or a ``RowGrad`` for a table
    read by one ``embedding_lookup`` and nothing else; ``dense_grad`` gives
    either as a dense array.

    The constructor copies ``data`` into a C-contiguous array of its own,
    since ``adam_step`` writes it in place and must not write through to an
    array the caller still holds."""

    __slots__ = ("name", "trainable", "grad")

    def __init__(self, name: str, data, trainable: bool = True, dtype=np.float32):
        self.data = np.array(data, dtype=dtype, order="C")
        self.name = name
        self.trainable = trainable
        self.grad: Tensor | RowGrad | None = None

    @classmethod
    def _adopt(cls, name: str, arr: np.ndarray, trainable: bool = True) -> "Parameter":
        """A parameter that takes ``arr`` as its array, uncopied: for a
        builder handing over a C-contiguous array whose memory no other
        parameter and no array its caller keeps shares. It may be a view
        (``load_checkpoint`` hands over disjoint views of one mapping)."""
        p = cls._wrap(arr)
        p.name, p.trainable, p.grad = name, trainable, None
        return p

    def __repr__(self) -> str:
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name!r}, shape={self.data.shape}{flag})"


class RowGrad:
    """Row-sparse gradient of a 2-D table: ``values[i]`` is the gradient of
    row ``rows[i]`` (sorted, distinct) and every other row's is zero. A
    batch's embedding gradient costs its U distinct ids, (U, d), not the
    whole table. ``embedding_lookup`` makes one; ``backward`` hands it to a
    table that one lookup alone reads, and sums any other gradient dense."""

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows = rows
        self.values = values
        self.shape = shape


def dense_grad(grad) -> np.ndarray:
    """A gradient as a dense array: a ``RowGrad`` scattered into zeros of its
    table's shape, a ``Tensor``'s data, or an array as it is."""
    if isinstance(grad, RowGrad):
        out = np.zeros(grad.shape, dtype=grad.values.dtype)
        out[grad.rows] = grad.values
        return out
    return grad.data if isinstance(grad, Tensor) else grad


class Tape:
    """Ordered record of the executed ops that lead to a trainable parameter.

    An op records only if one of its inputs is a trainable ``Parameter`` or
    the output of an op already on the tape, so work that touches only
    frozen parameters and constants (a frozen lower stack, the frozen
    embedding table) leaves no entry and costs nothing in ``backward``. Ops
    append in execution order, which is already a topological order, so the
    backward walk simply visits entries in reverse. Used as a context
    manager; the active tape is thread-local.

    An entry holds its op's inputs and output, and its closure at most
    per-row statistics and a GELU's pre-activation. ``backward`` consumes
    the tape: it drops each entry once that entry is differentiated, so a
    tape can be walked only once. ``len`` still counts the recorded entries.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple, Callable] | None] = []
        # ids of recorded outputs, kept alive by _entries until backward clears both
        self._outputs: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Tape":
        self._prev = _active_tape()
        _TRACING.tape = self
        return self

    def __exit__(self, *exc):
        _TRACING.tape = self._prev
        return False

    def needs_grad(self, t) -> bool:
        """Whether a gradient with respect to ``t`` can reach a trainable parameter."""
        if isinstance(t, Parameter):
            return t.trainable
        return isinstance(t, Tensor) and id(t) in self._outputs

    def record(self, out: Tensor, inputs: tuple, grad_fn: Callable) -> None:
        self._entries.append((out, inputs, grad_fn))
        self._outputs.add(id(out))

    def __len__(self) -> int:
        return len(self._entries)


def _needs(*inputs) -> tuple[bool, ...]:
    """Per input, whether the active tape needs its gradient. A ``grad_fn``
    returns None for the inputs marked False."""
    tape = _active_tape()
    return tuple(tape is not None and tape.needs_grad(t) for t in inputs)


def _emit(arr: np.ndarray, inputs: tuple, grad_fn: Callable,
          needs: tuple[bool, ...] | None = None) -> Tensor:
    """Wrap ``arr`` and record it on the active tape if any input needs a
    gradient (``needs``, as computed by ``_needs``, when the op has it)."""
    out = Tensor._wrap(arr)
    tape = _active_tape()
    if tape is not None and any(_needs(*inputs) if needs is None else needs):
        tape.record(out, inputs, grad_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_operands(a, b):
    """Split (a, b) into (tensor inputs, raw arrays). Non-Tensor operands are
    constants and receive no gradient; bare Python scalars adopt the Tensor
    operand's dtype so float32 graphs stay float32."""
    av = a.data if isinstance(a, Tensor) else a
    bv = b.data if isinstance(b, Tensor) else b
    if not isinstance(a, Tensor):
        dt = bv.dtype if isinstance(b, Tensor) and isinstance(av, (int, float)) else None
        av = np.asarray(av, dtype=dt)
    if not isinstance(b, Tensor):
        dt = av.dtype if isinstance(a, Tensor) and isinstance(bv, (int, float)) else None
        bv = np.asarray(bv, dtype=dt)
    return av, bv


def add(a, b) -> Tensor:
    av, bv = _as_operands(a, b)
    needs = _needs(a, b)

    def grad_fn(g):
        ga = _unbroadcast(g, av.shape) if needs[0] else None
        gb = _unbroadcast(g, bv.shape) if needs[1] else None
        return ga, gb

    return _emit(av + bv, (a, b), grad_fn, needs)


def sub(a, b) -> Tensor:
    av, bv = _as_operands(a, b)
    needs = _needs(a, b)

    def grad_fn(g):
        ga = _unbroadcast(g, av.shape) if needs[0] else None
        gb = _unbroadcast(-g, bv.shape) if needs[1] else None
        return ga, gb

    return _emit(av - bv, (a, b), grad_fn, needs)


def mul(a, b) -> Tensor:
    av, bv = _as_operands(a, b)
    needs = _needs(a, b)

    def grad_fn(g):
        ga = _unbroadcast(g * bv, av.shape) if needs[0] else None
        gb = _unbroadcast(g * av, bv.shape) if needs[1] else None
        return ga, gb

    return _emit(av * bv, (a, b), grad_fn, needs)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, act: str | None = None) -> Tensor:
    """Matrix product with numpy batch broadcasting over leading axes.

    A 2-D ``b`` (every dense layer's weight) folds the leading axes of ``a``
    into one (rows, k) @ (k, n) GEMM, and both gradients are single GEMMs
    too: ``g2 @ bᵀ`` and ``a2ᵀ @ g2``, with no batched temporary to sum over
    the batch. The fold reshapes ``a``, a view when ``a`` is contiguous.
    Other shapes (the [CLS] fold's per-head products) take batched matmul.

    On the 2-D path a dense layer is one op: ``bias`` (shape (n,)) is added
    into the fresh GEMM output and ``act`` (``"relu"`` or ``"gelu"``)
    applied there, with the float operations of ``add`` and of ``relu`` or
    ``gelu`` after an unfused product. Both run in place, a cache-sized
    block of rows at a time (``_epilogue``, which ``relu`` and ``gelu``
    share).
    """
    av, bv = _as_operands(a, b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    if act not in _ACT_GRAD:
        raise ValueError(f"unknown activation {act!r}; expected None, 'relu' or 'gelu'")
    if (bias is not None or act is not None) and bv.ndim != 2:
        raise ShapeError(f"bias and act need a 2-D weight, got {bv.shape}")
    if bias is not None and bias.data.shape != bv.shape[-1:]:
        raise ShapeError(f"matmul bias must have shape {bv.shape[-1:]}, got {bias.data.shape}")
    inputs = (a, b) if bias is None else (a, b, bias)
    needs = _needs(*inputs)
    if bv.ndim == 2:
        a2 = av.reshape(-1, av.shape[-1])
        pre = (a2 @ bv).reshape(av.shape[:-1] + bv.shape[-1:])
        out = _epilogue(pre, bias, act, any(needs))

        def grad_fn(g):
            g = _ACT_GRAD[act](g, pre, out)
            g2 = g.reshape(-1, g.shape[-1])
            ga = (g2 @ bv.T).reshape(av.shape) if needs[0] else None
            gb = a2.T @ g2 if needs[1] else None
            if bias is None:
                return ga, gb
            return ga, gb, _unbroadcast(g, bias.data.shape) if needs[2] else None

        return _emit(out, inputs, grad_fn, needs)

    try:
        out = np.matmul(av, bv)
    except ValueError as e:
        raise ShapeError(f"matmul shapes not broadcastable: {av.shape} x {bv.shape}") from e

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape) if needs[0] else None
        gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape) if needs[1] else None
        return ga, gb

    return _emit(out, (a, b), grad_fn, needs)


def _epilogue(out: np.ndarray, bias: Tensor | None, act: str | None,
              recorded: bool) -> np.ndarray:
    """Add ``bias`` into the fresh array ``out`` and apply ``act`` in place,
    a cache-sized block of rows at a time, with one block of scratch for
    gelu's tanh term. Returns the result, which is ``out`` itself except
    for a ``recorded`` gelu: its gradient reads the pre-activation ``out``,
    so the result goes to an array of its own."""
    if bias is None and act is None:
        return out
    o2 = out.reshape(-1, out.shape[-1] if out.size > 1 else 1)  # 0-d and empty too
    per = max(1, CACHE_BLOCK // o2.shape[1])
    res = np.empty_like(o2) if recorded and act == "gelu" else o2
    if act == "gelu":
        t = np.empty((min(per, o2.shape[0]), o2.shape[1]), o2.dtype)
    for lo in range(0, o2.shape[0], per):
        blk = o2[lo:lo + per]
        if bias is not None:
            blk += bias.data
        if act == "relu":
            np.fmax(blk, 0, out=blk)  # as np.where(blk > 0, blk, 0): fmax drops NaN,
            blk += 0.0  # and -0.0 + 0.0 is +0.0
        elif act == "gelu":
            _gelu(blk, t[:blk.shape[0]], None if res is o2 else res[lo:lo + per])
    return res.reshape(out.shape)


_ACT_GRAD = {
    None: lambda g, pre, out: g,
    "relu": lambda g, pre, out: g * (out > 0),
    "gelu": lambda g, pre, out: _gelu_grad(pre, g),
}


def _activation(x: Tensor, act: str) -> Tensor:
    """``act`` as an op: ``matmul``'s epilogue, with no bias, on a copy of ``x``."""
    needs = _needs(x)
    out = _epilogue(x.data.copy(), None, act, needs[0])

    def grad_fn(g):
        return (_ACT_GRAD[act](g, x.data, out),)

    return _emit(out, (x,), grad_fn, needs)


def relu(x: Tensor) -> Tensor:
    """max(v, 0), with +0.0 for -0.0 and NaN: ``matmul``'s ``"relu"`` epilogue."""
    return _activation(x, "relu")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(v: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> None:
    """GELU's tanh approximation on equal-shape arrays: ``t`` gets
    tanh(c (v + a v^3)) and ``out`` gets 0.5 v (1 + t), in the formula's
    order of operations. When ``out`` is None the result overwrites ``v``
    and ``t`` is scratch."""
    np.multiply(v, _GELU_A, out=t)
    t *= v
    t *= v
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    if out is None:
        t += 1.0
        v *= t
        v *= 0.5
    else:
        np.add(t, 1.0, out=out)
        out *= v
        out *= 0.5


def _gelu_grad(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """GELU's input gradient from its input ``v``, with ``_gelu``
    recomputing the tanh term ``t``: g (0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 a v^2)),
    a cache-sized block of rows at a time with one block of scratch each for
    ``t`` and the inner factor."""
    v2 = v.reshape(-1, v.shape[-1] if v.size > 1 else 1)
    g2 = g.reshape(v2.shape)
    out = np.empty_like(v2)
    per = max(1, CACHE_BLOCK // v2.shape[1])
    t_buf, inner_buf = np.empty((2, min(per, v2.shape[0]), v2.shape[1]), v2.dtype)
    for lo in range(0, v2.shape[0], per):
        vb, d = v2[lo:lo + per], out[lo:lo + per]
        t, d_inner = t_buf[:len(vb)], inner_buf[:len(vb)]
        _gelu(vb, t, d)  # d: scratch
        np.multiply(vb, 3.0 * _GELU_A, out=d_inner)
        d_inner *= vb
        d_inner += 1.0
        d_inner *= _GELU_C
        np.multiply(t, t, out=d)
        np.subtract(1.0, d, out=d)
        d *= vb
        d *= 0.5
        d *= d_inner
        np.add(t, 1.0, out=d_inner)
        d_inner *= 0.5
        d += d_inner
        d *= g2[lo:lo + per]
    return out.reshape(v.shape)


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation (transformer FFN activation),
    0.5 v (1 + tanh(c (v + a v^3))): ``matmul``'s ``"gelu"`` epilogue."""
    return _activation(x, "gelu")


def stable_sigmoid(v: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-v) on an array, in the form that cannot overflow: e^v
    is taken only where v < 0. Shared with the TF-IDF baseline."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = stable_sigmoid(x.data)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _emit(out, (x,), grad_fn)


def log(x: Tensor) -> Tensor:
    v = x.data

    def grad_fn(g):
        return (g / v,)

    return _emit(np.log(v), (x,), grad_fn)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    v = x.data
    inside = (v >= lo) & (v <= hi)

    def grad_fn(g):
        return (g * inside,)

    return _emit(np.clip(v, lo, hi), (x,), grad_fn)


def _softmax(s: np.ndarray) -> None:
    """Softmax over the last axis of ``s``, in place, with max-subtraction."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A softmax's input gradient from its output ``out`` and output gradient ``g``."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis of ``x``, with max-subtraction.

    ``x`` is copied into one new buffer, which is then shifted,
    exponentiated and normalised in place: ``x`` is left unchanged and the
    op allocates only its output. The float operations are those of an
    unfused softmax, in their order, so the result and its gradient are
    bit-identical to its."""
    out = x.data.copy()
    _softmax(out)
    return _emit(out, (x,), lambda g: (_softmax_grad(out, g),))


def attention(q: Tensor, k: Tensor, v: Tensor, q_rows, kv_rows, heads: int,
              scale: float) -> Tensor:
    """Multi-head softmax attention within segments of packed rows, with no
    padding and no mask: FlashAttention-2's variable-length form (Dao, arXiv
    2307.08691). ``q`` (M, heads·w), ``k`` (N, heads·w) and ``v`` (N,
    heads·w') split each row into ``heads`` heads. ``q_rows`` and
    ``kv_rows`` are (starts, lengths) arrays, one entry per segment, whose
    segments do not overlap: segment i's queries attend over its keys alone.
    Scores are scaled by ``scale``, rounded to the dtype. One segment's
    softmax weights exist at a time; the layer is one tape entry, whose
    gradient recomputes them. Each segment runs the per-matrix products and
    float operations of attention over a padded grid, so on full rows it is
    bit-identical to that."""
    needs = _needs(q, k, v)
    qv, kv, vv = q.data, k.data, v.data
    scale = np.asarray(scale, dtype=qv.dtype)
    segments = [tuple(map(int, seg)) for seg in zip(*q_rows, *kv_rows)]

    def split(a, lo: int, n: int, axes=(1, 0, 2)):  # rows lo:lo+n as (heads, n, w); (1, 2, 0): ᵀ
        return a[lo:lo + n].reshape(n, heads, a.shape[1] // heads).transpose(axes)

    def weights(qs: int, ql: int, ks: int, kl: int) -> np.ndarray:  # (heads, ql, kl)
        s = np.matmul(split(qv, qs, ql), split(kv, ks, kl, (1, 2, 0)))
        s *= scale
        _softmax(s)
        return s

    out = np.empty((qv.shape[0], vv.shape[1]), qv.dtype)
    for qs, ql, ks, kl in segments:
        split(out, qs, ql)[...] = np.matmul(weights(qs, ql, ks, kl), split(vv, ks, kl))

    def grad_fn(g):
        gq, gk, gv = (np.zeros_like(t.data) if need else None
                      for t, need in zip((q, k, v), needs))
        for qs, ql, ks, kl in segments:
            w = weights(qs, ql, ks, kl)
            go = split(g, qs, ql)
            if gv is not None:
                split(gv, ks, kl)[...] = np.matmul(w.transpose(0, 2, 1), go)
            gs = _softmax_grad(w, np.matmul(go, split(vv, ks, kl, (1, 2, 0))))
            gs *= scale
            if gq is not None:
                split(gq, qs, ql)[...] = np.matmul(gs, split(kv, ks, kl))
            if gk is not None:
                split(gk, ks, kl, (1, 2, 0))[...] = np.matmul(split(qv, qs, ql, (1, 2, 0)), gs)
        return gq, gk, gv

    return _emit(out, (q, k, v), grad_fn, needs)


LN_EPS = 1e-12


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean/unit-variance normalization over the last axis, then affine.

    The centred input is normalised in place into x̂, and the affine step
    writes over x̂. The gradient recomputes x̂ from the input with the kept
    per-row mean and 1/std, in the forward's order of operations."""
    v = x.data
    d = v.shape[-1]
    gv, bv = gain.data, bias.data
    if gv.shape != (d,) or bv.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gv.shape} and {bv.shape}"
        )
    mu = v.mean(axis=-1, keepdims=True)
    xhat = v - mu  # centred here, normalised in place below
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    needs = _needs(x, gain, bias)
    out = np.multiply(xhat, gv, out=xhat)
    out += bv

    def grad_fn(g):
        gx = gg = gb = None
        xhat = v - mu
        xhat *= inv_std
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

    return _emit(out, (x, gain, bias), grad_fn, needs)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table``; output shape is ``ids.shape + (d,)``.

    The gradient is a ``RowGrad`` over the distinct ids: each id's row sums
    the output rows that read it, in their order, so a repeated id counts
    once per occurrence and every row is bit-identical to a dense
    ``np.add.at`` scatter into zeros of the table's shape.
    """
    idx = np.asarray(ids, dtype=np.int64)
    n_rows = table.data.shape[0]
    if idx.size:
        bad = (idx < 0) | (idx >= n_rows)
        if bad.any():
            offender = int(idx[bad].flat[0])
            raise IndexError(f"embedding id {offender} out of range [0, {n_rows})")
    out = table.data[idx]

    def grad_fn(g):
        rows, inverse = np.unique(idx.reshape(-1), return_inverse=True)
        values = np.zeros((rows.size, table.data.shape[1]), dtype=table.data.dtype)
        np.add.at(values, inverse, g.reshape(-1, table.data.shape[1]))
        return (RowGrad(rows, values, table.data.shape),)

    return _emit(out, (table,), grad_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = x.data.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _emit(x.data.reshape(shape), (x,), grad_fn)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (np.transpose(g, inverse),)

    return _emit(np.transpose(x.data, axes), (x,), grad_fn)


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Rows ``rows`` of ``x``: an array of distinct indices into axis 0, or
    a slice, which gives a view. The gradient zero-pads back."""

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[rows] = g
        return (gx,)

    return _emit(x.data[rows], (x,), grad_fn)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def grad_fn(g):
        return ((np.broadcast_to(g, x.data.shape) / n).astype(x.data.dtype, copy=False),)

    return _emit(np.asarray(x.data.mean(), dtype=x.data.dtype), (x,), grad_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Replay ``tape`` in reverse and populate ``grad`` on every trainable
    Parameter that feeds ``loss``. Fan-out gradients accumulate additively,
    in the tape's order; frozen parameters receive no grad. The tape records
    only ops that lead to a trainable parameter, and each op computes only
    the input gradients the tape needs, so frozen work is neither replayed
    nor differentiated; the entries that remain, and their order, are those
    of a tape with every parameter trainable, so the gradients are
    bit-identical to its.

    A table whose only use is one ``embedding_lookup`` gets that lookup's
    ``RowGrad``. Gradients that meet at a tensor used more than once (a
    table looked up twice among them) sum as dense arrays, so such a table
    gets a dense gradient.

    The walk consumes the tape: each entry is set to None once visited, so
    an activation is freed once the op that made it, and so every op that
    reads it, has been differentiated, and the gradients reuse its memory.
    A second ``backward`` on the same tape raises ``GradientError``."""
    if loss.data.shape != ():
        raise GradientError(f"loss must be scalar, got shape {loss.data.shape}")
    if tape._spent:
        raise GradientError("backward already consumed this tape; record a new one")
    tape._spent = True
    tape._outputs.clear()  # the ids die with the entries and may be reused
    entries = tape._entries
    grads: dict[int, np.ndarray | RowGrad] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    touched: dict[int, Parameter] = {}
    for i in range(len(entries) - 1, -1, -1):
        out, inputs, grad_fn = entries[i]
        entries[i] = None
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, tg in zip(inputs, grad_fn(dense_grad(g))):
            if tg is None or not isinstance(t, Tensor):
                continue
            if isinstance(t, Parameter):
                if not t.trainable:
                    continue
                touched[id(t)] = t
            prev = grads.get(id(t))
            grads[id(t)] = tg if prev is None else dense_grad(prev) + dense_grad(tg)
    for pid, p in touched.items():
        g = grads[pid]
        p.grad = g if isinstance(g, RowGrad) else Tensor._wrap(
            np.ascontiguousarray(g, dtype=p.data.dtype))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam learning rate, step count and moments keyed by parameter name.

    ``live_rows`` holds, for each parameter whose every gradient so far was
    a ``RowGrad``, the sorted rows that have ever had a gradient row. Every
    other row still has m = v = 0, so dense Adam would leave it
    byte-identical, and ``adam_step`` skips it."""

    def __init__(self, lr: float = 5e-5):
        self.lr = lr
        self.step = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.live_rows: dict[str, np.ndarray] = {}


def _adam_kernel(p, g, m, v, s1, s2, lr: float, c1: float, c2: float) -> None:
    """Adam on equal-shape blocks, in place: ``p``, ``m`` and ``v`` take
    their new values; ``s1`` and ``s2`` are scratch. The float operations
    and their order are the textbook formula's,
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g²``,
    ``p - lr (m / c1) / (sqrt(v / c2) + eps)``."""
    np.multiply(g, 1.0 - ADAM_BETA1, out=s1, dtype=p.dtype)
    m *= ADAM_BETA1
    m += s1
    np.multiply(g, g, out=s1)
    s1 *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += s1
    np.divide(v, c2, out=s1)
    np.sqrt(s1, out=s1)
    s1 += ADAM_EPS
    np.divide(m, c1, out=s2)
    s2 *= lr
    np.divide(s2, s1, out=s1)
    np.subtract(p, s1, out=p)


def adam_step(params: Sequence[Parameter], state: AdamState) -> None:
    """One Adam update with bias correction, written into each trainable
    ``p.data`` in place. Consumes grads (sets them to None); frozen
    parameters are untouched.

    Every parameter takes the one walk, ``_adam_rows``: its rows go through
    ``_adam_kernel`` a block at a time with two scratch buffers, so the
    result is bit-identical to evaluating the formula out of place over the
    whole array. A dense gradient updates every row. A ``RowGrad`` adds its
    rows to the parameter's ``live_rows`` and updates exactly those rows: a
    live row with no gradient this step still decays its moments and
    moves, as in dense Adam, while a row that never had a gradient would
    not change, so skipping it is exact (this is not lazy Adam). Such a
    table's moments are mapped zero pages until written, so rows never
    live cost no memory. From its first dense gradient on, a parameter
    updates every row.

    ``p.data`` keeps its array and the step overwrites it: an array read
    from ``p.data`` before the step, or a view of it, sees the new values,
    so copy what must keep the old ones. For the same reason the step
    raises ``GradientError`` while a ``Tape`` is active, since an op
    recorded on it may still read the weights for its gradient, and for a
    trainable ``p.data`` that is not a writable C-contiguous array.
    """
    if _active_tape() is not None:
        raise GradientError("adam_step inside an active Tape, whose ops may still read the weights")
    trainable = [p for p in params if p.trainable]
    for p in trainable:
        if p.grad is None:
            raise GradientError(f"parameter {p.name!r} is trainable but has no grad")
        if not (p.data.flags.c_contiguous and p.data.flags.writeable):
            raise GradientError(f"parameter {p.name!r} is not a writable C-contiguous array")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p in trainable:
        first = p.name not in state.moments
        if first:
            zeros = _lazy_zeros if isinstance(p.grad, RowGrad) else np.zeros
            state.moments[p.name] = (zeros(p.data.shape, p.data.dtype),
                                     zeros(p.data.shape, p.data.dtype))
        m, v = state.moments[p.name]
        grad, live = p.grad, None
        if isinstance(grad, RowGrad) and (first or p.name in state.live_rows):
            live = np.union1d(state.live_rows.get(p.name, grad.rows), grad.rows)
            state.live_rows[p.name] = live
        else:  # dense from the first dense gradient on
            state.live_rows.pop(p.name, None)
        _adam_rows(p.data, grad, live, m, v, state.lr, c1, c2)
        p.grad = None


def _lazy_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros in an anonymous memory map, which the OS backs with a page
    only when it is first written, 4 KiB at a time; a table's moments then
    hold only its live rows. (numpy asks for 2 MiB huge pages on large
    arrays, so a few hundred scattered rows would make all of it resident.)"""
    n = math.prod(shape)
    buf = mmap.mmap(-1, max(1, n * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count=n).reshape(shape)


def _adam_rows(data: np.ndarray, grad, live: np.ndarray | None, m: np.ndarray,
               v: np.ndarray, lr: float, c1: float, c2: float) -> None:
    """Adam on ``data``, ``m`` and ``v`` in place, viewed as rows of their
    last axis (a 1-D array as one column), a block of rows at a time: at
    most ``CACHE_BLOCK`` elements, or one row where a row is longer.

    ``live`` is None to walk every row, or the sorted rows to walk, a
    superset of a ``RowGrad``'s rows. ``grad`` is a ``RowGrad``, whose
    rows outside ``grad.rows`` have a zero gradient, or a dense gradient.
    A block of consecutive rows updates through slice views; any other
    block gathers its rows, updates them and scatters them back."""
    d = data.shape[-1] if data.ndim > 1 else 1
    p, m, v = (a.reshape(-1, d) for a in (data, m, v))  # views: C-contiguous
    n = p.shape[0] if live is None else live.size
    per = max(1, CACHE_BLOCK // d)
    sparse = isinstance(grad, RowGrad)
    if sparse:  # each gradient row's place among the rows walked
        at = grad.rows if live is None else np.searchsorted(live, grad.rows)
    else:
        g_rows = dense_grad(grad).reshape(-1, d)
    s1, s2 = np.empty((2, min(n, per), d), data.dtype)
    for lo in range(0, n, per):
        hi = min(lo + per, n)
        rows = slice(lo, hi) if live is None else live[lo:hi]
        if live is not None and rows[-1] - rows[0] == hi - lo - 1:
            rows = slice(rows[0], rows[-1] + 1)
        if sparse:
            g = np.zeros((hi - lo, d), data.dtype)
            k0, k1 = np.searchsorted(at, (lo, hi))
            g[at[k0:k1] - lo] = grad.values[k0:k1]
        else:
            g = g_rows[rows]
        p_blk, m_blk, v_blk = p[rows], m[rows], v[rows]
        _adam_kernel(p_blk, g, m_blk, v_blk, s1[:hi - lo], s2[:hi - lo], lr, c1, c2)
        if not isinstance(rows, slice):
            p[rows], m[rows], v[rows] = p_blk, m_blk, v_blk

