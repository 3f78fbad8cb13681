"""Dense tensor math with a reverse-mode gradient tape and an Adam optimizer.

Everything the model computes runs through the ops in this module. Arrays are
float32; float64 appears only inside the finite-difference oracle used by
``grad_check``. Ops record onto the active :class:`Tape` (if any) when an
input leads to a trainable parameter, and ``backward`` replays the tape in
reverse to populate ``Parameter.grad``.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class GradientError(RuntimeError):
    """A backward/optimizer contract was violated."""


_TRACING = threading.local()


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
    """Named, optionally trainable tensor. ``grad`` matches ``data``'s shape
    once ``backward`` has run."""

    __slots__ = ("name", "trainable", "grad")

    def __init__(self, name: str, data, trainable: bool = True, dtype=np.float32):
        super().__init__(data, dtype=dtype)
        self.name = name
        self.trainable = trainable
        self.grad: Tensor | None = None

    def __repr__(self) -> str:
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name!r}, shape={self.data.shape}{flag})"


class Tape:
    """Ordered record of the executed ops that lead to a trainable parameter.

    An op records only if one of its inputs is a trainable ``Parameter`` or
    the output of an op already on the tape, so work that touches only
    frozen parameters and constants (a frozen lower stack, the frozen
    embedding table) leaves no entry and costs nothing in ``backward``. Ops
    append in execution order, which is already a topological order, so the
    backward walk simply visits entries in reverse. Used as a context
    manager; the active tape is thread-local.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple, Callable]] = []
        self._outputs: set[int] = set()  # ids of recorded outputs, kept alive by _entries

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting over leading axes.

    A 2-D ``b`` (every dense layer's weight) folds the leading axes of ``a``
    into one (rows, k) @ (k, n) GEMM, and both gradients are single GEMMs
    too: ``g2 @ bᵀ`` and ``a2ᵀ @ g2``, with no batched temporary to sum over
    the batch. The fold reshapes ``a``, a view when ``a`` is contiguous.
    Other shapes (attention's 4-D products) take numpy's batched matmul.
    """
    av, bv = _as_operands(a, b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    needs = _needs(a, b)
    if bv.ndim == 2:
        a2 = av.reshape(-1, av.shape[-1])
        out = (a2 @ bv).reshape(av.shape[:-1] + bv.shape[-1:])

        def grad_fn(g):
            g2 = g.reshape(-1, g.shape[-1])
            ga = (g2 @ bv.T).reshape(av.shape) if needs[0] else None
            gb = a2.T @ g2 if needs[1] else None
            return ga, gb

        return _emit(out, (a, b), grad_fn, needs)

    try:
        out = np.matmul(av, bv)
    except ValueError as e:
        raise ShapeError(f"matmul shapes not broadcastable: {av.shape} x {bv.shape}") from e

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape) if needs[0] else None
        gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape) if needs[1] else None
        return ga, gb

    return _emit(out, (a, b), grad_fn, needs)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _emit(np.where(mask, x.data, 0.0).astype(x.data.dtype, copy=False), (x,), grad_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """GELU via the tanh approximation (transformer FFN activation):
    0.5 v (1 + tanh(c (v + a v^3))). Computed in place on one buffer per
    result, in the same operation order as the formula."""
    v = x.data
    t = v * _GELU_A
    t *= v
    t *= v
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= v
    out *= 0.5

    def grad_fn(g):
        # d/dv = 0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 a v^2)
        d_inner = v * (3.0 * _GELU_A)
        d_inner *= v
        d_inner += 1.0
        d_inner *= _GELU_C
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

    return _emit(out, (x,), grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    v = x.data
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

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


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    v = x.data
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit(out.astype(v.dtype, copy=False), (x,), grad_fn)


LN_EPS = 1e-12


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean/unit-variance normalization over the last axis, then affine."""
    v = x.data
    d = v.shape[-1]
    gv, bv = gain.data, bias.data
    if gv.shape != (d,) or bv.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gv.shape} and {bv.shape}"
        )
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv_std
    out = xhat * gv + bv
    needs = _needs(x, gain, bias)

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

    return _emit(out.astype(v.dtype, copy=False), (x, gain, bias), grad_fn, needs)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table``; output shape is ``ids.shape + (d,)``.

    The gradient scatter-adds into the table, accumulating +1 per occurrence
    of a repeated id.
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
        gt = np.zeros_like(table.data)
        if idx.size:
            np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

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
    """Rows ``rows`` of ``x`` along axis 0, which must be distinct; the
    gradient zero-pads back (``scatter_rows``' forward)."""

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[rows] = g
        return (gx,)

    return _emit(x.data[rows], (x,), grad_fn)


def scatter_rows(x: Tensor, rows: np.ndarray, n: int) -> Tensor:
    """An ``n``-row zero array holding row ``i`` of ``x`` at row ``rows[i]``;
    ``rows`` must be distinct. The gradient gathers those rows back
    (``take_rows``' forward)."""
    out = np.zeros((n,) + x.data.shape[1:], dtype=x.data.dtype)
    out[rows] = x.data

    def grad_fn(g):
        return (g[rows],)

    return _emit(out, (x,), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    arrays = [p.data if isinstance(p, Tensor) else np.asarray(p) for p in parts]
    sizes = [a.shape[axis] for a in arrays]
    out = np.concatenate(arrays, axis=axis)
    offsets = np.cumsum([0] + sizes)
    needs = _needs(*parts)

    def grad_fn(g):
        grads = []
        for need, lo, hi in zip(needs, offsets[:-1], offsets[1:]):
            if need:
                index = [slice(None)] * g.ndim
                index[axis] = slice(int(lo), int(hi))
                grads.append(g[tuple(index)])
            else:
                grads.append(None)
        return tuple(grads)

    return _emit(out, tuple(parts), grad_fn, needs)


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False),)

    return _emit(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), grad_fn)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def grad_fn(g):
        return ((np.broadcast_to(g, x.data.shape) / n).astype(x.data.dtype, copy=False),)

    return _emit(np.asarray(x.data.mean(), dtype=x.data.dtype), (x,), grad_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Replay ``tape`` in reverse and populate ``grad`` on every trainable
    Parameter that feeds ``loss``. Fan-out gradients accumulate additively;
    frozen parameters receive no grad. The tape records only ops that lead
    to a trainable parameter, and each op computes only the input gradients
    the tape needs, so frozen work is neither replayed nor differentiated;
    the entries that remain, and their order, are those of a tape with every
    parameter trainable, so the gradients are bit-identical to its."""
    if loss.data.shape != ():
        raise GradientError(f"loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    touched: dict[int, Parameter] = {}
    for out, inputs, grad_fn in reversed(tape._entries):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, tg in zip(inputs, grad_fn(g)):
            if tg is None or not isinstance(t, Tensor):
                continue
            if isinstance(t, Parameter):
                if not t.trainable:
                    continue
                touched[id(t)] = t
            prev = grads.get(id(t))
            grads[id(t)] = tg if prev is None else prev + tg
    for pid, p in touched.items():
        p.grad = Tensor._wrap(np.ascontiguousarray(grads[pid], dtype=p.data.dtype))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam learning rate, step count and moments keyed by parameter name."""

    def __init__(self, lr: float = 5e-5):
        self.lr = lr
        self.step = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def adam_step(params: Sequence[Parameter], state: AdamState) -> None:
    """One Adam update with bias correction. Consumes grads (sets them to
    None); frozen parameters are untouched.

    The moments update in place and the step is built in one new buffer
    (with one temporary for its numerator), which then becomes ``p.data``
    (``p - step`` written over the step), so an array read from ``p.data``
    before the step keeps its values. The float
    operations and their order are the textbook formula's,
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g²``,
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, so the result is
    bit-identical to evaluating it out of place.
    """
    trainable = [p for p in params if p.trainable]
    for p in trainable:
        if p.grad is None:
            raise GradientError(f"parameter {p.name!r} is trainable but has no grad")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p in trainable:
        g = p.grad.data
        if p.name not in state.moments:
            state.moments[p.name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[p.name]
        step = np.multiply(g, 1.0 - ADAM_BETA1, dtype=p.data.dtype)
        m *= ADAM_BETA1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += step
        np.divide(v, c2, out=step)
        np.sqrt(step, out=step)
        step += ADAM_EPS
        numer = m / c1
        numer *= state.lr
        np.divide(numer, step, out=step)
        p.data = np.subtract(p.data, step, out=step)
        p.grad = None


def grad_check(model_fn: Callable[[], Tensor], params: Sequence[Parameter],
               eps: float = 1e-3, samples_per_param: int = 8, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    The difference quotient is evaluated with parameters upcast to float64
    (the oracle side), while the analytic gradient is computed in the
    parameters' own dtype. Each sampled coordinate is probed at steps
    ``h = eps`` and ``h = eps / 8`` and scores the smaller of
    ``max(|analytic - numeric| - r, 0) / max(|analytic|, |numeric|, 1e-8)``,
    where ``r = finfo(float64).eps * max(|L(+h)|, |L(-h)|) / h`` bounds the
    quotient's own rounding (which dominates on gradients near zero). The
    second step clears a kink (ReLU) that lies within ``eps`` of the
    coordinate: a correct gradient passes at one step, a wrong one fails at
    both. Returns the max score over the sampled coordinates.
    """
    if not (0.0 < eps <= 1e-1):
        raise ValueError(f"eps must be in (0, 1e-1], got {eps}")
    trainable = [p for p in params if p.trainable]
    for p in trainable:
        p.grad = None
    with Tape() as tape:
        loss = model_fn()
    backward(tape, loss)
    analytic = {}
    for p in trainable:
        if p.grad is None:
            raise GradientError(f"parameter {p.name!r} received no gradient")
        analytic[p.name] = np.asarray(p.grad.data, dtype=np.float64).copy()

    def score(flat: np.ndarray, c: int, a: float, h: float, name: str) -> float:
        orig = flat[c]
        flat[c] = orig + h
        lp = float(model_fn().data)
        flat[c] = orig - h
        lm = float(model_fn().data)
        flat[c] = orig
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise GradientError(f"non-finite loss while perturbing {name!r} coordinate {c}")
        numeric = (lp - lm) / (2.0 * h)
        rounding = np.finfo(np.float64).eps * max(abs(lp), abs(lm)) / h
        return max(abs(a - numeric) - rounding, 0.0) / max(abs(a), abs(numeric), 1e-8)

    saved = [(p, p.data) for p in trainable]
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for p in trainable:
            p.data = p.data.astype(np.float64)
        for p in trainable:
            n = p.data.size
            if n <= samples_per_param:
                coords = np.arange(n)
            else:
                coords = rng.choice(n, size=samples_per_param, replace=False)
            flat = p.data.reshape(-1)
            for c in coords:
                a = float(analytic[p.name].reshape(-1)[c])
                worst = max(worst, min(score(flat, int(c), a, h, p.name) for h in (eps, eps / 8)))
    finally:
        for p, data in saved:
            p.data = data
    return worst
