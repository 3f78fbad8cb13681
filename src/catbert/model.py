"""CatBERT network: embeddings, a mixed plan of transformer and adapter
blocks, and a context-fusing sigmoid classifier.

The compressed model keeps a subset of a donor's transformer blocks and fills
the removed positions with full-width residual adapters (dense d→d, ReLU,
dense d→d, plus the skip connection). The classifier reads the last block's
[CLS] hidden state, concatenates the ``CONTEXT_DIM`` header-context features
(none when ``context_dim`` is 0), and applies dense (width d) → ReLU →
dense → sigmoid. Since nothing reads any other row, the last transformer computes
only the CLS row (attending over all rows) and the blocks after it run on
that row alone. Its attention projects no keys or values: the key weights
fold into the [CLS] query and the value weights apply after the weighted
sum of the rows (``_cls_attention``), which is exact up to float rounding.

The forward is padding-free: every row-wise op (embeddings, layer norms,
dense layers, GELU, adapters) runs on the packed (N, d) array of the batch's
real tokens, and only attention scatters them into a (B, L) grid that ends
at the batch's longest row, so no layer's cost follows the padded width.
``surgery_from_donor`` builds the compressed model
from a donor checkpoint; ``set_trainable`` applies freeze masks for partial
fine-tuning.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .mail import CONTEXT_DIM
from .tensor import Parameter, Tensor

TRANSFORMER = "transformer"
ADAPTER = "adapter"
_PLAN_ALIASES = {"t": TRANSFORMER, "transformer": TRANSFORMER,
                 "a": ADAPTER, "adapter": ADAPTER}

MASK_OFF = -1e9  # additive attention penalty for padded key positions


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int = 768
    ffn_dim: int = 3072
    heads: int = 12
    max_positions: int = 512
    block_plan: tuple[str, ...] = (TRANSFORMER, ADAPTER) * 3
    context_dim: int = CONTEXT_DIM  # or 0: no header context
    seed: int = 0

    def __post_init__(self):
        try:
            self.block_plan = tuple(_PLAN_ALIASES[str(b).lower()] for b in self.block_plan)
        except KeyError as e:
            raise ConfigError(f"unknown block kind {e.args[0]!r}") from None
        if not self.block_plan:
            raise ConfigError("block plan must be non-empty")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if self.vocab_size < 1 or self.max_positions < 1:
            raise ConfigError("vocab_size/max_positions must be >= 1")
        if self.context_dim not in (0, CONTEXT_DIM):
            raise ConfigError(f"context_dim must be 0 or {CONTEXT_DIM}, got {self.context_dim}")

    def to_dict(self) -> dict:
        return {**asdict(self), "block_plan": list(self.block_plan)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a config or checkpoint dict. Dicts written before
        ``cls_from`` and ``classifier_hidden`` were retired still load when
        they hold the one value the model now has."""
        d = dict(d)
        retired = {"cls_from": "last_block",
                   "classifier_hidden": d.get("hidden", cls.__dataclass_fields__["hidden"].default)}
        for key, only in retired.items():
            value = d.pop(key, only)
            if value != only:
                raise ConfigError(f"{key}={value!r} is retired; the model supports only {only!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in canonical order. The single
    source of truth shared by init, counting, and checkpoint validation."""
    d, f = config.hidden, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "embeddings.token": (config.vocab_size, d),
        "embeddings.position": (config.max_positions, d),
        "embeddings.ln.gain": (d,),
        "embeddings.ln.bias": (d,),
    }
    for i, kind in enumerate(config.block_plan):
        p = f"blocks.{i}"
        if kind == TRANSFORMER:
            for proj in ("q", "k", "v", "o"):
                shapes[f"{p}.attn.{proj}.w"] = (d, d)
                shapes[f"{p}.attn.{proj}.b"] = (d,)
            shapes[f"{p}.attn.ln.gain"] = (d,)
            shapes[f"{p}.attn.ln.bias"] = (d,)
            shapes[f"{p}.ffn.w1"] = (d, f)
            shapes[f"{p}.ffn.b1"] = (f,)
            shapes[f"{p}.ffn.w2"] = (f, d)
            shapes[f"{p}.ffn.b2"] = (d,)
            shapes[f"{p}.ffn.ln.gain"] = (d,)
            shapes[f"{p}.ffn.ln.bias"] = (d,)
        else:
            shapes[f"{p}.dense1.w"] = (d, d)
            shapes[f"{p}.dense1.b"] = (d,)
            shapes[f"{p}.dense2.w"] = (d, d)
            shapes[f"{p}.dense2.b"] = (d,)
    shapes["classifier.fusion.w"] = (d + config.context_dim, d)
    shapes["classifier.fusion.b"] = (d,)
    shapes["classifier.out.w"] = (d, 1)
    shapes["classifier.out.b"] = (1,)
    return shapes


@dataclass
class ParamReport:
    embedding: int
    per_transformer: int
    per_adapter: int
    classifier: int
    total: int

    @property
    def non_embedding(self) -> int:
        return self.total - self.embedding


def count_params(config: ModelConfig) -> ParamReport:
    """Closed-form parameter counts per section of the network."""
    d, f = config.hidden, config.ffn_dim
    embedding = config.vocab_size * d + config.max_positions * d + 2 * d
    transformer = 4 * (d * d + d) + (d * f + f) + (f * d + d) + 4 * d
    adapter = 2 * (d * d + d)
    classifier = (d + config.context_dim) * d + d + d + 1
    n_t = sum(1 for b in config.block_plan if b == TRANSFORMER)
    n_a = len(config.block_plan) - n_t
    total = embedding + n_t * transformer + n_a * adapter + classifier
    return ParamReport(embedding=embedding, per_transformer=transformer,
                       per_adapter=adapter, classifier=classifier, total=total)


def millions(n: int) -> int:
    return n // 1_000_000


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with redraws outside ±2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(np.float32)


def _init_tensor(name: str, shape, rng: np.random.Generator) -> np.ndarray:
    if name.endswith(".gain"):
        return np.ones(shape, dtype=np.float32)
    if name.endswith(".b") or name.endswith(".bias"):
        return np.zeros(shape, dtype=np.float32)
    return _trunc_normal(rng, shape)


class CatBertModel:
    """Parameter container plus forward pass. Inference leaves it unchanged;
    each training step overwrites every trainable ``Parameter.data`` in
    place (``adam_step``), so an array read from it before the step sees
    the new values: snapshot a parameter with ``.copy()``. No two
    parameters, and no two models built by ``init_random``,
    ``surgery_from_donor``, ``astype`` or ``load_checkpoint``, share
    memory, so a step never writes through to another holder."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter],
                 provenance: dict[str, str] | None = None):
        self.config = config
        self.params = params
        self.provenance = provenance or {name: "fresh" for name in params}

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def astype(self, dtype) -> "CatBertModel":
        """Copy with every parameter cast (float64 for gradient oracles)."""
        fresh = {
            name: Parameter._adopt(name, p.data.astype(dtype), trainable=p.trainable)
            for name, p in self.params.items()
        }
        return CatBertModel(self.config, fresh, dict(self.provenance))


def init_random(config: ModelConfig, seed: int | None = None) -> CatBertModel:
    """Fresh model: truncated-normal weights (std 0.02), zero biases,
    identity layer norms. Deterministic per seed."""
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    params = {
        name: Parameter._adopt(name, _init_tensor(name, shape, rng))
        for name, shape in param_shapes(config).items()
    }
    return CatBertModel(config, params)


def _linear(x: Tensor, w: Parameter, b: Parameter, act: str | None = None) -> Tensor:
    """A dense layer as one op: ``act(x @ w + b)``."""
    return T.matmul(x, w, bias=b, act=act)


class _Packing:
    """Where the real tokens of a batch sit. Its (B, L) attention grid ends at
    the last column any row attends to, whatever width the mask has. Every
    row-wise layer runs on the (N, d) array of the N attended positions, in
    row-major order; attention scatters them into the zero-filled grid
    under the additive mask and gathers its output back. When every grid
    position is attended (``full``), the packed array already is the grid
    and neither step copies."""

    def __init__(self, mask: np.ndarray, dtype):
        attend = mask.astype(bool)
        no_cls = np.flatnonzero(~attend[:, 0])
        if no_cls.size:
            raise ValueError(f"mask row {int(no_cls[0])} does not attend to column 0, "
                             "where its [CLS] token must be")
        cols = np.flatnonzero(attend.any(axis=0))  # empty only when B == 0
        self.B, self.L = mask.shape[0], int(cols[-1]) + 1 if cols.size else 1
        attend = attend[:, :self.L]
        self.rows = np.flatnonzero(attend)  # index into the flattened (B*L) grid
        self.coords = np.divmod(self.rows, self.L)  # (row, position) of each attended token
        self.full = self.rows.size == self.B * self.L
        lengths = attend.sum(axis=1)
        self.cls = np.cumsum(lengths) - lengths  # packed index of each row's [CLS]
        self.add_mask = np.where(attend, 0.0, MASK_OFF).astype(dtype).reshape(self.B, 1, 1, self.L)

    def pad(self, x: Tensor) -> Tensor:
        """Packed rows (N, w) as a (B*L, w) grid, zeros at masked positions."""
        return x if self.full else T.scatter_rows(x, self.rows, self.B * self.L)

    def unpad(self, x: Tensor) -> Tensor:
        """The attended rows (N, ...) of a (B, L, ...) grid, gathered in one
        copy even from a transposed view; when ``full``, the grid itself,
        whose rows already are the packed rows."""
        return x if self.full else T.take_rows(x, self.coords)


def _attention(x: Tensor, p: dict, prefix: str, heads: int, pack: _Packing) -> Tensor:
    """Self-attention of the packed rows ``x`` (N, d). Q, K and V meet in
    the padded (B, L) grid, where masked keys get zero weight, and each
    real row's mixed output is gathered back before the O projection."""
    B, L = pack.B, pack.L
    d = x.data.shape[-1]
    dh = d // heads

    def project(n: str) -> Tensor:  # (B, heads, L, dh)
        t = pack.pad(_linear(x, p[f"{prefix}.attn.{n}.w"], p[f"{prefix}.attn.{n}.b"]))
        return T.transpose(T.reshape(t, (B, L, heads, dh)), (0, 2, 1, 3))

    q, k, v = project("q"), project("k"), project("v")
    # the (B, h, L, L) scores live only inside softmax_rows, which writes a new buffer
    weights = T.softmax_rows(T.matmul(q, T.transpose(k, (0, 1, 3, 2))),
                             scale=1.0 / math.sqrt(dh), mask=pack.add_mask)
    mixed = pack.unpad(T.transpose(T.matmul(weights, v), (0, 2, 1, 3)))  # (N, heads, dh)
    mixed = T.reshape(mixed, (-1, d))
    return _linear(mixed, p[f"{prefix}.attn.o.w"], p[f"{prefix}.attn.o.b"])


def _cls_attention(xq: Tensor, x: Tensor, p: dict, prefix: str, heads: int,
                   pack: _Packing) -> Tensor:
    """Attention of the B [CLS] rows ``xq`` (B, d) over the packed rows
    ``x`` (N, d), with no key or value projection of ``x``. Per head, with
    row-vector weights ``k_j = x_j W_k + b_k`` and ``v_j = x_j W_v + b_v``:

        q·k_j = x_j·(W_k q) + q·b_k
        Σ_j w_j v_j = (Σ_j w_j x_j) W_v + b_v      (the weights sum to 1)

    so the scores need ``u = W_k q`` (B·d² work) and the output one
    weighted sum of ``x`` per head, against 2·N·d² for projecting every
    key and value. The ``q·b_k`` shift leaves the softmax unchanged but
    is kept, so ``attn.k.b`` gets its (zero up to rounding) gradient as in
    the full layer. The scores and the weighted sums are one GEMM per
    batch row over (B, heads, ·) operands; folding ``W_k`` into the queries
    and applying ``W_v`` are one GEMM per head over the batch."""
    B, L = pack.B, pack.L
    d = x.data.shape[-1]
    dh = d // heads
    q = _linear(xq, p[f"{prefix}.attn.q.w"], p[f"{prefix}.attn.q.b"])
    q = T.transpose(T.reshape(T.mul(q, 1.0 / math.sqrt(dh)), (B, heads, dh)), (1, 0, 2))  # (h, B, dh)
    wk = T.transpose(T.reshape(p[f"{prefix}.attn.k.w"], (d, heads, dh)), (1, 2, 0))  # (h, dh, d)
    u = T.matmul(q, wk)  # (h, B, d)
    shift = T.matmul(q, T.reshape(p[f"{prefix}.attn.k.b"], (heads, dh, 1)))  # (h, B, 1)
    grid = T.reshape(pack.pad(x), (B, L, d))
    scores = T.matmul(T.transpose(u, (1, 0, 2)), T.transpose(grid, (0, 2, 1)))  # (B, h, L)
    weights = T.softmax_rows(T.add(scores, T.transpose(shift, (1, 0, 2))), mask=pack.add_mask[:, 0])
    z = T.matmul(weights, grid)  # (B, h, d): Σ_j w_j x_j per head
    wv = T.transpose(T.reshape(p[f"{prefix}.attn.v.w"], (d, heads, dh)), (1, 0, 2))  # (h, d, dh)
    mixed = T.matmul(T.transpose(z, (1, 0, 2)), wv)  # (h, B, dh)
    mixed = T.add(T.reshape(T.transpose(mixed, (1, 0, 2)), (B, d)), p[f"{prefix}.attn.v.b"])
    return _linear(mixed, p[f"{prefix}.attn.o.w"], p[f"{prefix}.attn.o.b"])


def _transformer_block(x: Tensor, p: dict, prefix: str, heads: int,
                       pack: _Packing, cls_only: bool) -> Tensor:
    """Transformer output on the packed rows ``x`` (N, d), or with
    ``cls_only`` on the B [CLS] rows alone (B, d), which still attend over
    every row of ``x``. Every sublayer but attention is row-wise, so the
    [CLS] rows come out exactly as in the full output."""
    if cls_only:
        xq = T.take_rows(x, pack.cls)
        attn = _cls_attention(xq, x, p, prefix, heads, pack)
    else:
        xq = x
        attn = _attention(x, p, prefix, heads, pack)
    # post-norm residual wiring: LayerNorm(x + sublayer(x)). Without a tape,
    # each sublayer's output is freed once read, before the next allocates.
    x = T.layer_norm(T.add(xq, attn), p[f"{prefix}.attn.ln.gain"], p[f"{prefix}.attn.ln.bias"])
    del xq, attn
    h = _linear(x, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"], act="gelu")  # (N, ffn_dim)
    ffn = _linear(h, p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"])
    del h
    return T.layer_norm(T.add(x, ffn), p[f"{prefix}.ffn.ln.gain"], p[f"{prefix}.ffn.ln.bias"])


def _adapter_block(x: Tensor, p: dict, prefix: str) -> Tensor:
    h = _linear(x, p[f"{prefix}.dense1.w"], p[f"{prefix}.dense1.b"], act="relu")
    return T.add(x, _linear(h, p[f"{prefix}.dense2.w"], p[f"{prefix}.dense2.b"]))


def forward_probs(model: CatBertModel, ids: np.ndarray, mask: np.ndarray,
                  ctx: np.ndarray | None, return_hidden: bool = False):
    """Batched forward pass. ``ids``/``mask`` are (B, W) arrays, ``ctx`` is
    (B, context_dim) and ignored (may be None) when context_dim is 0.
    Returns a (B,) Tensor of probabilities; with ``return_hidden`` also the
    per-block hidden states.

    Every mask row must attend to column 0, its [CLS] token (ValueError
    otherwise). Only the N attended positions are computed: the embeddings,
    layer norms, dense layers, GELU and adapters run on an (N, d) array,
    and each transformer pads just for attention, on a (B, L) grid that
    ends at the last column any row attends to (``_Packing``); it is L, not
    W, that may not exceed ``max_positions``. Ids at masked positions are
    never read. The answer matches a forward over every (B, W) position up
    to float summation order, since masked keys get zero attention weight.

    The classifier reads only the [CLS] row, so the last transformer
    queries the [CLS] rows alone, attending over every real row, and every
    block after it runs on those rows. Its keys and values are never
    formed: the scores are the rows dotted with the query folded through
    the key weights, and the output is the weighted sum of the rows taken
    through the value weights (``_cls_attention``), so the layer costs
    O(B·d² + N·d·heads) rather than O(N·d²). The hidden states are
    therefore (B, L, d) before the last transformer, zero at masked
    positions, and (B, 1, d) from it on; ``hiddens[-1][:, 0]`` is the state
    the classifier reads.

    Each dense layer is one ``matmul`` that adds its bias and applies its
    ReLU or GELU, and attention's scale and mask go into ``softmax_rows``,
    with the float operations of the unfused ops, so probabilities and
    gradients are bit-identical to theirs. Ops record onto the active tape,
    so this same path serves training. Without a tape each op writes over
    the buffer it allocated and a sublayer's output is freed once read, so
    the forward holds each activation once: the peak is one (N, ffn_dim)
    FFN buffer, or the (B, heads, L, L) scores and their softmax.
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"ids must be (B, W), got shape {ids.shape}")
    mask = np.asarray(mask)
    if mask.shape != ids.shape:
        raise ValueError(f"mask shape {mask.shape} does not match ids {ids.shape}")
    dtype = p["embeddings.token"].data.dtype
    pack = _Packing(mask, dtype)
    B, L = pack.B, pack.L
    if L > cfg.max_positions:
        raise ValueError(f"sequence length {L} exceeds max positions {cfg.max_positions}")

    h = T.layer_norm(T.add(T.embedding_lookup(p["embeddings.token"], ids[pack.coords]),
                           T.embedding_lookup(p["embeddings.position"], pack.coords[1])),
                     p["embeddings.ln.gain"], p["embeddings.ln.bias"])

    last_t = max((i for i, k in enumerate(cfg.block_plan) if k == TRANSFORMER), default=-1)
    hiddens = []
    for i, kind in enumerate(cfg.block_plan):
        prefix = f"blocks.{i}"
        if kind == TRANSFORMER:
            h = _transformer_block(h, p, prefix, cfg.heads, pack, cls_only=i == last_t)
        else:
            h = _adapter_block(h, p, prefix)
        if return_hidden:
            if 0 <= last_t <= i:  # h holds the [CLS] rows alone
                hiddens.append(T.reshape(h, (B, 1, cfg.hidden)))
            else:
                hiddens.append(T.reshape(pack.pad(h), (B, L, cfg.hidden)))

    cls = h if last_t >= 0 else T.take_rows(h, pack.cls)
    if cfg.context_dim:
        if ctx is None:
            raise ValueError("model takes context features but ctx is None")
        ctx = np.asarray(ctx, dtype=dtype)
        if ctx.shape != (B, cfg.context_dim):
            raise ValueError(f"ctx shape {ctx.shape} != {(B, cfg.context_dim)}")
        cls = T.concat([cls, Tensor._wrap(ctx)], axis=1)
    fused = _linear(cls, p["classifier.fusion.w"], p["classifier.fusion.b"], act="relu")
    logit = _linear(fused, p["classifier.out.w"], p["classifier.out.b"])
    probs = T.sigmoid(T.reshape(logit, (B,)))
    if return_hidden:
        return probs, hiddens
    return probs


PARTIAL_FINETUNE = "partial-finetune"


def freeze_preset(config: ModelConfig) -> list[str]:
    """The ``partial-finetune`` freeze mask: the embeddings and every
    transformer except the last one, leaving adapters, the top transformer,
    and the classifier trainable."""
    t_positions = [i for i, b in enumerate(config.block_plan) if b == TRANSFORMER]
    return ["embeddings"] + [f"blocks.{i}" for i in t_positions[:-1]]


def set_trainable(model: CatBertModel, freeze_prefixes: list[str]) -> None:
    """Mark parameters under any of the prefixes non-trainable; everything
    else becomes trainable. An empty list unfreezes the whole model."""
    known = sorted({name.split(".")[0] for name in model.params} |
                   {".".join(name.split(".")[:2]) for name in model.params
                    if name.startswith("blocks.")})
    for prefix in freeze_prefixes:
        hit = any(n == prefix or n.startswith(prefix + ".") for n in model.params)
        if not hit:
            raise ValueError(f"freeze prefix {prefix!r} matches nothing; known: {known}")
    for name, p in model.params.items():
        p.trainable = not any(name == pre or name.startswith(pre + ".")
                              for pre in freeze_prefixes)


def check_keep(donor: ModelConfig, keep: list[int] | None) -> list[int]:
    """The donor blocks surgery keeps: ``keep``, or every other block from 0
    when None. ValueError unless each index names a donor transformer."""
    n_donor = len(donor.block_plan)
    if keep is None:
        keep = list(range(0, n_donor, 2))
    for j in keep:
        if not (0 <= j < n_donor):
            raise ValueError(f"keep index {j} out of range for {n_donor}-block donor")
        if donor.block_plan[j] != TRANSFORMER:
            raise ValueError(f"donor block {j} is not a transformer")
    if not keep:
        raise ValueError("keep must name at least one donor block")
    return keep


def surgery_from_donor(donor: CatBertModel, keep: list[int] | None = None,
                       context_dim: int = CONTEXT_DIM, seed: int = 0) -> CatBertModel:
    """Compress a donor into a transformer+adapter model.

    The donor's embeddings and the transformer blocks at ``keep`` indices are
    copied bit-exactly; each kept transformer is followed by a freshly
    initialized adapter, and the classifier is fresh. Default ``keep`` takes
    every other donor block starting at 0 (for a 6-block donor: 0, 2, 4).
    Provenance of every tensor (copied vs fresh) is recorded.
    """
    dcfg = donor.config
    keep = check_keep(dcfg, keep)
    cfg = replace(dcfg, block_plan=(TRANSFORMER, ADAPTER) * len(keep),
                  context_dim=context_dim, seed=seed)
    fresh = init_random(cfg, seed)
    params: dict[str, Parameter] = {}
    provenance: dict[str, str] = {}
    for name, shape in param_shapes(cfg).items():
        src = None
        if name.startswith("embeddings."):
            src = name
        elif name.startswith("blocks."):
            pos = int(name.split(".")[1])
            if pos % 2 == 0:  # transformer slots
                donor_name = name.replace(f"blocks.{pos}.", f"blocks.{keep[pos // 2]}.", 1)
                src = donor_name
        if src is not None:
            dsrc = donor.params[src].data
            if dsrc.shape != shape:
                raise ValueError(f"donor tensor {src} has shape {dsrc.shape}, need {shape}")
            params[name] = Parameter._adopt(name, dsrc.copy())
            provenance[name] = f"copied:{src}"
        else:
            params[name] = fresh.params[name]
            provenance[name] = "fresh"
    return CatBertModel(cfg, params, provenance)
